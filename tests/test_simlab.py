"""Study runner mechanics: seeding, aggregation, failure census, sweeps.

Statistical performance at the published scales lives in the acceptance
suite; these tests pin the plumbing (determinism across worker counts,
the bias/rmse/coverage arithmetic, serialization, and error paths).
"""

import csv
import json

import numpy as np
import pytest

from bipexp import simlab
from bipexp.design import AssignmentDesign, draw_assignments, linear_exposure
from bipexp.errors import ConfigError, DataError
from bipexp.estimators import Dataset, ht_estimate
from bipexp.gps import ATOM_TOL, exact_gps_table
from bipexp.graph import BipartiteGraph, GraphSpec, synth_graph
from bipexp.seeding import substream
from bipexp.numerics import ols
from bipexp.simlab import (
    ENDPOINT_GRID,
    ESTIMATOR_REGISTRY,
    SEED_SCHEME,
    DgpSpec,
    StudyEstimator,
    default_gps_table,
    edges_cut_sweep,
    effect_slopes,
    generate_outcomes,
    resolve_estimators,
    run_study,
    simple_example,
    true_ate,
)

SMALL_GRAPH_SPEC = GraphSpec(
    kind="uniform-degree", n_outcome=80, m_diversion=20, deg_min=1, deg_max=4
)
SMALL_GRAPH = synth_graph(SMALL_GRAPH_SPEC, substream(0, 0))


def small_dgp(**kwargs) -> DgpSpec:
    base = dict(
        graph=SMALL_GRAPH,
        design=AssignmentDesign.bernoulli(0.5),
        effect="homogeneous",
        sigma2_eps=0.25,
        label="small",
    )
    base.update(kwargs)
    return DgpSpec(**base)


# -- DGP pieces -----------------------------------------------------------------


def test_dgp_spec_validation():
    g = synth_graph(SMALL_GRAPH_SPEC, 0)
    with pytest.raises(ConfigError, match="effect"):
        DgpSpec(graph=g, design=AssignmentDesign.bernoulli(0.5), effect="quadratic")
    with pytest.raises(ConfigError, match="nonnegative"):
        DgpSpec(graph=g, design=AssignmentDesign.bernoulli(0.5), sigma2_eps=-1.0)
    with pytest.raises(ConfigError, match="unknown effect form 'custom'"):
        DgpSpec(graph=g, design=AssignmentDesign.bernoulli(0.5), effect="custom")
    with pytest.raises(ConfigError, match="not GraphSpec; realize a GraphSpec with synth_graph"):
        DgpSpec(graph=SMALL_GRAPH_SPEC, design=AssignmentDesign.bernoulli(0.5))


@pytest.mark.parametrize("noise", ["sigma2_eps", "sigma2_gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_noise_variances_are_refused_before_any_graph(monkeypatch, noise, value):
    # NaN compares false both ways: a `< 0` check passes it, and `> 0` then draws no noise
    message = "noise variances must be nonnegative and finite"
    g = synth_graph(SMALL_GRAPH_SPEC, 0)
    with pytest.raises(ConfigError, match=message):
        DgpSpec(graph=g, design=AssignmentDesign.bernoulli(0.5), **{noise: value})

    def refuse(*args, **kwargs):
        raise AssertionError("a graph or a table was built")

    monkeypatch.setattr(simlab, "synth_graph", refuse)
    monkeypatch.setattr(simlab, "default_gps_table", refuse)
    dgp = small_dgp()
    object.__setattr__(dgp, noise, value)  # past the constructor's check
    with pytest.raises(ConfigError, match=message):
        run_study(dgp, ["naive-ols"], n_sims=2)
    blocks = GraphSpec(kind="blocks", n_outcome=60, m_diversion=30, n_blocks=6)
    with pytest.raises(ConfigError, match=message):
        edges_cut_sweep(blocks, [0.0], design=AssignmentDesign.bernoulli(0.5), n_sims=2,
                        **{noise: value})


def test_effect_slopes_forms():
    graph = synth_graph(SMALL_GRAPH_SPEC, 0)
    degrees = graph.degrees.astype(np.float64)
    hom = small_dgp()
    np.testing.assert_allclose(effect_slopes(hom, graph), degrees.mean())
    het = small_dgp(effect="heterogeneous")
    np.testing.assert_array_equal(effect_slopes(het, graph), degrees)
    assert true_ate(het, graph) == pytest.approx(degrees.mean())


def test_generate_outcomes_noise_free_and_stream_order():
    graph = synth_graph(SMALL_GRAPH_SPEC, 0)
    design = AssignmentDesign.bernoulli(0.5)
    z = draw_assignments(design, graph.m_diversion, 1, substream(1, 5))[:, 0]
    e = linear_exposure(graph, z)

    clean = small_dgp(sigma2_eps=0.0)
    got = generate_outcomes(clean, graph, e, substream(2, 5))
    np.testing.assert_allclose(got, effect_slopes(clean, graph) * e, atol=1e-15)

    noisy = small_dgp(sigma2_eps=0.3, sigma2_gamma=0.7)
    got = generate_outcomes(noisy, graph, e, substream(3, 5))
    rng = substream(3, 5)
    gamma = rng.normal(0.0, np.sqrt(0.7), size=graph.m_diversion)
    eps = rng.normal(0.0, np.sqrt(0.3), size=graph.n_outcome)
    want = effect_slopes(noisy, graph) * e + graph.to_csr() @ gamma + eps
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_resolve_estimators():
    resolved = resolve_estimators(["naive-ols", "ht"])
    assert [e.name for e in resolved] == ["naive-ols", "ht"]
    custom = StudyEstimator("mine", lambda d: 0.0)
    assert resolve_estimators([custom]) == [custom]
    with pytest.raises(ConfigError, match="unknown estimator 'nope'"):
        resolve_estimators(["nope"])
    with pytest.raises(ConfigError, match="unknown estimator {'naive-ols': 1}"):
        resolve_estimators([{"naive-ols": 1}])
    assert set(ESTIMATOR_REGISTRY) == {
        "naive-mean", "naive-ols", "correct-spec", "ht",
        "gps-cell", "gps-poly", "gps-krr", "stratified",
    }


# -- run_study -------------------------------------------------------------------


def test_linear_designs_reproduce_point_estimates_except_ht():
    # paper scale: 1000 outcome units, 100 diversion units, degrees 1-10
    spec = GraphSpec(kind="uniform-degree", n_outcome=1000, m_diversion=100, deg_min=1, deg_max=10)
    graph = synth_graph(spec, substream(41, 0))
    design = AssignmentDesign.bernoulli(0.5)
    rng = substream(41, 1)
    exposure = linear_exposure(graph, draw_assignments(design, graph.m_diversion, 1, rng)[:, 0])
    dgp = DgpSpec(graph=graph, design=design, effect="heterogeneous", sigma2_eps=0.5, sigma2_gamma=0.5)
    y = generate_outcomes(dgp, graph, exposure, rng)
    data = Dataset.build(graph, default_gps_table(graph, design), y, exposure)
    for name in ("naive-ols", "correct-spec", "gps-poly"):
        est = ESTIMATOR_REGISTRY[name]
        phi, target, contrast = est.design(data)
        assert contrast @ ols(phi, target).coef == pytest.approx(est.point(data), rel=1e-12)
    # ht's design is the ratio (Hajek) form: a level's coefficient divides the
    # inverse-weighted outcome sum by the inverse-weight sum, the point
    # estimate divides it by n
    est = ESTIMATOR_REGISTRY["ht"]
    phi, target, contrast = est.design(data)
    coef = ols(phi, target).coef
    for r, e in enumerate(ENDPOINT_GRID):
        at_e = np.abs(data.exposure - e) <= ATOM_TOL
        weight_sum = np.sum(1.0 / data.gps.imputed_scores(e)[at_e])
        assert coef[r] * weight_sum / data.n_units == pytest.approx(ht_estimate(data, e), rel=1e-12)
    assert abs(contrast @ coef - est.point(data)) > 0.1


def test_correct_spec_point_scales_by_the_full_data_mean_degree():
    # every fifth outcome unit is isolated, so `Dataset.build` drops it; the
    # slope is scaled by the mean degree of the units kept, on the full data
    # and on a resample alike, since every resample shares the graph
    base = synth_graph(SMALL_GRAPH_SPEC, 0)
    rows = []
    for i in range(base.n_outcome):
        if i % 5 == 0:
            rows.append([])
        lo, hi = base.indptr[i], base.indptr[i + 1]
        rows.append(list(zip(base.indices[lo:hi].tolist(), base.weights[lo:hi].tolist())))
    graph = BipartiteGraph.from_rows(rows, m_diversion=base.m_diversion)
    design = AssignmentDesign.bernoulli(0.5)
    rng = substream(43, 1)
    exposure = linear_exposure(graph, draw_assignments(design, graph.m_diversion, 1, rng)[:, 0])
    dgp = DgpSpec(graph=graph, design=design, effect="heterogeneous", sigma2_eps=0.5)
    y = generate_outcomes(dgp, graph, exposure, rng)
    with pytest.warns(UserWarning, match="excluded 16 isolated"):
        full = Dataset.build(graph, exact_gps_table(graph, design), y, exposure)
    m_bar = float(full.degrees.mean())
    point = ESTIMATOR_REGISTRY["correct-spec"].point

    def frozen(data):
        s = data.degrees.astype(np.float64)
        phi = np.column_stack([np.ones(data.n_units), s * data.exposure])
        return m_bar * float(ols(phi, data.y).coef[1])

    resample = full.take(substream(43, 2).integers(0, full.n_units, full.n_units))
    assert resample.degrees.mean() != m_bar
    for data in (full, resample):
        assert point(data) == frozen(data)


def test_run_study_bias_rmse_identity_and_truth():
    dgp = small_dgp()
    res = run_study(dgp, ["naive-ols"], n_sims=12, master_seed=4)
    want_truth = true_ate(dgp, SMALL_GRAPH)
    np.testing.assert_allclose(res.truth, want_truth, atol=1e-12)
    est = "naive-ols"
    # with a constant truth, rmse^2 = bias^2 + std^2 exactly
    std = np.nanstd(res.estimates[est])
    assert res.rmse(est) ** 2 == pytest.approx(res.bias(est) ** 2 + std ** 2)
    assert res.n_sims == res.n_requested == 12
    assert res.seed_scheme == SEED_SCHEME


def test_run_study_deterministic_and_seed_sensitive():
    a = run_study(small_dgp(), ["naive-ols"], n_sims=8, master_seed=7)
    b = run_study(small_dgp(), ["naive-ols"], n_sims=8, master_seed=7)
    np.testing.assert_array_equal(a.estimates["naive-ols"], b.estimates["naive-ols"])
    c = run_study(small_dgp(), ["naive-ols"], n_sims=8, master_seed=8)
    assert not np.array_equal(a.estimates["naive-ols"], c.estimates["naive-ols"])


def test_run_study_parallel_matches_serial():
    intervals = {"naive-ols": ("naive-bootstrap",)}
    serial = run_study(
        small_dgp(), ["naive-ols"], intervals, n_sims=6, b_replicates=50, master_seed=11
    )
    parallel = run_study(
        small_dgp(), ["naive-ols"], intervals, n_sims=6, b_replicates=50, master_seed=11, workers=2
    )
    np.testing.assert_array_equal(
        serial.estimates["naive-ols"], parallel.estimates["naive-ols"]
    )
    key = ("naive-ols", "naive-bootstrap")
    np.testing.assert_array_equal(serial.covered[key], parallel.covered[key])


def test_run_study_coverage_and_summary_rows(tmp_path):
    intervals = {"naive-ols": ("naive-bootstrap", "ols-asymptotic")}
    res = run_study(
        small_dgp(), ["naive-ols", "naive-mean"], intervals,
        n_sims=10, b_replicates=50, master_seed=13,
    )
    cov = res.coverage("naive-ols", "naive-bootstrap")
    assert 0.0 <= cov <= 1.0
    flags = res.covered[("naive-ols", "naive-bootstrap")]
    assert set(np.unique(flags[np.isfinite(flags)])) <= {0.0, 1.0}

    rows = res.summary()
    # one point row per estimator plus one row per interval pairing
    assert [r["estimator"] for r in rows[:2]] == ["naive-ols", "naive-mean"]
    assert {(r["estimator"], r["interval_method"]) for r in rows[2:]} == {
        ("naive-ols", "naive-bootstrap"),
        ("naive-ols", "ols-asymptotic"),
    }

    csv_path = tmp_path / "study.csv"
    res.write_csv(csv_path)
    with open(csv_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert float(parsed[0]["bias"]) == pytest.approx(res.bias("naive-ols"))

    json_path = tmp_path / "study.json"
    res.write_json(json_path)
    blob = json.loads(json_path.read_text())
    assert blob["master_seed"] == 13
    assert blob["seed_scheme"] == SEED_SCHEME
    assert len(blob["estimates"]["naive-ols"]) == 10


def test_run_study_validation():
    with pytest.raises(ConfigError, match="n_sims"):
        run_study(small_dgp(), ["naive-ols"], n_sims=0)
    with pytest.raises(ConfigError, match="unknown estimator"):
        run_study(small_dgp(), ["nope"], n_sims=2)
    with pytest.raises(ConfigError, match="names unknown estimator"):
        run_study(small_dgp(), ["naive-ols"], {"ht": ("naive-bootstrap",)}, n_sims=2)
    with pytest.raises(ConfigError, match="unknown interval method"):
        run_study(small_dgp(), ["naive-ols"], {"naive-ols": ("jackknife",)}, n_sims=2)
    # names that are not strings are refused, not looked up (a dict or a
    # list is unhashable)
    with pytest.raises(ConfigError, match="unknown estimator"):
        run_study(small_dgp(), [{"naive-ols": 1}], n_sims=2)
    with pytest.raises(ConfigError, match="unknown interval method"):
        run_study(small_dgp(), ["naive-ols"], {"naive-ols": (["naive-bootstrap"],)}, n_sims=2)
    # a map value that is not a list of methods is refused as a whole, not
    # read letter by letter or iterated
    for value, kind in (("naive-bootstrap", "str"), (5, "int")):
        with pytest.raises(ConfigError, match=(
            f"the interval methods of estimator 'naive-ols' must be a list or tuple of "
            f"method names, not {kind}"
        )):
            run_study(small_dgp(), ["naive-ols"], {"naive-ols": value}, n_sims=2)
    for name, method in (("gps-cell", "parametric-bootstrap"), ("gps-krr", "ols-asymptotic")):
        calls = []
        with pytest.raises(ConfigError, match="no linear design"):
            run_study(
                small_dgp(), [name], {name: (method,)},
                n_sims=1, b_replicates=50, progress=lambda *a: calls.append(a),
            )
        assert calls == []  # raised before the first replicate


@pytest.mark.parametrize(
    "b_replicates, level, message",
    [
        (10, 0.95, "b_replicates must be at least 50 for bootstrap intervals, got 10"),
        (200, 1.5, r"level must be in \(0, 1\), got 1.5"),
    ],
)
def test_interval_settings_are_refused_before_any_graph_or_table(
    monkeypatch, b_replicates, level, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph or a table was built")

    monkeypatch.setattr(simlab, "synth_graph", refuse)
    monkeypatch.setattr(simlab, "default_gps_table", refuse)
    with pytest.raises(ConfigError, match=message):
        run_study(small_dgp(), ["naive-ols"], {"naive-ols": ("naive-bootstrap",)}, n_sims=2,
                  b_replicates=b_replicates, level=level)
    blocks = GraphSpec(kind="blocks", n_outcome=60, m_diversion=30, n_blocks=6)
    with pytest.raises(ConfigError, match=message):
        edges_cut_sweep(blocks, [0.0], design=AssignmentDesign.bernoulli(0.5), n_sims=2,
                        b_replicates=b_replicates, level=level)


def test_replicate_floor_applies_only_to_resampling_methods():
    ests = resolve_estimators(["naive-ols"])
    simlab.check_intervals(ests, {"naive-ols": ("ols-asymptotic",)}, 10, 0.95)
    for method in ("naive-bootstrap", "block-bootstrap", "parametric-bootstrap"):
        with pytest.raises(ConfigError, match="at least 50 for bootstrap intervals, got 49"):
            simlab.check_intervals(ests, {"naive-ols": (method,)}, 49, 0.95)
        simlab.check_intervals(ests, {"naive-ols": (method,)}, 50, 0.95)


def test_only_resampled_estimators_run_on_counts(monkeypatch):
    registry = ESTIMATOR_REGISTRY.values()
    # the linear points pass their design, gps-krr a count statistic
    assert {e.name for e in registry if e.resampled is not None} == {
        "naive-ols", "correct-spec", "gps-krr"}
    assert {e.name for e in registry if e.design and e.resampled is e.design} == {
        "naive-ols", "correct-spec"}

    takes = []
    real_take = Dataset.take

    def counted_take(self, indices):
        takes.append(1)
        return real_take(self, indices)

    monkeypatch.setattr(Dataset, "take", counted_take)
    resampling = ("naive-bootstrap", "block-bootstrap")
    blocks = np.arange(SMALL_GRAPH.n_outcome) % 8
    counted = ["naive-ols", "correct-spec", "gps-krr"]
    res = run_study(small_dgp(), counted, {name: resampling for name in counted},
                    n_sims=2, b_replicates=50, block_labels=blocks)
    assert takes == []
    # the counted bootstraps ran, rather than failing before any resample
    assert all(np.isfinite(v).all() for v in res.covered.values()) and len(res.covered) == 6
    run_study(small_dgp(), ["gps-poly"], {"gps-poly": resampling}, n_sims=1,
              b_replicates=50, block_labels=blocks)
    assert len(takes) == 100


def test_run_study_counts_point_failures():
    calls = {"n": 0}

    def flaky(data: Dataset) -> float:
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise DataError("every third replicate declines")
        return float(data.y.mean())

    res = run_study(small_dgp(), [StudyEstimator("flaky", flaky)], n_sims=9, master_seed=17)
    assert res.point_failures["flaky"] == 3
    assert int(np.isnan(res.estimates["flaky"]).sum()) == 3
    assert np.isfinite(res.bias("flaky"))  # aggregation skips the failures


def test_kernel_fit_over_budget_is_a_point_and_interval_failure(monkeypatch):
    from bipexp import numerics

    monkeypatch.setattr(numerics, "KRR_MAX_POINTS", 2)
    res = run_study(small_dgp(), ["naive-ols", "gps-krr"], {"gps-krr": ("naive-bootstrap",)},
                    n_sims=3, b_replicates=50)
    assert res.point_failures == {"gps-krr": 3}
    assert res.interval_failures == {("gps-krr", "naive-bootstrap"): 3}
    assert np.isnan(res.estimates["gps-krr"]).all() and np.isfinite(res.estimates["naive-ols"]).all()


def test_run_study_keyboard_interrupt_truncates():
    def impatient(done, total):
        if done == 3:
            raise KeyboardInterrupt

    res = run_study(small_dgp(), ["naive-ols"], n_sims=8, master_seed=19, progress=impatient)
    assert res.n_sims == 3
    assert res.n_requested == 8
    assert res.estimates["naive-ols"].shape == (3,)


def test_run_study_accepts_prebuilt_gps_table():
    graph = synth_graph(SMALL_GRAPH_SPEC, substream(29, 0))
    dgp = small_dgp(graph=graph)
    table = default_gps_table(graph, dgp.design)
    a = run_study(dgp, ["naive-ols"], n_sims=4, master_seed=29, gps=table)
    b = run_study(dgp, ["naive-ols"], n_sims=4, master_seed=29)
    np.testing.assert_array_equal(a.estimates["naive-ols"], b.estimates["naive-ols"])


# -- gps table selection -----------------------------------------------------------


def test_default_gps_table_switches_modes():
    graph = synth_graph(SMALL_GRAPH_SPEC, 0)
    exact = default_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    assert exact.mode == "exact"
    cr_design = AssignmentDesign.completely_randomized(5)
    cr = default_gps_table(graph, cr_design, rng=substream(31, 2), mc_draws=500)
    assert cr.mode == "exact"
    want = exact_gps_table(graph, cr_design)
    for name in ("offsets", "support", "probs", "unit_dist"):
        assert getattr(cr, name).tobytes() == getattr(want, name).tobytes(), name
    heavy = BipartiteGraph.from_rows([[(j, 1.0 / 25) for j in range(25)]], m_diversion=25)
    for heavy_design in (AssignmentDesign.bernoulli(0.5), AssignmentDesign.completely_randomized(10)):
        mc = default_gps_table(heavy, heavy_design, rng=substream(31, 2), mc_draws=500)
        assert mc.mode == "monte-carlo"


# -- worked example ----------------------------------------------------------------


def test_simple_example_structure():
    ex = simple_example(n_single=3, n_double=2, p=0.4)
    assert ex.graph.n_outcome == 5
    assert ex.graph.m_diversion == 3 + 4
    np.testing.assert_array_equal(ex.graph.degrees, [1, 1, 1, 2, 2])
    assert ex.design.p == pytest.approx(0.4)
    assert ex.true_ate == 0.5
    np.testing.assert_array_equal(ex.double_mask, [False, False, False, True, True])
    e = np.array([1.0, 0.0, 1.0, 0.5, 1.0])
    np.testing.assert_array_equal(ex.outcomes(e), [0.0, 0.0, 0.0, 0.5, 1.0])
    with pytest.raises(ConfigError, match="at least one"):
        simple_example(n_single=0)


# -- edges-cut sweep ----------------------------------------------------------------


def test_edges_cut_sweep_rows():
    base = GraphSpec(
        kind="blocks", n_outcome=60, m_diversion=30, deg_min=1, deg_max=3,
        n_blocks=6, cross_share=0.0,
    )
    rows = edges_cut_sweep(
        base, [0.0, 0.3], design=AssignmentDesign.bernoulli(0.5),
        n_sims=4, b_replicates=50, master_seed=37,
    )
    assert len(rows) == 4  # two shares x two interval methods
    assert [r["cut_share"] for r in rows] == [0.0, 0.0, 0.3, 0.3]
    assert {r["interval_method"] for r in rows} == {"naive-bootstrap", "block-bootstrap"}
    for r in rows:
        assert 0.0 <= r["coverage"] <= 1.0
        assert r["n_sims"] == 4


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_is_refused_before_any_graph(monkeypatch, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(simlab, "synth_graph", refuse)
    with pytest.raises(ConfigError, match=f"workers must be at least 1, got {workers}"):
        run_study(small_dgp(), ["naive-ols"], n_sims=2, workers=workers)
    blocks = GraphSpec(kind="blocks", n_outcome=60, m_diversion=30, n_blocks=6)
    with pytest.raises(ConfigError, match=f"workers must be at least 1, got {workers}"):
        edges_cut_sweep(
            blocks, [0.0], design=AssignmentDesign.bernoulli(0.5), n_sims=2, workers=workers
        )


def test_edges_cut_sweep_requires_block_recipe():
    with pytest.raises(ConfigError, match="block graph"):
        edges_cut_sweep(
            SMALL_GRAPH_SPEC, [0.0], design=AssignmentDesign.bernoulli(0.5), n_sims=2
        )
