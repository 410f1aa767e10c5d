"""Interval construction, variance splitting, and the model-based bootstrap.

The parametric bootstrap's vectorized refit is checked against an explicit
per-replicate least-squares oracle driven by an identically seeded stream,
and the closed-form coefficient covariance against the empirical covariance
of replicated fits (the Gaussian linear model makes them equal up to Monte
Carlo error).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

from bipexp.design import AssignmentDesign, draw_assignments, linear_exposure, linear_exposure_many
from bipexp.errors import DataError, NumericalError, RankDeficiencyError
from bipexp.estimators import Dataset
from bipexp.gps import exact_gps_table
from bipexp import inference, numerics
from bipexp.graph import (
    BipartiteGraph,
    GraphSpec,
    connected_components,
    group_by_label,
    synth_graph,
)
from bipexp.inference import (
    IntervalEstimate,
    _quantile_interval,
    block_bootstrap,
    correlated_error_variance,
    estimate_sigmas,
    naive_bootstrap,
    ols_asymptotic_interval,
    parametric_bootstrap,
)
from bipexp.numerics import LinearFit, ols
from bipexp.seeding import substream
from bipexp.simlab import ESTIMATOR_REGISTRY, DgpSpec, generate_outcomes, run_study


def singles_dataset(n: int, seed: int) -> Dataset:
    """n outcome units, each wired to its own fair coin."""
    graph = BipartiteGraph.from_rows([[(j, 1.0)] for j in range(n)], m_diversion=n)
    design = AssignmentDesign.bernoulli(0.5)
    table = exact_gps_table(graph, design)
    rng = substream(seed, 4)
    z = draw_assignments(design, n, 1, rng)[:, 0]
    e = linear_exposure(graph, z.astype(np.float64))
    y = 1.0 + e + rng.normal(size=n)
    return Dataset(y=y, exposure=e, graph=graph, gps=table)


def mean_outcome(data: Dataset) -> float:
    return float(data.y.mean())


# -- interval containers -------------------------------------------------------


def test_interval_estimate_invariants():
    iv = IntervalEstimate(estimate=1.0, lower=0.5, upper=2.0, level=0.9, method="test")
    assert iv.width == pytest.approx(1.5)
    assert iv.covers(0.5) and iv.covers(2.0) and not iv.covers(2.1)
    assert iv.method == "test"
    with pytest.raises(ValueError, match="level"):
        IntervalEstimate(estimate=0.0, lower=0.0, upper=1.0, level=1.5, method="x")
    with pytest.raises(ValueError, match="order"):
        IntervalEstimate(estimate=0.0, lower=1.0, upper=0.0, level=0.5, method="x")


def test_quantile_interval_percentile():
    reps = np.arange(101.0) ** 2  # asymmetric replicate cloud
    est = 100.0
    pct = _quantile_interval(est, reps, 0.9, "m")
    lo, hi = np.quantile(reps, [0.05, 0.95])
    assert (pct.lower, pct.upper) == (pytest.approx(lo), pytest.approx(hi))
    assert pct.estimate == est and pct.method == "m"
    assert pct.n_replicates == 101


# -- resampling bootstraps -----------------------------------------------------


def test_naive_bootstrap_mean_interval():
    data = singles_dataset(200, seed=1)
    iv = naive_bootstrap(data, mean_outcome, n_replicates=400, rng=substream(2, 4))
    assert iv.method == "naive-bootstrap"
    assert iv.estimate == pytest.approx(data.y.mean())
    assert iv.covers(iv.estimate)
    assert iv.n_replicates == 400
    # mean of 200 roughly unit-variance outcomes: CI width near 2 * 1.96 / sqrt(200)
    assert 0.15 < iv.width < 0.45


def test_naive_bootstrap_deterministic():
    data = singles_dataset(80, seed=3)
    a = naive_bootstrap(data, mean_outcome, rng=substream(5, 4))
    b = naive_bootstrap(data, mean_outcome, rng=substream(5, 4))
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bootstrap_replicate_floor():
    data = singles_dataset(20, seed=8)
    with pytest.raises(ValueError, match="at least 50"):
        naive_bootstrap(data, mean_outcome, n_replicates=10)
    with pytest.raises(ValueError, match="at least 50"):
        block_bootstrap(data, mean_outcome, n_replicates=10)


def test_bootstrap_failure_census():
    data = singles_dataset(20, seed=9)

    def fragile(d: Dataset) -> float:
        src = d.source_indices if d.source_indices is not None else np.arange(d.n_units)
        if 0 not in src:
            raise DataError("lost the anchor unit")
        return float(d.y.mean())

    # a resample misses any fixed unit with probability ~ 1/e >> the 1% budget
    with pytest.raises(DataError, match="fragile"):
        naive_bootstrap(data, fragile, rng=substream(10, 4))


def test_bootstrap_propagates_unexpected_errors():
    data = singles_dataset(20, seed=11)

    def broken(d: Dataset) -> float:
        raise RuntimeError("not a data problem")

    with pytest.raises(RuntimeError):
        naive_bootstrap(data, broken, rng=substream(12, 4))


def paired_component_dataset(values) -> Dataset:
    # component k holds outcome rows (2k, 2k+1) wired to the same coin pair
    rows = []
    for k in range(len(values)):
        rows.append([(2 * k, 0.5), (2 * k + 1, 0.5)])
        rows.append([(2 * k, 0.5), (2 * k + 1, 0.5)])
    graph = BipartiteGraph.from_rows(rows, m_diversion=2 * len(values))
    design = AssignmentDesign.bernoulli(0.5)
    table = exact_gps_table(graph, design)
    y = np.repeat(np.asarray(values, dtype=np.float64), 2)
    return Dataset(y=y, exposure=np.zeros(graph.n_outcome), graph=graph, gps=table)


def test_block_bootstrap_keeps_components_whole():
    data = paired_component_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def within_pair_spread(d: Dataset) -> float:
        return float(np.abs(d.y[0::2] - d.y[1::2]).sum())

    # both members of a component share one value, so any replicate built
    # from whole components has zero spread
    iv = block_bootstrap(data, within_pair_spread, rng=substream(13, 4))
    assert iv.method == "block-bootstrap"
    assert iv.estimate == 0.0
    assert (iv.lower, iv.upper) == (0.0, 0.0)


def test_block_bootstrap_accepts_custom_labels():
    data = paired_component_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    labels = np.arange(data.n_units)  # every row its own block
    iv = block_bootstrap(data, mean_outcome, labels=labels, rng=substream(14, 4))
    assert iv.n_replicates == 200


def test_block_bootstrap_label_validation():
    data = paired_component_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="one block per outcome unit"):
        block_bootstrap(data, mean_outcome, labels=np.zeros(3))
    with pytest.raises(DataError, match="at least 5"):
        block_bootstrap(data, mean_outcome, labels=np.arange(data.n_units) % 3)
    lopsided = np.where(np.arange(data.n_units) < 8, 0, np.arange(data.n_units))
    with pytest.raises(DataError, match="half"):
        block_bootstrap(data, mean_outcome, labels=lopsided)


def old_label_blocks(labels):
    """Blocks as block_bootstrap built them before the shared grouping: one
    flatnonzero scan per distinct label."""
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


@settings(deadline=None, max_examples=100)
@given(labels=st.lists(st.integers(-3, 12), max_size=60))
def test_label_groups_are_the_old_blocks(labels):
    labels = np.asarray(labels, dtype=np.int64)
    order, bounds = group_by_label(labels)
    got = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    want = old_label_blocks(labels)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("custom", [False, True])
def test_block_bootstrap_replicates_match_the_old_blocks(custom):
    # same blocks in the same order draw the same replicates from the same stream
    graph = synth_graph(
        GraphSpec(kind="blocks", n_outcome=400, m_diversion=40, deg_min=1, deg_max=4,
                  n_blocks=8, cross_share=0.0),
        substream(7, 10),
    )
    design = AssignmentDesign.bernoulli(0.5)
    rng = substream(8, 4)
    e = linear_exposure(graph, draw_assignments(design, graph.m_diversion, 1, rng)[:, 0] * 1.0)
    data = Dataset(y=e + rng.normal(size=graph.n_outcome), exposure=e, graph=graph,
                   gps=exact_gps_table(graph, design))
    labels = (np.arange(graph.n_outcome) * 7) % 11 if custom else None
    iv = block_bootstrap(data, mean_outcome, labels=labels, rng=substream(9, 4))

    blocks = old_label_blocks(connected_components(graph)[1] if labels is None else labels)
    n = data.n_units

    def sampler(r):
        chosen, total = [], 0
        while total < n:
            b = blocks[int(r.integers(0, len(blocks)))]
            chosen.append(b)
            total += len(b)
        return np.concatenate(chosen)[:n]

    estimate, reps = inference._run_replicates(
        data, mean_outcome, sampler, 200, substream(9, 4), "block"
    )
    assert iv == _quantile_interval(estimate, reps, 0.95, "block-bootstrap")


def test_non_finite_replicates_count_as_failures():
    data = singles_dataset(20, seed=9)
    calls = []

    def nan_every_50th(d: Dataset) -> float:
        # call 0 is the full-data estimate; replicates 50, 100, 150 and 200
        # (2% of 200) are NaN, against a budget of 1%
        calls.append(1)
        return np.nan if len(calls) % 50 == 1 and len(calls) > 1 else float(d.y.mean())

    with pytest.raises(DataError, match="4/200 replicates failed"):
        naive_bootstrap(data, nan_every_50th, rng=substream(10, 4))


# -- count refits of linear points ---------------------------------------------


def capture_replicates(monkeypatch) -> list:
    """Record the replicate values every bootstrap hands to its percentile interval."""
    seen = []
    real = inference._quantile_interval

    def spy(estimate, replicates, level, method):
        seen.append(np.array(replicates))
        return real(estimate, replicates, level, method)

    monkeypatch.setattr(inference, "_quantile_interval", spy)
    return seen


def paper_scale_dataset(seed: int) -> Dataset:
    # 1000 outcome units on 10 disconnected blocks of 10 diversion units each
    graph = synth_graph(
        GraphSpec(kind="blocks", n_outcome=1000, m_diversion=100, deg_min=1, deg_max=10,
                  n_blocks=10, cross_share=0.0),
        substream(seed, 0),
    )
    design = AssignmentDesign.bernoulli(0.5)
    rng = substream(seed, 1)
    exposure = linear_exposure(graph, draw_assignments(design, graph.m_diversion, 1, rng)[:, 0])
    dgp = DgpSpec(graph=graph, design=design, effect="heterogeneous", sigma2_eps=0.5,
                  sigma2_gamma=0.5)
    y = generate_outcomes(dgp, graph, exposure, rng)
    return Dataset.build(graph, exact_gps_table(graph, design), y, exposure)


@pytest.mark.parametrize("name", ["naive-ols", "correct-spec"])
@pytest.mark.parametrize("bootstrap", [naive_bootstrap, block_bootstrap])
def test_count_refits_match_per_replicate_refits(monkeypatch, name, bootstrap):
    data = paper_scale_dataset(61)
    est = ESTIMATOR_REGISTRY[name]
    seen = capture_replicates(monkeypatch)
    refit = bootstrap(data, est.point, rng=substream(62, 4))
    counted = bootstrap(data, est.design(data), rng=substream(62, 4))
    refits, counts = seen
    assert refit.n_replicates == counted.n_replicates == refits.size == counts.size == 200
    np.testing.assert_allclose(counts, refits, rtol=1e-9, atol=0)
    assert counted.estimate == refit.estimate
    assert counted.lower == pytest.approx(refit.lower, rel=1e-9)
    assert counted.upper == pytest.approx(refit.upper, rel=1e-9)


def mixed_singles(n_on: int, n_off: int) -> Dataset:
    """Units on their own coins, n_on exposed and n_off not, so that some
    resamples see one exposure only."""
    n = n_on + n_off
    graph = BipartiteGraph.from_rows([[(j, 1.0)] for j in range(n)], m_diversion=n)
    e = np.repeat([1.0, 0.0], [n_on, n_off])
    y = 1.0 + e + substream(63, 1).normal(size=n)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    return Dataset(y=y, exposure=e, graph=graph, gps=table)


@pytest.mark.parametrize("name", ["naive-ols", "correct-spec"])
def test_count_refits_fail_where_refits_fail(name):
    data = mixed_singles(2, 6)
    est = ESTIMATOR_REGISTRY[name]
    n = data.n_units

    def sampler(r):
        return r.integers(0, n, size=n)

    estimate, counted = inference._count_refits(est.design(data), sampler, 400, substream(64, 4))
    assert estimate == est.point(data)
    rng = substream(64, 4)
    refits = np.empty(400)
    for b in range(400):
        try:
            refits[b] = est.point(data.take(sampler(rng)))
        except (DataError, NumericalError):
            refits[b] = np.nan
    failed = np.isnan(refits)
    assert 0 < failed.sum() < 400
    assert np.array_equal(np.isnan(counted), failed)
    np.testing.assert_allclose(counted[~failed], refits[~failed], rtol=1e-9)


@pytest.mark.parametrize("bootstrap", [naive_bootstrap, block_bootstrap])
def test_count_refits_keep_the_failure_census(monkeypatch, bootstrap):
    data = mixed_singles(2, 6)  # every unit is its own graph component
    est = ESTIMATOR_REGISTRY["naive-ols"]
    outcomes = []
    for statistic in (est.point, est.design(data)):
        with pytest.raises(DataError, match="replicates failed") as err:
            bootstrap(data, statistic, rng=substream(65, 4))
        outcomes.append(str(err.value))
    assert outcomes[0] == outcomes[1]

    # with the budget lifted both keep the same replicates and report how many
    monkeypatch.setattr(inference, "MAX_FAILURE_SHARE", 0.5)
    seen = capture_replicates(monkeypatch)
    refit = bootstrap(data, est.point, rng=substream(65, 4))
    counted = bootstrap(data, est.design(data), rng=substream(65, 4))
    assert 100 < counted.n_replicates == refit.n_replicates == seen[1].size < 200
    np.testing.assert_allclose(seen[1], seen[0], rtol=1e-9)


# -- count statistics ------------------------------------------------------------


def raw_replicates(monkeypatch) -> list:
    """Record every bootstrap's replicate values, failures (NaN) included, before its census."""
    seen = []
    real = inference._census

    def spy(values, method):
        seen.append(np.array(values))
        return real(values, method)

    monkeypatch.setattr(inference, "_census", spy)
    return seen


def small_dataset(seed: int, n: int, m: int, deg_max: int) -> Dataset:
    graph = synth_graph(
        GraphSpec(kind="uniform-degree", n_outcome=n, m_diversion=m, deg_min=1, deg_max=deg_max),
        substream(seed, 0),
    )
    design = AssignmentDesign.bernoulli(0.5)
    rng = substream(seed, 1)
    e = linear_exposure(graph, draw_assignments(design, m, 1, rng)[:, 0])
    return Dataset.build(graph, exact_gps_table(graph, design), 1.0 + e + rng.normal(size=n), e)


@pytest.mark.parametrize("bootstrap", [naive_bootstrap, block_bootstrap])
def test_krr_count_statistic_matches_per_resample_refits(monkeypatch, bootstrap):
    data = paper_scale_dataset(61)
    est = ESTIMATOR_REGISTRY["gps-krr"]
    statistic = est.resampled(data)
    seen = raw_replicates(monkeypatch)
    loop = bootstrap(data, est.point, rng=substream(62, 4))
    counted = bootstrap(data, statistic, rng=substream(62, 4))
    loops, counts = seen
    assert loop.n_replicates == counted.n_replicates == 200
    np.testing.assert_allclose(counts, loops, rtol=1e-9, atol=0)
    # the estimate is the point itself, the statistic at unit counts
    assert counted.estimate == loop.estimate == est.point(data)
    assert statistic.at(np.ones(data.n_units)) == loop.estimate
    assert counted.lower == pytest.approx(loop.lower, rel=1e-9)
    assert counted.upper == pytest.approx(loop.upper, rel=1e-9)


def test_krr_count_statistic_matches_on_exposures_an_ulp_apart(monkeypatch):
    # a 16-unit graph whose linear exposures include pairs an ulp apart; a
    # kernel fit that merged inputs after standardizing them would make such
    # a pair one point in a resample's refit and two in its count statistic,
    # whose center rounds differently (replicate 142: ATE 0.072 against 0.137)
    data = small_dataset(5, 16, 8, 4)
    levels = np.unique(data.exposure)
    assert np.any(np.diff(levels) <= 4 * np.spacing(levels[1:]))
    est = ESTIMATOR_REGISTRY["gps-krr"]
    assert est.resampled(data).at(np.ones(data.n_units)) == est.point(data)
    monkeypatch.setattr(inference, "MAX_FAILURE_SHARE", 1.0)
    seen = raw_replicates(monkeypatch)
    naive_bootstrap(data, est.point, rng=substream(3, 4))
    naive_bootstrap(data, est.resampled(data), rng=substream(3, 4))
    loops, counts = seen
    failed = np.isnan(loops)
    assert np.array_equal(np.isnan(counts), failed)
    np.testing.assert_allclose(counts[~failed], loops[~failed], rtol=1e-9, atol=1e-12)


def test_count_statistic_holds_one_resample_of_counts():
    data = paper_scale_dataset(61)
    statistic = ESTIMATOR_REGISTRY["gps-krr"].resampled(data)
    shapes = []

    def at(counts):
        shapes.append(counts.shape)
        assert counts.dtype == np.float64
        return statistic.at(counts)

    iv = naive_bootstrap(data, inference._CountStatistic(at), rng=substream(62, 4))
    # the estimate's unit counts, then one resample's counts per replicate
    assert shapes == [(data.n_units,)] * 201 and iv.n_replicates == 200


def ulp_twins(n_twins: int, n_off: int) -> Dataset:
    """Units on their own three coins of weight 1/3: n_twins exposed at 2/3,
    alternately written as two floats an ulp apart, and n_off unexposed, so
    that some resamples see only the two near-equal exposures."""
    n = n_twins + n_off
    graph = BipartiteGraph.from_rows(
        [[(3 * j + t, 1.0 / 3.0) for t in range(3)] for j in range(n)], m_diversion=3 * n)
    twins = np.resize([2.0 / 3.0, np.nextafter(2.0 / 3.0, 1.0)], n_twins)
    e = np.concatenate([twins, np.zeros(n_off)])
    y = 1.0 + e + substream(63, 2).normal(size=n)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    return Dataset(y=y, exposure=e, graph=graph, gps=table)


def negative_ridge(monkeypatch):
    # a negative ridge makes kernel systems that are not positive definite,
    # in the resamples whose counts leave the diagonal too small
    monkeypatch.setattr(numerics, "KRR_RIDGE", -0.01)


KRR_FAILURES = {
    "not-positive-definite": (lambda: mixed_singles(2, 6), negative_ridge),
    # the trend's rank rule refuses exposures that differ in the last bits
    "near-constant-exposure": (lambda: ulp_twins(5, 1), None),
}


@pytest.mark.parametrize("case", KRR_FAILURES.values(), ids=KRR_FAILURES.keys())
@pytest.mark.parametrize("bootstrap", [naive_bootstrap, block_bootstrap])
def test_krr_count_statistic_fails_where_refits_fail(monkeypatch, case, bootstrap):
    build, patch = case
    data = build()
    if patch is not None:
        patch(monkeypatch)
    est = ESTIMATOR_REGISTRY["gps-krr"]
    blocks = {"labels": np.arange(data.n_units) % 5} if bootstrap is block_bootstrap else {}

    def run(statistic):
        return bootstrap(data, statistic, rng=substream(66, 4), **blocks)

    messages = []
    for statistic in (est.point, est.resampled(data)):
        with pytest.raises(DataError, match="replicates failed") as err:
            run(statistic)
        messages.append(str(err.value))
    assert messages[0] == messages[1]

    # with the budget lifted, the same replicates fail and the others agree
    monkeypatch.setattr(inference, "MAX_FAILURE_SHARE", 1.0)
    seen = raw_replicates(monkeypatch)
    run(est.point)
    run(est.resampled(data))
    loops, counts = seen
    failed = np.isnan(loops)
    assert 0 < failed.sum() < failed.size
    assert np.array_equal(np.isnan(counts), failed)
    # atol for the ATEs of constant-exposure resamples, zero up to rounding
    np.testing.assert_allclose(counts[~failed], loops[~failed], rtol=1e-9, atol=1e-12)


def test_krr_count_statistic_keeps_constant_exposure_resamples():
    # resamples that take only unexposed (or only exposed) units fit the mean
    # alone, as beta_krr_fit does, and do not fail
    data = mixed_singles(2, 6)
    est = ESTIMATOR_REGISTRY["gps-krr"]
    statistic = est.resampled(data)
    rng = substream(67, 4)
    constant = 0
    for _ in range(200):
        idx = rng.integers(0, data.n_units, size=data.n_units)
        sub = data.take(idx)
        constant += np.ptp(sub.exposure) == 0
        counted = statistic.at(np.bincount(idx, minlength=data.n_units).astype(np.float64))
        # both ATEs of a constant-exposure resample are zero up to rounding
        assert counted == pytest.approx(est.point(sub), rel=1e-9, abs=1e-12)
    assert constant > 0


def test_gps_poly_refuses_fewer_rows_than_terms_alike():
    # the design too: its least-squares fit would raise ValueError, which a
    # study does not count as a failure
    data = singles_dataset(5, seed=3)
    est = ESTIMATOR_REGISTRY["gps-poly"]
    for statistic in (est.point, est.design):
        with pytest.raises(DataError, match="need at least 6 observations"):
            statistic(data)


INTERVAL_FUNCTIONS = {
    "naive_bootstrap": naive_bootstrap,
    "block_bootstrap": block_bootstrap,
    "parametric_bootstrap": parametric_bootstrap,
    "ols_asymptotic_interval": lambda data, design: ols_asymptotic_interval(design),
}


@pytest.mark.parametrize("function", INTERVAL_FUNCTIONS.values(), ids=INTERVAL_FUNCTIONS.keys())
@pytest.mark.parametrize(
    "flaw, message",
    [
        ("phi-rows", "a design needs one phi row and one target entry per outcome unit"),
        ("target-length", "a design needs one phi row and one target entry per outcome unit"),
        ("contrast-length", r"a design needs one contrast entry per phi column \(2\)"),
    ],
    ids=["phi-rows", "target-length", "contrast-length"],
)
def test_every_interval_function_checks_the_design_shape_alike(function, flaw, message):
    data = singles_dataset(60, seed=3)  # 60 components, so the blocks pass their checks
    phi, y = np.column_stack([np.ones(60), data.exposure]), data.y
    contrast = [0.0, 1.0]
    design = {
        "phi-rows": (np.vstack([phi, phi[:1]]), y, contrast),
        "target-length": (phi, np.append(y, 0.0), contrast),
        "contrast-length": (phi, y, [1.0]),
    }[flaw]
    with pytest.raises(ValueError, match=message):
        function(data, design)


# -- asymptotic interval -------------------------------------------------------


def test_ols_asymptotic_interval_matches_normal_theory():
    rng = np.random.default_rng(15)
    x = np.column_stack([np.ones(120), rng.normal(size=120)])
    y = x @ np.array([1.0, 2.0]) + rng.normal(size=120)
    fit = ols(x, y)
    iv = ols_asymptotic_interval((x, y, [0, 1]), level=0.95)
    se = np.sqrt(fit.coef_cov()[1, 1])
    z = stats.norm.ppf(0.975)
    assert iv.estimate == pytest.approx(fit.coef[1])
    assert iv.lower == pytest.approx(fit.coef[1] - z * se)
    assert iv.upper == pytest.approx(fit.coef[1] + z * se)
    assert iv.method == "ols-asymptotic"


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1e-6, 1 - 1e-9])
def test_ols_asymptotic_z_is_the_normal_quantile_bit_for_bit(level):
    # with estimate 0 and standard error 1 the upper end is z itself: the
    # design's one column e_1 is its own QR basis, so the coefficient is
    # target[0] = 0, and the residuals (0, 1, 1) give u.u / (n - k) = 1
    unit = (np.array([[1.0], [0.0], [0.0]]), np.array([0.0, 1.0, 1.0]), [1.0])
    iv = ols_asymptotic_interval(unit, level=level)
    assert iv.upper == float(stats.norm.ppf(0.5 + level / 2))
    assert iv.lower == -iv.upper


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second of every fresh process
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import sys, bipexp, bipexp.cli\n"
        "print([m for m in sys.modules if m == 'scipy.stats' or m.startswith('scipy.stats.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


# -- variance splitting --------------------------------------------------------


def correlated_population(seed: int, *, n=300, m=40):
    graph = synth_graph(
        GraphSpec(kind="uniform-degree", n_outcome=n, m_diversion=m, deg_min=1, deg_max=6), seed
    )
    design = AssignmentDesign.bernoulli(0.5)
    return graph, design


def test_estimate_sigmas_recovers_both_components():
    graph, design = correlated_population(16)
    n, m = graph.n_outcome, graph.m_diversion
    s2_eps, s2_gamma = 0.5, 0.7
    w = graph.to_csr()
    rng = substream(17, 4)
    n_sims = 150
    z = draw_assignments(design, m, n_sims, rng)
    exposures = linear_exposure_many(graph, z.astype(np.float64))
    eps_hat = np.empty(n_sims)
    gamma_hat = np.empty(n_sims)
    for t in range(n_sims):
        e = exposures[:, t]
        phi = np.column_stack([np.ones(n), e])
        y = phi @ np.array([1.0, 2.0]) + w @ rng.normal(0, np.sqrt(s2_gamma), m)
        y = y + rng.normal(0, np.sqrt(s2_eps), n)
        est = estimate_sigmas(y, phi, graph)
        eps_hat[t] = est.sigma2_eps
        gamma_hat[t] = est.sigma2_gamma
    assert abs(eps_hat.mean() - s2_eps) <= 3 * eps_hat.std() / np.sqrt(n_sims)
    assert abs(gamma_hat.mean() - s2_gamma) <= 3 * gamma_hat.std() / np.sqrt(n_sims)


def test_estimate_sigmas_clips_negative_gamma():
    # residuals orthogonal to every graph column leave nothing for the
    # diversion side to explain, so its moment estimate goes negative
    graph = BipartiteGraph.from_rows(
        [[(0, 1.0)], [(1, 1.0)], [(0, 0.5), (1, 0.5)], [(0, 1.0)], [(1, 1.0)], [(0, 0.5), (1, 0.5)]],
        m_diversion=2,
    )
    rng = substream(20, 4)
    u = rng.normal(size=6)
    w = graph.to_dense()
    coef, *_ = np.linalg.lstsq(w, u, rcond=None)
    u = u - w @ coef  # now exactly orthogonal to the graph columns
    phi = np.zeros((6, 1))
    phi[:, 0] = 1.0
    est = estimate_sigmas(u - u.mean() + 1.0, phi, graph)
    assert est.clipped
    assert est.sigma2_gamma == 0.0
    assert est.sigma2_gamma_raw < 0.0


def test_estimate_sigmas_degenerate_inputs():
    graph = BipartiteGraph.from_rows([[(0, 1.0)], [(1, 1.0)], [(0, 0.5), (1, 0.5)]], m_diversion=2)
    with pytest.raises(ValueError, match="aligned"):
        estimate_sigmas(np.ones(3), np.ones((4, 1)), graph)
    with pytest.raises(DataError, match="no residual degrees of freedom"):
        estimate_sigmas(np.arange(3.0), np.eye(3), graph)
    # W = c I: unit-level and diversion-side noise have proportional
    # covariances; at c = 0.3 the determinant rounds to +2e-16 of its scale
    for c, n in ((1.0, 3), (0.3, 5)):
        scaled_identity = BipartiteGraph.from_rows([[(j, c)] for j in range(n)], m_diversion=n)
        phi = np.column_stack([np.ones(n), np.arange(n) ** 2.0])
        with pytest.raises(DataError, match="cannot tell unit-level from diversion-side"):
            estimate_sigmas(np.arange(n, dtype=np.float64), phi, scaled_identity)
    empty = BipartiteGraph.from_rows([[], []], m_diversion=1)
    with pytest.raises(DataError, match="no edges"):
        estimate_sigmas(np.ones(2), np.ones((2, 1)), empty)


def dense_moment_system(u, phi, w):
    """The split's moment system from dense n x n matrices: E[u.u] and
    E[u.S u], S = W W.T, have coefficients tr(M) and tr(M S) on sigma2_eps
    and tr(M S) and tr(M S M S) on sigma2_gamma, with M = I - phi phi^+.
    """
    n = u.size
    s = w @ w.T
    proj = np.eye(n) - phi @ np.linalg.pinv(phi)
    ms = proj @ s
    a = np.array([[np.trace(proj), np.trace(ms)], [np.trace(ms), np.trace(ms @ ms)]])
    return a, np.array([u @ u, u @ s @ u])


SPLIT_WEIGHTS = (0.0, 0.0, 0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0)


@st.composite
def weight_matrices(draw, max_m=10, extra_rows=(0, 1, 2, 3, 8, 20)):
    """Dense weights with duplicated, near-duplicated and empty columns, n at or just above m."""
    m = draw(st.integers(1, max_m))
    n = m + draw(st.sampled_from(extra_rows))
    a = np.array(draw(st.lists(st.sampled_from(SPLIT_WEIGHTS), min_size=n * m, max_size=n * m)))
    a = a.reshape(n, m)
    for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        a[:, j] = a[:, draw(st.integers(0, m - 1))]  # duplicated column
    for j in draw(st.lists(st.integers(0, m - 1), max_size=1)):
        # a near-duplicate: W stays full rank with a singular value ~1e-4
        a[:, j] = a[:, draw(st.integers(0, m - 1))]
        a[draw(st.integers(0, n - 1)), j] += draw(st.sampled_from([1e-3, 1e-4]))
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        a[:, j] = 0.0  # all-zero column
    if draw(st.booleans()):
        sums = a.sum(axis=1, keepdims=True)
        a = np.divide(a, sums, out=np.zeros_like(a), where=sums > 0)
    return a


def graph_of(a) -> BipartiteGraph:
    n, m = a.shape
    return BipartiteGraph.from_rows(
        [[(j, a[i, j]) for j in np.flatnonzero(a[i])] for i in range(n)], m_diversion=m
    )


@st.composite
def split_cases(draw):
    """Sparse weight matrix with duplicated, near-duplicated and empty columns, n at or just above m."""
    graph = graph_of(draw(weight_matrices()))
    return graph, draw(st.integers(0, 2**31)), draw(st.integers(1, 2))


@st.composite
def block_split_cases(draw):
    """Two to five disjoint weight blocks, scaled up to 1e4 apart, with isolated
    diversion columns and edgeless rows, rows and columns shuffled.

    The scales put one block's weights far below another's, so a term
    rounded against the largest block would swamp the smaller ones.
    """
    blocks = [
        draw(weight_matrices(max_m=6, extra_rows=(0, 1, 2, 5))) * 10.0 ** draw(st.integers(-2, 2))
        for _ in range(draw(st.integers(2, 5)))
    ]
    n = sum(b.shape[0] for b in blocks) + draw(st.integers(0, 3))  # edgeless rows
    m = sum(b.shape[1] for b in blocks) + draw(st.integers(0, 3))  # isolated columns
    a = np.zeros((n, m))
    i = j = 0
    for b in blocks:
        a[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    a = a[rng.permutation(n)][:, rng.permutation(m)]
    return graph_of(a), draw(st.integers(0, 2**31)), draw(st.integers(1, 2))


@settings(deadline=None, max_examples=400)
@given(case=st.one_of(split_cases(), block_split_cases()))
@example(case=(BipartiteGraph.from_rows([[], [], []], m_diversion=2), 0, 1))
@example(case=(BipartiteGraph.from_rows([[(0, 1.0)], [(0, 1.0)], [(1, 1.0)]], m_diversion=2), 1, 1))
@example(case=(BipartiteGraph.from_rows([[(j, 1.0)] for j in range(4)], m_diversion=4), 2, 2))
@example(case=(BipartiteGraph.from_rows(  # cond(W) ~ 8e5
    [[], [], [], [(6, 0.25), (8, 1 / 3)], [(6, 0.25), (8, 0.25)], [], [],
     [(0, 1e-4), (6, 2.0)], [], [(1, 1 / 3)], [], [], []], m_diversion=10), 0, 1))
@example(case=(BipartiteGraph(  # one block's weights 600x below the other's
    n_outcome=12, m_diversion=11, indptr=[0, 0, 0, 0, 0, 3, 4, 4, 4, 4, 4, 4, 7],
    indices=[0, 5, 10, 8, 0, 5, 10],
    weights=[0.00333333, 0.00333333, 0.00333333, 2.0, 0.00333328, 0.00333328, 0.00333344]),
    0, 1))
def test_estimate_sigmas_matches_dense_reference(case):
    """The trace-moment split agrees with dense tr(M Sigma) formulas, on
    connected and on block-diagonal weights.

    Each trace coefficient and moment agrees within rel 1e-10 of the size
    of the terms it is a difference of (|W|_F^2 for t, |W.T W|_F^2 for
    |W.T M W|_F^2, and |W.T W|_F u.u for |W.T u|^2). The solved sigma2_eps
    and sigma2_gamma_raw agree within 1e-10 times their componentwise
    perturbation bound |A^-1| (|dA| |x| + |db|), which is rel 1e-10 on a
    well-conditioned system. The clip flag agrees wherever both raw values
    lie outside their tolerance of zero. Where the split refuses the
    system, the dense determinant is zero up to rounding, or the graph has
    no edges, or the design leaves no residual degrees of freedom.
    """
    graph, seed, k = case
    n = graph.n_outcome
    k = min(k, n)
    rng = np.random.default_rng(seed)
    phi = np.column_stack([np.ones(n), rng.normal(size=n)])[:, :k]
    y = phi @ np.array([1.0, 2.0])[:k] + graph.to_csr() @ rng.normal(size=graph.m_diversion)
    y = y + rng.normal(size=n)
    fit = ols(phi, y)
    u = fit.residuals
    w = graph.to_dense()
    ww = float(np.sum(w * w))
    gg = float(np.sum((w.T @ w) ** 2))
    want_a, want_b = dense_moment_system(u, phi, w)
    uu = float(u @ u)
    floor_a = np.array([[n, ww], [ww, gg]])
    floor_b = np.array([uu, np.sqrt(gg) * uu])
    det = want_a[0, 0] * want_a[1, 1] - want_a[0, 1] ** 2
    scale = (n - k) * gg + ww * ww
    if ww == 0 or n <= k:
        with pytest.raises(DataError, match="no edges" if ww == 0 else "no residual degrees"):
            estimate_sigmas(y, phi, graph)
        return
    got_a, got_b, got_scale = inference._moment_system(fit, graph)
    assert got_scale == pytest.approx(scale, rel=1e-12)
    assert np.all(np.abs(got_a - want_a) <= 1e-10 * np.maximum(np.abs(want_a), floor_a))
    assert np.all(np.abs(got_b - want_b) <= 1e-10 * np.maximum(np.abs(want_b), floor_b))
    try:
        got = estimate_sigmas(y, phi, graph)
    except DataError as err:
        assert "cannot tell unit-level from diversion-side" in str(err)
        assert det <= 1e-8 * scale
        return
    want = np.linalg.solve(want_a, want_b)
    inv_abs = np.abs(np.linalg.inv(want_a))
    tol = 1e-10 * inv_abs @ (np.maximum(np.abs(want_a), floor_a) @ np.abs(want)
                             + np.maximum(np.abs(want_b), floor_b))
    tol = np.maximum(tol, 1e-10 * np.abs(want))
    assert abs(got.sigma2_eps - max(want[0], 0.0)) <= tol[0]
    assert abs(got.sigma2_gamma_raw - want[1]) <= tol[1]
    assert got.sigma2_gamma == max(got.sigma2_gamma_raw, 0.0)
    if np.all(np.abs(want) > tol):
        assert got.clipped == bool(np.any(want < 0))


def test_split_of_a_wide_chain_stays_sparse():
    # a chain of 8193 diversion units is one component, whose dense m x m
    # Gram alone would take 8 * m**2 bytes
    m = 8193
    n = m - 1
    graph = BipartiteGraph(
        n_outcome=n,
        m_diversion=m,
        indptr=np.arange(0, 2 * n + 1, 2),
        indices=np.column_stack([np.arange(n), np.arange(1, m)]).ravel(),
        weights=np.full(2 * n, 0.5),
    )
    rng = np.random.default_rng(5)
    y = graph.to_csr() @ rng.normal(size=m) + rng.normal(size=n)
    phi = np.ones((n, 1))
    tracemalloc.start()
    try:
        est = estimate_sigmas(y, phi, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(est.sigma2_eps) and np.isfinite(est.sigma2_gamma_raw)
    assert peak < 8 * m * m / 100


def test_unidentified_split_is_a_counted_interval_failure():
    # inside a study the split's DataError is one failed interval, not a
    # crash; with W = I the two noises cannot be told apart
    graph = BipartiteGraph.from_rows([[(j, 1.0)] for j in range(60)], m_diversion=60)
    dgp = DgpSpec(graph=graph, design=AssignmentDesign.bernoulli(0.5), effect="homogeneous",
                  sigma2_eps=0.5, sigma2_gamma=0.5)
    res = run_study(dgp, ["naive-ols"], {"naive-ols": ("parametric-bootstrap",)},
                    n_sims=3, b_replicates=50, master_seed=6)
    assert res.interval_failures[("naive-ols", "parametric-bootstrap")] == 3


def test_variance_split_and_parametric_bootstrap_never_densify(monkeypatch):
    data, phi, y = parametric_inputs(32)

    def refuse(self):
        raise AssertionError("the n x m weight matrix was built")

    def refuse_eigh(*args, **kwargs):
        raise AssertionError("an eigendecomposition was taken")

    monkeypatch.setattr(BipartiteGraph, "to_dense", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse_eigh)
    estimate_sigmas(y, phi, data.graph)
    res = parametric_bootstrap(data, (phi, y, [-1.0, 1.0]), n_replicates=60, rng=substream(33, 4))
    assert res.n_replicates == 60


def test_gram_sum_squares_is_kept_on_the_graph(monkeypatch):
    data, phi, y = parametric_inputs(34)
    graph = data.graph
    real = sparse.csc_matrix.__matmul__

    def refuse_sparse_product(self, other):
        if sparse.issparse(other):
            raise AssertionError("the sparse Gram W.T W was formed")
        return real(self, other)

    # the split forms W.T W once per graph, then reads the kept value
    with monkeypatch.context() as patch:
        patch.setattr(sparse.csc_matrix, "__matmul__", refuse_sparse_product)
        with pytest.raises(AssertionError, match="Gram"):
            estimate_sigmas(y, phi, graph)
    first = estimate_sigmas(y, phi, graph)
    monkeypatch.setattr(sparse.csc_matrix, "__matmul__", refuse_sparse_product)
    assert estimate_sigmas(y, phi, graph) == first

    dense = graph.to_dense()
    want = np.sum((dense.T @ dense) ** 2)
    assert graph.gram_sum_squares() == pytest.approx(want, rel=1e-12)
    # a subset is another graph with its own Gram
    rows = np.arange(0, graph.n_outcome, 3)
    monkeypatch.undo()
    sub = graph.take(rows)
    sub_dense = dense[rows]
    sub_want = np.sum((sub_dense.T @ sub_dense) ** 2)
    assert sub.gram_sum_squares() == pytest.approx(sub_want, rel=1e-12)
    assert sub_want != pytest.approx(want, rel=1e-3)
    assert graph.gram_sum_squares() == pytest.approx(want, rel=1e-12)


def test_correlated_error_variance_matches_empirical_covariance():
    graph, design = correlated_population(21)
    n, m = graph.n_outcome, graph.m_diversion
    s2_eps, s2_gamma = 0.5, 0.5
    rng = substream(22, 4)
    z = draw_assignments(design, m, 1, rng)[:, 0]
    e = linear_exposure(graph, z.astype(np.float64))
    phi = np.column_stack([np.ones(n), e])
    want = correlated_error_variance(phi, graph, s2_eps, s2_gamma)

    w = graph.to_csr()
    n_reps = 2000
    gamma = rng.normal(0, np.sqrt(s2_gamma), size=(m, n_reps))
    eps = rng.normal(0, np.sqrt(s2_eps), size=(n, n_reps))
    ys = (phi @ np.array([1.0, 2.0]))[:, None] + w @ gamma + eps
    coefs, *_ = np.linalg.lstsq(phi, ys, rcond=None)  # (2, n_reps)
    got = np.cov(np.sqrt(n) * coefs)
    for j in range(2):
        assert abs(got[j, j] - want[j, j]) <= 0.15 * want[j, j]
    assert abs(got[0, 1] - want[0, 1]) <= 0.2 * abs(want[0, 1]) + 0.05 * np.sqrt(want[0, 0] * want[1, 1])


def test_near_collinear_design_is_rank_deficient_everywhere():
    data, phi, y = parametric_inputs(31)
    twin = phi[:, 1] + 1e-12 * substream(31, 5).normal(size=phi.shape[0])
    near = np.column_stack([phi, twin])
    calls = (
        lambda: estimate_sigmas(y, near, data.graph),
        lambda: correlated_error_variance(near, data.graph, 0.5, 0.5),
        lambda: parametric_bootstrap(
            data, (near, y, [0.0, 1.0, 0.0]), n_replicates=60, rng=substream(31, 4)
        ),
    )
    for call in calls:
        with pytest.raises(RankDeficiencyError, match="collinear columns") as err:
            call()
        assert err.value.columns in (("x1",), ("x2",))


def test_correlated_error_variance_singular_design():
    graph, _ = correlated_population(23)
    phi = np.ones((graph.n_outcome, 2))  # duplicated constant column
    with pytest.raises(RankDeficiencyError, match="rank deficient"):
        correlated_error_variance(phi, graph, 0.5, 0.5)


# -- parametric bootstrap ------------------------------------------------------


def parametric_inputs(seed: int, *, n=200, m=30):
    graph, design = correlated_population(seed, n=n, m=m)
    n, m = graph.n_outcome, graph.m_diversion
    rng = substream(seed, 4)
    z = draw_assignments(design, m, 1, rng)[:, 0]
    e = linear_exposure(graph, z.astype(np.float64))
    table = exact_gps_table(graph, design)
    w = graph.to_csr()
    y = 1.0 + 2.0 * e + w @ rng.normal(0, np.sqrt(0.5), m) + rng.normal(0, np.sqrt(0.5), n)
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    phi = np.column_stack([np.ones(n), e])
    return data, phi, y


def capture_solves(monkeypatch) -> list:
    """Record the coefficients of every `LinearFit.solve` call, the replicate refits among them."""
    solved = []
    solve = LinearFit.solve

    def recording(self, rhs):
        out = solve(self, rhs)
        solved.append(out)
        return out

    monkeypatch.setattr(LinearFit, "solve", recording)
    return solved


def test_parametric_bootstrap_matches_per_replicate_refit(monkeypatch):
    data, phi, y = parametric_inputs(24)
    solved = capture_solves(monkeypatch)
    # the rank rule is relative, so a tiny but well-conditioned design refits too
    for scale in (1.0, 1e-12):
        res = parametric_bootstrap(
            data, (scale * phi, y, [-1.0, 1.0]), n_replicates=60, rng=substream(25, 4)
        )
        coef_reps = solved.pop()
        sigmas = estimate_sigmas(y, scale * phi, data.graph)
        reps = np.array([-1.0, 1.0]) @ coef_reps

        # replay the identical noise stream and refit each replicate directly
        rng = substream(25, 4)
        n, k = phi.shape
        m = data.graph.m_diversion
        gamma = rng.normal(0.0, np.sqrt(sigmas.sigma2_gamma), size=(m, 60))
        eps = rng.normal(0.0, np.sqrt(sigmas.sigma2_eps), size=(n, 60))
        w = data.graph.to_csr()
        targets = (scale * phi @ ols(scale * phi, y).coef)[:, None] + w @ gamma + eps
        for b in range(60):
            coef_b, *_ = np.linalg.lstsq(scale * phi, targets[:, b], rcond=None)
            np.testing.assert_allclose(scale * coef_reps[:, b], scale * coef_b, atol=1e-9)
        np.testing.assert_allclose(
            scale * reps,
            scale * (coef_reps[1] - coef_reps[0]),
            atol=1e-12,
        )

    lo, hi = np.quantile(reps, [0.025, 0.975])
    assert res.lower == pytest.approx(lo)
    assert res.upper == pytest.approx(hi)
    assert res.method == "parametric-bootstrap"


@pytest.mark.parametrize("block", [None, 1, 1000])
def test_parametric_bootstrap_matches_one_shot_targets(monkeypatch, block):
    # the targets used to be built in one expression; the blocked in-place
    # build must give the same bits, however the noise blocks fall
    if block is not None:
        monkeypatch.setattr(inference, "NOISE_BLOCK", block)
    solved = capture_solves(monkeypatch)
    contrast = np.array([-1.0, 1.0])
    for seed in (24, 26):
        data, phi, y = parametric_inputs(seed)
        solved.clear()
        res = parametric_bootstrap(
            data, (phi, y, contrast), n_replicates=60, rng=substream(seed + 1, 4)
        )
        (got_coef_reps,) = solved  # all replicates refit in one solve

        rng = substream(seed + 1, 4)
        n, m = phi.shape[0], data.graph.m_diversion
        sigmas = estimate_sigmas(y, phi, data.graph)
        gamma = rng.normal(0.0, np.sqrt(sigmas.sigma2_gamma), size=(m, 60))
        eps = rng.normal(0.0, np.sqrt(sigmas.sigma2_eps), size=(n, 60))
        fit = ols(phi, y)
        targets = (phi @ fit.coef)[:, None] + data.row_graph().to_csr() @ gamma + eps
        coef_reps = fit.solve(targets)
        reps = contrast @ coef_reps
        iv = _quantile_interval(res.estimate, reps, 0.95, "parametric-bootstrap")
        assert got_coef_reps.tobytes() == coef_reps.tobytes()
        assert (contrast @ got_coef_reps).tobytes() == reps.tobytes()
        assert (res.lower, res.upper) == (iv.lower, iv.upper)


def test_parametric_bootstrap_holds_one_target_array():
    # tracemalloc counts numpy's buffers, so this peak is deterministic; the
    # one-expression build held about three (n, B) arrays at once
    n, b = 2000, 200
    data, phi, y = parametric_inputs(31, n=n, m=100)
    parametric_bootstrap(data, (phi, y, [-1.0, 1.0]), n_replicates=b, rng=substream(32, 4))
    tracemalloc.start()
    try:
        parametric_bootstrap(data, (phi, y, [-1.0, 1.0]), n_replicates=b, rng=substream(32, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * b * 8


def test_parametric_bootstrap_contrast_and_estimate():
    data, phi, y = parametric_inputs(26)
    res = parametric_bootstrap(
        data, (phi, y, np.array([-1.0, 1.0])), n_replicates=80, rng=substream(27, 4)
    )
    coef, *_ = np.linalg.lstsq(phi, y, rcond=None)
    assert res.estimate == pytest.approx(coef[1] - coef[0], abs=1e-10)
    picked = parametric_bootstrap(
        data, (phi, y, np.array([0.0, 1.0])), n_replicates=80, rng=substream(27, 4)
    )
    assert picked.estimate == pytest.approx(coef[1], abs=1e-10)


def test_parametric_bootstrap_validation():
    # the design's shape is checked as in every interval function (see
    # test_every_interval_function_checks_the_design_shape_alike)
    data, phi, y = parametric_inputs(28)
    contrast = [-1.0, 1.0]
    with pytest.raises(ValueError, match="at least 50"):
        parametric_bootstrap(data, (phi, y, contrast), n_replicates=10)
    bad = np.column_stack([phi[:, 0], phi[:, 0]])
    with pytest.raises(NumericalError, match="rank deficient"):
        parametric_bootstrap(data, (bad, y, contrast))
    # the replicate count is checked before the fit
    with pytest.raises(ValueError, match="at least 50"):
        parametric_bootstrap(data, (bad, y, contrast), n_replicates=10)


def test_parametric_bootstrap_interval_covers_truth_here():
    # the DGP slope is 2; one seeded run should cover it (the acceptance
    # suite measures actual coverage rates across many runs)
    data, phi, y = parametric_inputs(29)
    res = parametric_bootstrap(
        data, (phi, y, np.array([0.0, 1.0])), n_replicates=300, rng=substream(30, 4)
    )
    assert res.covers(2.0)
