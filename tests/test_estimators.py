"""Estimator oracles on the two-type worked example and small graphs.

The two-type population (single-neighbor units with null outcomes, paired
units with outcome equal to exposure) has hand-derived answers under the
frozen assignment used below:

    z = [0,0,1,1 | 0,0, 0,1, 1,0, 1,1]
    exposures: singles (0,0,1,1), pairs (0, 1/2, 1/2, 1)
    naive mean at e=1: (0+0+1)/3 = 1/3        naive slope: 1/3
    inverse propensity at e=1: (0/.5 + 0/.5 + 1/.25)/8 = 1/2
    stratified (by exposure variance) at e=1: .5*0 + .5*1 = 1/2

The inverse-propensity unbiasedness check enumerates every assignment of a
4-coin design and averages the estimator exactly.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipexp.design import AssignmentDesign, draw_assignments, linear_exposure, linear_exposure_many
from bipexp.errors import DataError, MissingCellError, RankDeficiencyError
from bipexp.estimators import (
    CellMeanSurface,
    Dataset,
    DoseResponseCurve,
    TRIM_FLOOR,
    PropensityTrimWarning,
    ate,
    beta_cell_means,
    beta_krr_fit,
    beta_poly_fit,
    dose_response,
    ht_estimate,
    ht_weighted_regression,
    naive_mean,
    naive_ols,
    _group_levels,
    stratified_estimate,
)
from bipexp.gps import GpsTable, exact_gps_table, mc_gps
from bipexp.graph import BipartiteGraph, GraphSpec, synth_graph
from bipexp.seeding import substream
from conftest import row_edges

Z_FROZEN = np.array([0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)


@pytest.fixture
def two_type_data(two_type_graph, bernoulli_half) -> Dataset:
    e = linear_exposure(two_type_graph, Z_FROZEN.astype(np.float64))
    y = np.where(np.arange(8) >= 4, e, 0.0)
    table = exact_gps_table(two_type_graph, bernoulli_half)
    return Dataset(y=y, exposure=e, graph=two_type_graph, gps=table)


def degree_graph_dataset(seed: int, *, n=40, m=12, deg=(1, 5)):
    """One realized draw on a synthetic graph, outcomes filled by the caller."""
    graph = synth_graph(
        GraphSpec(kind="uniform-degree", n_outcome=n, m_diversion=m, deg_min=deg[0], deg_max=deg[1]), seed
    )
    design = AssignmentDesign.bernoulli(0.5)
    table = exact_gps_table(graph, design)
    z = draw_assignments(design, m, 1, substream(seed, 1))[:, 0]
    e = linear_exposure(graph, z.astype(np.float64))
    return graph, table, e


# -- naive estimators ---------------------------------------------------------


def test_naive_mean_two_type(two_type_data):
    assert naive_mean(two_type_data, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert naive_mean(two_type_data, 0.0) == 0.0
    assert naive_mean(two_type_data, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_naive_mean_constant_outcomes(two_type_data):
    data = Dataset(
        y=np.full(8, 2.5),
        exposure=two_type_data.exposure,
        graph=two_type_data.graph,
        gps=two_type_data.gps,
    )
    for e in np.unique(data.exposure):
        assert naive_mean(data, float(e)) == pytest.approx(2.5, abs=1e-15)


def test_naive_mean_empty_level(two_type_data):
    with pytest.raises(DataError, match="no observations"):
        naive_mean(two_type_data, 0.75)


def test_naive_ols_two_type(two_type_data):
    assert naive_ols(two_type_data) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_naive_ols_null_outcomes(two_type_data):
    data = Dataset(
        y=np.zeros(8),
        exposure=two_type_data.exposure,
        graph=two_type_data.graph,
        gps=two_type_data.gps,
    )
    assert naive_ols(data) == pytest.approx(0.0, abs=1e-14)


def test_naive_ols_constant_exposure(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    data = Dataset(y=np.ones(8), exposure=np.zeros(8), graph=two_type_graph, gps=table)
    with pytest.raises(DataError, match="constant"):
        naive_ols(data)


# -- inverse propensity -------------------------------------------------------


def test_ht_two_type(two_type_data):
    assert ht_estimate(two_type_data, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert ht_estimate(two_type_data, 0.0) == 0.0


def test_ht_zero_outcomes(two_type_data):
    data = Dataset(
        y=np.zeros(8),
        exposure=two_type_data.exposure,
        graph=two_type_data.graph,
        gps=two_type_data.gps,
    )
    assert ht_estimate(data, 1.0) == 0.0


def test_ht_expectation_over_all_assignments(small_graph):
    # exact unbiasedness: averaging the estimator over every one of the
    # 2^4 assignments, weighted by the design, recovers the population
    # mean potential outcome at both endpoints
    design = AssignmentDesign.bernoulli(0.3)
    table = exact_gps_table(small_graph, design)
    a = np.array([0.5, -1.0, 2.0, 0.0])
    b = np.array([1.0, 3.0, -2.0, 4.0])
    total = {0.0: 0.0, 1.0: 0.0}
    for bits in itertools.product((0, 1), repeat=4):
        z = np.array(bits, dtype=np.float64)
        prob = float(np.prod(np.where(z == 1, 0.3, 0.7)))
        e = linear_exposure(small_graph, z)
        data = Dataset(y=a + b * e, exposure=e, graph=small_graph, gps=table)
        for level in total:
            total[level] += prob * ht_estimate(data, level)
    assert total[0.0] == pytest.approx(a.mean(), abs=1e-12)
    assert total[1.0] == pytest.approx((a + b).mean(), abs=1e-12)


def trim_dataset(m=20):
    # one unit with m fair-coin neighbors: the full-exposure score is 2^-m,
    # just under TRIM_FLOOR for m = 20 and just above it for m = 19
    graph = BipartiteGraph.from_rows([[(j, 1.0 / m) for j in range(m)]], m_diversion=m)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    return Dataset(y=np.array([1.0]), exposure=np.array([1.0]), graph=graph, gps=table)


def test_ht_trims_tiny_scores_with_warning():
    data = trim_dataset()
    with pytest.warns(PropensityTrimWarning):
        got = ht_estimate(data, 1.0)
    assert got == pytest.approx(1e6)
    # a score at or above the floor is divided by as-is, with no warning
    assert 2.0**-19 >= TRIM_FLOOR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ht_estimate(trim_dataset(19), 1.0) == 2.0**19


def test_ht_weighted_regression_matches_ratio_formula(two_type_data):
    grid = [0.0, 0.5, 1.0]
    fit = ht_weighted_regression(two_type_data, grid)
    # per-level ratio: sum(Y/r) / sum(1/r) over units observed at the level
    np.testing.assert_allclose(fit.coef, [0.0, 0.5, 0.5], atol=1e-12)
    # and the normalization identity back to the inverse-propensity form
    obs = two_type_data.observed_scores()
    for level, coef in zip(grid, fit.coef):
        mask = np.abs(two_type_data.exposure - level) <= 1e-9
        inv_sum = float(np.sum(1.0 / obs[mask]))
        assert ht_estimate(two_type_data, float(level)) == pytest.approx(
            coef * inv_sum / two_type_data.n_units, abs=1e-12
        )


def test_ht_weighted_regression_constant_outcomes(two_type_data):
    data = Dataset(
        y=np.full(8, 1.75),
        exposure=two_type_data.exposure,
        graph=two_type_data.graph,
        gps=two_type_data.gps,
    )
    fit = ht_weighted_regression(data, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(fit.coef, 1.75, atol=1e-12)


def test_ht_weighted_regression_empty_level(two_type_data):
    with pytest.raises(DataError, match="no observations"):
        ht_weighted_regression(two_type_data, [0.0, 0.75])
    with pytest.raises(ValueError, match="nonempty"):
        ht_weighted_regression(two_type_data, [])


def test_ht_weighted_regression_positivity_failure():
    # a table that puts no mass on the observed exposure
    graph = BipartiteGraph.from_rows([[(0, 1.0)]], m_diversion=1)
    table = GpsTable(
        offsets=np.array([0, 1]), support=np.array([1.0]), probs=np.array([1.0]),
        unit_dist=np.zeros(1, dtype=np.int64), hi=1.0,
    )
    data = Dataset(y=np.array([3.0]), exposure=np.array([0.0]), graph=graph, gps=table)
    with pytest.raises(DataError, match="positivity"):
        with pytest.warns(PropensityTrimWarning):  # observed score 0 is floored first
            ht_weighted_regression(data, [0.0])


def test_ht_weighted_regression_floors_observed_scores():
    data = trim_dataset()
    with pytest.warns(PropensityTrimWarning):
        fit = ht_weighted_regression(data, [1.0])
    # target uses the floored observed score, the design the exact imputed one
    assert fit.coef[0] == pytest.approx(1000.0 / 1024.0)


@pytest.mark.parametrize(
    "estimate",
    [lambda data: ht_estimate(data, 1.0), lambda data: ht_weighted_regression(data, [1.0])],
    ids=["ht_estimate", "ht_weighted_regression"],
)
def test_trim_warning_is_one_and_points_at_the_caller(estimate):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate(trim_dataset())
    assert [w.category for w in caught] == [PropensityTrimWarning]
    assert "floored 1 observed propensity scores below 1e-06" in str(caught[0].message)
    assert caught[0].filename == __file__


# -- surfaces ------------------------------------------------------------------


def test_cell_means_worked_example(two_type_data):
    surface = beta_cell_means(two_type_data)
    np.testing.assert_array_equal(surface.e_levels, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(surface.r_levels, [0.25, 0.5])
    assert surface.evaluate(0.5, np.array([0.5]))[0] == pytest.approx(0.5)
    assert surface.evaluate(1.0, np.array([0.25]))[0] == pytest.approx(1.0)
    for e, r in [(0.0, 0.5), (1.0, 0.5), (0.0, 0.25)]:
        assert surface.evaluate(e, np.array([r]))[0] == 0.0
    assert np.isnan(surface.evaluate(0.5, np.array([0.25]))[0])  # empty cell
    assert np.isnan(surface.evaluate(0.25, np.array([0.5]))[0])  # unknown level


def test_cell_means_trivial_cases():
    graph = BipartiteGraph.from_rows([[(0, 1.0)], [(1, 1.0)]], m_diversion=2)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    lone = Dataset(y=np.array([7.0]), exposure=np.array([1.0]),
                   graph=graph.take([0]), gps=table.take([0]))
    surface = beta_cell_means(lone)
    assert surface.evaluate(1.0, np.array([0.5]))[0] == pytest.approx(7.0)

    pair = Dataset(y=np.array([0.0, 2.0]), exposure=np.array([1.0, 1.0]), graph=graph, gps=table)
    surface = beta_cell_means(pair)
    assert surface.evaluate(1.0, np.array([0.5]))[0] == pytest.approx(1.0)


@settings(deadline=None, max_examples=200)
@given(steps=st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.1, 3.0]), min_size=1, max_size=40),
       perm=st.randoms(use_true_random=False))
def test_group_levels_match_a_walk_over_the_sorted_values(steps, perm):
    # consecutive gaps of 0, 0.5, 0.9, 1.1 or 3 tol: ties, gaps within tol
    # that chain into long runs, and gaps beyond it, in a shuffled order
    tol = 1e-9
    values = 0.5 + tol * np.cumsum(steps)
    perm.shuffle(values)
    levels, ends, labels = _group_levels(values, tol)
    want_levels, want_ends, want_labels = [], [], {}
    for v in sorted(values):
        if not want_levels or v - prev > tol:
            want_levels.append(v)
            want_ends.append(v)
        want_ends[-1] = v
        want_labels[v] = len(want_levels) - 1
        prev = v
    np.testing.assert_array_equal(levels, want_levels)
    np.testing.assert_array_equal(ends, want_ends)
    np.testing.assert_array_equal(labels, [want_labels[v] for v in values])


def test_cell_means_label_a_chained_score_run_as_one_level():
    # three exposed units at scores 0.5, 0.5 + 0.8e-9 and 0.5 + 1.6e-9: each
    # gap is within ATOM_TOL, so the run is one score level, although its
    # last member lies more than ATOM_TOL from the first; one unexposed unit
    # at score 0.5 fills the other exposure level's cell on its own
    mass = 0.5 + np.array([0.0, 0.8e-9, 1.6e-9, 0.0])
    graph = BipartiteGraph.from_rows([[(j, 1.0)] for j in range(4)], m_diversion=4)
    table = GpsTable(offsets=[0, 2, 4, 6, 8], support=[0.0, 1.0] * 4,
                     probs=np.column_stack([1.0 - mass, mass]).ravel(),
                     unit_dist=np.arange(4), hi=1.0)
    data = Dataset(y=np.array([10.0, 10.0, 10.0, -5.0]), exposure=np.array([1.0, 1.0, 1.0, 0.0]),
                   graph=graph, gps=table)
    np.testing.assert_array_equal(data.observed_scores(), mass)
    surface = beta_cell_means(data)
    np.testing.assert_array_equal(surface.e_levels, [0.0, 1.0])
    np.testing.assert_array_equal(surface.r_levels, [0.5])
    np.testing.assert_array_equal(surface.values, [[-5.0], [10.0]])
    # every member of the run, the last one too, looks up its own cell
    np.testing.assert_array_equal(surface.evaluate(1.0, data.observed_scores()), [10.0] * 4)
    np.testing.assert_array_equal(surface.evaluate(0.0, data.observed_scores()), [-5.0] * 4)
    # beyond ATOM_TOL of the run's ends there is no level
    outside = 0.5 + np.array([-1.1e-9, 1.6e-9 + 1.1e-9])
    assert np.isnan(surface.evaluate(1.0, outside)).all()


@settings(deadline=None, max_examples=200)
@given(e_steps=st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.1, 3.0]), min_size=1, max_size=30),
       r_steps=st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.1, 3.0]), min_size=1, max_size=30),
       perm=st.randoms(use_true_random=False))
def test_cell_means_evaluate_each_unit_at_its_own_cell(e_steps, r_steps, perm):
    # exposures and scores on chains of gaps within and beyond ATOM_TOL:
    # each unit's own (exposure, observed score) evaluates to its cell mean
    n = min(len(e_steps), len(r_steps))
    e = 0.25 + 1e-9 * np.cumsum(e_steps[:n])
    mass = 0.5 + 1e-9 * np.cumsum(r_steps[:n])
    order = np.arange(n)
    perm.shuffle(order)
    e, mass = e[order], mass[order]
    graph = BipartiteGraph.from_rows([[(j, 1.0)] for j in range(n)], m_diversion=n)
    # one distribution per unit, with the unit's score as the mass at its own exposure
    table = GpsTable(offsets=np.arange(0, 2 * n + 1, 2), support=np.column_stack([e, e + 0.5]).ravel(),
                     probs=np.column_stack([mass, 1.0 - mass]).ravel(),
                     unit_dist=np.arange(n), hi=1.0)
    y = substream(72, 1).normal(size=n)
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    np.testing.assert_array_equal(data.observed_scores(), mass)
    surface = beta_cell_means(data)
    # a unit's cell holds the units on the same chained run of both axes
    e_run, r_run = run_labels(e, 1e-9), run_labels(mass, 1e-9)
    for i in range(n):
        got = surface.evaluate(e[i], data.observed_scores()[i:i + 1])[0]
        cell = (e_run == e_run[i]) & (r_run == r_run[i])
        assert got == pytest.approx(y[cell].mean(), rel=1e-12)


def run_labels(values, tol) -> np.ndarray:
    """Each value's run index, walking the sorted values: a gap above tol starts a run."""
    runs, prev = {}, None
    for v in sorted(values):
        runs[v] = runs[prev] + (v - prev > tol) if runs else 0
        prev = v
    return np.array([runs[v] for v in values])


def test_poly_fit_recovers_exact_quadratic():
    graph, table, e = degree_graph_dataset(31)
    r = table.observed_scores(e)
    truth = np.array([0.5, 1.0, -0.5, 2.0, -1.0, 3.0])
    y = truth @ np.vstack([np.ones_like(e), e, e * e, r, r * r, e * r])
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    surface = beta_poly_fit(data)
    np.testing.assert_allclose(surface.coef, truth, atol=1e-8)


def test_poly_fit_constant_outcomes():
    graph, table, e = degree_graph_dataset(32)
    data = Dataset(y=np.full(graph.n_outcome, 4.0), exposure=e, graph=graph, gps=table)
    coef = beta_poly_fit(data).coef
    assert coef[0] == pytest.approx(4.0, abs=1e-8)
    np.testing.assert_allclose(coef[1:], 0.0, atol=1e-8)


def test_poly_fit_needs_six_observations(small_graph, bernoulli_half):
    table = exact_gps_table(small_graph, bernoulli_half)
    data = Dataset(y=np.zeros(4), exposure=np.zeros(4), graph=small_graph, gps=table)
    with pytest.raises(DataError, match="at least 6"):
        beta_poly_fit(data)


def test_poly_fit_rank_deficiency_names_columns():
    # identical single-neighbor rows: observed score is constant and the
    # exposure is binary, so e^2, r, and r^2 are all collinear
    graph = BipartiteGraph.from_rows([[(j, 1.0)] for j in range(8)], m_diversion=8)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    e = np.array([0.0, 1.0] * 4)
    data = Dataset(y=np.arange(8.0), exposure=e, graph=graph, gps=table)
    with pytest.raises(RankDeficiencyError) as err:
        beta_poly_fit(data)
    assert set(err.value.columns) <= {"const", "e", "e2", "r", "r2", "e_r"}
    assert len(err.value.columns) >= 2


def test_krr_constant_outcomes_give_constant_surface():
    graph, table, e = degree_graph_dataset(33)
    data = Dataset(y=np.full(graph.n_outcome, -1.5), exposure=e, graph=graph, gps=table)
    surface = beta_krr_fit(data)
    for level in (0.0, 0.5, 1.0):
        got = surface.evaluate(level, np.array([0.1, 0.5, 0.9]))
        np.testing.assert_allclose(got, -1.5, atol=1e-9)


def test_krr_ate_less_biased_than_naive_under_heterogeneity():
    graph = synth_graph(
        GraphSpec(kind="uniform-degree", n_outcome=400, m_diversion=50, deg_min=1, deg_max=10), 5
    )
    design = AssignmentDesign.bernoulli(0.5)
    table = exact_gps_table(graph, design)
    rng = substream(9, 1)
    z = draw_assignments(design, 50, 1, rng)[:, 0]
    e = linear_exposure(graph, z.astype(np.float64))
    m = graph.degrees.astype(np.float64)
    y = m * e + rng.normal(scale=np.sqrt(0.5), size=400)
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    truth = m.mean()
    naive_err = abs(naive_ols(data) - truth)
    krr_err = abs(ate(dose_response(beta_krr_fit(data), table, np.array([0.0, 1.0]))) - truth)
    assert krr_err < naive_err


# -- imputation and curves ----------------------------------------------------


def worked_example_cells() -> CellMeanSurface:
    # cells of the two-type population, including the score-0 cells the
    # single-neighbor units occupy at the half-exposure query (those units
    # put no mass at e=1/2; their outcome is 0 everywhere)
    # rows e = 0, 1/2, 1; columns r = 0, 1/4, 1/2; NaN marks an empty cell
    values = np.array([
        [np.nan, 0.0, 0.0],
        [0.0, np.nan, 0.5],
        [np.nan, 1.0, 0.0],
    ])
    return CellMeanSurface(
        e_levels=np.array([0.0, 0.5, 1.0]),
        r_levels=np.array([0.0, 0.25, 0.5]),
        values=values,
        e_ends=np.array([0.0, 0.5, 1.0]),
        r_ends=np.array([0.0, 0.25, 0.5]),
    )


def test_dose_response_exact_worked_example(two_type_data):
    curve = dose_response(worked_example_cells(), two_type_data.gps, np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(curve.mu_hat, [0.0, 0.25, 0.5], atol=1e-12)
    assert ate(curve) == pytest.approx(0.5, abs=1e-12)
    assert curve.level(0.5) == pytest.approx(0.25)


def test_dose_response_from_fitted_cells_at_endpoints(two_type_data):
    surface = beta_cell_means(two_type_data)
    curve = dose_response(surface, two_type_data.gps, np.array([0.0, 1.0]))
    np.testing.assert_allclose(curve.mu_hat, [0.0, 0.5], atol=1e-12)


def test_dose_response_reports_missing_cells(two_type_data):
    surface = beta_cell_means(two_type_data)  # no (0.5, 0) cell in the data
    with pytest.raises(MissingCellError) as err:
        dose_response(surface, two_type_data.gps, np.array([0.0, 0.5, 1.0]))
    assert (0.5, 0.0) in err.value.holes


def test_dose_response_constant_surface(two_type_data):
    surface = CellMeanSurface(
        e_levels=np.array([0.0, 1.0]),
        r_levels=np.array([0.25, 0.5]),
        values=np.full((2, 2), 3.0),
        e_ends=np.array([0.0, 1.0]),
        r_ends=np.array([0.25, 0.5]),
    )
    curve = dose_response(surface, two_type_data.gps, np.array([0.0, 1.0]))
    np.testing.assert_allclose(curve.mu_hat, 3.0, atol=1e-12)
    assert ate(curve) == 0.0


def per_row_dose_response(surface, gps, grid):
    """The per-row average: every unit's score at e, the surface at each distinct score.

    Returns the curve, or the holes it would report.
    """
    mu, holes = [], []
    for e in grid:
        scores = gps.imputed_scores(float(e))
        uniq, inverse = np.unique(scores, return_inverse=True)
        vals = np.asarray(surface.evaluate(float(e), uniq), dtype=np.float64)
        bad = ~np.isfinite(vals)
        holes.extend((float(e), float(r)) for r in uniq[bad])
        mu.append(vals[inverse].mean())
    return (np.array(mu), []) if not holes else (None, holes)


@pytest.mark.parametrize("kind", ["exact", "monte-carlo"])
@pytest.mark.parametrize("resample", ["all", "bootstrap", "some-distributions"])
def test_dose_response_equals_the_per_row_average_bit_for_bit(kind, resample):
    graph, table, e = degree_graph_dataset(71, n=60, m=15, deg=(1, 6))
    if kind == "monte-carlo":
        table = mc_gps(graph, AssignmentDesign.bernoulli(0.5), n_bins=8, n_draws=600,
                       rng=substream(71, 2))
    y = graph.degrees * e + substream(71, 3).normal(size=graph.n_outcome)
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    if resample == "bootstrap":
        data = data.take(substream(71, 4).integers(0, graph.n_outcome, size=graph.n_outcome))
    elif resample == "some-distributions":
        data = data.take(np.flatnonzero(table.unit_dist % 3 == 0))
        assert np.unique(data.gps.unit_dist).size < table.n_dists
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    for surface in (beta_krr_fit(data), beta_poly_fit(data)):
        want, _ = per_row_dose_response(surface, data.gps, grid)
        assert dose_response(surface, data.gps, grid).mu_hat.tobytes() == want.tobytes()


def test_dose_response_needs_no_cell_at_an_unused_distributions_score(two_type_data):
    # at e = 1 the single-neighbor distribution scores 1/2 and the pair one 1/4;
    # the (1, 1/2) cell is a hole
    surface = CellMeanSurface(
        e_levels=np.array([0.0, 1.0]),
        r_levels=np.array([0.25, 0.5]),
        values=np.array([[0.0, 0.0], [1.0, np.nan]]),
        e_ends=np.array([0.0, 1.0]),
        r_ends=np.array([0.25, 0.5]),
    )
    grid = np.array([0.0, 1.0])
    pairs = two_type_data.take(np.array([4, 7, 5]))  # uses the pair distribution only
    curve = dose_response(surface, pairs.gps, grid)
    np.testing.assert_array_equal(curve.mu_hat, [0.0, 1.0])
    # a hole at a used distribution's score still raises, with the same holes as before
    _, want = per_row_dose_response(surface, two_type_data.gps, grid)
    assert want == [(1.0, 0.5)]
    with pytest.raises(MissingCellError) as err:
        dose_response(surface, two_type_data.gps, grid)
    assert err.value.holes == want


def test_ate_requires_endpoints(two_type_data):
    curve = dose_response(worked_example_cells(), two_type_data.gps, np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="not on the grid"):
        ate(curve)


# -- stratification -----------------------------------------------------------


def test_stratified_two_type(two_type_data):
    # exposure variance separates the types: 1/4 vs 1/8
    assert stratified_estimate(two_type_data, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert stratified_estimate(two_type_data, 0.0) == 0.0


def test_stratified_single_stratum_is_naive_mean(two_type_data):
    doubles = two_type_data.take(np.arange(4, 8))  # one exposure variance, 1/8
    got = stratified_estimate(doubles, 1.0)
    assert got == pytest.approx(naive_mean(doubles, 1.0), abs=1e-15)


def test_stratified_cuts_variance_deciles_past_ten_values():
    graph = synth_graph(GraphSpec("uniform-degree", 60, 20, 1, 16), 3)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    var = table.dist_variance()
    assert np.unique(np.round(var, 12)).size > 10
    # reference strata, unit by unit: [edges[k], edges[k + 1]) over the
    # distinct decile edges, the last stratum closed
    edges = np.unique(np.quantile(var, np.linspace(0, 1, 11)))
    last = edges.size - 2
    labels = np.array([next(k for k in range(last + 1) if v < edges[k + 1] or k == last)
                       for v in var])
    strata = [np.flatnonzero(labels == s) for s in np.unique(labels)]
    assert 2 < len(strata) <= 10
    exposure = np.zeros(60)
    exposure[::3] = 1.0
    exposure[[members[0] for members in strata]] = 1.0  # every stratum observed at 1
    y = np.random.default_rng(4).normal(size=60)
    data = Dataset(y=y, exposure=exposure, graph=graph, gps=table)
    want = sum(members.size / 60 * y[members][exposure[members] == 1.0].mean() for members in strata)
    assert stratified_estimate(data, 1.0) == pytest.approx(want, abs=1e-12)


def test_stratified_empty_stratum_cell(two_type_data):
    with pytest.raises(DataError, match="no observation"):
        stratified_estimate(two_type_data, 0.5)  # singles never sit at 1/2


# -- dataset mechanics --------------------------------------------------------


def test_dataset_validation(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    with pytest.raises(ValueError, match="align"):
        Dataset(y=np.zeros(5), exposure=np.zeros(8), graph=two_type_graph, gps=table)
    with pytest.raises(ValueError, match="align"):
        Dataset(y=np.zeros(8), exposure=np.zeros(8), graph=two_type_graph, gps=table.take([0, 1]))


def test_dataset_build_drops_isolated_units():
    graph = BipartiteGraph.from_rows([[(0, 1.0)], [], [(1, 1.0)]], m_diversion=2)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    with pytest.warns(UserWarning, match="isolated"):
        data = Dataset.build(graph, table, np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]))
    assert data.n_units == 2
    np.testing.assert_array_equal(data.source_indices, [0, 2])
    np.testing.assert_array_equal(data.y, [1.0, 3.0])


def test_dataset_take_tracks_sources(two_type_data):
    np.testing.assert_array_equal(two_type_data.source_indices, np.arange(8))
    sub = two_type_data.take([5, 1, 5])
    np.testing.assert_array_equal(sub.source_indices, [5, 1, 5])
    np.testing.assert_array_equal(sub.y, two_type_data.y[[5, 1, 5]])
    again = sub.take([2, 0])
    np.testing.assert_array_equal(again.source_indices, [5, 5])
    np.testing.assert_allclose(sub.observed_scores(), two_type_data.observed_scores()[[5, 1, 5]])
    # resamples share the experiment's graph; the row-aligned one is built on request
    assert sub.graph is two_type_data.graph
    assert two_type_data.row_graph() is two_type_data.graph
    np.testing.assert_array_equal(sub.degrees, [2, 1, 2])
    rows = sub.row_graph()
    assert rows.n_outcome == 3
    np.testing.assert_array_equal(rows.degrees, sub.degrees)
    assert row_edges(rows, 1) == row_edges(two_type_data.graph, 1)


def test_take_returns_frozen_arrays_of_its_own(two_type_data):
    sub = two_type_data.take([5, 1, 5])
    for name in ("y", "exposure", "source_indices"):
        child, parent = getattr(sub, name), getattr(two_type_data, name)
        assert not child.flags.writeable
        assert not np.shares_memory(child, parent)


@pytest.mark.parametrize("kind", ["exact", "monte-carlo"])
@pytest.mark.parametrize("looked_up_first", [False, True])
def test_observed_scores_are_looked_up_once_and_gathered_by_take(kind, looked_up_first):
    graph, table, e = degree_graph_dataset(61)
    if kind == "monte-carlo":
        table = mc_gps(graph, AssignmentDesign.bernoulli(0.5), n_bins=5, n_draws=400,
                       rng=substream(61, 2))
    data = Dataset(y=np.zeros(graph.n_outcome), exposure=e, graph=graph, gps=table)
    shown = repr(data)
    if looked_up_first:
        full = data.observed_scores()
        assert not full.flags.writeable
        assert data.observed_scores() is full
        np.testing.assert_array_equal(full, table.observed_scores(e))
        # the kept scores are not a field: construction, equality and repr are unchanged
        assert repr(data) == shown
    idx = substream(61, 3).integers(0, graph.n_outcome, size=graph.n_outcome)
    sub = data.take(idx)
    got = sub.observed_scores()
    assert not got.flags.writeable
    assert got.tobytes() == table.observed_scores(e[idx], units=idx).tobytes()
    pick = np.array([3, 0, 3, 17])
    again = sub.take(pick)
    assert again.observed_scores().tobytes() == table.observed_scores(
        e[idx[pick]], units=idx[pick]).tobytes()
    np.testing.assert_array_equal(again.source_indices, idx[pick])


def test_imputed_scores_are_looked_up_once_per_level_and_gathered_by_take(monkeypatch):
    from bipexp.simlab import ESTIMATOR_REGISTRY

    graph, table, e = degree_graph_dataset(62)
    y = substream(62, 4).normal(size=graph.n_outcome)
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    shown = repr(data)
    looked_up = []
    real = GpsTable.imputed_scores

    def spy(self, level):
        looked_up.append(level)
        return real(self, level)

    monkeypatch.setattr(GpsTable, "imputed_scores", spy)
    for _ in range(2):
        ht_weighted_regression(data, [0.0, 1.0])
        ESTIMATOR_REGISTRY["gps-poly"].design(data)
    assert looked_up == [0.0, 1.0]
    # the kept scores are not a field: construction, equality and repr are unchanged
    assert repr(data) == shown
    ones = data.imputed_scores(1.0)
    assert not ones.flags.writeable
    assert ones.tobytes() == real(table, 1.0).tobytes()
    # a resample reads its gathered rows and writes its own levels into a dict of its own
    idx = substream(62, 3).integers(0, graph.n_outcome, size=graph.n_outcome)
    sub = data.take(idx)
    got = sub.imputed_scores(1.0)
    assert not got.flags.writeable
    assert got.tobytes() == ones[idx].tobytes()
    assert looked_up == [0.0, 1.0]
    sub.imputed_scores(0.5)
    data.imputed_scores(0.5)
    assert looked_up == [0.0, 1.0, 0.5, 0.5]


def test_failed_score_lookup_is_not_kept(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    e = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 1.5])  # the last lies past the range
    data = Dataset(y=np.zeros(8), exposure=e, graph=two_type_graph, gps=table)
    for _ in range(2):
        with pytest.raises(DataError, match="outside"):
            data.observed_scores()
    with pytest.raises(DataError, match="outside"):
        data.take([7, 0]).observed_scores()


def test_nan_exposure_fails_the_score_lookup(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    e = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.5, np.nan, 1.0])
    data = Dataset(y=np.zeros(8), exposure=e, graph=two_type_graph, gps=table)
    with pytest.raises(DataError, match="exposure level nan outside"):
        data.observed_scores()
    with pytest.raises(DataError, match="exposure level nan outside"):
        beta_poly_fit(data)


def test_constructors_leave_caller_arrays_writable(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    y, e = np.zeros(8), np.zeros(8)
    data = Dataset(y=y, exposure=e, graph=two_type_graph, gps=table, source_indices=np.arange(8))
    grid, mu = np.array([0.0, 1.0]), np.array([0.5, 1.5])
    DoseResponseCurve(grid=grid, mu_hat=mu)
    flat = [np.array([0, 1]), np.array([1.0]), np.array([1.0]), np.array([0])]
    GpsTable(offsets=flat[0], support=flat[1], probs=flat[2], unit_dist=flat[3], hi=1.0)
    edges, p_vec = np.linspace(0.0, 1.0, 3), np.full(12, 0.5)
    binned = [np.array([0, 2]), np.array([0.25, 0.75]), np.array([0.5, 0.5]), np.array([0])]
    GpsTable(offsets=binned[0], support=binned[1], probs=binned[2], unit_dist=binned[3],
             hi=1.0, edges=edges)
    AssignmentDesign.bernoulli_heterogeneous(p_vec)
    for arr in (y, e, grid, mu, *flat, *binned, edges, p_vec):
        assert arr.flags.writeable
    y[0] = 1.0
    assert data.y[0] == 0.0 and not data.y.flags.writeable


@settings(deadline=None, max_examples=25)
@given(perm=st.permutations(list(range(8))))
def test_estimators_permutation_invariant(perm):
    graph = simple_example_graph(4, 4)
    e = linear_exposure(graph, Z_FROZEN.astype(np.float64))
    y = np.where(np.arange(8) >= 4, e, 0.0)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(0.5))
    data = Dataset(y=y, exposure=e, graph=graph, gps=table)
    shuffled = data.take(np.asarray(perm))
    assert naive_mean(shuffled, 1.0) == pytest.approx(naive_mean(data, 1.0), abs=1e-12)
    assert naive_ols(shuffled) == pytest.approx(naive_ols(data), abs=1e-10)
    assert ht_estimate(shuffled, 1.0) == pytest.approx(ht_estimate(data, 1.0), abs=1e-12)
    assert stratified_estimate(shuffled, 1.0) == pytest.approx(
        stratified_estimate(data, 1.0), abs=1e-12
    )
    grid = np.array([0.0, 1.0])
    base = dose_response(beta_cell_means(data), data.gps, grid).mu_hat
    got = dose_response(beta_cell_means(shuffled), shuffled.gps, grid).mu_hat
    np.testing.assert_allclose(got, base, atol=1e-12)


# -- sampling properties ------------------------------------------------------


def simple_example_graph(n_single: int, n_double: int) -> BipartiteGraph:
    rows = [[(i, 1.0)] for i in range(n_single)]
    rows += [
        [(n_single + 2 * k, 0.5), (n_single + 2 * k + 1, 0.5)] for k in range(n_double)
    ]
    return BipartiteGraph.from_rows(rows, m_diversion=n_single + 2 * n_double)


def test_ht_unbiased_and_naive_biased_over_assignments(bernoulli_half):
    n_single = n_double = 200
    graph = simple_example_graph(n_single, n_double)
    table = exact_gps_table(graph, bernoulli_half)
    n_reps = 5000
    z = draw_assignments(bernoulli_half, graph.m_diversion, n_reps, substream(20260819, 3))
    exposures = linear_exposure_many(graph, z.astype(np.float64))
    is_double = np.arange(graph.n_outcome) >= n_single
    ht_vals = np.empty(n_reps)
    naive_vals = np.empty(n_reps)
    for t in range(n_reps):
        e = exposures[:, t]
        data = Dataset(y=np.where(is_double, e, 0.0), exposure=e, graph=graph, gps=table)
        ht_vals[t] = ht_estimate(data, 1.0)
        naive_vals[t] = naive_mean(data, 1.0)
    ht_se = ht_vals.std() / np.sqrt(n_reps)
    naive_se = naive_vals.std() / np.sqrt(n_reps)
    assert abs(ht_vals.mean() - 0.5) <= 3 * ht_se
    assert abs(naive_vals.mean() - 1.0 / 3.0) <= 3 * naive_se
    assert abs(naive_vals.mean() - 0.5) > 10 * naive_se  # the bias is real


def test_naive_estimators_unbiased_when_effects_homogeneous(bernoulli_half):
    # outcomes ignore the graph: level means and the regression slope are
    # both unbiased over repeated assignments
    graph = simple_example_graph(50, 50)
    table = exact_gps_table(graph, bernoulli_half)
    alpha, beta = 0.5, 2.0
    n_reps = 600
    rng = substream(17, 3)
    z = draw_assignments(bernoulli_half, graph.m_diversion, n_reps, rng)
    exposures = linear_exposure_many(graph, z.astype(np.float64))
    means = np.empty(n_reps)
    slopes = np.empty(n_reps)
    for t in range(n_reps):
        e = exposures[:, t]
        y = alpha + beta * e + rng.normal(scale=0.3, size=graph.n_outcome)
        data = Dataset(y=y, exposure=e, graph=graph, gps=table)
        means[t] = naive_mean(data, 1.0)
        slopes[t] = naive_ols(data)
    assert abs(means.mean() - (alpha + beta)) <= 3 * means.std() / np.sqrt(n_reps)
    assert abs(slopes.mean() - beta) <= 3 * slopes.std() / np.sqrt(n_reps)
