"""Least-squares and kernel-ridge internals against closed forms.

The KRR collapse claim (duplicate rows pooled into weighted points leave
predictions unchanged) is verified against an explicitly uncollapsed
solve of the same regularized system, and the 1-d duplicate search
against `np.unique` over whole rows, bit for bit. The direct LAPACK calls
are pinned bit for bit to the scipy.linalg wrappers they replace, and the
bandwidth median to `np.median`.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.spatial.distance import cdist, pdist

from bipexp import numerics
from bipexp.errors import DataError, NumericalError, RankDeficiencyError
from bipexp.numerics import (
    KRR_BANDWIDTH_SCALE,
    KRR_MAX_POINTS,
    KRR_RIDGE,
    KernelFit,
    _krr_fit_counts,
    _median_pairwise_distance,
    _unique_rows,
    krr_fit,
    krr_predict,
    ols,
)


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(900 + tag)


# -- ordinary least squares --------------------------------------------------


def test_ols_recovers_exact_coefficients():
    rng = rng_for(1)
    x = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
    beta = np.array([1.5, -2.0, 0.25])
    fit = ols(x, x @ beta)
    np.testing.assert_allclose(fit.coef, beta, atol=1e-10)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)
    np.testing.assert_allclose(fit.coef_cov(), 0.0, atol=1e-18)


def test_ols_matches_normal_equations():
    rng = rng_for(2)
    n, k = 60, 3
    x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    y = x @ np.array([0.3, 1.0, -0.7]) + rng.normal(size=n)
    fit = ols(x, y)
    coef_ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(fit.coef, coef_ref, atol=1e-10)
    resid = y - x @ coef_ref
    sigma2_ref = resid @ resid / (n - k)
    cov_ref = sigma2_ref * np.linalg.inv(x.T @ x)
    cov = fit.coef_cov()
    np.testing.assert_allclose(cov, cov_ref, atol=1e-10)
    np.testing.assert_array_equal(cov, cov.T)


def test_ols_residuals_orthogonal_to_design():
    rng = rng_for(3)
    x = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    fit = ols(x, y)
    np.testing.assert_allclose(x.T @ fit.residuals, 0.0, atol=1e-9)


def test_ols_saturated_fit_has_zero_covariance():
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    fit = ols(x, np.array([2.0, 5.0]))
    assert np.all(fit.coef_cov() == 0.0)
    np.testing.assert_allclose(fit.coef, [2.0, 3.0], atol=1e-12)


def test_rank_deficiency_names_collinear_columns():
    rng = rng_for(4)
    a = rng.normal(size=30)
    x = np.column_stack([np.ones(30), a, 2.0 * a])
    with pytest.raises(RankDeficiencyError) as err:
        ols(x, rng.normal(size=30), labels=("const", "a", "twice_a"))
    assert len(err.value.columns) == 1
    assert err.value.columns[0] in ("a", "twice_a")
    assert "collinear" in str(err.value)


@pytest.mark.parametrize(
    "x, y, match",
    [
        (np.ones((2, 3)), np.ones(2), "observations"),
        (np.ones((4, 2)), np.ones(3), "shape"),
        (np.array([[1.0], [np.inf]]), np.ones(2), "finite"),
        (np.ones((4, 1)), np.array([1.0, 2.0, np.nan, 0.0]), "finite"),
    ],
)
def test_ols_input_validation(x, y, match):
    with pytest.raises(ValueError, match=match):
        ols(x, y)


def test_design_matrix_validation():
    with pytest.raises(ValueError, match="label"):
        ols(np.ones((3, 2)), np.ones(3), labels=("only_one",))
    with pytest.raises(ValueError, match="2-d"):
        ols(np.ones(3), np.ones(3), labels=("a",))
    # without labels the collinear columns are named by position
    with pytest.raises(RankDeficiencyError, match="collinear columns: x1") as err:
        ols(np.column_stack([np.ones(4), np.ones(4)]), np.arange(4.0))
    assert err.value.columns == ("x1",)


def test_linear_fit_predict_and_solve():
    rng = rng_for(11)
    x = np.column_stack([np.ones(5), np.arange(5.0)])
    fit = ols(x, 2.0 + 3.0 * np.arange(5.0))
    grid = np.column_stack([np.ones(3), np.array([10.0, 11.0, 12.0])])
    want = 2.0 + 3.0 * np.array([10.0, 11.0, 12.0])
    np.testing.assert_allclose(grid @ fit.coef, want, atol=1e-10)
    # new responses reuse the factorisation: one vector or an (n, B) block
    block = rng.normal(size=(5, 4))
    coefs = fit.solve(block)
    assert coefs.shape == (2, 4)
    for b in range(4):
        np.testing.assert_allclose(coefs[:, b], ols(x, block[:, b]).coef, atol=1e-12)
    np.testing.assert_allclose(fit.solve(block[:, 0]), coefs[:, 0], atol=1e-12)
    np.testing.assert_allclose(fit.xtx_inv(), np.linalg.inv(x.T @ x), atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 40),
    k=st.integers(1, 4),
)
def test_ols_matches_lstsq_property(seed, n, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    y = rng.normal(size=n)
    fit = ols(x, y)
    coef_ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(fit.coef, coef_ref, atol=1e-8)


# -- direct LAPACK calls against the scipy.linalg wrappers ---------------------


@st.composite
def tall_designs(draw):
    """A C-ordered (n, k) design, k <= 8, with columns scaled over eight decades."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-4, 5, size=k)
    return np.ascontiguousarray(rng.normal(size=(n, k)) * scales)


def sla_coef(q, r, piv, rhs):
    """The solve `LinearFit` made through scipy.linalg before it called LAPACK itself."""
    z = sla.solve_triangular(r, q.T @ rhs)
    coef = np.empty_like(z)
    coef[piv] = z
    return coef


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.tobytes(order="A") == want.tobytes(order="A")


@settings(deadline=None, max_examples=120)
@given(x=tall_designs(), b=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(x=np.array([[2.0]]), b=1, seed=0)  # 1 x 1: r is C- and F-ordered at once
@example(x=np.ascontiguousarray(np.vander(np.linspace(0.0, 1.0, 8), 8)), b=3, seed=1)  # square
def test_direct_lapack_qr_and_solves_match_scipy_linalg_bit_for_bit(x, b, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=x.shape[0])
    q, r, piv = numerics._pivoted_qr(x)
    q_ref, r_ref, piv_ref = sla.qr(x, mode="economic", pivoting=True)
    for got, want in ((q, q_ref), (r, r_ref), (piv, piv_ref)):
        assert_same_array(got, want)
    try:
        fit = ols(x, y)
    except RankDeficiencyError:
        return  # a column scaled far below the others counts as collinear
    assert fit.coef.tobytes() == sla_coef(q_ref, r_ref, piv_ref, y).tobytes()
    for attr, want in (("q", q_ref), ("r", r_ref), ("piv", piv_ref)):
        assert_same_array(getattr(fit, attr), want)
    # new responses, one vector and an (n, B) block
    block = rng.normal(size=(x.shape[0], b))
    for rhs in (block[:, 0], block):
        assert_same_array(fit.solve(rhs), sla_coef(q_ref, r_ref, piv_ref, rhs))
    k = x.shape[1]
    r_inv = sla.solve_triangular(r_ref, np.eye(k))
    want = np.empty((k, k))
    want[np.ix_(piv_ref, piv_ref)] = r_inv @ r_inv.T
    assert fit.xtx_inv().tobytes() == want.tobytes()


@settings(deadline=None, max_examples=80)
@given(g=st.integers(1, 40), b=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**16))
def test_direct_cholesky_matches_cho_factor_and_cho_solve_bit_for_bit(g, b, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(g, 2))
    gram = np.exp(-0.5 * cdist(points, points, "sqeuclidean"))
    system = gram + KRR_RIDGE * np.diag(1.0 / rng.integers(1, 9, size=g))
    rhs = rng.normal(size=g if b is None else (g, b))
    want = sla.cho_solve(sla.cho_factor(system), rhs)
    assert_same_array(numerics._cholesky_solve(system, rhs), want)


def test_solve_refuses_non_finite_responses():
    fit = ols(np.column_stack([np.ones(5), np.arange(5.0)]), np.arange(5.0))
    for bad in (np.nan, np.inf, -np.inf):
        rhs = np.arange(5.0)
        rhs[2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit.solve(rhs)
        with pytest.raises(ValueError, match="finite"):
            fit.solve(np.column_stack([np.arange(5.0), rhs]))


def test_ols_refuses_a_design_without_columns():
    with pytest.raises(ValueError, match="at least one column"):
        ols(np.ones((3, 0)), np.ones(3))


# -- kernel ridge regression ------------------------------------------------


def uncollapsed_krr_oracle(x, y, bandwidth, ridge, grid):
    """Solve the plain (K + ridge I) alpha = y - ybar system, no pooling."""
    center = x.mean(axis=0)
    scale = np.where(x.std(axis=0) > 0, x.std(axis=0), 1.0)
    xs = (x - center) / scale
    gram = np.exp(-0.5 * cdist(xs / bandwidth, xs / bandwidth, "sqeuclidean"))
    alpha = sla.solve(gram + ridge * np.eye(len(y)), y - y.mean())
    gs = (grid - center) / scale
    k = np.exp(-0.5 * cdist(gs / bandwidth, xs / bandwidth, "sqeuclidean"))
    return k @ alpha + y.mean()


def test_krr_collapse_matches_uncollapsed_solve():
    rng = rng_for(5)
    base = rng.normal(size=(12, 2))
    x = np.vstack([base, base[:5], base[:2]])  # heavy duplication
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + rng.normal(scale=0.1, size=len(x))
    fit = krr_fit(x, y)
    assert len(fit.points) == 12
    grid = rng.normal(size=(7, 2))
    want = uncollapsed_krr_oracle(x, y, fit.bandwidth, KRR_RIDGE, grid)
    np.testing.assert_allclose(krr_predict(fit, grid), want, atol=1e-8)


def test_krr_constant_targets_predict_exactly():
    rng = rng_for(6)
    x = rng.normal(size=(20, 2))
    fit = krr_fit(x, np.full(20, 3.25))
    np.testing.assert_allclose(fit.dual, 0.0, atol=1e-12)
    grid = rng.normal(size=(5, 2)) * 10.0
    np.testing.assert_allclose(krr_predict(fit, grid), 3.25, atol=1e-12)


def test_krr_shrinks_to_mean_far_from_data():
    rng = rng_for(7)
    x = rng.normal(size=(25, 2))
    y = 2.0 + rng.normal(size=25)
    fit = krr_fit(x, y)
    far = np.array([[1e4, 1e4]])
    assert krr_predict(fit, far)[0] == pytest.approx(y.mean(), abs=1e-8)


def test_krr_bandwidth_is_scaled_median_heuristic():
    rng = rng_for(9)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    fit = krr_fit(x, y)
    base = _median_pairwise_distance(fit.points)
    np.testing.assert_array_equal(fit.bandwidth, np.asarray(KRR_BANDWIDTH_SCALE) * base)
    assert fit.bandwidth.shape == (2,)
    # one input point: no pairwise distance, so the heuristic falls back to 1
    single = krr_fit(np.ones((3, 2)), np.arange(3.0))
    np.testing.assert_array_equal(single.bandwidth, KRR_BANDWIDTH_SCALE)


def test_krr_count_fit_matches_the_expanded_rows():
    # krr_fit is this count fit on its collapsed rows, so the check is the
    # plain solve over the expanded rows, with no pooling
    rng = rng_for(10)
    base = rng.normal(size=(30, 2))
    rows = np.vstack([base, base[rng.integers(0, 30, 90)]])  # non-dyadic, repeated
    dyadic = np.column_stack([rng.integers(0, 8, 120) / 8, np.full(120, 0.5)])
    grid = rng.uniform(size=(9, 2))
    for x in (rows, dyadic):  # the dyadic score is constant and passes through unscaled
        y = np.sin(3 * x[:, 0]) + x[:, 1] + rng.normal(scale=0.1, size=x.shape[0])
        cells, label = _unique_rows(x)
        counts = np.bincount(label).astype(np.float64)
        got = _krr_fit_counts(cells, counts, np.bincount(label, weights=y))
        assert got.points.shape == cells.shape
        want_scale = np.where(np.ptp(x, axis=0) > 0, x.std(axis=0), 1.0)
        np.testing.assert_allclose(got.scale, want_scale, rtol=1e-12)
        want = uncollapsed_krr_oracle(x, y, got.bandwidth, KRR_RIDGE, grid)
        np.testing.assert_allclose(krr_predict(got, grid), want, atol=1e-8)


def test_krr_keeps_distinct_inputs_that_standardize_to_one_point():
    # 0 and 1e-300 less a center near 0.5 round to one value: the two rows
    # stay two points, as their cells do in the count fit, whose center
    # rounds its own way; merging after standardizing would let the two
    # fits' points, and so their bandwidths, differ for inputs an ulp apart
    x = np.array([[0.0, 0.0], [1e-300, 0.0], [1.0, 0.0], [1.0, 0.0]])
    y = np.arange(4.0)
    fit = krr_fit(x, y)
    assert fit.points.shape == (3, 2)
    np.testing.assert_array_equal(fit.points[0], fit.points[1])
    counted = _krr_fit_counts(x[:3], np.array([1.0, 1.0, 2.0]), np.array([0.0, 1.0, 5.0]))
    assert counted.points.shape == (3, 2)
    np.testing.assert_allclose(counted.bandwidth, fit.bandwidth, rtol=1e-12)


def test_krr_constant_feature_passes_through_unscaled():
    # np.std of a constant 0.1 column is about 1e-17, not 0; dividing by it
    # would put every query off that value infinitely far from the data
    rng = rng_for(11)
    x = np.column_stack([np.full(30, 0.1), rng.uniform(size=30)])
    fit = krr_fit(x, rng.normal(size=30))
    assert fit.scale[0] == 1.0
    near = np.column_stack([np.full(5, 0.1), np.linspace(0, 1, 5)])
    np.testing.assert_allclose(krr_predict(fit, near + [1e-3, 0.0]), krr_predict(fit, near),
                               rtol=1e-3)


@pytest.mark.parametrize("g", [KRR_MAX_POINTS + 1, 20_000])
def test_krr_refuses_more_points_than_the_budget_before_allocating(g):
    # 20k points would need about 10 GB of g x g arrays
    cells = np.column_stack([np.arange(g) / g, np.zeros(g)])
    message = rf"over {g} distinct .* budget of {KRR_MAX_POINTS} \(KRR_MAX_POINTS\)"
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=message):
            krr_fit(cells, np.ones(g))
        with pytest.raises(DataError, match=message):
            _krr_fit_counts(cells, np.ones(g), np.ones(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_krr_budget_counts_distinct_points(monkeypatch):
    monkeypatch.setattr(numerics, "KRR_MAX_POINTS", 3)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] * 4)
    krr_fit(x, np.arange(12.0))  # 12 rows on 3 points fit
    with pytest.raises(DataError, match="over 4 distinct"):
        krr_fit(np.vstack([x, [[1.0, 1.0]]]), np.arange(13.0))


def test_krr_input_validation():
    x = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(ValueError, match="finite"):
        krr_fit(np.array([[np.nan, 0.0]]), np.ones(1))
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        krr_fit(np.ones(4), y)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        krr_fit(np.ones((4, 1)), y)
    with pytest.raises(ValueError, match="at least one"):
        krr_fit(np.empty((0, 2)), np.empty(0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="system must be finite"):
        krr_fit(np.arange(6.0).reshape(3, 2), np.full(3, 1.7e308))  # the mean overflows
    fit = krr_fit(x * np.arange(4)[:, None], np.arange(4.0))
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        krr_predict(fit, np.ones((2, 3)))


def test_krr_singular_system_raises_numerical_error(monkeypatch):
    # at KRR_RIDGE the system is positive definite for any finite inputs, so
    # a negative ridge makes one that is not: its first leading minor is 1 - 10
    monkeypatch.setattr(numerics, "KRR_RIDGE", -10.0)
    with pytest.raises(NumericalError, match="numerically singular"):
        krr_fit(rng_for(12).normal(size=(5, 2)), np.arange(5.0))
    with pytest.raises(NumericalError, match="numerically singular"):
        numerics._cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        numerics._cholesky_solve(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        numerics._cholesky_solve(np.eye(2), np.array([1.0, np.inf]))


def test_kernel_fit_is_plain_record():
    x = np.column_stack([np.arange(4.0), np.arange(4.0) ** 2])
    fit = krr_fit(x, np.arange(4.0))
    assert isinstance(fit, KernelFit)
    assert fit.points.shape == (4, 2)
    assert fit.dual.shape == (4,)


def structured_unique_rows(xs):
    """The collapse `krr_fit` used before: `np.unique` over whole rows."""
    return np.unique(xs, axis=0, return_inverse=True)


# near-ties one ulp apart, both zeros, and a tiny and a large magnitude
_TIE_VALUES = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
               np.nextafter(0.0, 1.0), -2.5, 1e-300, 7.0e3]


@st.composite
def collapse_inputs(draw):
    """(n, 2) rows over a pool of tied values, with exact duplicates and maybe a constant column."""
    n = draw(st.integers(1, 30))
    values = st.one_of(st.sampled_from(_TIE_VALUES), st.floats(-1e3, 1e3, allow_nan=False))
    first = draw(st.lists(values, min_size=n, max_size=n))
    second = [draw(values)] * n if draw(st.booleans()) else draw(
        st.lists(values, min_size=n, max_size=n))
    rows = np.column_stack([first, second])
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return np.ascontiguousarray(np.vstack([rows, rows[repeats]]))


@settings(deadline=None, max_examples=150)
@given(x=collapse_inputs(), seed=st.integers(0, 2**16))
@example(x=np.array([[0.5, -1.0]]), seed=0)  # n = 1
@example(x=np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 1.0]]), seed=1)
@example(x=np.array([[1.0, 2.0], [np.nextafter(1.0, 2.0), 2.0], [1.0, np.nextafter(2.0, 0.0)],
                     [1.0, 2.0], [np.nextafter(1.0, 0.0), 2.0]]), seed=2)
@example(x=np.array([[3.0, 4.0], [1.0, 4.0], [3.0, 4.0], [2.0, 4.0]]), seed=3)  # constant column
@example(x=np.array([[0.0, 0.0], [0.0, 4.2e-272]]), seed=0)  # a spread whose std underflows
def test_unique_rows_matches_the_structured_collapse(x, seed):
    points, inverse = numerics._unique_rows(x)
    old_points, old_inverse, old_counts = np.unique(
        x, axis=0, return_inverse=True, return_counts=True)
    assert points.shape == old_points.shape and np.all(points == old_points)
    assert inverse.dtype == old_inverse.dtype and inverse.tobytes() == old_inverse.tobytes()
    counts = np.bincount(inverse)
    assert counts.dtype == old_counts.dtype and counts.tobytes() == old_counts.tobytes()

    # the fit, and its predictions, are the ones the old collapse gave bit for bit
    rng = np.random.default_rng(seed)
    y = rng.normal(size=len(x))
    grid = np.vstack([x[: min(len(x), 5)], rng.normal(size=(4, 2))])
    fit = krr_fit(x, y)
    with mock.patch.object(numerics, "_unique_rows", structured_unique_rows):
        old_fit = krr_fit(x, y)
    assert np.all(fit.points == old_fit.points)
    assert fit.dual.tobytes() == old_fit.dual.tobytes()
    assert fit.bandwidth.tobytes() == old_fit.bandwidth.tobytes()
    assert krr_predict(fit, grid).tobytes() == krr_predict(old_fit, grid).tobytes()


# -- helpers ------------------------------------------------------------------


@st.composite
def distance_clouds(draw):
    """2 to 40 points in one or two dimensions, over a small grid when ties are wanted."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float)  # many tied distances
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False)
    return np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)


@settings(deadline=None, max_examples=200)
@given(points=distance_clouds())
@example(points=np.array([[0.0], [1.0]]))  # one distance
@example(points=np.array([[0.0], [1.0], [3.0], [6.0]]))  # six: an even count
@example(points=np.array([[0.0], [1.0], [3.0]]))  # three: an odd count
@example(points=np.zeros((5, 2)))  # every distance tied at 0
def test_median_pairwise_distance_equals_np_median(points):
    want = np.median(pdist(points))
    got = _median_pairwise_distance(points)
    assert type(got) is float and got == float(want)


def test_median_pairwise_distance_small_cases():
    assert _median_pairwise_distance(np.array([[0.0], [3.0]])) == pytest.approx(3.0)
    assert _median_pairwise_distance(np.array([[1.0]])) == 0.0
    assert _median_pairwise_distance(np.empty((0, 2))) == 0.0


def test_median_pairwise_distance_subsamples_large_inputs():
    rng = rng_for(10)
    points = rng.normal(size=(4000, 2))
    d = _median_pairwise_distance(points)
    assert 0.5 < d < 3.0  # about sqrt(2) * 1.18 for a standard normal cloud
