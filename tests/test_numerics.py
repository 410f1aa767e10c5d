"""Least-squares and kernel-ridge internals against closed forms.

The KRR collapse claim (duplicate rows pooled into weighted points leave
predictions unchanged) is verified against an explicitly uncollapsed
solve of the same regularized system, and the 1-d duplicate search
against `np.unique` over whole rows, bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.spatial.distance import cdist

from bipexp import numerics
from bipexp.errors import NumericalError, RankDeficiencyError
from bipexp.numerics import (
    KRR_BANDWIDTH_SCALE,
    KRR_RIDGE,
    KernelFit,
    _median_pairwise_distance,
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
    fit = krr_fit(x * np.arange(4)[:, None], np.arange(4.0))
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        krr_predict(fit, np.ones((2, 3)))


def test_krr_singular_system_raises_numerical_error(monkeypatch):
    # at KRR_RIDGE the system is positive definite for any finite inputs,
    # so a failing factorisation is simulated
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(numerics.sla, "cho_factor", fail)
    with pytest.raises(NumericalError, match="numerically singular"):
        krr_fit(rng_for(12).normal(size=(5, 2)), np.arange(5.0))


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


def test_median_pairwise_distance_small_cases():
    assert _median_pairwise_distance(np.array([[0.0], [3.0]])) == pytest.approx(3.0)
    assert _median_pairwise_distance(np.array([[1.0]])) == 0.0
    assert _median_pairwise_distance(np.empty((0, 2))) == 0.0


def test_median_pairwise_distance_subsamples_large_inputs():
    rng = rng_for(10)
    points = rng.normal(size=(4000, 2))
    d = _median_pairwise_distance(points)
    assert 0.5 < d < 3.0  # about sqrt(2) * 1.18 for a standard normal cloud
