"""Least squares and kernel ridge regression used by the estimators.

Both routines are deliberately strict about failure: rank deficiency names
the offending columns instead of silently pseudo-inverting, a singular
kernel system raises instead of returning garbage, and a kernel fit over
more than `KRR_MAX_POINTS` distinct inputs is refused before its g x g
arrays exist. Both call the LAPACK routines that scipy.linalg's `qr`,
`solve_triangular`, `cho_factor` and `cho_solve` call, the same way, so
the results are theirs bit for bit without their per-call checks and
dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist, pdist

from .errors import DataError, NumericalError, RankDeficiencyError

# R-diagonal entries below RANK_TOL * the largest count as zero.
RANK_TOL = 1e-10

# The kernel ridge fit of the (exposure, score) surface: bandwidth
# multipliers of the median heuristic along each input, and the ridge.
KRR_BANDWIDTH_SCALE = (12.0, 2.0)
KRR_RIDGE = 0.1

# Cap on the number of points entering the median-distance heuristic.
_BANDWIDTH_SAMPLE = 1500

# Budget on a kernel ridge fit's distinct points g. The fit holds about
# 24 bytes x g^2 at peak (the pairwise distances, the Gram matrix and the
# system, each g x g float64): 4000 points take about 0.4 GB and one second
# to fit, and the next doubling 1.5 GB, too much for one fit on a host of a
# few GB. A larger fit is refused before any g x g array exists.
KRR_MAX_POINTS = 4000


# The float64 LAPACK routines behind the solvers, fetched once.
_GEQP3, _ORGQR, _TRTRS, _POTRF, _POTRS = get_lapack_funcs(
    ("geqp3", "orgqr", "trtrs", "potrf", "potrs"), dtype=np.float64)


def _with_workspace(routine, *args, **kwargs):
    """Outputs of a LAPACK routine run with the workspace its own query asks for.

    The query (lwork=-1) is the one scipy.linalg makes, so blocked routines
    take the same code path and round the same way.
    """
    work = routine(*args, lwork=-1, **kwargs)[-2]
    *out, _, info = routine(*args, lwork=int(work[0]), **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


def _pivoted_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`scipy.linalg.qr(x, mode="economic", pivoting=True)` for a tall (n, k) x, k >= 1.

    q comes back Fortran-ordered, r C-ordered and piv int32, as there.
    """
    qr, piv, tau = _with_workspace(_GEQP3, x)
    piv -= 1  # LAPACK numbers columns from 1
    r = np.triu(qr[: x.shape[1], :])
    (q,) = _with_workspace(_ORGQR, qr, tau, overwrite_a=1)
    return q, r, piv


def _solve_upper(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`scipy.linalg.solve_triangular(r, rhs)` for the C-ordered upper-triangular r.

    LAPACK reads arrays in Fortran order, so it is handed r's transpose (a
    lower-triangular Fortran array, no copy) and solves the transposed system.
    """
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must be finite")
    x, info = _TRTRS(r.T, rhs, lower=1, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _qr_solve(q, r, piv, rhs) -> np.ndarray:
    return _from_basis(r, piv, q.T @ rhs)


def _from_basis(r, piv, z) -> np.ndarray:
    x = _solve_upper(r, z)
    coef = np.empty_like(x)
    coef[piv] = x
    return coef


def _xtx_inv(r, piv) -> np.ndarray:
    k = r.shape[0]
    r_inv = _solve_upper(r, np.eye(k))
    out = np.empty((k, k))
    out[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return out


@dataclass(frozen=True)
class LinearFit:
    """OLS result: coefficients and residuals.

    Keeps the pivoted QR factorisation x[:, piv] = q @ r it was solved
    through, so further responses on the same design are solved, and the
    coefficient covariance is formed, without factoring again.
    """

    coef: np.ndarray
    residuals: np.ndarray
    q: np.ndarray
    r: np.ndarray
    piv: np.ndarray

    def solve(self, rhs) -> np.ndarray:
        """Coefficients of new responses on the design: (n,) gives (k,), (n, B) gives (k, B).

        Non-finite responses raise `ValueError`.
        """
        return _qr_solve(self.q, self.r, self.piv, np.asarray(rhs, dtype=np.float64))

    def from_basis(self, z) -> np.ndarray:
        """Coefficients whose fitted values are q @ z: (k,) gives (k,), (k, B) gives (k, B).

        `solve(rhs)` is `from_basis(q.T @ rhs)`. Non-finite z raises `ValueError`.
        """
        return _from_basis(self.r, self.piv, np.asarray(z, dtype=np.float64))

    def xtx_inv(self) -> np.ndarray:
        """(x.T @ x)^-1 from the factorisation, in the design's column order."""
        return _xtx_inv(self.r, self.piv)

    def coef_cov(self) -> np.ndarray:
        """Homoskedastic coefficient covariance: u.u / (n - k) times (x.T @ x)^-1.

        Symmetrised; zero for a saturated fit (n = k).
        """
        n, k = self.q.shape
        u = self.residuals
        sigma2 = float(u @ u / (n - k)) if n > k else 0.0
        cov = sigma2 * _xtx_inv(self.r, self.piv)
        return (cov + cov.T) / 2.0


def ols(x, y, *, labels=None) -> LinearFit:
    """Ordinary least squares through a pivoted QR decomposition.

    Parameters
    ----------
    x : ndarray (n, k)
    y : ndarray (n,)
    labels : sequence of k str, optional
        Column names for error messages; defaults to x0, x1, ...

    Raises
    ------
    RankDeficiencyError
        Numerically collinear columns (an R-diagonal entry at or below
        RANK_TOL times the largest); the error lists their labels.
    ValueError
        No columns, fewer observations than columns, a label count that
        differs from the column count, or non-finite entries.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-d")
    n, k = x.shape
    labels = tuple(f"x{j}" for j in range(k)) if labels is None else tuple(labels)
    if len(labels) != k:
        raise ValueError(f"need one label per column ({len(labels)} labels, {k} columns)")
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if k == 0:
        raise ValueError("design matrix needs at least one column")
    if n < k:
        raise ValueError(f"need at least as many observations ({n}) as columns ({k})")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("design matrix and response must be finite")

    q, r, piv = _pivoted_qr(x)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    if rank < k:
        culprits = tuple(labels[j] for j in piv[rank:])
        raise RankDeficiencyError(
            f"design matrix is rank deficient (rank {rank} of {k}); "
            f"collinear columns: {', '.join(culprits)}",
            columns=culprits,
        )

    coef = _qr_solve(q, r, piv, y)
    return LinearFit(coef=coef, residuals=y - x @ coef, q=q, r=r, piv=piv)


def _cholesky_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`scipy.linalg.cho_solve(cho_factor(system), rhs)` for a symmetric system.

    The factor is the upper one, with the lower triangle left as it was,
    as `cho_factor` leaves it.

    Raises
    ------
    NumericalError
        The system is not numerically positive definite.
    ValueError
        Non-finite entries.
    """
    if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
        raise ValueError("kernel system must be finite")
    factor, info = _POTRF(system, clean=0)
    if info > 0:
        raise NumericalError(
            f"kernel system is numerically singular (leading minor {info} is not "
            "positive definite)"
        )
    return _POTRS(factor, rhs)[0]


@dataclass(frozen=True)
class KernelFit:
    """Kernel ridge fit over standardized inputs.

    Fit by `_krr_fit_counts` from distinct inputs with counts and target
    sums, into which `krr_fit` collapses duplicate raw rows (the ridge
    objective depends on the data only through those, so predictions are
    the uncollapsed fit's). Two distinct rows that standardize to one
    point stay two. `points` holds the standardized points in
    lexicographic order.
    """

    points: np.ndarray  # (g, 2) standardized distinct inputs
    dual: np.ndarray  # (g,)
    bandwidth: np.ndarray  # (2,) per-feature length scales
    center: np.ndarray
    scale: np.ndarray
    target_center: float


def _unit_if_flat(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`scale`, with 1 for each feature that is constant over the rows x or
    whose scale underflows to 0: such features pass through unscaled.
    Constancy is read off the range, because np.std of a constant
    non-dyadic column rounds to about 1e-17, not 0."""
    return np.where((np.ptp(x, axis=0) > 0) & (scale > 0), scale, 1.0)


def _median_pairwise_distance(points: np.ndarray) -> float:
    """Median euclidean distance between distinct point pairs (0 if degenerate)."""
    if points.shape[0] > _BANDWIDTH_SAMPLE:
        stride = int(np.ceil(points.shape[0] / _BANDWIDTH_SAMPLE))
        points = points[::stride]
    if points.shape[0] < 2:
        return 0.0
    # the middle order statistics, averaged for an even count as np.median does;
    # one partition at the upper one leaves the lower one the largest below it,
    # and partitioning at a pair of positions costs several times more
    dist = pdist(points)
    hi = dist.size // 2
    part = np.partition(dist, hi)
    return float(part[hi] if dist.size % 2 else (part[:hi].max() + part[hi]) / 2.0)


def _unique_rows(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(xs, axis=0, return_inverse=True)` for C-contiguous (n, 2) float64 rows."""
    # each row views as one complex number, and numpy orders complex values by
    # real then imaginary part: the same lexicographic order as the row compare
    u, inverse = np.unique(xs.view(np.complex128).ravel(), return_inverse=True)
    return np.column_stack([u.real, u.imag]), inverse


def krr_fit(x, y) -> KernelFit:
    """Fit kernel ridge regression with a Gaussian kernel on two inputs.

    Targets are centered before solving and the mean is added back at
    prediction time, so the ridge penalty shrinks toward the sample mean
    rather than toward zero. The kernel's length scale along each input
    is `KRR_BANDWIDTH_SCALE` times the median pairwise distance among the
    standardized distinct inputs (1 when that is 0), and the ridge is
    `KRR_RIDGE`. The distinct rows, with counts and target sums, are fit
    by `_krr_fit_counts`.

    Parameters
    ----------
    x : ndarray (n, 2)
        Inputs; standardized internally to unit variance per feature.
    y : ndarray (n,)

    Raises
    ------
    DataError
        More than `KRR_MAX_POINTS` distinct inputs, refused before any
        g x g array is allocated.
    NumericalError
        The regularized kernel system could not be factorized.
    ValueError
        Malformed or non-finite inputs, or targets so large that the
        centered system overflows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    d = len(KRR_BANDWIDTH_SCALE)
    if x.ndim != 2 or x.shape[1] != d or y.shape != (x.shape[0],):
        raise ValueError(f"x must be (n, {d}) and y (n,)")
    if x.shape[0] == 0:
        raise ValueError("need at least one observation")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs and targets must be finite")

    cells, inverse = _unique_rows(x)
    counts = np.bincount(inverse).astype(np.float64)
    return _krr_fit_counts(cells, counts, np.bincount(inverse, weights=y))


def _krr_fit_counts(cells: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> KernelFit:
    """`krr_fit` of rows that repeat each distinct input `cells[j]` `counts[j]`
    times, with targets summing to `sums[j]` over those rows.

    `counts` is positive. The center, the ddof-0 scale and the target mean
    are count-weighted. More than `KRR_MAX_POINTS` cells raise `DataError`
    before any g x g array exists; otherwise raises as `krr_fit` does.
    """
    g = cells.shape[0]
    if g > KRR_MAX_POINTS:
        raise DataError(
            f"kernel ridge fit over {g} distinct (exposure, score) points exceeds the "
            f"budget of {KRR_MAX_POINTS} (KRR_MAX_POINTS); its g x g kernel system "
            f"would take about {24 * g * g / 1e9:.1f} GB"
        )
    total = counts.sum()
    target_center = float(sums.sum() / total)
    center = counts @ cells / total
    dev = cells - center
    scale = _unit_if_flat(cells, np.sqrt(counts @ (dev * dev) / total))
    points = dev / scale
    # standardizing keeps the cells' lexicographic order except where it
    # ties the first coordinates of two of them; sort again
    order = np.argsort(points.view(np.complex128).ravel(), kind="stable")
    points, counts, sums = points[order], counts[order], sums[order]
    base = _median_pairwise_distance(points)
    bandwidth = np.asarray(KRR_BANDWIDTH_SCALE) * (base if base > 0 else 1.0)
    bandwidth.setflags(write=False)

    scaled = points / bandwidth
    gram = np.exp(-0.5 * cdist(scaled, scaled, "sqeuclidean"))
    # collapsed normal equations: (K + ridge * diag(1/counts)) alpha = ybar - y0
    system = gram + KRR_RIDGE * np.diag(1.0 / counts)
    dual = _cholesky_solve(system, sums / counts - target_center)
    return KernelFit(
        points=points,
        dual=dual,
        bandwidth=bandwidth,
        center=center,
        scale=scale,
        target_center=target_center,
    )


def krr_predict(fit: KernelFit, x) -> np.ndarray:
    """Evaluate a kernel ridge fit at new inputs (n, d)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != fit.points.shape[1]:
        raise ValueError(f"x must be (n, {fit.points.shape[1]})")
    xs = (x - fit.center) / fit.scale
    k = np.exp(-0.5 * cdist(xs / fit.bandwidth, fit.points / fit.bandwidth, "sqeuclidean"))
    return k @ fit.dual + fit.target_center
