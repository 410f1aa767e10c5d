"""Uncertainty quantification for exposure-response estimates.

Four interval functions take one statistic and return an `IntervalEstimate`:

* `naive_bootstrap` and `block_bootstrap` resample the outcome units, the
  latter by graph component when interference makes rows dependent,
* `ols_asymptotic_interval` is the normal-theory interval of the fit,
* `parametric_bootstrap` rebuilds outcomes from a fitted two-component
  error model (unit-level noise plus noise propagated from the diversion
  side through the graph), which stays honest when the naive bootstrap's
  independence assumption fails.

The statistic is a linear design (phi, target, contrast), whose estimate
is contrast @ ols(phi, target).coef, cast and checked by `_linear_design`.
The resampling bootstraps take two more kinds: a callable, applied to the
data and to each resample `Dataset.take` builds, and a count statistic
(`_CountStatistic`), built once on the full sample and applied to each
resample's row counts. A resample is a vector of row counts (Efron &
Tibshirani 1993), and the data is the resample whose counts are all 1,
so neither a count statistic nor a design needs a resampled dataset: a
count statistic's estimate is its value at unit counts, and a design's
replicates are refit from the counts on the full-sample QR, all at once
(`_count_refits`). On the same draws the forms of one statistic give the
same intervals up to rounding.

The error model's variance split is a method-of-moments estimate with
exact trace coefficients: it needs sparse products and k x m arrays only,
so it splits the variance on a connected graph of any width. The block
bootstrap groups units by graph component with one stable sort
(`graph.group_by_label`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DataError, NumericalError
from .estimators import Dataset
from .graph import BipartiteGraph, connected_components, group_by_label
from .numerics import LinearFit, ols
from .seeding import as_generator

DEFAULT_LEVEL = 0.95
MIN_BOOTSTRAP = 50
MAX_FAILURE_SHARE = 0.01

# A count refit's k x k system (see `_count_refits`) counts as singular when
# its smallest eigenvalue is at most GRAM_TOL times its largest. The system
# is the resample's Gram matrix in the full fit's orthonormal basis, so an
# exactly singular one (a resample whose exposure is constant) rounds to
# about n * eps of its largest eigenvalue, far below this. A refit of the
# resample flags a condition number above 1 / RANK_TOL = 1e10 and this one
# above 1e5 in that basis; between them a resample would fail here and not
# there, but resamples of the exposure designs fall on one side or the
# other by orders of magnitude (1e-17 against 0.05 on eight units).
GRAM_TOL = 1e-10

# The variance split's 2 x 2 moment system counts as singular when its
# determinant is at most SPLIT_TOL times the size of the products it is a
# difference of; each product carries a rounding error of a few ulps of it.
SPLIT_TOL = 1e-10

# Noise values the parametric bootstrap draws per block. The blocks fill
# the same stream as one (n, B) draw, so this changes memory, not results.
NOISE_BLOCK = 1 << 15


@dataclass(frozen=True)
class IntervalEstimate:
    estimate: float
    lower: float
    upper: float
    level: float
    method: str
    n_replicates: int = 0

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise ValueError("confidence level must be in (0, 1)")
        if not self.lower <= self.upper:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _quantile_interval(
    estimate: float,
    replicates: np.ndarray,
    level: float,
    method: str,
) -> IntervalEstimate:
    """Percentile interval: the replicates' (1 - level) / 2 tail quantiles."""
    alpha = 1.0 - level
    lo, hi = np.quantile(replicates, [alpha / 2, 1 - alpha / 2])
    return IntervalEstimate(
        estimate=estimate,
        lower=float(lo),
        upper=float(hi),
        level=level,
        method=method,
        n_replicates=int(replicates.size),
    )


def _linear_design(design, n=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A linear design (phi, target, contrast) as contiguous float64 arrays.

    phi must be (n, k), target (n,) and contrast (k,); n defaults to phi's
    row count. Any other shape raises `ValueError`.
    """
    phi, target, contrast = (np.ascontiguousarray(a, dtype=np.float64) for a in design)
    if phi.ndim != 2:
        raise ValueError("a linear design's phi must be a 2-d array")
    n = phi.shape[0] if n is None else n
    if phi.shape[0] != n or target.shape != (n,):
        raise ValueError("a design needs one phi row and one target entry per outcome unit")
    if contrast.shape != (phi.shape[1],):
        raise ValueError(f"a design needs one contrast entry per phi column ({phi.shape[1]})")
    return phi, target, contrast


@dataclass(frozen=True)
class _CountStatistic:
    """A statistic of a resample's row counts, built once on the full sample.

    `at` maps one resample's counts (float64, one per row of the data: how
    often the resample takes the row) to the replicate value, and fails as
    a callable statistic does. The data is the resample that takes every
    row once, so the estimate is `at` of all ones.
    """

    at: Callable[[np.ndarray], float]


def _run_replicates(data, statistic, sampler, n_replicates, rng, method):
    """The estimate and the kept replicates of `statistic`, with a failure census.

    A callable statistic gives the estimate on `data` and one replicate on
    each resample `sampler` draws; a replicate whose statistic raises
    `DataError` or `NumericalError`, or returns a non-finite value, fails.
    A count statistic gives the estimate at unit counts and the replicates
    from each resample's row counts, one resample at a time, with the same
    failures. A linear design (phi, target, contrast) gives both from
    `_count_refits` on the same draws.
    """
    if n_replicates < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} replicates, got {n_replicates}")
    n = data.n_units
    if isinstance(statistic, _CountStatistic):
        estimate = float(statistic.at(np.ones(n)))

        def replicate(idx):
            return statistic.at(np.bincount(idx, minlength=n).astype(np.float64))
    elif callable(statistic):
        estimate = float(statistic(data))

        def replicate(idx):
            return statistic(data.take(idx))
    else:
        design = _linear_design(statistic, n)
        estimate, values = _count_refits(design, sampler, n_replicates, rng)
        return estimate, _census(values, method)
    values = np.empty(n_replicates)
    for b in range(n_replicates):
        idx = sampler(rng)
        try:
            values[b] = float(replicate(idx))
        except (DataError, NumericalError):
            values[b] = np.nan
    return estimate, _census(values, method)


def _count_refits(design, sampler, n_replicates, rng) -> tuple[float, np.ndarray]:
    """contrast @ ols(phi, target).coef, and its replicates refit from each resample's row counts.

    With the full-sample fit phi[:, piv] = q @ r, a resample that takes row
    i c_i times has pivoted coefficients r^-1 (q.T C q)^-1 q.T C target. So
    a replicate's k x k system is the product of its counts with one table
    of the rows' q_i q_i.T (upper triangle) and q_i target_i, and all
    systems are solved at once. Only the counts of the current replicate
    and the (B, p) sums are held, never a (B, n) array. A system whose
    eigenvalues lie more than 1 / GRAM_TOL apart is singular up to rounding,
    as when the resample's exposure is constant; its replicate fails (NaN).
    """
    phi, target, contrast = design
    fit = ols(phi, target)
    n, k = fit.q.shape
    rows, cols = np.triu_indices(k)
    # (p, n), rows contiguous: the product with the counts runs along them
    table = np.concatenate([(fit.q[:, rows] * fit.q[:, cols]).T, (fit.q * target[:, None]).T])
    sums = np.empty((n_replicates, table.shape[0]))
    for b in range(n_replicates):
        sums[b] = table @ np.bincount(sampler(rng), minlength=n)
    gram = np.empty((n_replicates, k, k))
    gram[:, rows, cols] = gram[:, cols, rows] = sums[:, :rows.size]
    eig = np.linalg.eigvalsh(gram)
    ok = eig[:, 0] > GRAM_TOL * eig[:, -1]
    values = np.full(n_replicates, np.nan)
    if ok.any():
        z = np.linalg.solve(gram[ok], sums[ok, rows.size:, None])[:, :, 0]
        values[ok] = contrast @ fit.from_basis(z.T)
    return float(contrast @ fit.coef), values


def _census(values: np.ndarray, method: str) -> np.ndarray:
    """The finite replicate values; raises `DataError` when more than
    `MAX_FAILURE_SHARE` of them are not finite (failed)."""
    kept = values[np.isfinite(values)]
    failures = values.size - kept.size
    if failures > MAX_FAILURE_SHARE * values.size:
        raise DataError(
            f"{method} bootstrap: {failures}/{values.size} replicates failed; "
            "the statistic is too fragile for this resampling scheme"
        )
    return kept


def naive_bootstrap(
    data: Dataset,
    statistic,
    *,
    n_replicates: int = 200,
    level: float = DEFAULT_LEVEL,
    rng=None,
) -> IntervalEstimate:
    """IID resample of outcome units; valid only without cross-unit noise.

    `statistic` is one of three kinds, and the draws are the same for each:

    * a callable on a `Dataset`, applied to the data and to each resample;
    * a count statistic (`_CountStatistic`), built on the data, whose `at`
      maps a resample's row counts to its value; the estimate is its value
      at unit counts, the data itself;
    * a linear design (phi, target, contrast) whose contrast does not
      depend on the rows, with estimate contrast @ ols(phi, target).coef
      and replicates refit from the row counts on the full-sample QR (see
      `_count_refits`).
    """
    rng = as_generator(rng)
    n = data.n_units

    def sampler(r):
        return r.integers(0, n, size=n)

    estimate, reps = _run_replicates(data, statistic, sampler, n_replicates, rng, "naive")
    return _quantile_interval(estimate, reps, level, "naive-bootstrap")


def block_bootstrap(
    data: Dataset,
    statistic,
    *,
    labels: np.ndarray | None = None,
    n_replicates: int = 200,
    level: float = DEFAULT_LEVEL,
    rng=None,
) -> IntervalEstimate:
    """Resample whole graph components to respect within-component dependence.

    Blocks default to the graph's connected components; pass `labels` (one
    integer per outcome unit) to override. Requires at least 5 blocks with
    no single block holding more than half the outcome units; blocks are
    drawn with replacement until at least n rows are collected, then
    truncated to n. `statistic` is as in `naive_bootstrap`.
    """
    rng = as_generator(rng)
    if labels is None:
        _, out_labels, _ = connected_components(data.row_graph())
    else:
        out_labels = np.asarray(labels)
        if out_labels.shape != (data.n_units,):
            raise ValueError("labels must assign one block per outcome unit")
    order, bounds = group_by_label(out_labels)
    blocks = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if len(blocks) < 5:
        raise DataError(
            f"block bootstrap needs at least 5 graph components, found {len(blocks)}"
        )
    n = data.n_units
    if max(len(b) for b in blocks) > 0.5 * n:
        raise DataError(
            "block bootstrap is unreliable when one component holds more than "
            "half the outcome units"
        )

    def sampler(r):
        chosen: list[np.ndarray] = []
        total = 0
        while total < n:
            b = blocks[int(r.integers(0, len(blocks)))]
            chosen.append(b)
            total += len(b)
        return np.concatenate(chosen)[:n]

    estimate, reps = _run_replicates(data, statistic, sampler, n_replicates, rng, "block")
    return _quantile_interval(estimate, reps, level, "block-bootstrap")


def ols_asymptotic_interval(design, *, level: float = DEFAULT_LEVEL) -> IntervalEstimate:
    """Normal-theory interval for contrast @ ols(phi, target).coef, with the
    fit's homoskedastic coefficient covariance, for a linear design
    (phi, target, contrast)."""
    phi, target, contrast = _linear_design(design)
    fit = ols(phi, target)
    est = float(contrast @ fit.coef)
    se = float(np.sqrt(contrast @ fit.coef_cov() @ contrast))
    z = float(ndtri(0.5 + level / 2))
    return IntervalEstimate(
        estimate=est,
        lower=est - z * se,
        upper=est + z * se,
        level=level,
        method="ols-asymptotic",
    )


# -- two-component error model ------------------------------------------------


@dataclass(frozen=True)
class ErrorVarianceEstimates:
    """Split of residual variance into unit-level and graph-propagated parts.

    A negative estimate of either variance is clipped to zero; `clipped`
    says that either one was. `sigma2_gamma_raw` keeps the diversion-side
    estimate before clipping.
    """

    sigma2_eps: float
    sigma2_gamma: float
    clipped: bool
    sigma2_gamma_raw: float


def estimate_sigmas(
    y: np.ndarray,
    phi: np.ndarray,
    graph: BipartiteGraph,
) -> ErrorVarianceEstimates:
    """Method-of-moments split of residual variance.

    Regresses y on the design phi (n x k) and splits the residuals
    u = M (W gamma + eps), M the projection off the design's columns,
    with two quadratic forms whose expectations are linear in the two
    variances, with exact trace coefficients:

        E[u.u]        = sigma2_eps (n - k) + sigma2_gamma t
        E[|W.T u|^2]  = sigma2_eps t       + sigma2_gamma |W.T M W|_F^2

    where t = |W|_F^2 - |C|_F^2, C = Q.T W for an orthonormal basis Q of
    the design, and |W.T M W|_F^2 = |W.T W|_F^2 - 2 |W C.T|_F^2 + |C C.T|_F^2.
    Solving that 2 x 2 system is unbiased for both variances. It uses the
    sparse W.T W and k x m arrays, never a dense n x m W.

    A negative estimate is clipped to zero and flagged. A graph with no
    edges, a design with no residual degrees of freedom (n <= k), or a
    system that cannot tell the two noises apart (for example W = I with
    n = m) raises `DataError`.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != y.size:
        raise ValueError("design must be a matrix aligned with y")
    return _split_residual_variance(ols(phi, y), graph)


def _moment_system(fit: LinearFit, graph: BipartiteGraph):
    """The split's trace coefficients, its two moments, and the size of the
    products its determinant is a difference of.

    Returns (a, b, scale): a[0] = (n - k, t) and a[1] = (t, |W.T M W|_F^2)
    are the coefficients of (sigma2_eps, sigma2_gamma) in the expected
    moments b = (u.u, |W.T u|^2).
    """
    u = fit.residuals
    n, k = fit.q.shape
    w = graph.to_csr()
    wt_q = w.T @ fit.q  # C.T, (m, k)
    ww = graph.sum_squared_weights()
    t = ww - float(np.sum(wt_q * wt_q))
    gg = graph.gram_sum_squares()
    w_ct = w @ wt_q  # (n, k)
    c_ct = wt_q.T @ wt_q  # (k, k)
    wmw = gg - 2.0 * float(np.sum(w_ct * w_ct)) + float(np.sum(c_ct * c_ct))
    wt_u = w.T @ u
    a = np.array([[float(n - k), t], [t, wmw]])
    b = np.array([float(u @ u), float(wt_u @ wt_u)])
    return a, b, (n - k) * gg + ww * ww


def _split_residual_variance(fit: LinearFit, graph: BipartiteGraph) -> ErrorVarianceEstimates:
    n, k = fit.q.shape
    if n != graph.n_outcome:
        raise ValueError("residuals must align with the graph's outcome units")
    if graph.sum_squared_weights() <= 0:
        raise DataError("graph has no edges; diversion-side variance is unidentified")
    if n <= k:
        raise DataError(
            f"the design fit leaves no residual degrees of freedom ({n} units, {k} "
            "columns), so the residual variance cannot be split"
        )
    a, b, scale = _moment_system(fit, graph)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det <= SPLIT_TOL * scale:
        raise DataError(
            "the residual moments cannot tell unit-level from diversion-side noise: "
            f"the moment system's determinant {det:.3g} is zero up to rounding "
            f"against {scale:.3g} (W W.T acts on the residuals as a multiple of the "
            "identity, as when W = I)"
        )
    eps = (a[1, 1] * b[0] - a[0, 1] * b[1]) / det
    gamma = (a[0, 0] * b[1] - a[1, 0] * b[0]) / det
    return ErrorVarianceEstimates(
        sigma2_eps=float(max(eps, 0.0)),
        sigma2_gamma=float(max(gamma, 0.0)),
        clipped=bool(eps < 0 or gamma < 0),
        sigma2_gamma_raw=float(gamma),
    )


def correlated_error_variance(
    phi: np.ndarray,
    graph: BipartiteGraph,
    sigma2_eps: float,
    sigma2_gamma: float,
) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) * (coef - truth) under the model
    Y = phi @ beta + W @ gamma + eps with iid eps and iid gamma."""
    phi = np.asarray(phi, dtype=np.float64)
    n = phi.shape[0]
    # (phi.T @ phi)^-1 depends on the design alone; the zero response is a placeholder
    q_inv = n * ols(phi, np.zeros(n)).xtx_inv()
    wt_phi = graph.to_csr().T @ phi  # (m, k)
    q_cross = wt_phi.T @ wt_phi / n
    cov = sigma2_eps * q_inv + sigma2_gamma * (q_inv @ q_cross @ q_inv)
    return (cov + cov.T) / 2.0


def parametric_bootstrap(
    data: Dataset,
    design,
    *,
    n_replicates: int = 200,
    level: float = DEFAULT_LEVEL,
    rng=None,
) -> IntervalEstimate:
    """Model-based bootstrap for a linear design under graph-propagated noise.

    For a design (phi, target, contrast), fits target ~ phi, splits the
    residual variance as `estimate_sigmas` does (a negative variance is
    clipped to zero), then repeatedly rebuilds synthetic targets
    phi @ coef + W @ gamma_b + eps_b and refits them all through the fit's
    QR factorisation. The targets fill one (n, B) array, with the noise
    drawn in blocks of `NOISE_BLOCK` values. The estimate is
    contrast @ coef, and the interval is formed from quantiles of the
    replicate contrasts. A
    rank-deficient design raises `RankDeficiencyError`, as in `ols`; a
    variance split the graph cannot identify raises `DataError`.
    """
    rng = as_generator(rng)
    phi, target, contrast = _linear_design(design, data.n_units)
    if n_replicates < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} replicates, got {n_replicates}")

    fit = ols(phi, target)
    graph = data.row_graph()
    sigmas = _split_residual_variance(fit, graph)
    estimate = float(contrast @ fit.coef)

    gamma = rng.normal(0.0, np.sqrt(sigmas.sigma2_gamma), size=(graph.m_diversion, n_replicates))
    # only one (n, B) array is live: W @ gamma's result takes the fitted
    # column, then eps one row block at a time, which gives the bits of
    # (phi @ coef + W @ gamma) + eps from the same rng stream
    targets = graph.to_csr() @ gamma
    del gamma
    targets += (phi @ fit.coef)[:, None]
    scale = np.sqrt(sigmas.sigma2_eps)
    rows = max(1, NOISE_BLOCK // n_replicates)
    for lo in range(0, phi.shape[0], rows):
        block = targets[lo:lo + rows]
        block += rng.normal(0.0, scale, size=block.shape)
    coef_reps = fit.solve(targets)  # (k, B), on the same factorisation
    return _quantile_interval(estimate, contrast @ coef_reps, level, "parametric-bootstrap")
