"""Uncertainty quantification for exposure-response estimates.

Three routes:

* resampling the outcome units (naive bootstrap, or block bootstrap over
  graph components when interference makes rows dependent),
* the asymptotic normal interval for regression coefficients,
* a parametric bootstrap that rebuilds outcomes from a fitted
  two-component error model (unit-level noise plus noise propagated from
  the diversion side through the graph), which stays honest when the
  naive bootstrap's independence assumption fails.

The error model's variance split projects the residuals onto the graph's
columns one connected component at a time: W.T @ W is block diagonal over
the components, so each block is decomposed on its own, and a component
wider than `MAX_GRAM_COLUMNS` diversion units raises `DataError` before
anything of its size is allocated. The block bootstrap and the variance
split group units by component with the same stable sort
(`graph.group_by_label`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DataError, NumericalError
from .estimators import Dataset
from .graph import BipartiteGraph, connected_components, group_by_label
from .numerics import ols
from .seeding import as_generator

DEFAULT_LEVEL = 0.95
MIN_BOOTSTRAP = 50
MAX_FAILURE_SHARE = 0.01

# Eigenvalues of a component's Gram block at or below GRAM_RANK_TOL * m * the
# block's largest count as zero when splitting the residual variance. The
# Gram W.T @ W squares W's singular values, so its rounding floor is about
# eps * lambda_max; lstsq's rcond (eps * max(n, m) on the singular values
# themselves) would count that noise as rank.
GRAM_RANK_TOL = float(np.finfo(np.float64).eps)

# Widest graph component, in diversion units, whose Gram block the variance
# split will decompose. The block and its eigenvectors take 16 * width**2
# bytes: 1 GiB at 8192, which an 8 GB host holds.
MAX_GRAM_COLUMNS = 8192

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

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
            "method": self.method,
            "n_replicates": self.n_replicates,
        }


def _quantile_interval(
    estimate: float,
    replicates: np.ndarray,
    level: float,
    method: str,
    interval: str,
) -> IntervalEstimate:
    alpha = 1.0 - level
    lo, hi = np.quantile(replicates, [alpha / 2, 1 - alpha / 2])
    if interval == "percentile":
        lower, upper = float(lo), float(hi)
    elif interval == "basic":
        lower, upper = 2 * estimate - float(hi), 2 * estimate - float(lo)
    else:
        raise ValueError(f"unknown interval type {interval!r}")
    return IntervalEstimate(
        estimate=estimate,
        lower=lower,
        upper=upper,
        level=level,
        method=method,
        n_replicates=int(replicates.size),
    )


def _run_replicates(data, statistic, sampler, n_replicates, rng, method):
    """Shared bootstrap loop with a failure census."""
    if n_replicates < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} replicates, got {n_replicates}")
    values = np.empty(n_replicates)
    failures = 0
    for b in range(n_replicates):
        idx = sampler(rng)
        try:
            values[b] = float(statistic(data.take(idx)))
        except (DataError, NumericalError):
            failures += 1
            values[b] = np.nan
    if failures > MAX_FAILURE_SHARE * n_replicates:
        raise DataError(
            f"{method} bootstrap: {failures}/{n_replicates} replicates failed; "
            "the statistic is too fragile for this resampling scheme"
        )
    return values[np.isfinite(values)]


def naive_bootstrap(
    data: Dataset,
    statistic,
    *,
    n_replicates: int = 200,
    level: float = DEFAULT_LEVEL,
    interval: str = "percentile",
    rng=None,
) -> IntervalEstimate:
    """IID resample of outcome units; valid only without cross-unit noise."""
    rng = as_generator(rng)
    estimate = float(statistic(data))
    n = data.n_units

    def sampler(r):
        return r.integers(0, n, size=n)

    reps = _run_replicates(data, statistic, sampler, n_replicates, rng, "naive")
    return _quantile_interval(estimate, reps, level, "naive-bootstrap", interval)


def block_bootstrap(
    data: Dataset,
    statistic,
    *,
    labels: np.ndarray | None = None,
    n_replicates: int = 200,
    level: float = DEFAULT_LEVEL,
    interval: str = "percentile",
    rng=None,
) -> IntervalEstimate:
    """Resample whole graph components to respect within-component dependence.

    Blocks default to the graph's connected components; pass `labels` (one
    integer per outcome unit) to override. Requires at least 5 blocks with
    no single block holding more than half the outcome units; blocks are
    drawn with replacement until at least n rows are collected, then
    truncated to n.
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
    estimate = float(statistic(data))

    def sampler(r):
        chosen: list[np.ndarray] = []
        total = 0
        while total < n:
            b = blocks[int(r.integers(0, len(blocks)))]
            chosen.append(b)
            total += len(b)
        return np.concatenate(chosen)[:n]

    reps = _run_replicates(data, statistic, sampler, n_replicates, rng, "block")
    return _quantile_interval(estimate, reps, level, "block-bootstrap", interval)


def ols_asymptotic_interval(
    fit,
    contrast,
    *,
    level: float = DEFAULT_LEVEL,
) -> IntervalEstimate:
    """Normal-theory interval for a linear contrast of regression coefficients."""
    contrast = np.asarray(contrast, dtype=np.float64)
    est = float(contrast @ fit.coef)
    se = float(np.sqrt(contrast @ fit.coef_cov @ contrast))
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
    """Split of residual variance into unit-level and graph-propagated parts."""

    sigma2_eps: float
    sigma2_gamma: float
    clipped: bool
    sigma2_gamma_raw: float


def estimate_sigmas(
    y: np.ndarray,
    phi: np.ndarray,
    graph: BipartiteGraph,
    *,
    ddof_correction: bool = True,
) -> ErrorVarianceEstimates:
    """Method-of-moments split of residual variance.

    Regresses y on the design, then projects the residuals onto the span
    of the graph's columns. W.T @ W is block diagonal over the graph's
    connected components, so the projection eigendecomposes one Gram
    block of the sparse weights per component (a connected graph is one
    block in the original column order); W's rank counts, in each block,
    the eigenvalues above `GRAM_RANK_TOL` * m * the block's largest. A
    component wider than `MAX_GRAM_COLUMNS` diversion units raises
    `DataError` before its block is allocated. The remaining scatter
    identifies the unit-level variance and the explained mass, rescaled
    by the graph's total squared weight, identifies the variance of the
    diversion-side noise. A negative diversion-side estimate is clipped
    to zero and flagged.

    With `ddof_correction` (default), both divisors account for degrees of
    freedom absorbed by the graph regression and by the design fit; the
    plain /n moment versions are available with `ddof_correction=False`.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != y.size:
        raise ValueError("design must be a matrix aligned with y")
    fit = ols(phi, y)
    return _split_residual_variance(fit.residuals, graph, fit.rank, ddof_correction)


def _split_residual_variance(
    residuals: np.ndarray,
    graph: BipartiteGraph,
    design_rank: int,
    ddof_correction: bool,
) -> ErrorVarianceEstimates:
    u = np.ascontiguousarray(residuals, dtype=np.float64)
    n = u.size
    if n != graph.n_outcome:
        raise ValueError("residuals must align with the graph's outcome units")
    # No row touches two components, so the m x m Gram W.T @ W is block
    # diagonal over them: order the columns by component and project u onto
    # col(W) one block at a time, never through the n x m W.
    _, _, col_labels = connected_components(graph)
    order, bounds = group_by_label(col_labels)
    widest = int(np.diff(bounds).max(initial=0))
    if widest > MAX_GRAM_COLUMNS:
        raise DataError(
            f"a graph component has {widest} diversion units; splitting the residual "
            f"variance would take {2 * 8 * widest**2} bytes for its Gram block and "
            f"eigenvectors (cap {MAX_GRAM_COLUMNS} columns), so it needs a graph that "
            "breaks into smaller components"
        )
    # a connected graph is one block in its own column order: no reordering
    several = bounds.size > 2
    w = graph.to_csr()[:, order] if several else graph.to_csr()
    gram = w.T @ w
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lam, vecs = np.linalg.eigh((gram[a:b, a:b] if several else gram).toarray())
        # each block's eigenvalues carry its own rounding floor, not the
        # largest block's
        keep = lam > GRAM_RANK_TOL * order.size * lam[-1]
        if keep.any():
            blocks.append((a, b, vecs[:, keep], lam[keep]))
    w_rank = sum(lam_k.size for *_, lam_k in blocks)
    # The Gram squares W's condition number, so one solve leaves an error of
    # about eps * cond(W)^2 in the projection; a second pass on the residual
    # (corrected semi-normal equations) removes it, which matters when W has
    # nearly dependent columns.
    coef = np.zeros(order.size)
    eps_hat = u
    for _ in range(2):
        rhs = w.T @ eps_hat
        for a, b, v_k, lam_k in blocks:
            coef[a:b] += v_k @ ((v_k.T @ rhs[a:b]) / lam_k)
        eps_hat = u - w @ coef
    rss = float(eps_hat @ eps_hat)
    if ddof_correction:
        dof = n - int(w_rank) - int(design_rank)
        if dof <= 0:
            raise DataError("no residual degrees of freedom left for variance estimation")
        sigma2_eps = rss / dof
        # The graph regression's own fit to pure noise inflates the explained
        # mass by sigma2_eps * rank(W); subtract it before rescaling.
        explained = float(u @ u) - rss
        numer = explained - sigma2_eps * float(w_rank)
    else:
        sigma2_eps = rss / n
        numer = float(u @ u) - n * sigma2_eps
    denom = graph.sum_squared_weights()
    if denom <= 0:
        raise DataError("graph has no edges; diversion-side variance is unidentified")
    raw = numer / denom
    clipped = raw < 0
    return ErrorVarianceEstimates(
        sigma2_eps=float(sigma2_eps),
        sigma2_gamma=float(max(raw, 0.0)),
        clipped=bool(clipped),
        sigma2_gamma_raw=float(raw),
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


@dataclass(frozen=True)
class ParametricBootstrapResult:
    estimate: float
    interval: IntervalEstimate
    sigmas: ErrorVarianceEstimates
    replicates: np.ndarray
    coef: np.ndarray
    coef_replicates: np.ndarray


def parametric_bootstrap(
    data: Dataset,
    phi: np.ndarray,
    target: np.ndarray,
    *,
    contrast: np.ndarray | None = None,
    n_replicates: int = 200,
    level: float = DEFAULT_LEVEL,
    interval: str = "percentile",
    ddof_correction: bool = True,
    rng=None,
) -> ParametricBootstrapResult:
    """Model-based bootstrap for a linear fit under graph-propagated noise.

    Fits target ~ phi, splits the residual variance with `estimate_sigmas`,
    then repeatedly rebuilds synthetic targets
    phi @ coef + W @ gamma_b + eps_b and refits them all through the
    fit's QR factorisation. The targets fill one (n, B) array, with the
    noise drawn in blocks of `NOISE_BLOCK` values. The interval is formed
    from quantiles of the replicate contrasts (default contrast: last
    column minus first, the endpoint difference). A rank-deficient design
    raises `RankDeficiencyError`, as in `ols`.
    """
    rng = as_generator(rng)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    n, k = phi.shape
    if target.shape != (n,):
        raise ValueError("target must align with the design's rows")
    if n_replicates < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} replicates, got {n_replicates}")
    if contrast is None:
        contrast = np.zeros(k)
        contrast[0] = -1.0
        contrast[-1] = 1.0
    contrast = np.asarray(contrast, dtype=np.float64)

    fit = ols(phi, target)
    graph = data.row_graph()
    sigmas = _split_residual_variance(fit.residuals, graph, fit.rank, ddof_correction)
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
    for lo in range(0, n, rows):
        block = targets[lo:lo + rows]
        block += rng.normal(0.0, scale, size=block.shape)
    coef_reps = fit.solve(targets)  # (k, B), on the same factorisation
    reps = contrast @ coef_reps
    iv = _quantile_interval(estimate, reps, level, "parametric-bootstrap", interval)
    return ParametricBootstrapResult(
        estimate=estimate,
        interval=iv,
        sigmas=sigmas,
        replicates=np.asarray(reps),
        coef=fit.coef,
        coef_replicates=np.asarray(coef_reps),
    )
