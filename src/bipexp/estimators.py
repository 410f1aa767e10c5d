"""Exposure-response estimators.

The shared input is a `Dataset`: outcomes, realized exposures, the graph,
and a propensity table for the design that generated the exposures. Naive
estimators read only (Y, E). The two-step estimators first fit a surface
for the conditional mean of Y given (exposure, observed score), then
average the surface over each unit's imputed score at the query level;
inverse-propensity weighting reaches the endpoints of the exposure range
directly.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MissingCellError
from .gps import ATOM_TOL, GpsTable
from .graph import BipartiteGraph, _as_readonly
from .numerics import KernelFit, LinearFit, _krr_fit_counts, _unique_rows, krr_predict, ols

# Scores below this floor are lifted to it before dividing (with a warning).
TRIM_FLOOR = 1e-6

# `stratified_estimate` cuts units into this many variance quantile strata.
N_STRATA = 10


class PropensityTrimWarning(UserWarning):
    """A contributing unit's score was floored before inverse weighting."""


@dataclass(frozen=True)
class Dataset:
    """Aligned per-unit data: outcomes, exposures and score rows.

    Row k is outcome unit `source_indices[k]` of `graph`, the experiment's
    graph, which every resample shares; `source_indices` defaults to all
    graph rows in order. `gps` rows are aligned with the dataset's rows.
    Observed scores are looked up in `gps` once, on the first call to
    `observed_scores`, and the imputed scores at a level once, on the
    first call to `imputed_scores` at that level; `take` gathers both with
    the rows it keeps.
    """

    y: np.ndarray
    exposure: np.ndarray
    graph: BipartiteGraph
    gps: GpsTable
    source_indices: np.ndarray | None = None

    def __post_init__(self):
        rows = self.graph.n_outcome
        src = _as_readonly(
            np.arange(rows) if self.source_indices is None else self.source_indices, np.int64
        )
        y = _as_readonly(self.y, np.float64)
        exposure = _as_readonly(self.exposure, np.float64)
        n = src.size
        if src.ndim != 1 or y.shape != (n,) or exposure.shape != (n,):
            raise ValueError("y and exposure must align with the graph's outcome units")
        if n and (src.min() < 0 or src.max() >= rows):
            raise ValueError("source_indices must be rows of the graph")
        if self.gps.n_units != n:
            raise ValueError("gps table must align with the graph's outcome units")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "exposure", exposure)
        object.__setattr__(self, "source_indices", src)

    @classmethod
    def build(cls, graph, gps, y, exposure) -> "Dataset":
        """Assemble a dataset, excluding isolated outcome units.

        An isolated unit's exposure is constantly 0, so its score away from
        0 is 0 and no estimator can say anything about it; such units are
        dropped with a warning rather than silently divided by.
        """
        data = cls(y=y, exposure=exposure, graph=graph, gps=gps)
        isolated = np.flatnonzero(graph.degrees == 0)
        if isolated.size:
            warnings.warn(
                f"excluded {isolated.size} isolated outcome units from estimation "
                "(no diversion neighbors, exposure identically 0)",
                UserWarning,
                stacklevel=2,
            )
            keep = np.flatnonzero(graph.degrees > 0)
            return data.take(keep)
        return data

    @property
    def n_units(self) -> int:
        return int(self.y.size)

    @property
    def degrees(self) -> np.ndarray:
        """Number of diversion neighbors of each row's outcome unit."""
        return self.graph.degrees[self.source_indices]

    def row_graph(self) -> BipartiteGraph:
        """The graph's rows in this dataset's row order (the graph itself when they coincide)."""
        src = self.source_indices
        if src.size == self.graph.n_outcome and np.array_equal(src, np.arange(src.size)):
            return self.graph
        return self.graph.take(src)

    def take(self, indices) -> "Dataset":
        """Row resample/subset; shares the graph and the score table's arrays.

        The gathers are fresh arrays aligned by construction, so they are
        frozen in place instead of going through the copying constructor.
        Scores already looked up are gathered too, the imputed ones into a
        new dict, so the resample never writes into this one's.
        """
        indices = np.asarray(indices, dtype=np.int64)
        sub = copy.copy(self)
        object.__setattr__(sub, "gps", self.gps.take(indices))
        for name in ("y", "exposure", "source_indices", "_scores"):
            if name in self.__dict__:
                object.__setattr__(sub, name, _frozen(self.__dict__[name][indices]))
        if "_imputed" in self.__dict__:
            gathered = {e: _frozen(rows[indices]) for e, rows in self._imputed.items()}
            object.__setattr__(sub, "_imputed", gathered)
        return sub

    def observed_scores(self) -> np.ndarray:
        """Score of each row at its own exposure; looked up once, read-only, not a field."""
        if "_scores" not in self.__dict__:
            # gps rows are taken alongside y, so no index mapping here
            object.__setattr__(self, "_scores", _frozen(self.gps.observed_scores(self.exposure)))
        return self._scores

    def imputed_scores(self, e: float) -> np.ndarray:
        """Score of each row at level e; looked up once per level, read-only, not a field."""
        if "_imputed" not in self.__dict__:
            object.__setattr__(self, "_imputed", {})
        e = float(e)
        if e not in self._imputed:
            self._imputed[e] = _frozen(self.gps.imputed_scores(e))
        return self._imputed[e]


def _frozen(rows: np.ndarray) -> np.ndarray:
    """`rows`, a fresh array, made read-only in place."""
    rows.setflags(write=False)
    return rows


# -- naive estimators -------------------------------------------------------


def naive_mean(data: Dataset, e: float) -> float:
    """Mean outcome among units whose exposure equals e (within `ATOM_TOL`)."""
    mask = np.abs(data.exposure - e) <= ATOM_TOL
    if not np.any(mask):
        raise DataError(f"no observations at exposure level e={e!r}")
    return float(data.y[mask].mean())


def naive_ols(data: Dataset) -> float:
    """Slope of the regression of Y on (1, E); ignores the graph entirely."""
    e = data.exposure
    if np.ptp(e) <= 0:
        raise DataError("exposure is constant; the naive regression slope is undefined")
    return float(ols(np.column_stack([np.ones(data.n_units), e]), data.y).coef[1])


# -- inverse-propensity weighting -------------------------------------------


def _trim_scores(scores: np.ndarray, where: str, stacklevel: int = 3) -> np.ndarray:
    """Scores floored at `TRIM_FLOOR`, with one `PropensityTrimWarning` when any is.

    By default the warning points at the caller of the estimator that called this.
    """
    floored = scores < TRIM_FLOOR
    if not np.any(floored):
        return scores
    warnings.warn(
        f"floored {int(floored.sum())} observed propensity scores below {TRIM_FLOOR}{where}",
        PropensityTrimWarning,
        stacklevel=stacklevel,
    )
    return np.maximum(scores, TRIM_FLOOR)


def ht_estimate(data: Dataset, e: float) -> float:
    """Inverse-propensity estimate of the mean outcome at level e.

    Averages Y_i * 1[E_i = e] / score_i(E_i) over all units, matching
    exposures within `ATOM_TOL`. Contributing units with scores below
    `TRIM_FLOOR` are floored and flagged with a `PropensityTrimWarning`,
    never divided by as-is.
    """
    mask = np.abs(data.exposure - e) <= ATOM_TOL
    if not np.any(mask):
        return 0.0
    scores = _trim_scores(data.observed_scores()[mask], f" at level e={e!r}")
    return float(np.sum(data.y[mask] / scores) / data.n_units)


def _ht_design(data: Dataset, grid) -> tuple[np.ndarray, np.ndarray]:
    """The inverse-propensity regression (phi, target) across the levels in `grid`.

    Regressing Y_i / sqrt(score_i(E_i)) on indicator columns
    1[E_i = e_r] / sqrt(score_i(e_r)) gives the per-level ratio (Hajek)
    estimates as coefficients: the inverse-weighted outcome sum over the
    inverse-weight sum, where `ht_estimate` divides by n. Every grid level
    needs an observation (within `ATOM_TOL`), with a positive imputed score
    for each. Scores below `TRIM_FLOOR` are floored with a warning that
    points at the caller of the function that called this.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d vector")
    phi = np.zeros((data.n_units, grid.size))
    observed = _trim_scores(data.observed_scores(), "", stacklevel=4)
    for r, e in enumerate(grid):
        mask = np.abs(data.exposure - e) <= ATOM_TOL
        if not np.any(mask):
            raise DataError(f"no observations at grid level e={e!r}")
        imputed = data.imputed_scores(e)[mask]
        if np.any(imputed <= 0):
            raise DataError(
                f"grid level e={e!r} has zero propensity for some observed units; "
                "positivity fails"
            )
        phi[mask, r] = 1.0 / np.sqrt(imputed)
    return phi, data.y / np.sqrt(observed)


def ht_weighted_regression(data: Dataset, grid) -> LinearFit:
    """Joint inverse-propensity fit across the exposure levels in `grid`; its
    `coef` holds the per-level ratio (Hajek) estimates in grid order (see `_ht_design`)."""
    phi, target = _ht_design(data, grid)
    return ols(phi, target, labels=[f"level_{e:g}" for e in np.asarray(grid, dtype=np.float64)])


# -- response surfaces -------------------------------------------------------


def _group_levels(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels of `values`, the last value of each level's run, and each value's
    level index, from one sort: a level is the first value of a sorted run
    whose consecutive gaps are within tol, and labels every member of the
    run, however far it chains from the first."""
    order = np.argsort(values)
    ranked = values[order]
    starts = np.empty(ranked.size, dtype=bool)
    starts[:1] = True
    np.greater(np.diff(ranked), tol, out=starts[1:])
    labels = np.empty(ranked.size, dtype=np.int64)
    labels[order] = np.cumsum(starts) - 1
    # a run ends where the next one starts, and the last run at the end
    return ranked[starts], ranked[np.roll(starts, -1)], labels


def _locate_level(levels: np.ndarray, value, tol: float, ends=None) -> np.ndarray:
    """Index of the level whose run [level - tol, end + tol] holds each value,
    -1 when none does; `ends` defaults to the levels (one-value runs). A
    value in two runs' ranges goes to the upper run."""
    ends = levels if ends is None else ends
    value = np.atleast_1d(np.asarray(value, dtype=np.float64))
    pos = np.searchsorted(levels, value)
    best = np.full(value.shape, -1, dtype=np.int64)
    for shift in (0, -1):
        # integer minimum/maximum: np.clip's wrapper costs more than the lookup
        idx = np.minimum(np.maximum(pos + shift, 0), levels.size - 1)
        # both differences, not one abs, so one-value runs round as |level - value|
        hit = (levels[idx] - value <= tol) & (value - ends[idx] <= tol) & (best < 0)
        best = np.where(hit, idx, best)
    return best


@dataclass(frozen=True)
class CellMeanSurface:
    """Cell-mean response surface over (exposure, score) cells.

    Each axis level is the first value of a run that ends at the matching
    `*_ends` value, and a coordinate matches the level whose run it lies
    within `ATOM_TOL` of (see `_locate_level`). Evaluation returns NaN as
    the explicit missing marker for empty cells and for coordinates that
    fall outside the table's levels.
    """

    e_levels: np.ndarray
    r_levels: np.ndarray
    values: np.ndarray  # (n_e, n_r), NaN where empty
    e_ends: np.ndarray
    r_ends: np.ndarray

    def evaluate(self, e: float, r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=np.float64))
        ei = _locate_level(self.e_levels, e, ATOM_TOL, self.e_ends)[0]
        if ei < 0:
            return np.full(r.shape, np.nan)
        ri = _locate_level(self.r_levels, r, ATOM_TOL, self.r_ends)
        out = np.full(r.shape, np.nan)
        ok = ri >= 0
        out[ok] = self.values[ei, ri[ok]]
        return out


@dataclass(frozen=True)
class PolynomialSurface:
    """Quadratic-with-interaction surface in (exposure, score)."""

    coef: np.ndarray  # matches _poly_features ordering

    def evaluate(self, e: float, r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=np.float64))
        e_col = np.full(r.shape, float(e))
        return _poly_features(e_col, r) @ self.coef


@dataclass(frozen=True)
class KernelSurface:
    """Kernel ridge response surface in (exposure, score).

    The surface is a linear-in-exposure mean plus a kernel ridge fit of
    the residuals, so the kernel only has to learn departures from the
    overall exposure trend.
    """

    fit: KernelFit
    mean_coef: np.ndarray  # (2,) intercept and exposure slope

    def evaluate(self, e: float, r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=np.float64))
        pts = np.column_stack([np.full(r.shape, float(e)), r])
        trend = self.mean_coef[0] + self.mean_coef[1] * float(e)
        return trend + krr_predict(self.fit, pts)


POLY_LABELS = ("const", "e", "e2", "r", "r2", "e_r")


def _poly_features(e: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(e), e, e * e, r, r * r, e * r])


def beta_cell_means(data: Dataset) -> CellMeanSurface:
    """Average Y within each (exposure, observed score) cell.

    Cells are the distinct exposures and the distinct observed scores,
    each axis merging sorted runs whose consecutive gaps are within
    `ATOM_TOL` (see `_group_levels`).
    """
    e_levels, e_ends, e_idx = _group_levels(data.exposure, ATOM_TOL)
    r_levels, r_ends, r_idx = _group_levels(data.observed_scores(), ATOM_TOL)
    values = np.full((e_levels.size, r_levels.size), np.nan)
    flat = e_idx * r_levels.size + r_idx
    sums = np.bincount(flat, weights=data.y, minlength=values.size)
    ns = np.bincount(flat, minlength=values.size)
    filled = ns > 0
    values.flat[filled] = sums[filled] / ns[filled]
    return CellMeanSurface(e_levels=e_levels, r_levels=r_levels, values=values,
                           e_ends=e_ends, r_ends=r_ends)


def _poly_rows(data: Dataset) -> np.ndarray:
    """`gps-poly`'s rows (1, E, E^2, R, R^2, E*R); fewer rows than terms raise DataError."""
    if data.n_units < len(POLY_LABELS):
        raise DataError(
            f"need at least {len(POLY_LABELS)} observations for the polynomial surface"
        )
    return _poly_features(data.exposure, data.observed_scores())


def beta_poly_fit(data: Dataset) -> PolynomialSurface:
    """Regress Y on (1, E, E^2, R, R^2, E*R) with R the observed score."""
    return PolynomialSurface(coef=ols(_poly_rows(data), data.y, labels=POLY_LABELS).coef)


def beta_krr_fit(data: Dataset) -> KernelSurface:
    """Kernel ridge regression of Y on (exposure, observed score).

    Fits an ordinary least squares trend in exposure first and applies
    the kernel to its residuals, a standard parametric-mean variant.
    Dose-response queries sit at the exposure extremes where data is
    thin; anchoring them to the global trend instead of the grand mean
    removes most of the endpoint noise. For the same reason the kernel's
    bandwidth (`numerics.KRR_BANDWIDTH_SCALE` times the median heuristic)
    stretches far along the exposure axis, while the score axis stays
    close to the plain heuristic so units with unusual scores are not
    smoothed into the crowd. It is `_krr_surface_counts` with every row
    counted once.
    """
    cells, label = _krr_cells(data)
    return _krr_surface_counts(cells, label, data.y, np.ones(data.n_units))


def _krr_cells(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (exposure, observed score) rows, sorted, and each row's index into them."""
    return _unique_rows(np.column_stack([data.exposure, data.observed_scores()]))


def _krr_surface_counts(cells, label, y, counts) -> KernelSurface:
    """`beta_krr_fit` of the resample that takes row i `counts[i]` times, for
    rows with outcomes `y` and cells and labels from `_krr_cells`.

    The fit runs over the cells the resample takes, with their counts and
    outcome sums (`numerics._krr_fit_counts`). The trend is the
    count-weighted least squares line in exposure, or the mean alone when
    those cells share one exposure; the kernel fits the residual sums. The
    line is `ols` of the cells' rows scaled by sqrt(counts), whose normal
    equations and R diagonal are the repeated rows', so it refuses the same
    near-constant exposures with `RankDeficiencyError`.
    """
    g = cells.shape[0]
    weights = np.bincount(label, weights=counts, minlength=g)
    sums = np.bincount(label, weights=counts * y, minlength=g)
    taken = weights > 0
    cells, counts, sums = cells[taken], weights[taken], sums[taken]
    e = cells[:, 0]
    if np.ptp(e) > 0:
        w = np.sqrt(counts)
        mean_coef = ols(np.column_stack([w, w * e]), sums / w).coef
    else:
        mean_coef = np.array([sums.sum() / counts.sum(), 0.0])
    resid = sums - counts * (mean_coef[0] + mean_coef[1] * e)
    return KernelSurface(fit=_krr_fit_counts(cells, counts, resid), mean_coef=mean_coef)


# -- curves -------------------------------------------------------------------


@dataclass(frozen=True)
class DoseResponseCurve:
    """Estimated mean outcome at each grid level."""

    grid: np.ndarray
    mu_hat: np.ndarray

    def __post_init__(self):
        grid = _as_readonly(self.grid, np.float64)
        mu = _as_readonly(self.mu_hat, np.float64)
        if grid.ndim != 1 or grid.shape != mu.shape or grid.size == 0:
            raise ValueError("grid and mu_hat must be matching nonempty vectors")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        if grid[0] < -ATOM_TOL or grid[-1] > 1.0 + ATOM_TOL:
            raise ValueError("grid levels must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "mu_hat", mu)

    def level(self, e: float) -> float:
        """The estimate at grid level e (matched within `ATOM_TOL`)."""
        idx = _locate_level(self.grid, e, ATOM_TOL)[0]
        if idx < 0:
            raise ValueError(f"level e={e!r} is not on the grid")
        return float(self.mu_hat[idx])


def dose_response(surface, gps: GpsTable, grid) -> DoseResponseCurve:
    """Average the surface over imputed scores at each grid level.

    For each level e, evaluates the surface at (e, score_i(e)) for every
    unit i and averages. Cell-mean surfaces with holes at needed
    coordinates raise `MissingCellError` listing every (e, r) hole.
    """
    grid = np.asarray(grid, dtype=np.float64)
    mu = _level_means(surface, grid, _imputed_levels(gps, grid), np.ones(gps.n_units))
    return DoseResponseCurve(grid=grid, mu_hat=mu)


def _imputed_levels(gps: GpsTable, grid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per grid level, the distinct imputed scores and each unit's index into them."""
    return [np.unique(gps.imputed_scores(float(e)), return_inverse=True) for e in grid]


def _level_means(surface, grid, levels, counts) -> np.ndarray:
    """The mean of the surface over the units at each grid level, each unit
    taken `counts` times, from `_imputed_levels`.

    Only the scores of units taken are evaluated; a non-finite value at
    any of them is a hole, and holes raise `MissingCellError`.
    """
    mu = np.empty(len(grid))
    holes: list[tuple[float, float]] = []
    for k, (e, (uniq, inverse)) in enumerate(zip(grid, levels)):
        taken = np.bincount(inverse, weights=counts, minlength=uniq.size) > 0
        vals = np.zeros(uniq.size)
        vals[taken] = surface.evaluate(float(e), uniq[taken])
        bad = ~np.isfinite(vals)
        if np.any(bad):
            holes.extend((float(e), float(r)) for r in uniq[bad])
            continue
        mu[k] = (vals[inverse] * counts).sum() / counts.sum()
    if holes:
        shown = ", ".join(f"({e:g}, {r:g})" for e, r in holes[:8])
        more = "" if len(holes) <= 8 else f" and {len(holes) - 8} more"
        raise MissingCellError(
            f"surface has no value at required (exposure, score) cells: {shown}{more}",
            holes=holes,
        )
    return mu


def ate(curve: DoseResponseCurve) -> float:
    """Difference of the curve between full exposure and none."""
    return curve.level(1.0) - curve.level(0.0)


# -- stratification -----------------------------------------------------------


def stratified_estimate(data: Dataset, e: float) -> float:
    """Population-weighted stratum means of Y at level e.

    Strata are the deciles of each unit's exposure-distribution variance
    (`N_STRATA` quantile bins). When the variance takes at most `N_STRATA`
    distinct values, units are grouped exactly on those values instead, so
    coarse populations (e.g. two unit types) split cleanly. Every nonempty
    stratum must contain at least one observation at level e (within
    `ATOM_TOL`).
    """
    stat = data.gps.dist_variance()
    distinct, _, labels = _group_levels(stat, 1e-12)
    if distinct.size > N_STRATA:
        edges = np.unique(np.quantile(stat, np.linspace(0, 1, N_STRATA + 1)))
        labels = np.clip(np.searchsorted(edges, stat, side="right") - 1, 0, edges.size - 2)
    at_level = np.abs(data.exposure - e) <= ATOM_TOL
    total = 0.0
    for s in np.unique(labels):
        members = labels == s
        hits = members & at_level
        if not np.any(hits):
            raise DataError(
                f"stratum {s} has {int(members.sum())} units but no observation "
                f"at level e={e!r}"
            )
        total += (members.sum() / data.n_units) * data.y[hits].mean()
    return float(total)
