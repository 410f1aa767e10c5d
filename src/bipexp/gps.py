"""Exposure distributions and generalized propensity scores.

For each outcome unit the treatment design induces a distribution over the
unit's possible exposures; the probability mass that distribution puts on a
level e is the unit's generalized propensity score at e. Scores evaluated
at a unit's realized exposure ("observed scores") weight inverse-propensity
estimators; scores evaluated at a common query level across all units
("imputed scores") drive dose-response imputation.

Two constructions are provided. `exact_gps_table` convolves every distinct
neighborhood at once and yields exact atoms, for every shipped design
(Bernoulli, heterogeneous Bernoulli and completely randomized) up to a
degree cap; exposure levels within `ATOM_TOL` are the same atom.
`mc_gps` estimates the table for any design and degree by simulating
assignments and counting the exposures in equal-width bins on [0, 1].
Both return a `GpsTable`, which stores every distinct distribution in one
set of flat arrays. `default_gps_table` picks between them: exact where the
degree cap allows, Monte Carlo otherwise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .design import COMPLETELY_RANDOMIZED, AssignmentDesign, draw_assignments
from .errors import DataError, ValidationError
from .graph import (
    BipartiteGraph,
    IdMap,
    _as_readonly,
    _float_fields,
    _id_fields,
    _segment_gather,
    _write_csv_blocks,
)
from .seeding import as_generator

# Exposure values closer than this are the same atom.
ATOM_TOL = 1e-9

# Degrees above this cap make exact enumeration unreasonable.
MAX_EXACT_DEGREE = 20

# Assignments `mc_gps` draws per batch; the batches set the order of the
# rng stream, so changing this changes the table.
MC_CHUNK = 512

# Bins and draws of a Monte Carlo table unless the caller sets them.
MC_BINS = 20
MC_DRAWS = 100_000

EXACT = "exact"
MONTE_CARLO = "monte-carlo"


def _segment_searchsorted(values: np.ndarray, start: np.ndarray, stop: np.ndarray, q: np.ndarray):
    """Left insertion point of each q[k] in the ascending slice values[start[k]:stop[k]].

    One bisection step per pass over all queries, so the passes number
    log2 of the longest slice.
    """
    lo, hi = start, stop
    last = max(values.size - 1, 0)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        below = active & (values[np.minimum(mid, last)] < q)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)


def _bin_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Right-open bin of x + ATOM_TOL, clipped to the bins: the one bin rule, which
    `mc_gps` counts with and `GpsTable` reads with. Searching the shifted inner
    edges closes the top bin, puts spill below 0 in bin 0 and copies no x."""
    return np.searchsorted(edges[1:-1] - ATOM_TOL, x, side="right")


@dataclass(frozen=True)
class GpsTable:
    """Per-unit exposure distributions in flat arrays, with batched score lookups.

    Distribution d is `support[offsets[d]:offsets[d + 1]]` (atom values,
    or bin centers when `edges` is set, ascending) with the matching slice
    of `probs`. `unit_dist` maps each unit to its distribution; units
    sharing an identical (weights, probabilities) row share one. `edges`
    holds the bin edges of a Monte Carlo table, and is None for exact
    atoms, which match a level within `ATOM_TOL`; a level's bin is the one
    `mc_gps` counts it in (`_bin_index`). The arrays are validated
    once, here; `take` shares them. Query levels must lie inside [0, hi],
    the reachable exposure range (exposures are nonnegative). Support,
    probabilities, edges and `hi` must be finite, with hi >= 0.
    """

    offsets: np.ndarray
    support: np.ndarray
    probs: np.ndarray
    unit_dist: np.ndarray
    hi: float
    edges: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return EXACT if self.edges is None else MONTE_CARLO

    def __post_init__(self):
        offsets = _as_readonly(self.offsets, np.int64)
        support = _as_readonly(self.support, np.float64)
        probs = _as_readonly(self.probs, np.float64)
        unit_dist = _as_readonly(self.unit_dist, np.int64)
        if support.ndim != 1 or support.shape != probs.shape:
            raise ValidationError("support and probs must be matching vectors")
        if not (np.isfinite(support).all() and np.isfinite(probs).all()):
            raise ValidationError("support and probs must be finite")
        if not (np.isfinite(self.hi) and self.hi >= 0):
            raise ValidationError(f"exposure range [0.0, {self.hi}] must be finite with hi >= 0")
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != support.size:
            raise ValidationError("offsets must run from 0 to the number of atoms")
        sizes = np.diff(offsets)
        if np.any(sizes <= 0):
            raise ValidationError("every distribution needs a nonempty support")
        if self.edges is not None:
            edges = _as_readonly(self.edges, np.float64)
            increasing = edges.ndim == 1 and edges.size >= 2 and np.all(np.diff(edges) > 0)
            if not (increasing and np.isfinite(edges).all()):
                raise ValidationError("bin edges must be two or more finite, increasing values")
            if np.any(sizes != edges.size - 1):
                raise ValidationError("a binned distribution needs one entry per bin")
            object.__setattr__(self, "edges", edges)
        steps = np.diff(support)
        steps[offsets[1:-1] - 1] = np.inf  # the next distribution may start lower
        if np.any(steps <= 0):
            raise ValidationError("support must be strictly ascending within each distribution")
        if probs.size and probs.min() < -1e-12:
            raise ValidationError("probabilities must be nonnegative")
        sums = np.add.reduceat(probs, offsets[:-1]) if sizes.size else probs
        off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if off.size:
            raise ValidationError(
                f"probabilities of distribution {off[0]} sum to {sums[off[0]]:.12f}, expected 1"
            )
        if unit_dist.ndim != 1:
            raise ValidationError("unit_dist must be a vector")
        if unit_dist.size and (unit_dist.min() < 0 or unit_dist.max() >= sizes.size):
            raise ValidationError("unit_dist points outside the distributions")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "unit_dist", unit_dist)

    @property
    def n_units(self) -> int:
        return int(self.unit_dist.size)

    @property
    def n_dists(self) -> int:
        return int(self.offsets.size - 1)

    def distribution(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(support, probs) of unit i's exposure distribution, as read-only views."""
        if not 0 <= i < self.n_units:
            raise IndexError(f"unit {i} out of range [0, {self.n_units})")
        d = self.unit_dist[i]
        lo, hi = self.offsets[d], self.offsets[d + 1]
        return self.support[lo:hi], self.probs[lo:hi]

    def _check_range(self, e: np.ndarray) -> None:
        # written so that NaN fails as well
        bad = ~((e >= -ATOM_TOL) & (e <= self.hi + ATOM_TOL))
        if np.any(bad):
            level = float(e[bad].flat[0])
            raise DataError(f"exposure level {level!r} outside the table's range [0.0, {self.hi}]")

    def _mass(self, dist: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Mass distribution dist[k] puts on level e[k] (0 where nothing matches)."""
        if self.edges is not None:
            mass = self.probs[self.offsets[dist] + _bin_index(self.edges, e)]
            # a hand-built table's range [0, hi] may reach past its bins; nothing lies there
            inside = (e >= self.edges[0] - ATOM_TOL) & (e <= self.edges[-1] + ATOM_TOL)
            return np.where(inside, mass, 0.0)
        start, stop = self.offsets[dist], self.offsets[dist + 1]
        pos = _segment_searchsorted(self.support, start, stop, e)
        out = np.zeros(e.shape)
        for shift in (0, -1):  # candidate atoms on both sides of the insertion point
            idx = np.minimum(np.maximum(pos + shift, start), stop - 1)
            hit = np.abs(self.support[idx] - e) <= ATOM_TOL
            out = np.where(hit & (out == 0), self.probs[idx], out)
        return out

    def imputed_scores(self, e: float) -> np.ndarray:
        """Score of every unit at the common query level e."""
        self._check_range(np.asarray([float(e)]))
        return self._mass(np.arange(self.n_dists), np.full(self.n_dists, float(e)))[self.unit_dist]

    def observed_scores(self, exposures: np.ndarray, units: np.ndarray | None = None) -> np.ndarray:
        """Score of each unit at its own realized exposure.

        `units` selects the rows the exposures belong to; a unit outside
        [0, n_units) raises `IndexError`, as in `distribution`.
        """
        exposures = np.asarray(exposures, dtype=np.float64)
        if units is None:
            ids = self.unit_dist
        else:
            units = np.asarray(units)
            bad = units[(units < 0) | (units >= self.n_units)]
            if bad.size:
                raise IndexError(f"unit {bad.flat[0]} out of range [0, {self.n_units})")
            ids = self.unit_dist[units]
        if exposures.shape != ids.shape:
            raise ValueError("exposures must align with the selected units")
        self._check_range(exposures)
        return self._mass(ids, exposures)

    def dist_variance(self) -> np.ndarray:
        """Per-unit variance of the exposure distribution."""
        starts = self.offsets[:-1]
        mean = np.add.reduceat(self.support * self.probs, starts)
        dev = self.support - np.repeat(mean, np.diff(self.offsets))
        return np.add.reduceat(dev * dev * self.probs, starts)[self.unit_dist]

    def take(self, units) -> "GpsTable":
        """Row subset sharing the distribution arrays; only unit_dist is new."""
        unit_dist = self.unit_dist[np.asarray(units, dtype=np.int64)]
        if unit_dist.ndim != 1:
            raise ValidationError("units must be a vector")
        unit_dist.setflags(write=False)
        sub = copy.copy(self)
        object.__setattr__(sub, "unit_dist", unit_dist)
        return sub

    def write_csv(self, dest, id_map: IdMap | None = None) -> None:
        """Audit serialization: one row per (unit, atom-or-bin, probability).

        The columns are outcome_id, exposure_lo, exposure_hi and
        probability. An atom row gives the atom as both ends; a bin row
        gives the bin's edges. Floats are written by `repr`, so they read
        back exactly, and the bytes are those `csv.writer` writes. Units
        are labelled by `id_map`'s outcome ids, which must number one per
        unit, or else by their indices. Rows are formatted and written one
        block of units at a time, so memory stays flat in the table size.

        Raises
        ------
        ValueError
            `id_map` does not have one outcome id per unit; raised before
            `dest` is opened.
        """
        ids = None
        if id_map is not None:
            ids = id_map.outcome_ids
            if len(ids) != self.n_units:
                raise ValueError(f"id map has {len(ids)} outcome ids for {self.n_units} units")
        edges = None
        if self.edges is not None:
            edges = np.array(_float_fields(self.edges), dtype=object)

        def block_columns(lo, hi):
            dist = self.unit_dist[lo:hi]
            sizes = self.offsets[dist + 1] - self.offsets[dist]
            atoms = _segment_gather(self.offsets, dist, sizes)
            unit_ids = _id_fields(ids, lo, hi, sizes)
            probs = list(map(repr, self.probs[atoms].tolist()))
            if edges is None:
                levels = _float_fields(self.support[atoms])
                return unit_ids, levels, levels, probs
            # a binned distribution has one entry per bin
            bins = np.tile(np.arange(edges.size - 1), hi - lo)
            return unit_ids, edges[bins].tolist(), edges[bins + 1].tolist(), probs

        _write_csv_blocks(dest, ("outcome_id", "exposure_lo", "exposure_hi", "probability"),
                          self.n_units, block_columns)


def _merge_atoms(groups: list, support: np.ndarray, probs: np.ndarray):
    """Stably sort atoms by (*groups, support) and merge runs into their first atom.

    A run shares every group key and has consecutive gaps within `ATOM_TOL`;
    its masses are summed in order.
    """
    # The nonnegative group keys fold into one integer rank, the first key
    # most significant. Distributions number at most the outcome units and
    # treated counts at most MAX_EXACT_DEGREE, so the rank stays far below
    # 2^53 and is exact as a float64. Complex values sort by real part, then
    # imaginary part, so one stable argsort of rank + i * support gives
    # lexsort's order over (*groups, support).
    rank = np.zeros(support.size, dtype=np.int64)
    for g in groups:
        rank = rank * (int(g.max(initial=0)) + 1) + g
    order = np.argsort(rank + 1j * support, kind="stable")
    rank, support, probs = rank[order], support[order], probs[order]
    new_run = (np.diff(support) > ATOM_TOL) | (np.diff(rank) != 0)
    starts = np.flatnonzero(np.concatenate([[True], new_run]))
    return [g[order[starts]] for g in groups], support[starts], np.add.reduceat(probs, starts)


def exact_gps_table(graph: BipartiteGraph, design: AssignmentDesign) -> GpsTable:
    """Exact table for all units, under a Bernoulli or completely randomized design.

    Units whose (weights, probabilities) rows are identical byte for byte
    share one distribution; distributions are numbered in order of first
    appearance. All distinct rows are convolved together, one pass per
    neighbor position: every row with a j-th neighbor doubles its atoms
    (that neighbor untreated, then treated), the atoms are stably sorted by
    (distribution, exposure), and each run whose consecutive gaps are
    within `ATOM_TOL` merges into its first atom. Under a Bernoulli design
    this equals summing over all 2^degree assignment patterns.

    Under complete randomization (k of M treated) each atom also carries
    c, its number of treated neighbors so far. Neighbor j is treated with
    probability (k - c) / (M - j) and untreated with (M - j - k + c) / (M - j),
    which draws the neighbors' statuses one by one without replacement, so
    a pattern with c of d neighbors treated gets C(M - d, k - c) / C(M, k)
    with no binomial to overflow. Branches the design cannot reach (more
    than k treated, or more than M - k untreated) are dropped. Atoms merge
    on (distribution, c, exposure) during the pass and on (distribution,
    exposure) at the end.

    Raises
    ------
    DataError
        Degree above `MAX_EXACT_DEGREE` (use `mc_gps`).
    ValidationError
        A completely randomized design with more treated units than
        diversion units.
    """
    cr = design.kind == COMPLETELY_RANDOMIZED
    m = graph.m_diversion
    p_all = design.probabilities(m)  # fails fast on a length mismatch or k > M
    degrees = graph.degrees
    too_big = np.flatnonzero(degrees > MAX_EXACT_DEGREE)
    if too_big.size:
        i = int(too_big[0])
        raise DataError(
            f"unit {i} has degree {degrees[i]} > cap {MAX_EXACT_DEGREE}: "
            "exact enumeration would be exponential, use mc_gps instead"
        )
    n, width = graph.n_outcome, int(degrees.max(initial=0))
    first_edge = graph.indptr[:-1]
    p_edge = p_all[graph.indices]
    # Rows compare by degree and the raw bits of their weights and
    # probabilities, zero-padded to one width, as a bytes key would. The
    # stable sort keeps equal rows in unit order, so each run of equal rows
    # starts at its first unit.
    cols = [degrees]
    for j in range(width):
        for values in (graph.weights, p_edge):
            col = np.where(degrees > j, values.take(first_edge + j, mode="clip"), 0.0)
            cols.append(col.view(np.int64))
    order = np.lexsort(cols)
    same = np.ones(max(n - 1, 0), dtype=bool)
    for col in cols:
        ordered = col[order]
        same &= ordered[1:] == ordered[:-1]
    del cols
    new_row = np.concatenate([np.ones(min(n, 1), dtype=bool), ~same])
    first_unit = np.empty(n, dtype=np.int64)
    first_unit[order] = order[new_row][np.cumsum(new_row) - 1]
    # ascending first units number the distributions in order of appearance
    reps, unit_dist = np.unique(first_unit, return_inverse=True)
    n_dists = reps.size
    deg, rep_edge = degrees[reps], first_edge[reps]

    # Atoms of the distributions still convolving, grouped by distribution
    # and ascending within each; a distribution is set aside once its
    # neighbors are used up.
    dist = np.arange(n_dists, dtype=np.int32)
    support = np.zeros(n_dists)
    probs = np.ones(n_dists)
    if cr:
        k = design.k
        treated = np.zeros(n_dists, dtype=np.int64)
    finished = []
    for j in range(width):
        live = deg[dist] > j
        finished.append((dist[~live], support[~live], probs[~live]))
        dist, support, probs = dist[live], support[live], probs[live]
        edge = rep_edge[dist] + j
        if cr:
            c = treated[live]
            # reachable branches: at most M - k untreated and at most k treated
            off, on = j - c < m - k, c < k
            dist = np.concatenate([dist[off], dist[on]])
            support = np.concatenate([support[off], (support + graph.weights[edge])[on]])
            probs = np.concatenate([probs[off] * ((m - j - k + c[off]) / (m - j)),
                                    probs[on] * ((k - c[on]) / (m - j))])
            treated = np.concatenate([c[off], c[on] + 1])
            (dist, treated), support, probs = _merge_atoms([dist, treated], support, probs)
        else:
            q = p_edge[edge]
            dist = np.concatenate([dist, dist])
            support = np.concatenate([support, support + graph.weights[edge]])
            probs = np.concatenate([probs * (1.0 - q), probs * q])
            (dist,), support, probs = _merge_atoms([dist], support, probs)
    finished.append((dist, support, probs))
    dist, support, probs = (np.concatenate(part) for part in zip(*finished))
    del finished
    if cr and dist.size:
        (dist,), support, probs = _merge_atoms([dist], support, probs)
    else:
        order = np.argsort(dist, kind="stable")
        dist, support, probs = dist[order], support[order], probs[order]
    return GpsTable(
        offsets=np.searchsorted(dist, np.arange(n_dists + 1)),
        support=support,
        probs=probs,
        unit_dist=unit_dist,
        hi=graph.max_row_sum,
    )


def mc_gps(
    graph: BipartiteGraph,
    design: AssignmentDesign,
    n_bins: int = MC_BINS,
    n_draws: int = MC_DRAWS,
    rng=None,
) -> GpsTable:
    """Monte Carlo table: simulate assignments, count exposures in bins.

    Works for any design. Each of `n_draws` assignments is drawn from
    `rng`, in batches of `MC_CHUNK`, and every unit's exposure is counted
    in `n_bins` equal-width bins on [0, 1] by `_bin_index`, the rule the
    table's lookups read with. Deterministic for a fixed rng seed. Every
    unit gets its own distribution.

    Raises
    ------
    ValueError
        `n_bins` below 1 or `n_draws` not positive.
    ValidationError
        A row sums past 1, so the bins do not cover its reachable exposures.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if n_draws <= 0:
        raise ValueError("n_draws must be positive")
    rng = as_generator(rng)
    n = graph.n_outcome
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    if graph.max_row_sum > 1.0 + ATOM_TOL:
        raise ValidationError(f"bins on [0, 1] do not cover the reachable exposure range "
                              f"[0, {graph.max_row_sum}]")
    counts = np.zeros((n, n_bins), dtype=np.int64)
    csr = graph.to_csr()
    done = 0
    while done < n_draws:
        take = min(MC_CHUNK, n_draws - done)
        z = draw_assignments(design, graph.m_diversion, take, rng)
        # coverage was validated above, so clipping only absorbs float spill;
        # one (n_outcome, batch) index array is updated in place
        idx = _bin_index(edges, csr @ z.astype(np.float64))
        idx += np.arange(n)[:, None] * n_bins
        counts += np.bincount(idx.ravel(), minlength=counts.size).reshape(counts.shape)
        done += take
    return GpsTable(
        offsets=np.arange(n + 1, dtype=np.int64) * n_bins,
        support=np.tile((edges[:-1] + edges[1:]) / 2.0, n),
        probs=(counts / float(n_draws)).ravel(),
        unit_dist=np.arange(n, dtype=np.int64),
        hi=1.0,
        edges=edges,
    )


def default_gps_table(
    graph: BipartiteGraph,
    design: AssignmentDesign,
    *,
    rng=None,
    mc_draws: int = MC_DRAWS,
) -> GpsTable:
    """Exact propensity table when every degree is within `MAX_EXACT_DEGREE`.

    That holds for any design kind. Heavier graphs get `mc_gps` with
    `mc_draws` draws into `MC_BINS` equal-width bins, drawn from `rng`.
    """
    if int(graph.degrees.max(initial=0)) <= MAX_EXACT_DEGREE:
        return exact_gps_table(graph, design)
    return mc_gps(graph, design, n_draws=mc_draws, rng=rng)
