"""Treatment-assignment designs and the linear exposure map.

An assignment is a 0/1 vector over diversion units; an exposure profile is
the graph-weighted average of the assignment seen by each outcome unit.
Designs built through the named constructors enforce the open-interval
probability invariant; direct dataclass construction bypasses it, which is
reserved for degenerate test harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import BipartiteGraph, IdMap, _as_readonly, _read_id_column
from .seeding import as_generator

BERNOULLI = "bernoulli"
BERNOULLI_HETEROGENEOUS = "bernoulli-heterogeneous"
COMPLETELY_RANDOMIZED = "completely-randomized"

DESIGN_KINDS = (BERNOULLI, BERNOULLI_HETEROGENEOUS, COMPLETELY_RANDOMIZED)


@dataclass(frozen=True)
class AssignmentDesign:
    """How diversion units are randomized into treatment.

    Use the classmethod constructors; they validate that probabilities lie
    strictly inside (0, 1) (respectively 0 < k < M), which downstream
    positivity arguments rely on.
    """

    kind: str
    p: float | None = None
    p_vec: np.ndarray | None = None
    k: int | None = None

    @classmethod
    def bernoulli(cls, p: float) -> "AssignmentDesign":
        """Independent Bernoulli(p) coins, one per diversion unit."""
        if not 0.0 < p < 1.0:
            raise ValidationError(f"bernoulli probability must lie in (0, 1), got {p!r}")
        return cls(kind=BERNOULLI, p=float(p))

    @classmethod
    def bernoulli_heterogeneous(cls, p_vec) -> "AssignmentDesign":
        """Independent coins with a per-diversion-unit probability vector."""
        p_vec = _as_readonly(p_vec, np.float64)
        if p_vec.ndim != 1 or p_vec.size == 0:
            raise ValidationError("p_vec must be a nonempty 1-d vector")
        if np.any(~np.isfinite(p_vec)) or np.any(p_vec <= 0.0) or np.any(p_vec >= 1.0):
            raise ValidationError("all probabilities must lie strictly inside (0, 1)")
        return cls(kind=BERNOULLI_HETEROGENEOUS, p_vec=p_vec)

    @classmethod
    def completely_randomized(cls, k: int) -> "AssignmentDesign":
        """Exactly k of the M diversion units treated, uniformly at random."""
        if int(k) != k or k <= 0:
            raise ValidationError(f"k must be a positive integer, got {k!r}")
        return cls(kind=COMPLETELY_RANDOMIZED, k=int(k))

    def probabilities(self, m: int) -> np.ndarray:
        """Marginal treatment probability of each of m diversion units.

        A completely randomized k above m raises `ValidationError`.
        """
        if self.kind == BERNOULLI:
            return np.full(m, self.p)
        if self.kind == BERNOULLI_HETEROGENEOUS:
            if self.p_vec.size != m:
                raise ValueError(
                    f"design carries {self.p_vec.size} probabilities but graph has {m} diversion units"
                )
            return np.asarray(self.p_vec)
        if self.kind == COMPLETELY_RANDOMIZED:
            if self.k > m:
                raise ValidationError(f"k={self.k} exceeds number of diversion units {m}")
            return np.full(m, self.k / m)
        raise ValidationError(f"unknown design kind {self.kind!r}")


def draw_assignments(design: AssignmentDesign, m: int, n_draws: int, rng=None) -> np.ndarray:
    """Draw n_draws independent assignments as a (m, n_draws) uint8 matrix."""
    if m <= 0:
        raise ValueError("m must be positive")
    if n_draws <= 0:
        raise ValueError("n_draws must be positive")
    rng = as_generator(rng)
    p = design.probabilities(m)
    if design.kind == COMPLETELY_RANDOMIZED:
        # one shuffle per row, drawn as rng.permutation(m) would draw it
        perms = rng.permuted(np.tile(np.arange(m), (n_draws, 1)), axis=1)
        out = np.zeros((m, n_draws), dtype=np.uint8)
        out[perms[:, : design.k], np.arange(n_draws)[:, None]] = 1
        return out
    return (rng.random((m, n_draws)) < p[:, None]).astype(np.uint8)


def linear_exposure(graph: BipartiteGraph, z: np.ndarray) -> np.ndarray:
    """Exposure profile of one assignment: row-weighted share of treated neighbors."""
    z = np.asarray(z)
    if z.shape != (graph.m_diversion,):
        raise ValueError(
            f"assignment has shape {z.shape}, expected ({graph.m_diversion},)"
        )
    return graph._sum_rows(graph.weights * z[graph.indices].astype(np.float64))


def linear_exposure_many(graph: BipartiteGraph, z_matrix: np.ndarray) -> np.ndarray:
    """Exposure profiles for a (m, n_draws) matrix of assignments, as (n_outcome, n_draws);
    per-row sums, so a column can differ from `linear_exposure`'s in the last bits."""
    z_matrix = np.asarray(z_matrix)
    if z_matrix.ndim != 2 or z_matrix.shape[0] != graph.m_diversion:
        raise ValueError(
            f"assignment matrix has shape {z_matrix.shape}, expected ({graph.m_diversion}, n)"
        )
    return graph.to_csr() @ z_matrix.astype(np.float64)


def load_probability_file(source, id_map: IdMap) -> np.ndarray:
    """Read per-diversion-unit probabilities (columns diversion_id,p).

    Every diversion unit in `id_map` must appear exactly once, and every
    probability must lie strictly inside (0, 1); an error names the line
    and the id.
    """
    return _read_id_column(source, "diversion_id", "p", id_map.diversion_ids,
                           (lambda p: 0.0 < p < 1.0, "must lie strictly inside (0, 1)"))
