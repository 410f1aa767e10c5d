"""Weighted bipartite graphs between outcome units and diversion units.

The graph is the fixed structure through which treatment reaches outcomes:
row i holds the weights tying outcome unit i to the diversion units it is
exposed to. Graphs are stored in compressed sparse row form and are
immutable once built; loading, synthesis, and serialization all go through
the same validated constructor.

External ids from edge-list files are mapped to dense indices in first-
appearance order; the mapping is kept in an `IdMap` so results can be
reported against the original ids.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from array import array
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import DataError, ParseError, ValidationError
from .seeding import as_generator

EDGE_HEADER = ("outcome_id", "diversion_id", "weight")

# |row sum - 1| tolerance for the row-normalized flag.
NORMALIZED_TOL = 1e-9


def _as_readonly(arr, dtype) -> np.ndarray:
    """Frozen C-contiguous copy; the caller's array stays writable."""
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Immutable weighted bipartite graph in CSR layout.

    Parameters
    ----------
    n_outcome, m_diversion : int
        Number of outcome units (rows) and diversion units (columns).
    indptr : ndarray, shape (n_outcome + 1,)
        Row start offsets into `indices` / `weights`.
    indices : ndarray, shape (nnz,)
        Diversion-unit index of each edge, ascending within a row.
    weights : ndarray, shape (nnz,)
        Nonnegative, finite edge weights.
    """

    n_outcome: int
    m_diversion: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indptr", _as_readonly(self.indptr, np.int64))
        object.__setattr__(self, "indices", _as_readonly(self.indices, np.int64))
        object.__setattr__(self, "weights", _as_readonly(self.weights, np.float64))
        if self.n_outcome < 0 or self.m_diversion < 0:
            raise ValidationError("unit counts must be nonnegative")
        if self.indptr.shape != (self.n_outcome + 1,):
            raise ValidationError("indptr length must be n_outcome + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValidationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be nondecreasing")
        if self.indices.shape != self.weights.shape:
            raise ValidationError("indices and weights must have equal length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.m_diversion:
                raise ValidationError("diversion index out of range")
            if not np.all(np.isfinite(self.weights)):
                raise ValidationError("edge weights must be finite")
            if self.weights.min() < 0:
                raise ValidationError("edge weights must be nonnegative")
            # ascending within row also rules out duplicate edges
            owner = np.repeat(np.arange(self.n_outcome), np.diff(self.indptr))
            if np.any((np.diff(self.indices) <= 0) & (np.diff(owner) == 0)):
                raise ValidationError("row indices must be strictly ascending (duplicate edge?)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, m_diversion: int) -> "BipartiteGraph":
        """Build from an iterable of per-unit [(diversion_index, weight), ...] lists."""
        indptr = [0]
        indices: list[int] = []
        weights: list[float] = []
        for row in rows:
            row = sorted(row, key=lambda jw: jw[0])
            for j, w in row:
                indices.append(int(j))
                weights.append(float(w))
            indptr.append(len(indices))
        return cls(
            n_outcome=len(indptr) - 1,
            m_diversion=int(m_diversion),
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(indices, dtype=np.int64),
            weights=np.asarray(weights, dtype=np.float64),
        )

    # -- properties --------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Number of diversion neighbors per outcome unit."""
        return np.diff(self.indptr)

    def _sum_rows(self, per_edge: np.ndarray) -> np.ndarray:
        """Per-row sums of an edge-aligned vector, as differences of one running sum."""
        cs = np.concatenate([[0.0], np.cumsum(per_edge)])
        return cs[self.indptr[1:]] - cs[self.indptr[:-1]]

    @property
    def row_sums(self) -> np.ndarray:
        return self._sum_rows(self.weights)

    @property
    def row_normalized(self) -> bool:
        """True when every nonempty row sums to 1 within `NORMALIZED_TOL`."""
        nonempty = self.degrees > 0
        return bool(np.all(np.abs(self.row_sums[nonempty] - 1.0) <= NORMALIZED_TOL))

    @property
    def max_row_sum(self) -> float:
        sums = self.row_sums
        return float(sums.max()) if sums.size else 0.0

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    # -- transforms --------------------------------------------------------

    def take(self, rows) -> "BipartiteGraph":
        """Row-subset view (copies arrays); used by resampling."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.degrees[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        gather = _segment_gather(self.indptr, rows, lengths)
        return BipartiteGraph(
            n_outcome=rows.size,
            m_diversion=self.m_diversion,
            indptr=indptr,
            indices=self.indices[gather],
            weights=self.weights[gather],
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_outcome, self.m_diversion))
        rows = np.repeat(np.arange(self.n_outcome), self.degrees)
        out[rows, self.indices] = self.weights
        return out

    def to_csr(self):
        return sparse.csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.n_outcome, self.m_diversion),
        )

    def sum_squared_weights(self) -> float:
        return float(np.dot(self.weights, self.weights))

    def gram_sum_squares(self) -> float:
        """|W.T W|_F^2; the graph is immutable, so it is formed once and kept."""
        cached = self.__dict__.get("_gram_sum_squares")
        if cached is None:
            w = self.to_csr()
            gram = (w.T @ w).data
            cached = float(gram @ gram)
            object.__setattr__(self, "_gram_sum_squares", cached)
        return cached


def _segment_gather(indptr, rows, lengths):
    # flat indices of the edges of `rows`, preserving per-row order
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = indptr[rows]
    offsets = np.repeat(starts, lengths)
    within = np.arange(total) - np.repeat(np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths)
    return offsets + within


@dataclass(frozen=True)
class IdMap:
    """External string ids for the dense outcome / diversion indices."""

    outcome_ids: tuple[str, ...]
    diversion_ids: tuple[str, ...]

    @staticmethod
    def identity(n_outcome: int, m_diversion: int) -> "IdMap":
        return IdMap(
            outcome_ids=tuple(str(i) for i in range(n_outcome)),
            diversion_ids=tuple(str(j) for j in range(m_diversion)),
        )

    def outcome_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.outcome_ids)}

    def diversion_index(self) -> dict[str, int]:
        return {s: j for j, s in enumerate(self.diversion_ids)}


def _open_read(source):
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline="")
    return _NonClosing(source)


def _where(source) -> str:
    """Prefix naming a file given by path in error messages; none for a file object."""
    return f"{source}: " if isinstance(source, (str, os.PathLike)) else ""


def _records(source, header: tuple[str, ...], rule=None):
    """Yield (line, fields, value) for each nonempty record of an input CSV.

    The one reader of every input file. The first record must be exactly
    `header` (fields stripped); each later one needs as many fields, and its
    last field must be a finite decimal, `value`. `rule` is an optional
    (test, text) pair: a value failing `test(value)` raises ValidationError
    naming the first field as the record's id. Line numbers count CSV
    records, the header being line 1. A malformed record, a `csv.Error` or
    text that is not UTF-8 raises ParseError; every error names a path
    `source`. UTF-8 is decoded ahead of the records, so a decode error
    names no line.
    """
    where = _where(source)
    n_fields, name = len(header), header[-1]
    last, isfinite = n_fields - 1, math.isfinite
    lineno = 0
    try:
        with _open_read(source) as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            lineno = 1
            if got is None or tuple(h.strip() for h in got) != header:
                got = "an empty file" if got is None else ",".join(got)
                raise ParseError(f"{where}expected header {','.join(header)}, got {got}", 1)
            for lineno, record in enumerate(reader, start=2):
                if len(record) != n_fields:
                    if not record:
                        continue
                    raise ParseError(f"{where}expected {n_fields} fields, got {len(record)}", lineno)
                text = record[last]
                try:
                    value = float(text)  # float() skips the whitespace strip() removes
                except ValueError:
                    raise ParseError(f"{where}{name} {text.strip()!r} is not a decimal literal", lineno)
                if not isfinite(value):
                    raise ParseError(f"{where}{name} {text.strip()!r} is not finite", lineno)
                if rule is not None and not rule[0](value):
                    raise ValidationError(
                        f"line {lineno}: {where}{name} {text.strip()!r} of {header[0]} "
                        f"{record[0].strip()!r} {rule[1]}"
                    )
                yield lineno, record, value
    except csv.Error as exc:
        # the record after the last one read is the one being read
        raise ParseError(f"{where}{exc}", lineno + 1) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}not UTF-8 text: {exc.reason}") from None


def _read_id_column(source, key_header: str, value_header: str, ids, rule=None) -> np.ndarray:
    """Values of a two-column CSV keyed by external id, aligned with `ids`.

    The header must be exactly ``key_header,value_header`` and every id in
    `ids` must appear exactly once. The file is read by `_records`, under the
    optional value `rule`; unknown, duplicate or missing ids raise
    ValidationError.
    """
    where = _where(source)
    index = {s: i for i, s in enumerate(ids)}
    out = np.full(len(index), np.nan)
    seen = np.zeros(len(index), dtype=bool)
    for lineno, (key, _), value in _records(source, (key_header, value_header), rule):
        key = key.strip()
        i = index.get(key)
        if i is None:
            raise ValidationError(f"line {lineno}: {where}unknown {key_header} {key!r}")
        if seen[i]:
            raise ValidationError(f"line {lineno}: {where}duplicate {key_header} {key!r}")
        out[i] = value
        seen[i] = True
    missing = np.flatnonzero(~seen)
    if missing.size:
        names = ", ".join(ids[j] for j in missing[:5]) + (", ..." if missing.size > 5 else "")
        raise ValidationError(f"{where}missing {value_header} for {missing.size} ids ({names})")
    return out


def _open_write(dest):
    if isinstance(dest, (str, os.PathLike)):
        return open(dest, "w", encoding="utf-8", newline="")
    return _NonClosing(dest)


# Units (table or graph rows) per block of CSV rows formatted and
# written together: one block's text at a time keeps the writers' memory
# flat in the file size.
_WRITE_BLOCK = 4096

_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_quote(text: str) -> str:
    """`text` as a field of `csv.writer`'s default dialect.

    That dialect (QUOTE_MINIMAL) quotes exactly the fields holding a comma,
    a double quote or a line break, and doubles the quotes inside.
    """
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _id_fields(ids, lo: int, hi: int, repeats) -> list[str]:
    """Quoted ids[lo:hi], or the indices lo..hi-1 when ids is None.

    Each field is repeated `repeats` times: one count for all, or one per id.
    """
    fields = list(map(str, range(lo, hi))) if ids is None else [_csv_quote(s) for s in ids[lo:hi]]
    return np.repeat(np.array(fields, dtype=object), repeats).tolist()


def _float_fields(values: np.ndarray) -> list[str]:
    """repr of each float, formatted once per distinct bit pattern."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv_blocks(dest, header, n_units: int, block_columns) -> None:
    """Write `header`, then the rows of units 0..n_units-1, one block at a time.

    `block_columns(lo, hi)` returns the rows of units lo..hi-1 as columns:
    equal-length lists of fields that are already formatted and quoted.
    The bytes are those `csv.writer` writes for the same rows.
    """
    with _open_write(dest) as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_units, _WRITE_BLOCK):
            rows = zip(*block_columns(lo, min(lo + _WRITE_BLOCK, n_units)))
            # the empty last item ends every row, the last one too, with \r\n
            fh.write("\r\n".join(chain(map(",".join, rows), [""])))


def _write_csv_rows(rows: list[dict], dest) -> None:
    """CSV with a header from the first row's keys, then one line per row."""
    with _open_write(dest) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _write_json(obj, dest) -> None:
    """Two-space indented JSON ending in a newline."""
    with _open_write(dest) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


class _NonClosing:
    # context manager that leaves caller-owned file objects open
    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc):
        return False


def load_edge_list(source, normalize: bool = False) -> tuple[BipartiteGraph, IdMap]:
    """Parse an edge-list CSV into a validated graph.

    The file is UTF-8, comma-delimited, with exact header
    ``outcome_id,diversion_id,weight``. Ids are arbitrary strings and are
    assigned dense indices in first-appearance order. With
    ``normalize=True`` each nonempty row is rescaled to sum to 1.

    When several lines are bad, the error names the first of them in file
    order. Line numbers count CSV records, header included; a path `source` is named too.

    Returns
    -------
    (BipartiteGraph, IdMap)

    Raises
    ------
    ParseError
        Malformed header or row (carries the line number), or text that is
        not UTF-8; the file is read by `_records`.
    ValidationError
        Negative weight or duplicate (outcome, diversion) pair.
    """
    o_index: dict[str, int] = {}
    d_index: dict[str, int] = {}
    where = _where(source)
    # one typed entry per edge, in file order: no per-edge Python object
    # outlives its line
    rows, cols, lines, weights = array("q"), array("q"), array("q"), array("d")
    bad_line = None
    try:
        for lineno, (oid, did, _), w in _records(source, EDGE_HEADER):
            if w < 0:
                raise ValidationError(f"line {lineno}: {where}negative weight {w!r}")
            rows.append(o_index.setdefault(oid.strip(), len(o_index)))
            cols.append(d_index.setdefault(did.strip(), len(d_index)))
            lines.append(lineno)
            weights.append(w)
    except DataError as exc:
        # raised below unless an earlier line repeats an edge
        bad_line = exc

    outcome_ids, diversion_ids = tuple(o_index), tuple(d_index)
    row = np.frombuffer(rows, dtype=np.int64)
    col = np.frombuffer(cols, dtype=np.int64)
    # stable: ties keep file order, so the second edge of a repeated pair
    # follows the first, and each row's edges come out by ascending column
    order = np.lexsort((col, row))
    row_s, col_s = row[order], col[order]
    repeats = order[1:][(row_s[1:] == row_s[:-1]) & (col_s[1:] == col_s[:-1])]
    if repeats.size:
        k = int(repeats.min())
        raise ValidationError(
            f"line {lines[k]}: {where}duplicate edge "
            f"({outcome_ids[row[k]]!r}, {diversion_ids[col[k]]!r})"
        )
    if bad_line is not None:
        raise bad_line

    n = len(outcome_ids)
    w = np.frombuffer(weights, dtype=np.float64)
    if normalize:
        # bincount adds each row's weights one by one in file order
        totals = np.bincount(row, weights=w, minlength=n)
        zero = np.flatnonzero(totals <= 0)
        if zero.size:
            raise ValidationError(
                f"{where}cannot normalize outcome unit {outcome_ids[zero[0]]!r}: row sum is 0"
            )
        w = w / totals[row]
    graph = BipartiteGraph(
        n_outcome=n,
        m_diversion=len(diversion_ids),
        indptr=np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))]),
        indices=col_s,
        weights=w[order],
    )
    return graph, IdMap(outcome_ids, diversion_ids)


def write_edge_list(graph: BipartiteGraph, dest, id_map: IdMap | None = None) -> None:
    """Serialize to edge-list CSV; float repr round-trips weights exactly.

    Without an id map the ids are the dense indices. Raises ValueError,
    before `dest` is opened, when the id map does not match the graph.
    """
    outcome_ids = diversion_ids = None
    if id_map is not None:
        outcome_ids, diversion_ids = id_map.outcome_ids, id_map.diversion_ids
        if (len(outcome_ids), len(diversion_ids)) != (graph.n_outcome, graph.m_diversion):
            raise ValueError(
                f"id map has {len(outcome_ids)} outcome and {len(diversion_ids)} diversion "
                f"ids for a {graph.n_outcome}x{graph.m_diversion} graph"
            )
    diversion = np.array(_id_fields(diversion_ids, 0, graph.m_diversion, 1), dtype=object)

    def block_columns(lo, hi):
        first, last = graph.indptr[lo], graph.indptr[hi]
        return (_id_fields(outcome_ids, lo, hi, graph.degrees[lo:hi]),
                diversion[graph.indices[first:last]].tolist(),
                _float_fields(graph.weights[first:last]))

    _write_csv_blocks(dest, EDGE_HEADER, graph.n_outcome, block_columns)


# -- synthesis -------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for synthesizing a graph; `synth_graph` realizes it.

    kind "uniform-degree": each outcome unit draws its degree uniformly
    from {deg_min..deg_max}, picks that many distinct diversion neighbors
    uniformly at random, and weights them equally (1/degree).

    kind "blocks": units are split into n_blocks contiguous groups on both
    sides, wired within their own block as in "uniform-degree", then a
    `cross_share` fraction of edges is rewired to a diversion unit outside
    the block. cross_share = 0 leaves n_blocks disjoint components.

    Graphs from edge-list files come from `load_edge_list` instead.
    """

    kind: str
    n_outcome: int = 0
    m_diversion: int = 0
    deg_min: int = 1
    deg_max: int = 1
    n_blocks: int = 1
    cross_share: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform-degree", "blocks"):
            raise ValidationError(f"unknown graph kind {self.kind!r}")
        if self.n_outcome <= 0 or self.m_diversion <= 0:
            raise ValidationError("graph spec needs positive unit counts")
        if not (1 <= self.deg_min <= self.deg_max):
            raise ValidationError("need 1 <= deg_min <= deg_max")
        if self.kind == "blocks":
            if self.n_blocks < 1:
                raise ValidationError("n_blocks must be >= 1")
            if not 0.0 <= self.cross_share <= 1.0:
                raise ValidationError("cross_share must lie in [0, 1]")
            if self.n_blocks == 1 and self.cross_share > 0.0:
                raise ValidationError(
                    f"cross_share {self.cross_share} needs n_blocks >= 2: with n_blocks 1 "
                    "there is no other block to rewire edges to"
                )


def contiguous_blocks(n: int, k: int) -> np.ndarray:
    """Block label of each of n units under a contiguous split into k blocks."""
    return (np.arange(n, dtype=np.int64) * k) // n


def synth_graph(spec: GraphSpec, rng) -> BipartiteGraph:
    """Realize a graph spec, drawing from `rng` (a Generator or an int seed).

    Deterministic for a fixed seed.
    """
    rng = as_generator(rng)
    if spec.kind == "uniform-degree":
        # one block holding every unit, so there is nothing to rewire
        spec = replace(spec, n_blocks=1, cross_share=0.0)
    return _synth_blocks(spec, rng)


def _synth_blocks(spec: GraphSpec, rng) -> BipartiteGraph:
    k = spec.n_blocks
    o_blocks = contiguous_blocks(spec.n_outcome, k)
    d_blocks = contiguous_blocks(spec.m_diversion, k)
    d_members = [np.flatnonzero(d_blocks == b) for b in range(k)]
    min_block = min(len(m) for m in d_members)
    if spec.deg_max > min_block:
        where = "number of diversion units" if k == 1 else "smallest block's diversion count"
        raise ValidationError(f"deg_max {spec.deg_max} exceeds {where} {min_block}")
    degrees = rng.integers(spec.deg_min, spec.deg_max + 1, size=spec.n_outcome)
    chosen = [rng.choice(d_members[o_blocks[i]], size=int(degrees[i]), replace=False)
              for i in range(spec.n_outcome)]
    owner = np.repeat(np.arange(spec.n_outcome), degrees)
    flat = np.concatenate(chosen).astype(np.int64)
    flat = flat[np.lexsort((flat, owner))]  # each row's neighbours ascending
    indptr = np.concatenate([[0], np.cumsum(degrees)])

    n_cut = int(round(spec.cross_share * int(degrees.sum())))
    if n_cut:
        # pick edge slots uniformly over all edges, then rewire each slot's
        # diversion endpoint to a unit outside the row's block; sets are
        # built only for the rows that get rewired
        cut_slots = rng.choice(owner.size, size=n_cut, replace=False)
        rewired: dict[int, set[int]] = {}
        for slot in cut_slots:
            i = int(owner[slot])
            nbrs = rewired.get(i)
            if nbrs is None:
                nbrs = rewired[i] = set(flat[indptr[i]:indptr[i + 1]].tolist())
            old_j = int(flat[slot])
            if old_j not in nbrs:
                continue  # already rewired away via another slot of the same row
            own = o_blocks[i]
            while True:
                j_new = int(rng.integers(spec.m_diversion))
                if d_blocks[j_new] != own and j_new not in nbrs:
                    break
            nbrs.discard(old_j)
            nbrs.add(j_new)
        for i, nbrs in rewired.items():
            # a rewire swaps one neighbour for another, so the row keeps its degree
            flat[indptr[i]:indptr[i + 1]] = sorted(nbrs)

    return BipartiteGraph(
        n_outcome=spec.n_outcome,
        m_diversion=spec.m_diversion,
        indptr=indptr,
        indices=flat,
        weights=np.repeat(1.0 / degrees, degrees),
    )


# -- connectivity ----------------------------------------------------------


def connected_components(graph: BipartiteGraph) -> tuple[int, np.ndarray, np.ndarray]:
    """Connected components of the bipartite graph.

    Returns (count, outcome_labels, diversion_labels); labels are dense ints
    shared across the two sides. Units without edges form singleton
    components. The graph is immutable, so the result is computed once and
    kept on it; the label arrays are read-only.
    """
    cached = getattr(graph, "_components", None)
    if cached is not None:
        return cached
    n, m = graph.n_outcome, graph.m_diversion
    # outcome i is node i, diversion j is node n + j; every stored edge links
    # them, whatever its weight, and diversion rows hold no edges
    indptr = np.concatenate([graph.indptr, np.full(m, graph.nnz)])
    adjacency = sparse.csr_matrix(
        (np.ones(graph.nnz), n + graph.indices, indptr), shape=(n + m, n + m)
    )
    count, labels = csgraph.connected_components(adjacency, directed=False)
    labels = labels.astype(np.int64)
    labels.setflags(write=False)
    cached = (int(count), labels[:n], labels[n:])
    object.__setattr__(graph, "_components", cached)
    return cached


def group_by_label(labels) -> tuple[np.ndarray, np.ndarray]:
    """Indices grouped by label, in one stable sort.

    Returns (order, bounds): group g is `order[bounds[g]:bounds[g + 1]]`,
    the indices holding the g-th smallest label, ascending. Empty labels
    give no groups.
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    if not labels.size:
        return order, np.zeros(1, dtype=np.int64)
    ranked = labels[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    return order, np.concatenate([[0], cuts, [labels.size]])
