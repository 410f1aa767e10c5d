import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipexp import graph as graph_module
from bipexp.errors import DataError, ParseError, ValidationError
from bipexp.graph import (
    BipartiteGraph,
    GraphSpec,
    IdMap,
    connected_components,
    contiguous_blocks,
    load_edge_list,
    synth_graph,
    write_edge_list,
)
from bipexp.seeding import substream
from conftest import BAD_EDGE_LISTS, row_edges


def test_from_rows_matches_dense(small_graph):
    dense = small_graph.to_dense()
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 0] = expected[1, 1] = 0.5
    expected[2, 1], expected[2, 2] = 0.25, 0.75
    expected[3, 0], expected[3, 2], expected[3, 3] = 0.2, 0.3, 0.5
    np.testing.assert_allclose(dense, expected)
    assert small_graph.row_normalized
    np.testing.assert_array_equal(small_graph.degrees, [1, 2, 2, 3])


def test_row_sums_and_nnz(small_graph):
    np.testing.assert_allclose(small_graph.row_sums, 1.0)
    assert small_graph.nnz == 8
    assert small_graph.max_row_sum == pytest.approx(1.0)
    assert small_graph.sum_squared_weights() == pytest.approx(
        1.0 + 2 * 0.25 + 0.25**2 + 0.75**2 + 0.2**2 + 0.3**2 + 0.5**2
    )


def test_duplicate_edge_rejected():
    with pytest.raises(ValidationError):
        BipartiteGraph.from_rows([[(0, 0.5), (0, 0.5)]], m_diversion=1)


def csr_graph(indptr, indices, m_diversion=6) -> BipartiteGraph:
    # the raw constructor: from_rows sorts each row, so it never sees a descent
    return BipartiteGraph(
        n_outcome=len(indptr) - 1, m_diversion=m_diversion,
        indptr=np.array(indptr), indices=np.array(indices), weights=np.ones(len(indices)),
    )


def test_raw_rows_must_ascend_within_a_row_only():
    with pytest.raises(ValidationError, match="strictly ascending"):
        csr_graph([0, 2], [3, 1])
    with pytest.raises(ValidationError, match="strictly ascending"):
        csr_graph([0, 1, 3], [0, 2, 2])
    # a descent across a row boundary is fine, also after empty rows
    assert csr_graph([0, 1, 2], [5, 2]).nnz == 2
    assert csr_graph([0, 0, 0, 1, 3], [5, 2, 4]).degrees.tolist() == [0, 0, 1, 2]
    assert csr_graph([0, 0, 0], []).nnz == 0


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        BipartiteGraph.from_rows([[(0, -0.1)]], m_diversion=1)


def test_index_out_of_range_rejected():
    with pytest.raises(ValidationError):
        BipartiteGraph.from_rows([[(3, 1.0)]], m_diversion=2)


def test_arrays_are_readonly(small_graph):
    with pytest.raises(ValueError):
        small_graph.weights[0] = 2.0


def test_take_reorders_rows(small_graph):
    sub = small_graph.take([2, 0, 2])
    assert sub.n_outcome == 3
    np.testing.assert_allclose(sub.to_dense(), small_graph.to_dense()[[2, 0, 2]])


def test_row_weights_roundtrip(small_graph):
    assert row_edges(small_graph, 3) == [(0, 0.2), (2, 0.3), (3, 0.5)]


# -- edge-list io ------------------------------------------------------------


EDGE_CSV = "outcome_id,diversion_id,weight\nu1,d1,1.0\nu2,d1,0.5\nu2,d2,0.5\n"


def test_load_edge_list_first_appearance_order():
    graph, id_map = load_edge_list(io.StringIO(EDGE_CSV))
    assert id_map.outcome_ids == ("u1", "u2")
    assert id_map.diversion_ids == ("d1", "d2")
    np.testing.assert_allclose(graph.to_dense(), [[1.0, 0.0], [0.5, 0.5]])


def test_load_edge_list_normalize():
    raw = "outcome_id,diversion_id,weight\nu,d1,2\nu,d2,6\n"
    graph, _ = load_edge_list(io.StringIO(raw), normalize=True)
    np.testing.assert_allclose(graph.to_dense(), [[0.25, 0.75]])
    assert graph.row_normalized


def test_load_edge_list_bad_header_names_line():
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list(io.StringIO("a,b,c\nu,d,1\n"))


def test_load_edge_list_bad_weight_names_line():
    bad = "outcome_id,diversion_id,weight\nu,d,1.0\nv,d,abc\n"
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list(io.StringIO(bad))


def test_load_edge_list_duplicate_edge():
    dup = "outcome_id,diversion_id,weight\nu,d,0.5\nu,d,0.5\n"
    with pytest.raises(ValidationError, match="duplicate"):
        load_edge_list(io.StringIO(dup))


@pytest.mark.parametrize("text, error, line, message", BAD_EDGE_LISTS)
def test_load_edge_list_names_the_file(tmp_path, text, error, line, message):
    path = tmp_path / "edges.csv"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_edge_list(path)
    assert type(info.value).__name__ == error
    assert str(info.value) == f"{line}: {path}: {message}"
    # a file object has no name to give
    with pytest.raises(DataError) as info:
        load_edge_list(io.StringIO(text))
    assert str(info.value) == f"{line}: {message}"


def test_edge_list_roundtrip(tmp_path, small_graph):
    path = tmp_path / "graph.csv"
    write_edge_list(small_graph, path)
    back, id_map = load_edge_list(path)
    np.testing.assert_array_equal(back.indptr, small_graph.indptr)
    np.testing.assert_array_equal(back.indices, small_graph.indices)
    np.testing.assert_array_equal(back.weights, small_graph.weights)
    assert id_map.outcome_ids == tuple(str(i) for i in range(4))


def reference_write_edge_list(graph, id_map=None) -> str:
    """Per-edge writer: one `csv.writer` row per edge."""
    if id_map is None:
        id_map = IdMap.identity(graph.n_outcome, graph.m_diversion)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("outcome_id", "diversion_id", "weight"))
    for i in range(graph.n_outcome):
        lo, hi = graph.indptr[i], graph.indptr[i + 1]
        for j, w in zip(graph.indices[lo:hi], graph.weights[lo:hi]):
            writer.writerow([id_map.outcome_ids[i], id_map.diversion_ids[j], repr(float(w))])
    return buf.getvalue()


# every character csv.writer quotes for, padding, non-ASCII and NUL; empty ids too
CSV_IDS = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "u", "é", "ß", "中", "\x00"]),
                  max_size=4)
# zero of both signs, subnormals and values whose repr needs all 17 digits
WEIGHTS = st.one_of(st.floats(0.0, 10.0), st.sampled_from([-0.0, 5e-324, 0.1, 1 / 3, 2 / 3]))


@st.composite
def graphs_with_ids(draw):
    """A small graph, empty rows included, and an id map for it or None."""
    m = draw(st.integers(0, 6))
    rows = [
        list(draw(st.dictionaries(st.integers(0, m - 1), WEIGHTS, max_size=m)).items()) if m else []
        for _ in range(draw(st.integers(0, 8)))
    ]
    graph = BipartiteGraph.from_rows(rows, m_diversion=m)
    id_map = draw(st.none() | st.builds(
        IdMap,
        st.lists(CSV_IDS, min_size=graph.n_outcome, max_size=graph.n_outcome).map(tuple),
        st.lists(CSV_IDS, min_size=m, max_size=m).map(tuple),
    ))
    return graph, id_map


@settings(deadline=None, max_examples=150)
@given(case=graphs_with_ids(), block=st.integers(1, 3))
# 0.0 and -0.0 compare equal but print differently
@example(case=(BipartiteGraph.from_rows([[(0, 0.0), (1, -0.0)]], m_diversion=2), None), block=3)
def test_writers_match_per_row_writers(case, block):
    graph, id_map = case
    # small blocks split even these graphs across several of them
    with mock.patch("bipexp.graph._WRITE_BLOCK", block):
        buf = io.StringIO(newline="")
        write_edge_list(graph, buf, id_map=id_map)
        assert buf.getvalue() == reference_write_edge_list(graph, id_map)


def test_write_edge_list_rejects_an_id_map_of_another_shape(tmp_path, small_graph):
    dest = tmp_path / "graph.csv"
    full = IdMap.identity(small_graph.n_outcome, small_graph.m_diversion)
    for id_map in (IdMap(full.outcome_ids[:3], full.diversion_ids),
                   IdMap(full.outcome_ids, full.diversion_ids[:2])):
        with pytest.raises(ValueError, match="for a 4x4 graph"):
            write_edge_list(small_graph, dest, id_map=id_map)
    assert not dest.exists()  # raised before anything was written


def reference_load_edge_list(text: str, normalize: bool):
    """Per-edge reference loader: tuples, a set of seen pairs and per-row lists."""
    outcome_ids, diversion_ids = [], []
    o_index, d_index = {}, {}
    rows, seen = [], set()
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ParseError("expected header outcome_id,diversion_id,weight, got an empty file", 1)
    if tuple(h.strip() for h in header) != ("outcome_id", "diversion_id", "weight"):
        raise ParseError(
            f"expected header outcome_id,diversion_id,weight, got {','.join(header)}", 1
        )
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != 3:
            raise ParseError(f"expected 3 fields, got {len(record)}", lineno)
        oid, did, wtext = (f.strip() for f in record)
        try:
            w = float(wtext)
        except ValueError:
            raise ParseError(f"weight {wtext!r} is not a decimal literal", lineno)
        if not np.isfinite(w):
            raise ParseError(f"weight {wtext!r} is not finite", lineno)
        if w < 0:
            raise ValidationError(f"line {lineno}: negative weight {w!r}")
        if oid not in o_index:
            o_index[oid] = len(outcome_ids)
            outcome_ids.append(oid)
            rows.append([])
        if did not in d_index:
            d_index[did] = len(diversion_ids)
            diversion_ids.append(did)
        key = (o_index[oid], d_index[did])
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate edge ({oid!r}, {did!r})")
        seen.add(key)
        rows[o_index[oid]].append((d_index[did], w))
    if normalize:
        for i, row in enumerate(rows):
            # a plain running sum in file order: float sum() is compensated
            # from Python 3.12 on
            total = 0.0
            for _, w in row:
                total += w
            if total <= 0:
                raise ValidationError(
                    f"cannot normalize outcome unit {outcome_ids[i]!r}: row sum is 0"
                )
            rows[i] = [(j, w / total) for j, w in row]
    graph = BipartiteGraph.from_rows(rows, m_diversion=len(diversion_ids))
    return graph, IdMap(tuple(outcome_ids), tuple(diversion_ids))


# ids with quoted commas, quotes, padding and line breaks; a small pool
# makes repeated edges and padded twins of one id likely
EDGE_IDS = st.text(alphabet="ab ,\"\n", max_size=3)
GOOD_WEIGHTS = st.one_of(
    st.floats(0.0, 10.0).map(repr),
    st.sampled_from(["0", " 1 ", "0.1", "0.2", "0.7", "3.3", "-0.0", "1_0"]),
)
BAD_WEIGHTS = st.sampled_from(["-1", "-2.5e-3", "abc", "", "inf", "-inf", "nan", "1e400", "0x1"])
GOOD_LINES = st.one_of(st.tuples(EDGE_IDS, EDGE_IDS, GOOD_WEIGHTS).map(list), st.just([]))
BAD_LINES = st.one_of(
    st.tuples(EDGE_IDS, EDGE_IDS, BAD_WEIGHTS).map(list),
    st.lists(st.sampled_from(["u", "d", "1"]), min_size=1, max_size=5)
    .filter(lambda r: len(r) != 3),
)


@st.composite
def edge_files(draw) -> str:
    """Edge-list text: mostly good lines, up to three bad ones spliced in."""
    lines = draw(st.lists(GOOD_LINES, max_size=25))
    for bad in draw(st.lists(BAD_LINES, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    header = draw(st.sampled_from(
        ["outcome_id,diversion_id,weight"] * 4 + [" outcome_id , diversion_id,weight", "a,b,c", ""]
    ))
    buf = io.StringIO(newline="")
    if header:
        buf.write(header + "\r\n")
    csv.writer(buf).writerows(lines)
    return buf.getvalue()


def outcome(load, text, normalize):
    """A loader's graph and ids as bytes, or the class, message and line it raised."""
    try:
        graph, id_map = load(text, normalize)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (
        graph.n_outcome, graph.m_diversion, graph.indptr.tobytes(), graph.indices.tobytes(),
        graph.weights.tobytes(), id_map,
    )


HEADER = "outcome_id,diversion_id,weight\n"


@settings(max_examples=300, deadline=None)
@given(text=edge_files(), normalize=st.booleans())
@example(text=HEADER + "u,d,1\nu,d,1\nv,d,x\n", normalize=False)
@example(text=HEADER + "u,d,1\nv,d,-1\nu, d,1\n", normalize=False)
@example(text=HEADER + "u,d,1\nv,d,1\nv,d,1\nu,d,1\n", normalize=False)
@example(text=HEADER + "u,d,1\nv,d,0\nw,d,0\n", normalize=True)
# file order sums u's row to 1 - 2**-53, column order to 1
@example(text=HEADER + "v,a,1\nu,b,0.2\nu,c,0.7\nu,a,0.1\n", normalize=True)
@example(text=HEADER + "u,d,1\n\n\"v,\n\",d,1\n\nu,d,2\n", normalize=False)
def test_load_edge_list_matches_reference(text, normalize):
    def load(t, nm):
        return load_edge_list(io.StringIO(t, newline=""), normalize=nm)

    assert outcome(load, text, normalize) == outcome(reference_load_edge_list, text, normalize)


# -- synthesis ---------------------------------------------------------------


def test_uniform_degree_synthesis_properties():
    spec = GraphSpec(kind="uniform-degree", n_outcome=50, m_diversion=12, deg_min=2, deg_max=5)
    g = synth_graph(spec, rng=substream(3))
    assert g.n_outcome == 50 and g.m_diversion == 12
    assert g.degrees.min() >= 2 and g.degrees.max() <= 5
    assert g.row_normalized
    # equal weights within a row
    for i in range(g.n_outcome):
        w = [wt for _, wt in row_edges(g, i)]
        np.testing.assert_allclose(w, 1.0 / len(w))


def test_synthesis_deterministic_for_seed():
    spec = GraphSpec(kind="uniform-degree", n_outcome=30, m_diversion=8, deg_min=1, deg_max=4)
    a, b = synth_graph(spec, 11), synth_graph(spec, 11)
    np.testing.assert_array_equal(a.indices, b.indices)


def test_blocks_zero_cross_share_is_disconnected():
    spec = GraphSpec(
        kind="blocks", n_outcome=60, m_diversion=20, deg_min=1, deg_max=3,
        n_blocks=5, cross_share=0.0,
    )
    g = synth_graph(spec, rng=substream(4))
    count, o_labels, _ = connected_components(g)
    assert count >= 5
    # no outcome unit reaches outside its own block
    d_blocks = contiguous_blocks(20, 5)
    o_blocks = contiguous_blocks(60, 5)
    for i in range(60):
        for j, _ in row_edges(g, i):
            assert d_blocks[j] == o_blocks[i]


def test_blocks_cross_share_rewires_roughly_that_fraction():
    spec = GraphSpec(
        kind="blocks", n_outcome=200, m_diversion=50, deg_min=1, deg_max=4,
        n_blocks=5, cross_share=0.3,
    )
    g = synth_graph(spec, rng=substream(5))
    d_blocks = contiguous_blocks(50, 5)
    o_blocks = contiguous_blocks(200, 5)
    cross = sum(
        d_blocks[j] != o_blocks[i]
        for i in range(200)
        for j, _ in row_edges(g, i)
    )
    assert 0.2 <= cross / g.nnz <= 0.4


def reference_synth_blocks(spec: GraphSpec, rng) -> BipartiteGraph:
    """Per-row reference: neighbour lists and sets, then `from_rows`."""
    k = spec.n_blocks
    o_blocks = contiguous_blocks(spec.n_outcome, k)
    d_blocks = contiguous_blocks(spec.m_diversion, k)
    d_members = [np.flatnonzero(d_blocks == b) for b in range(k)]
    degrees = rng.integers(spec.deg_min, spec.deg_max + 1, size=spec.n_outcome)
    neighbors = [
        rng.choice(d_members[o_blocks[i]], size=int(degrees[i]), replace=False).tolist()
        for i in range(spec.n_outcome)
    ]
    n_cut = int(round(spec.cross_share * int(degrees.sum())))
    if n_cut:
        owner = np.repeat(np.arange(spec.n_outcome), degrees)
        cut_slots = rng.choice(owner.size, size=n_cut, replace=False)
        neighbors = [set(row) for row in neighbors]
        flat = np.concatenate([sorted(s) for s in neighbors]).astype(np.int64)
        for slot in cut_slots:
            i = int(owner[slot])
            old_j = int(flat[slot])
            if old_j not in neighbors[i]:
                continue
            while True:
                j_new = int(rng.integers(spec.m_diversion))
                if d_blocks[j_new] != o_blocks[i] and j_new not in neighbors[i]:
                    break
            neighbors[i].discard(old_j)
            neighbors[i].add(j_new)
    rows = [[(j, 1.0 / degrees[i]) for j in sorted(nbrs)] for i, nbrs in enumerate(neighbors)]
    return BipartiteGraph.from_rows(rows, m_diversion=spec.m_diversion)


@pytest.mark.parametrize("seed", [0, 3, 201])
@pytest.mark.parametrize("shape", [
    dict(kind="uniform-degree", n_outcome=300, m_diversion=40, deg_min=1, deg_max=10),
    dict(kind="blocks", n_outcome=500, m_diversion=60, deg_min=1, deg_max=6, n_blocks=5),
    dict(kind="blocks", n_outcome=500, m_diversion=60, deg_min=2, deg_max=6, n_blocks=5, cross_share=0.1),
    dict(kind="blocks", n_outcome=200, m_diversion=12, deg_min=1, deg_max=6, n_blocks=2, cross_share=0.9),
])
def test_synth_graph_matches_per_row_reference(seed, shape):
    spec = GraphSpec(**shape)
    got_rng, want_rng = substream(seed, 10), substream(seed, 10)
    got = synth_graph(spec, got_rng)
    want = reference_synth_blocks(
        spec if spec.kind == "blocks" else GraphSpec(**{**shape, "kind": "blocks"}), want_rng
    )
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.weights.tobytes() == want.weights.tobytes()
    # both consumed the same draws
    assert got_rng.random() == want_rng.random()


def test_contiguous_blocks_shapes():
    labels = contiguous_blocks(10, 3)
    assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_graph_spec_validation():
    with pytest.raises(ValidationError):
        GraphSpec(kind="nope")
    with pytest.raises(ValidationError):
        GraphSpec(kind="uniform-degree", n_outcome=0, m_diversion=5)
    with pytest.raises(ValidationError):
        GraphSpec(kind="uniform-degree", n_outcome=5, m_diversion=5, deg_min=3, deg_max=2)
    with pytest.raises(ValidationError, match="unknown graph kind 'external-file'"):
        GraphSpec(kind="external-file")
    with pytest.raises(ValidationError, match="exceeds number of diversion units 2"):
        synth_graph(GraphSpec(kind="uniform-degree", n_outcome=5, m_diversion=2, deg_min=3, deg_max=3), 0)


def test_one_block_spec_rejects_cross_share():
    # with one block there is no other block to rewire to: the spec used to
    # be accepted, and synth_graph then never returned
    fields = dict(kind="blocks", n_outcome=10, m_diversion=5, deg_min=1, deg_max=2)
    with pytest.raises(ValidationError, match="cross_share 0.5 needs n_blocks >= 2"):
        GraphSpec(**fields, n_blocks=1, cross_share=0.5)
    assert synth_graph(GraphSpec(**fields, n_blocks=1), 1).n_outcome == 10
    assert synth_graph(GraphSpec(**fields, n_blocks=2, cross_share=0.5), 1).n_outcome == 10


def test_connected_components_counts_isolates():
    g = BipartiteGraph.from_rows([[(0, 1.0)], [], [(2, 1.0)]], m_diversion=3)
    count, o_labels, d_labels = connected_components(g)
    # {u0, d0}, {u1}, {u2, d2}, {d1}
    assert count == 4
    assert o_labels[0] == d_labels[0]
    assert o_labels[2] == d_labels[2]
    assert len({o_labels[1], d_labels[1], o_labels[0], o_labels[2]}) == 4


def test_connected_components_are_computed_once_per_graph(monkeypatch):
    g = BipartiteGraph.from_rows([[(0, 1.0)], [], [(2, 1.0), (1, 0.5)]], m_diversion=3)
    first = connected_components(g)
    assert not first[1].flags.writeable and not first[2].flags.writeable

    def refuse(*args, **kwargs):
        raise AssertionError("components computed again")

    monkeypatch.setattr(graph_module.csgraph, "connected_components", refuse)
    assert connected_components(g) is first
    # a row subset is another graph with its own components
    with pytest.raises(AssertionError, match="again"):
        connected_components(g.take([2, 0]))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 7), st.floats(0.01, 5.0)), max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_from_rows_dense_equivalence(rows):
    # drop duplicate neighbors within a row; from_rows forbids them
    cleaned = []
    for row in rows:
        seen = {}
        for j, w in row:
            seen[j] = w
        cleaned.append(list(seen.items()))
    g = BipartiteGraph.from_rows(cleaned, m_diversion=8)
    dense = np.zeros((len(cleaned), 8))
    for i, row in enumerate(cleaned):
        for j, w in row:
            dense[i, j] = w
    np.testing.assert_allclose(g.to_dense(), dense)
    np.testing.assert_allclose(g.to_csr().toarray(), dense)


def test_id_map_identity():
    id_map = IdMap.identity(2, 3)
    assert id_map.outcome_ids == ("0", "1")
    assert id_map.diversion_ids == ("0", "1", "2")


def bfs_components(graph: BipartiteGraph) -> np.ndarray:
    """Plain breadth-first labels over nodes 0..n-1 (outcome) and n..n+m-1 (diversion)."""
    n, m = graph.n_outcome, graph.m_diversion
    nbrs = [[] for _ in range(n + m)]
    for i in range(n):
        for j, _ in row_edges(graph, i):
            nbrs[i].append(n + j)
            nbrs[n + j].append(i)
    labels = np.full(n + m, -1)
    for start in range(n + m):
        if labels[start] >= 0:
            continue
        labels[start] = start
        frontier = [start]
        while frontier:
            nxt = []
            for a in frontier:
                for b in nbrs[a]:
                    if labels[b] < 0:
                        labels[b] = start
                        nxt.append(b)
            frontier = nxt
    return labels


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), m=st.integers(1, 30))
def test_connected_components_partition_matches_bfs(seed, n, m):
    rng = np.random.default_rng(seed)
    # sparse rows, many of them empty, leave isolated units on both sides
    rows = [
        [(int(j), 1.0) for j in rng.choice(m, size=min(int(rng.integers(0, 3)), m), replace=False)]
        for _ in range(n)
    ]
    g = BipartiteGraph.from_rows(rows, m_diversion=m)
    count, o_labels, d_labels = connected_components(g)
    got = np.concatenate([o_labels, d_labels])
    want = bfs_components(g)
    # same partition: the label pairs form a bijection between the two labelings
    pairs = set(zip(got.tolist(), want.tolist()))
    assert len(pairs) == len(set(got.tolist())) == len(set(want.tolist())) == count
    assert sorted(set(got.tolist())) == list(range(count))
