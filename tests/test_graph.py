import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipexp.errors import ParseError, ValidationError
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
    assert small_graph.row_weights(3) == [(0, 0.2), (2, 0.3), (3, 0.5)]
    with pytest.raises(IndexError):
        small_graph.row_weights(4)


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


def test_edge_list_roundtrip(tmp_path, small_graph):
    path = tmp_path / "graph.csv"
    write_edge_list(small_graph, path)
    back, id_map = load_edge_list(path)
    np.testing.assert_array_equal(back.indptr, small_graph.indptr)
    np.testing.assert_array_equal(back.indices, small_graph.indices)
    np.testing.assert_array_equal(back.weights, small_graph.weights)
    assert id_map.outcome_ids == tuple(str(i) for i in range(4))


# -- synthesis ---------------------------------------------------------------


def test_uniform_degree_synthesis_properties():
    spec = GraphSpec(kind="uniform-degree", n_outcome=50, m_diversion=12, deg_min=2, deg_max=5)
    g = synth_graph(spec, rng=substream(3))
    assert g.n_outcome == 50 and g.m_diversion == 12
    assert g.degrees.min() >= 2 and g.degrees.max() <= 5
    assert g.row_normalized
    # equal weights within a row
    for i in range(g.n_outcome):
        w = [wt for _, wt in g.row_weights(i)]
        np.testing.assert_allclose(w, 1.0 / len(w))


def test_synthesis_deterministic_for_seed():
    spec = GraphSpec(kind="uniform-degree", n_outcome=30, m_diversion=8, deg_min=1, deg_max=4, seed=11)
    a, b = synth_graph(spec), synth_graph(spec)
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
        for j, _ in g.row_weights(i):
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
        for j, _ in g.row_weights(i)
    )
    assert 0.2 <= cross / g.nnz <= 0.4


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
    with pytest.raises(ValidationError):
        GraphSpec(kind="external-file")
    with pytest.raises(ValidationError, match="exceeds number of diversion units 2"):
        synth_graph(GraphSpec(kind="uniform-degree", n_outcome=5, m_diversion=2, deg_min=3, deg_max=3))


def test_connected_components_counts_isolates():
    g = BipartiteGraph.from_rows([[(0, 1.0)], [], [(2, 1.0)]], m_diversion=3)
    count, o_labels, d_labels = connected_components(g)
    # {u0, d0}, {u1}, {u2, d2}, {d1}
    assert count == 4
    assert o_labels[0] == d_labels[0]
    assert o_labels[2] == d_labels[2]
    assert len({o_labels[1], d_labels[1], o_labels[0], o_labels[2]}) == 4


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
        for j, _ in graph.row_weights(i):
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
