import io
import re

import numpy as np
import pytest

from bipexp.design import (
    AssignmentDesign,
    draw_assignments,
    linear_exposure,
    linear_exposure_many,
    load_probability_file,
)
from bipexp.errors import ParseError, ValidationError
from bipexp.gps import exact_gps_table
from bipexp.graph import BipartiteGraph, GraphSpec, IdMap, synth_graph
from bipexp.seeding import substream


def test_bernoulli_probabilities():
    d = AssignmentDesign.bernoulli(0.3)
    np.testing.assert_allclose(d.probabilities(4), 0.3)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_bernoulli_rejects_boundary(p):
    with pytest.raises(ValidationError):
        AssignmentDesign.bernoulli(p)


def test_heterogeneous_probabilities_roundtrip():
    d = AssignmentDesign.bernoulli_heterogeneous([0.2, 0.8, 0.5])
    np.testing.assert_allclose(d.probabilities(3), [0.2, 0.8, 0.5])
    with pytest.raises(ValueError):
        d.probabilities(4)


def test_heterogeneous_rejects_boundary():
    with pytest.raises(ValidationError):
        AssignmentDesign.bernoulli_heterogeneous([0.5, 1.0])


def test_completely_randomized_counts():
    d = AssignmentDesign.completely_randomized(3)
    z = draw_assignments(d, 8, 500, rng=substream(0))
    np.testing.assert_array_equal(z.sum(axis=0), 3)
    np.testing.assert_allclose(d.probabilities(8), 3 / 8)


def test_completely_randomized_k_exceeding_m():
    with pytest.raises(ValidationError):
        draw_assignments(AssignmentDesign.completely_randomized(5), 3, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda design, graph: design.probabilities(graph.m_diversion),
        lambda design, graph: draw_assignments(design, graph.m_diversion, 4, substream(0)),
        lambda design, graph: exact_gps_table(graph, design),
    ],
    ids=["probabilities", "draw_assignments", "exact_gps_table"],
)
def test_completely_randomized_k_above_m_refused_alike(call):
    graph = BipartiteGraph.from_rows([[(0, 1.0)], [(1, 0.5), (2, 0.5)]], m_diversion=3)
    design = AssignmentDesign.completely_randomized(4)
    with pytest.raises(ValidationError, match=re.escape("k=4 exceeds number of diversion units 3")):
        call(design, graph)


def per_draw_cr(m: int, n_draws: int, k: int, rng) -> np.ndarray:
    """Reference: one permutation per draw, its first k units treated."""
    out = np.zeros((m, n_draws), dtype=np.uint8)
    for t in range(n_draws):
        out[rng.permutation(m)[:k], t] = 1
    return out


@pytest.mark.parametrize(
    "m, n_draws, k", [(1, 1, 1), (8, 3, 3), (37, 100, 36), (100, 512, 50), (1000, 20, 3)]
)
def test_completely_randomized_matches_per_draw_permutations(m, n_draws, k):
    design = AssignmentDesign.completely_randomized(k)
    got_rng, want_rng = substream(9, m), substream(9, m)
    got = draw_assignments(design, m, n_draws, got_rng)
    np.testing.assert_array_equal(got, per_draw_cr(m, n_draws, k, want_rng))
    assert got.dtype == np.uint8
    # the generator is left in the same state: the next draw agrees too
    np.testing.assert_array_equal(
        draw_assignments(design, m, 2, got_rng), per_draw_cr(m, 2, k, want_rng)
    )


def test_bernoulli_draw_frequencies():
    d = AssignmentDesign.bernoulli_heterogeneous([0.1, 0.5, 0.9])
    z = draw_assignments(d, 3, 20_000, rng=substream(1))
    freq = z.mean(axis=1)
    np.testing.assert_allclose(freq, [0.1, 0.5, 0.9], atol=0.02)


def test_draws_deterministic():
    d = AssignmentDesign.bernoulli(0.5)
    a = draw_assignments(d, 6, 4, rng=substream(2))
    b = draw_assignments(d, 6, 4, rng=substream(2))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint8


# -- exposure ----------------------------------------------------------------


def test_linear_exposure_matches_dense(small_graph):
    z = np.array([1, 0, 1, 0], dtype=np.uint8)
    np.testing.assert_allclose(
        linear_exposure(small_graph, z), small_graph.to_dense() @ z
    )


def test_full_exposure_equals_row_sums_bit_for_bit():
    # GpsTable.hi is the largest row sum; it must be the exposure of the
    # all-treated assignment exactly, also for rows of unequal weights
    spec = GraphSpec(kind="uniform-degree", n_outcome=300, m_diversion=40, deg_min=1, deg_max=12)
    shape = synth_graph(spec, substream(41, 0))
    weights = substream(41, 1).uniform(0.01, 1.0, shape.nnz)
    graph = BipartiteGraph(n_outcome=shape.n_outcome, m_diversion=shape.m_diversion,
                           indptr=shape.indptr, indices=shape.indices, weights=weights)
    assert np.unique(graph.weights).size == graph.nnz
    full = linear_exposure(graph, np.ones(graph.m_diversion, dtype=np.uint8))
    assert full.tobytes() == graph.row_sums.tobytes()


def test_linear_exposure_bounds(small_graph):
    # row-normalized graph keeps exposures inside [0, 1] for any assignment
    for bits in range(16):
        z = np.array([(bits >> j) & 1 for j in range(4)], dtype=np.uint8)
        e = linear_exposure(small_graph, z)
        assert np.all(e >= 0.0) and np.all(e <= 1.0)
    np.testing.assert_allclose(linear_exposure(small_graph, np.ones(4)), 1.0)
    np.testing.assert_allclose(linear_exposure(small_graph, np.zeros(4)), 0.0)


def test_linear_exposure_many_matches_single(small_graph):
    zs = draw_assignments(AssignmentDesign.bernoulli(0.4), 4, 10, rng=substream(3))
    many = linear_exposure_many(small_graph, zs)
    for t in range(10):
        np.testing.assert_allclose(many[:, t], linear_exposure(small_graph, zs[:, t]))


def test_exposure_shape_errors(small_graph):
    with pytest.raises(ValueError):
        linear_exposure(small_graph, np.ones(3))
    with pytest.raises(ValueError):
        linear_exposure_many(small_graph, np.ones((3, 2)))


# -- probability files ---------------------------------------------------------


def test_load_probability_file():
    id_map = IdMap(("u",), ("a", "b"))
    src = io.StringIO("diversion_id,p\nb,0.25\na,0.75\n")
    np.testing.assert_allclose(load_probability_file(src, id_map), [0.75, 0.25])


@pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
def test_load_probability_file_by_path(tmp_path, mark):
    # a UTF-8 byte-order mark, as some spreadsheet tools write it, is not part of the header
    path = tmp_path / "p.csv"
    path.write_text(mark + "diversion_id,p\nb,0.25\na,0.75\n", encoding="utf-8")
    np.testing.assert_allclose(load_probability_file(path, IdMap(("u",), ("a", "b"))), [0.75, 0.25])


def test_load_probability_file_missing_unit():
    id_map = IdMap(("u",), ("a", "b"))
    with pytest.raises(Exception, match="b"):
        load_probability_file(io.StringIO("diversion_id,p\na,0.5\n"), id_map)


def test_load_probability_file_bad_header():
    id_map = IdMap(("u",), ("a",))
    with pytest.raises(ParseError, match="line 1"):
        load_probability_file(io.StringIO("id,p\na,0.5\n"), id_map)


def test_load_probability_file_boundary_probability():
    id_map = IdMap(("u",), ("a",))
    with pytest.raises(Exception):
        load_probability_file(io.StringIO("diversion_id,p\na,1.0\n"), id_map)


@pytest.mark.parametrize("text, error, message", [
    ("diversion_id,p\na,0.5\nb,0.5,1\n", ParseError, "line 3: expected 2 fields, got 3"),
    ("diversion_id,p\na,half\nb,0.5\n", ParseError, "line 2: p 'half' is not a decimal literal"),
    ("", ParseError, "line 1: expected header diversion_id,p, got an empty file"),
    ("diversion_id,p\na,0.5\nq,0.5\nb,0.5\n", ValidationError, "line 3: unknown diversion_id 'q'"),
    ("diversion_id,p\na,0.5\na,0.25\nb,0.5\n", ValidationError, "line 3: duplicate diversion_id 'a'"),
    ("diversion_id,p\na,nan\nb,0.5\n", ParseError, "line 2: p 'nan' is not finite"),
    ("diversion_id,p\na,0.5\nb,1.5\n", ValidationError,
     "line 3: p '1.5' of diversion_id 'b' must lie strictly inside (0, 1)"),
    pytest.param("diversion_id,p\na,0.5\n" + "b" * 200_000 + ",0.5\n", ParseError,
                 "line 3: field larger than field limit (131072)", id="long-field"),
])
def test_load_probability_file_rejects_bad_lines(text, error, message):
    id_map = IdMap(("u",), ("a", "b"))
    with pytest.raises(error, match=re.escape(message)):
        load_probability_file(io.StringIO(text), id_map)


def test_load_probability_file_lists_missing_ids():
    id_map = IdMap(("u",), tuple("abcdefg"))
    with pytest.raises(ValidationError, match=re.escape("missing p for 6 ids (b, c, d, e, f, ...)")):
        load_probability_file(io.StringIO("diversion_id,p\na,0.5\n"), id_map)
