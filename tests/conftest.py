"""Shared fixtures: small graphs and the two-type worked example.

The two-type fixture has closed-form answers (derived by hand in the
tests that use it), which makes it the backbone of the estimator oracle
tests: one side connects each outcome unit to its own diversion unit
(weight 1), the other side to a dedicated pair (weight 1/2 each).
"""

import numpy as np
import pytest

from bipexp.design import AssignmentDesign
from bipexp.graph import BipartiteGraph


def row_edges(graph: BipartiteGraph, i: int) -> list[tuple[int, float]]:
    """Ordered (diversion index, weight) pairs of outcome unit i, from the CSR arrays."""
    lo, hi = graph.indptr[i], graph.indptr[i + 1]
    return list(zip(graph.indices[lo:hi].tolist(), graph.weights[lo:hi].tolist()))


# Malformed edge lists: (file text, error class name, "line N", message after the file name).
BAD_EDGE_LISTS = [
    pytest.param("outcome_id,diversion_id,weight\na,x,1.0\nb,x,inf\n", "ParseError",
                 "line 3", "weight 'inf' is not finite", id="weight"),
    pytest.param("outcome,diversion_id,weight\na,x,1.0\n", "ParseError", "line 1",
                 "expected header outcome_id,diversion_id,weight, got outcome,diversion_id,weight",
                 id="header"),
    pytest.param("outcome_id,diversion_id,weight\na,x,1.0\nb,x\n", "ParseError",
                 "line 3", "expected 3 fields, got 2", id="fields"),
    pytest.param("outcome_id,diversion_id,weight\na,x,0.5\nb,x,1.0\na,x,0.5\n",
                 "ValidationError", "line 4", "duplicate edge ('a', 'x')", id="duplicate"),
    # over the csv module's field limit of 131,072 characters
    pytest.param("outcome_id,diversion_id,weight\na,x,1.0\n" + "b" * 200_000 + ",x,1.0\n",
                 "ParseError", "line 3", "field larger than field limit (131072)",
                 id="long-field"),
]


@pytest.fixture
def bernoulli_half() -> AssignmentDesign:
    return AssignmentDesign.bernoulli(0.5)


@pytest.fixture
def two_type_graph() -> BipartiteGraph:
    # 4 single-neighbor units then 4 pair units; 12 diversion units total
    rows = [[(i, 1.0)] for i in range(4)]
    rows += [[(4 + 2 * i, 0.5), (5 + 2 * i, 0.5)] for i in range(4)]
    return BipartiteGraph.from_rows(rows, m_diversion=12)


@pytest.fixture
def small_graph() -> BipartiteGraph:
    # mixed degrees and non-uniform weights, row sums of 1
    rows = [
        [(0, 1.0)],
        [(0, 0.5), (1, 0.5)],
        [(1, 0.25), (2, 0.75)],
        [(0, 0.2), (2, 0.3), (3, 0.5)],
    ]
    return BipartiteGraph.from_rows(rows, m_diversion=4)
