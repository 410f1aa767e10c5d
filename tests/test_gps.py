"""Exposure distributions checked against independent oracles.

The main oracle enumerates all 2^m neighbor assignment patterns directly
(no shared code with the convolution in the package); uniform-weight rows
additionally have the binomial closed form. Completely randomized tables
are checked against all C(M, k) treated sets. The flat exact builder is
pinned bit for bit to a per-row reference convolution, score lookups on
the flat table to a plain per-distribution lookup, and the block-wise
`gps.csv` writer byte for byte to a per-row `csv.writer` loop, all
written here.
"""

import bisect
import csv
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from bipexp import gps
from bipexp.design import (
    AssignmentDesign,
    draw_assignments,
    linear_exposure,
    linear_exposure_many,
)
from bipexp.errors import DataError, ValidationError
from bipexp.gps import (
    ATOM_TOL,
    EXACT,
    MAX_EXACT_DEGREE,
    MONTE_CARLO,
    GpsTable,
    exact_gps_table,
    mc_gps,
)
from bipexp.graph import BipartiteGraph, GraphSpec, IdMap, synth_graph
from bipexp.seeding import substream
from bipexp.simlab import simple_example
from conftest import row_edges


def enumerate_exposures(weights, p_nbrs):
    """Oracle: brute-force sum of pattern probabilities per exposure value.

    Exact float sums only, so callers must use weights whose partial sums
    never collide approximately (dyadic grids do).
    """
    mass: dict[float, float] = {}
    for bits in itertools.product((0, 1), repeat=len(weights)):
        e = float(sum(w for w, z in zip(weights, bits) if z))
        prob = 1.0
        for p, z in zip(p_nbrs, bits):
            prob *= p if z else 1.0 - p
        mass[e] = mass.get(e, 0.0) + prob
    support = sorted(mass)
    return np.array(support), np.array([mass[v] for v in support])


def one_row_graph(weights):
    row = [(j, w) for j, w in enumerate(weights)]
    return BipartiteGraph.from_rows([row], m_diversion=len(weights))


def one_row_distribution(weights, p):
    """(support, probs) of the exact table of a single row."""
    return exact_gps_table(one_row_graph(weights), AssignmentDesign.bernoulli(p)).distribution(0)


def flat_table(supports, probs, edges=None, unit_dist=None, hi=1.0):
    """Table holding the given per-distribution arrays, one unit per distribution by default."""
    sizes = [len(s) for s in supports]
    return GpsTable(
        offsets=np.concatenate([[0], np.cumsum(sizes)]),
        support=np.concatenate(supports),
        probs=np.concatenate(probs),
        unit_dist=np.arange(len(supports)) if unit_dist is None else unit_dist,
        hi=hi,
        edges=edges,
    )


def score(table, i, e):
    """Unit i's score at level e."""
    return float(table.observed_scores(np.array([e]), units=np.array([i]))[0])


def scan_score(table, i, e):
    """Reference for atom tables: a plain scan of unit i's distribution for an atom at e."""
    support, probs = table.distribution(i)
    return next((float(p) for s, p in zip(support, probs) if abs(s - e) <= ATOM_TOL), 0.0)


# -- exact construction vs oracles ------------------------------------------


def test_exact_matches_enumeration_on_small_graph(small_graph):
    design = AssignmentDesign.bernoulli(0.3)
    for i in range(small_graph.n_outcome):
        w = [wt for _, wt in row_edges(small_graph, i)]
        support, probs = enumerate_exposures(w, [0.3] * len(w))
        got_support, got_probs = exact_gps_table(small_graph, design).distribution(i)
        np.testing.assert_allclose(got_support, support, atol=1e-12)
        np.testing.assert_allclose(got_probs, probs, atol=1e-12)


def test_exact_matches_enumeration_heterogeneous(small_graph):
    p_vec = np.array([0.2, 0.5, 0.7, 0.9])
    design = AssignmentDesign.bernoulli_heterogeneous(p_vec)
    for i in range(small_graph.n_outcome):
        idx = [j for j, _ in row_edges(small_graph, i)]
        w = [wt for _, wt in row_edges(small_graph, i)]
        support, probs = enumerate_exposures(w, p_vec[idx])
        got_support, got_probs = exact_gps_table(small_graph, design).distribution(i)
        np.testing.assert_allclose(got_support, support, atol=1e-12)
        np.testing.assert_allclose(got_probs, probs, atol=1e-12)


def test_exact_matches_binomial_closed_form():
    m, p = 6, 0.4
    support, probs = one_row_distribution([1.0 / m] * m, p)
    np.testing.assert_allclose(support, np.arange(m + 1) / m, atol=1e-12)
    np.testing.assert_allclose(probs, stats.binom.pmf(np.arange(m + 1), m, p), atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    weights=st.lists(st.integers(1, 32).map(lambda k: k / 32.0), min_size=1, max_size=6),
    p=st.floats(0.05, 0.95),
)
def test_exact_matches_enumeration_property(weights, p):
    # dyadic weights keep all partial sums exact, so the oracle's dict
    # keying on float equality agrees with the tolerance-based merge
    support, probs = enumerate_exposures(weights, [p] * len(weights))
    got_support, got_probs = one_row_distribution(weights, p)
    np.testing.assert_allclose(got_support, support, atol=1e-12)
    np.testing.assert_allclose(got_probs, probs, atol=1e-12)


def test_scores_sum_to_one(small_graph, two_type_graph, bernoulli_half):
    for graph in (small_graph, two_type_graph):
        table = exact_gps_table(graph, bernoulli_half)
        for i in range(graph.n_outcome):
            assert abs(table.distribution(i)[1].sum() - 1.0) <= 1e-12


def test_endpoint_scores_positive(small_graph):
    # every unit can be fully exposed or fully unexposed under a Bernoulli design
    table = exact_gps_table(small_graph, AssignmentDesign.bernoulli(0.17))
    assert np.all(table.imputed_scores(0.0) > 0)
    assert np.all(table.imputed_scores(1.0) > 0)


def test_two_type_endpoint_scores(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    r0, r1 = table.imputed_scores(0.0), table.imputed_scores(1.0)
    np.testing.assert_allclose(r0[:4], 0.5, atol=1e-12)
    np.testing.assert_allclose(r1[:4], 0.5, atol=1e-12)
    np.testing.assert_allclose(r0[4:], 0.25, atol=1e-12)
    np.testing.assert_allclose(r1[4:], 0.25, atol=1e-12)
    np.testing.assert_allclose(table.imputed_scores(0.5)[4:], 0.5, atol=1e-12)
    # the single-neighbor units put no mass strictly between the endpoints
    np.testing.assert_allclose(table.imputed_scores(0.5)[:4], 0.0, atol=1e-12)


def test_tied_weights_merge_patterns():
    support, probs = one_row_distribution([0.5, 0.5], 0.3)
    np.testing.assert_allclose(support, [0.0, 0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(probs, [0.49, 0.42, 0.09], atol=1e-12)


def test_nearly_tied_weights_merge_within_tol():
    support, probs = one_row_distribution([0.5, 0.5 + 1e-12], 0.3)
    assert support.size == 3
    np.testing.assert_allclose(probs, [0.49, 0.42, 0.09], atol=1e-12)


def test_merged_masses_sum_tied_atoms_in_input_order():
    # 40 exactly tied atoms, more than a sort's insertion-sort run, whose
    # masses alternate between order 1 and order 2^-53: each small mass is
    # lost or kept by rounding depending on what it is added to, so a sort
    # that reorders ties changes the merged mass
    even = np.arange(40) % 2 == 0
    probs = np.where(even, 1.0, 2.0**-53) * (1 + 1e-3 * np.arange(40))
    (dist,), support, merged = gps._merge_atoms(
        [np.zeros(40, dtype=np.int64)], np.full(40, 0.25), probs
    )
    np.testing.assert_array_equal(dist, [0])
    np.testing.assert_array_equal(support, [0.25])
    np.testing.assert_array_equal(merged, np.add.reduceat(probs, [0]))


def test_degree_cap_points_to_monte_carlo():
    m = MAX_EXACT_DEGREE + 1
    graph = one_row_graph([1.0 / m] * m)
    design = AssignmentDesign.bernoulli(0.5)
    with pytest.raises(DataError, match=f"unit 0 has degree {m} .*mc_gps"):
        exact_gps_table(graph, design)


# -- exact construction under complete randomization ------------------------


def enumerate_cr_exposures(nbrs, weights, m, k):
    """Oracle: every one of the C(m, k) treated sets, each with mass 1 / C(m, k).

    Sums run over the row's neighbors in order and key on float equality,
    so callers must use weights whose distinct subset sums lie farther
    apart than ATOM_TOL.
    """
    counts: dict[float, int] = {}
    for chosen in itertools.combinations(range(m), k):
        treated = set(chosen)
        e = sum((w for j, w in zip(nbrs, weights) if j in treated), 0.0)
        counts[e] = counts.get(e, 0) + 1
    support = sorted(counts)
    return np.array(support), np.array([counts[v] for v in support]) / math.comb(m, k)


def assert_cr_table_matches_enumeration(rows, m, k):
    graph = BipartiteGraph.from_rows(rows, m_diversion=m)
    table = exact_gps_table(graph, AssignmentDesign.completely_randomized(k))
    assert table.mode == EXACT
    for i, row in enumerate(rows):
        support, probs = enumerate_cr_exposures([j for j, _ in row], [w for _, w in row], m, k)
        got_support, got_probs = table.distribution(i)
        assert got_support.shape == support.shape, (row, m, k)
        np.testing.assert_allclose(got_support, support, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_probs, probs, rtol=0, atol=1e-12)
        # closed form: each neighbor is treated with probability k / m
        np.testing.assert_allclose(got_support @ got_probs, k / m * sum(w for _, w in row),
                                   rtol=0, atol=1e-12)


def test_completely_randomized_matches_enumeration():
    # every M <= 12 and k, on rows of random degree and random weights;
    # k = M, and k below a row's degree, leave branches the design cannot reach
    rng = np.random.default_rng(20261018)
    for m in range(1, 13):
        for k in range(1, m + 1):
            rows = []
            for _ in range(3):
                nbrs = np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
                weights = rng.uniform(0.05, 1.0, nbrs.size)
                rows.append([(int(j), float(w)) for j, w in zip(nbrs, weights)])
            assert_cr_table_matches_enumeration(rows, m, k)


@settings(deadline=None, max_examples=80)
@given(data=st.data(), m=st.integers(1, 9))
def test_completely_randomized_matches_enumeration_property(data, m):
    # dyadic weights with ties and zeros, so atoms merge within and across
    # treated counts; duplicate rows share a distribution
    k = data.draw(st.integers(1, m))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        if rows and data.draw(st.booleans()):
            rows.append(data.draw(st.sampled_from(rows)))
            continue
        nbrs = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
        rows.append([(j, data.draw(st.integers(0, 16)) / 16.0) for j in sorted(nbrs)])
    assert_cr_table_matches_enumeration(rows, m, k)


def test_completely_randomized_full_exposure_closed_form():
    # a degree-10 unit of a paper-scale graph under CR(50 of 100): all ten
    # neighbors treated with probability C(90, 40) / C(100, 50)
    graph = synth_graph(GraphSpec("uniform-degree", 1000, 100, 1, 10), substream(401, 10))
    table = exact_gps_table(graph, AssignmentDesign.completely_randomized(50))
    unit = int(np.flatnonzero(graph.degrees == 10)[0])
    want = math.comb(90, 40) / math.comb(100, 50)
    assert score(table, unit, 1.0) == pytest.approx(want, rel=1e-12)
    assert score(table, unit, 1.0) == pytest.approx(5.934e-4, rel=1e-4)
    assert table.n_dists == 10  # one per degree: equal weights 1 / degree


def test_completely_randomized_k_above_m_rejected(small_graph):
    with pytest.raises(ValidationError, match="exceeds"):
        exact_gps_table(small_graph, AssignmentDesign.completely_randomized(5))


def reference_exact_arrays(graph, p_all):
    """Per-row reference for the exact table's (offsets, support, probs, unit_dist).

    Rows with the same weight and probability bytes share one distribution,
    numbered by first appearance. Each new row is convolved one neighbor at
    a time: append the atoms shifted by the weight (untreated copies first),
    stable-sort by exposure, and merge each run of gaps within ATOM_TOL into
    its first atom by summing its masses in order.
    """
    seen: dict[bytes, int] = {}
    supports, probs, unit_dist = [], [], []
    for i in range(graph.n_outcome):
        lo, hi = graph.indptr[i], graph.indptr[i + 1]
        w, p = graph.weights[lo:hi], p_all[graph.indices[lo:hi]]
        key = w.tobytes() + b"|" + p.tobytes()
        if key not in seen:
            seen[key] = len(supports)
            s, q = np.zeros(1), np.ones(1)
            for wk, pk in zip(w, p):
                s = np.concatenate([s, s + wk])
                q = np.concatenate([q * (1.0 - pk), q * pk])
                order = np.argsort(s, kind="stable")
                s, q = s[order], q[order]
                starts = np.flatnonzero(np.concatenate([[True], np.diff(s) > ATOM_TOL]))
                s, q = s[starts], np.add.reduceat(q, starts)
            supports.append(s)
            probs.append(q)
        unit_dist.append(seen[key])
    sizes = [s.size for s in supports]
    return (
        np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        np.concatenate(supports) if supports else np.empty(0),
        np.concatenate(probs) if probs else np.empty(0),
        np.array(unit_dist, dtype=np.int64),
    )


# Near ties: 0.5 and 0.5 + 1.2e-9 lie farther apart than ATOM_TOL, but a
# weight of 0.6e-9 puts atoms between them, so one run chains across all.
WEIGHT_PALETTE = (0.0, 0.6e-9, 0.125, 0.25, 1.0 / 3.0, 0.5, 0.5 + 0.6e-9, 0.5 + 1.2e-9, 1.0)


@st.composite
def bernoulli_graphs(draw):
    """Small graph and Bernoulli design: duplicate rows, zero and near-tie weights."""
    m = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))  # a duplicate row
            continue
        nbrs = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=min(m, 5))) if m else []
        rows.append([(j, draw(st.sampled_from(WEIGHT_PALETTE))) for j in nbrs])
    graph = BipartiteGraph.from_rows(rows, m_diversion=m)
    if m and draw(st.booleans()):
        p = draw(st.lists(st.sampled_from([0.1, 0.3, 0.3, 0.7]) | st.floats(0.01, 0.99),
                          min_size=m, max_size=m))
        return graph, AssignmentDesign.bernoulli_heterogeneous(p)
    return graph, AssignmentDesign.bernoulli(draw(st.floats(0.01, 0.99)))


@settings(deadline=None, max_examples=150)
@given(case=bernoulli_graphs())
@example(case=(BipartiteGraph.from_rows([], m_diversion=0), AssignmentDesign.bernoulli(0.5)))
@example(case=(BipartiteGraph.from_rows([[], [], []], m_diversion=2),
               AssignmentDesign.bernoulli_heterogeneous([0.2, 0.6])))
@example(case=(BipartiteGraph.from_rows(
    [[(0, 0.5), (1, 0.5 + 1.2e-9), (2, 0.6e-9)], [(0, 0.0), (3, 0.25)],
     [(0, 0.5), (1, 0.5 + 1.2e-9), (2, 0.6e-9)]], m_diversion=4),
    AssignmentDesign.bernoulli_heterogeneous([0.1, 0.3, 0.7, 0.45])))
def test_exact_table_matches_per_row_reference(case):
    graph, design = case
    table = exact_gps_table(graph, design)
    want = reference_exact_arrays(graph, design.probabilities(graph.m_diversion))
    for name, expected in zip(("offsets", "support", "probs", "unit_dist"), want):
        got = getattr(table, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def test_exact_gps_unit_out_of_range(small_graph, bernoulli_half):
    table = exact_gps_table(small_graph, bernoulli_half)
    for i in (4, -1):
        with pytest.raises(IndexError):
            table.distribution(i)


# -- table behavior ----------------------------------------------------------


def test_table_shares_identical_rows(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    assert table.n_dists == 2
    np.testing.assert_array_equal(table.unit_dist, [0, 0, 0, 0, 1, 1, 1, 1])
    assert table.mode == EXACT


def test_imputed_scores_match_per_unit(small_graph):
    table = exact_gps_table(small_graph, AssignmentDesign.bernoulli(0.3))
    for e in (0.0, 0.25, 0.5, 1.0):
        np.testing.assert_allclose(
            table.imputed_scores(e),
            [scan_score(table, i, e) for i in range(table.n_units)],
            atol=1e-15,
        )


def test_observed_scores_alignment(small_graph, bernoulli_half):
    table = exact_gps_table(small_graph, bernoulli_half)
    exposures = np.array([1.0, 0.5, 0.25, 0.2])
    got = table.observed_scores(exposures)
    want = [scan_score(table, i, e) for i, e in enumerate(exposures)]
    np.testing.assert_allclose(got, want, atol=1e-15)
    sub = table.observed_scores(exposures[[2, 0]], units=np.array([2, 0]))
    np.testing.assert_allclose(sub, [want[2], want[0]], atol=1e-15)
    with pytest.raises(ValueError, match="align"):
        table.observed_scores(exposures[:2])


def test_observed_scores_refuses_units_out_of_range():
    # unit 0 sits at 0; unit 1 is at 0 w.p. 1/4 and at 1 w.p. 3/4
    table = GpsTable(offsets=[0, 1, 3], support=[0.0, 0.0, 1.0], probs=[1.0, 0.25, 0.75],
                     unit_dist=[0, 1], hi=1.0)
    assert table.observed_scores(np.array([1.0]), units=np.array([1])).tolist() == [0.75]
    for unit in (-1, 2):
        with pytest.raises(IndexError, match=f"unit {unit} out of range"):
            table.observed_scores(np.array([1.0]), units=np.array([unit]))
        with pytest.raises(IndexError):
            table.observed_scores(np.array([0.0, 1.0]), units=np.array([0, unit]))


def test_mass_off_support_is_zero(small_graph, bernoulli_half):
    table = exact_gps_table(small_graph, bernoulli_half)
    # 0.37 is reachable by no assignment pattern of any row
    assert table.imputed_scores(0.37).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_query_outside_range_raises(small_graph, bernoulli_half):
    table = exact_gps_table(small_graph, bernoulli_half)
    with pytest.raises(DataError, match="outside"):
        score(table, 0, 1.5)
    with pytest.raises(DataError, match="outside"):
        table.imputed_scores(-0.2)
    with pytest.raises(IndexError):
        score(table, 9, 0.5)


def test_take_shares_distribution_objects(two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    sub = table.take(np.array([6, 1]))
    assert sub.offsets is table.offsets
    assert sub.support is table.support
    assert sub.probs is table.probs
    np.testing.assert_array_equal(sub.unit_dist, table.unit_dist[[6, 1]])
    assert score(sub, 0, 0.5) == score(table, 6, 0.5)
    assert score(sub, 1, 1.0) == score(table, 1, 1.0)


@pytest.mark.parametrize("level", [np.nan, np.inf, -0.2, 1.5])
def test_levels_outside_the_range_raise_every_time_and_are_not_kept(
    two_type_graph, bernoulli_half, level
):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    for _ in range(2):
        with pytest.raises(DataError, match="outside the table's range"):
            table.imputed_scores(level)


def test_nan_exposure_levels_raise():
    example = simple_example(3, 3)
    table = exact_gps_table(example.graph, example.design)
    with pytest.raises(DataError, match="exposure level nan outside"):
        table.imputed_scores(np.nan)
    exposures = np.zeros(table.n_units)
    exposures[4] = np.nan
    with pytest.raises(DataError, match="exposure level nan outside"):
        table.observed_scores(exposures)
    with pytest.raises(DataError, match="exposure level nan outside"):
        table.observed_scores(exposures[3:5], units=np.array([3, 4]))


def test_dist_variance_binomial():
    m, p = 5, 0.3
    graph = one_row_graph([1.0 / m] * m)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli(p))
    # exposure is Binomial(m, p) / m
    np.testing.assert_allclose(table.dist_variance(), [p * (1 - p) / m], atol=1e-12)


def test_write_csv_roundtrip(tmp_path, two_type_graph, bernoulli_half):
    table = exact_gps_table(two_type_graph, bernoulli_half)
    dest = tmp_path / "gps.csv"
    table.write_csv(dest)
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["outcome_id", "exposure_lo", "exposure_hi", "probability"]
    sums: dict[str, float] = {}
    for unit, lo, hi, prob in rows[1:]:
        assert float(lo) == float(hi)  # atom rows
        sums[unit] = sums.get(unit, 0.0) + float(prob)
    assert set(sums) == {str(i) for i in range(8)}
    assert all(abs(s - 1.0) <= 1e-12 for s in sums.values())


# -- Monte Carlo construction ------------------------------------------------


def test_mc_bins_aggregate_exact_mass(small_graph, bernoulli_half):
    n_draws = 20_000
    mc = mc_gps(small_graph, bernoulli_half, n_bins=4, n_draws=n_draws, rng=substream(11, 2))
    assert mc.mode == MONTE_CARLO
    exact = exact_gps_table(small_graph, bernoulli_half)
    edges = mc.edges
    np.testing.assert_array_equal(edges, np.linspace(0.0, 1.0, 5))
    for i in range(small_graph.n_outcome):
        support, probs = exact.distribution(i)
        idx = np.clip(np.searchsorted(edges, support, side="right") - 1, 0, 3)
        want = np.bincount(idx, weights=probs, minlength=4)
        got = mc.distribution(i)[1]
        band = 4.0 * np.sqrt(want * (1 - want) / n_draws)
        assert np.all(np.abs(got - want) <= band + 1e-12)


def test_bin_index_places_levels_within_tol_below_an_edge_above_it():
    edges = np.linspace(0.0, 1.0, 5)
    x = np.concatenate([edges - 0.5 * ATOM_TOL, edges, edges + 0.5 * ATOM_TOL,
                        edges - 3 * ATOM_TOL])
    want = np.concatenate([[0, 1, 2, 3, 3]] * 3 + [[0, 0, 1, 2, 3]])
    np.testing.assert_array_equal(gps._bin_index(edges, x), want)
    np.testing.assert_array_equal(gps._bin_index(np.array([0.0, 1.0]), x), 0)


def test_mc_table_scores_every_realized_exposure():
    # The paper graph's running-sum exposures often sit an ulp below an edge
    # that the table's per-row products reach exactly; a lookup that places
    # them in another bin than the count did scores them 0.
    graph = synth_graph(GraphSpec("uniform-degree", 1000, 100, 1, 10), substream(20260819, 0))
    design = AssignmentDesign.bernoulli(0.5)
    table = mc_gps(graph, design, rng=substream(1, 11))
    for s in range(20):
        z = draw_assignments(design, graph.m_diversion, 1, substream(s, 1))[:, 0]
        zero = np.flatnonzero(table.observed_scores(linear_exposure(graph, z)) <= 0)
        assert zero.size == 0, f"draw {s}: {zero.size} units score 0"


def test_mc_bins_must_cover_reachable_range(bernoulli_half):
    # a row summing to 1.5 reaches exposures past the top edge of [0, 1]
    graph = BipartiteGraph.from_rows([[(0, 0.5)], [(0, 0.75), (1, 0.75)]], m_diversion=2)
    with pytest.raises(ValidationError, match="cover"):
        mc_gps(graph, bernoulli_half, n_draws=100)


def test_mc_deterministic_for_fixed_seed(small_graph, bernoulli_half):
    a = mc_gps(small_graph, bernoulli_half, n_bins=7, n_draws=500, rng=substream(3, 2))
    b = mc_gps(small_graph, bernoulli_half, n_bins=7, n_draws=500, rng=substream(3, 2))
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.support, b.support)
    np.testing.assert_array_equal(a.probs, b.probs)


def test_mc_rejects_nonpositive_draws(small_graph, bernoulli_half):
    with pytest.raises(ValueError, match="positive"):
        mc_gps(small_graph, bernoulli_half, n_draws=0)


def test_mc_handles_completely_randomized(two_type_graph):
    # the simulator handles this design too
    design = AssignmentDesign.completely_randomized(6)
    table = mc_gps(two_type_graph, design, n_bins=4, n_draws=4000, rng=substream(5, 2))
    # single-neighbor units: P(E = 1) = 6/12 exactly under 6-of-12 sampling,
    # and the top bin [0.75, 1] holds only that exposure
    r1 = table.imputed_scores(1.0)[:4]
    assert np.all(np.abs(r1 - 0.5) <= 4.0 * np.sqrt(0.25 / 4000))


# -- score balancing ---------------------------------------------------------


def test_units_grouped_by_score_balance():
    # units sharing r(1, w) see full exposure at exactly that frequency
    rows = []
    for _ in range(3):
        rows.append([(len(rows), 1.0)])
    base = len(rows)
    for k in range(3):
        j = base + 2 * k
        rows.append([(j, 0.5), (j + 1, 0.5)])
    graph = BipartiteGraph.from_rows(rows, m_diversion=base + 6)
    design = AssignmentDesign.bernoulli(0.4)
    table = exact_gps_table(graph, design)
    r1 = table.imputed_scores(1.0)

    n_draws = 5000
    z = draw_assignments(design, graph.m_diversion, n_draws, substream(13, 2))
    exposures = linear_exposure_many(graph, z.astype(np.float64))
    fully = np.abs(exposures - 1.0) <= 1e-12
    for r in np.unique(r1):
        group = r1 == r
        freq = fully[group].mean()
        sigma = np.sqrt(r * (1 - r) / (group.sum() * n_draws))
        assert abs(freq - r) <= 4.0 * sigma


# -- building blocks ---------------------------------------------------------


def test_bucketing_validation(small_graph, bernoulli_half):
    half = np.array([0.5, 0.5])
    centers = [np.array([0.25, 0.75])]
    with pytest.raises(ValidationError, match="two or more finite, increasing"):
        flat_table([np.array([0.5])], [np.array([1.0])], edges=np.array([0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="two or more finite, increasing"):
            flat_table(centers, [half], edges=np.array([0.0, 0.5, bad]))
    for edges in ([0.0, 0.5, 0.5], [1.0, 0.5, 0.0], [[0.0, 0.5, 1.0]]):
        with pytest.raises(ValidationError, match="increasing"):
            flat_table(centers, [half], edges=np.array(edges))
    with pytest.raises(ValidationError, match="one entry per bin"):
        flat_table(centers, [half], edges=np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="n_bins"):
        mc_gps(small_graph, bernoulli_half, n_bins=0, n_draws=10)


def test_distribution_validation():
    half = np.array([0.5, 0.5])
    with pytest.raises(ValidationError, match="ascending"):
        flat_table([np.array([0.5, 0.1])], [half])
    with pytest.raises(ValidationError, match="nonnegative"):
        flat_table([np.array([0.0, 1.0])], [np.array([1.2, -0.2])])
    with pytest.raises(ValidationError, match="sum"):
        flat_table([np.array([0.0, 1.0])], [np.array([0.5, 0.4])])
    # the sum is checked per distribution, not over the whole table
    with pytest.raises(ValidationError, match="sum"):
        flat_table([np.array([0.0, 1.0]), np.array([0.5])], [np.array([0.5, 0.7]), np.array([0.8])])
    with pytest.raises(ValidationError, match="nonempty"):
        flat_table([np.array([0.0, 1.0]), np.array([])], [half, np.array([])])
    with pytest.raises(ValidationError, match="one entry per bin"):
        flat_table([np.array([0.25, 0.75])], [half], edges=np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValidationError, match="unit_dist"):
        flat_table([np.array([0.0, 1.0])], [half], unit_dist=np.array([0, 1]))
    # support restarts lower at a distribution boundary: accepted
    table = flat_table([np.array([0.5, 1.0]), np.array([0.0, 0.25])], [half, half])
    assert score(table, 1, 0.0) == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_rejects_non_finite_values(bad):
    half = np.array([0.5, 0.5])
    with pytest.raises(ValidationError, match="support and probs must be finite"):
        flat_table([np.array([0.0, bad])], [half])
    with pytest.raises(ValidationError, match="support and probs must be finite"):
        flat_table([np.array([bad, 1.0])], [half])
    with pytest.raises(ValidationError, match="support and probs must be finite"):
        flat_table([np.array([0.0, 1.0])], [np.array([0.5, bad])])
    with pytest.raises(ValidationError, match="exposure range"):
        flat_table([np.array([0.0, 1.0])], [half], hi=bad)


def test_distribution_rejects_a_reversed_range():
    # the range starts at 0, since exposures are nonnegative
    with pytest.raises(ValidationError, match="hi >= 0"):
        flat_table([np.array([0.0])], [np.array([1.0])], hi=-0.4)
    # a single reachable level, as for a graph without edges, is a range
    table = flat_table([np.array([0.0])], [np.array([1.0])], hi=0.0)
    assert score(table, 0, 0.0) == 1.0
    with pytest.raises(DataError, match=r"outside the table's range \[0.0, 0.0\]"):
        score(table, 0, -0.5)


def test_nan_atom_no_longer_builds_a_nan_mean():
    # this table used to build, with a nan mean and variance
    with pytest.raises(ValidationError, match="finite"):
        GpsTable(
            offsets=[0, 2], support=[0.0, np.nan], probs=[0.5, 0.5], unit_dist=[0], hi=1.0,
        )


def test_every_table_builder_passes_validation_and_take_skips_it(small_graph, bernoulli_half):
    checked = []
    real = GpsTable.__post_init__

    def spy(self):
        real(self)
        checked.append(self)

    with mock.patch.object(GpsTable, "__post_init__", spy):
        tables = [
            exact_gps_table(small_graph, bernoulli_half),
            exact_gps_table(small_graph, AssignmentDesign.completely_randomized(2)),
            mc_gps(small_graph, bernoulli_half, n_bins=4, n_draws=500, rng=substream(41, 2)),
        ]
        assert [id(t) for t in checked] == [id(t) for t in tables]
        subs = [table.take(np.array([2, 0, 2])) for table in tables]
    # a subset shares the validated arrays and is not checked again
    assert len(checked) == len(tables)
    for sub, table in zip(subs, tables):
        assert sub.support is table.support and sub.probs is table.probs


def test_bins_top_edge_closed():
    table = flat_table([np.array([0.25, 0.75])], [np.array([0.3, 0.7])],
                       np.linspace(0.0, 1.0, 3), hi=1.5)
    assert score(table, 0, 1.0) == pytest.approx(0.7)
    assert score(table, 0, 0.5) == pytest.approx(0.7)  # right-open lower bin
    assert score(table, 0, 0.0) == pytest.approx(0.3)
    assert score(table, 0, 1.2) == 0.0


def test_atom_tolerance_is_two_sided():
    table = flat_table([np.array([0.0, 0.5, 1.0])], [np.array([0.25, 0.5, 0.25])])
    assert score(table, 0, 0.5 + 0.5 * ATOM_TOL) == pytest.approx(0.5)
    assert score(table, 0, 0.5 - 0.5 * ATOM_TOL) == pytest.approx(0.5)
    assert score(table, 0, 0.5 + 3 * ATOM_TOL) == 0.0


# -- flat lookups against a per-distribution reference -------------------------


def reference_mass(support, probs, edges, e):
    """Plain per-distribution lookup: the mass one distribution puts on level e.

    Atoms (no edges): the atom at the left insertion point wins when it lies
    within tol and carries mass, else the atom before it when that lies
    within tol. Bins, the rule `mc_gps` counts with: e is in the right-open
    bin of e + tol, so a level within tol below an interior edge is in the
    bin that edge opens; the top edge closes the last bin, spill below the
    bottom edge is in bin 0, and a level more than tol outside the edges
    scores 0.
    """
    tol = ATOM_TOL
    if edges is None:
        pos = bisect.bisect_left(list(support), e)
        out = 0.0
        for k in (pos, pos - 1):
            k = min(max(k, 0), len(support) - 1)
            if abs(support[k] - e) <= tol and out == 0:
                out = probs[k]
        return out
    edges = list(edges)
    if not edges[0] - tol <= e <= edges[-1] + tol:
        return 0.0
    for b in range(len(edges) - 2):
        if e + tol < edges[b + 1]:
            return probs[b]
    return probs[-1]


grid_points = st.integers(0, 64).map(lambda k: k / 64.0)


@st.composite
def flat_tables(draw):
    """A random atom or bin table with a few distributions and units."""
    n_dists = draw(st.integers(1, 4))
    if draw(st.booleans()):
        edges = None
        supports = []
        for _ in range(n_dists):
            atoms = sorted(draw(st.sets(grid_points, min_size=1, max_size=6)))
            # twins closer than 2 * tol let two atoms match one query, which
            # pins down which side of the insertion point is checked first
            twins = [a + draw(st.sampled_from([0.5, 1.0, 1.5])) * ATOM_TOL
                     for a in atoms[:-1] if draw(st.booleans())]
            supports.append(np.array(sorted(atoms + twins)))
    else:
        # bins from 0.25 leave part of the range [0, hi] outside every bin
        edges = np.linspace(draw(st.sampled_from([0.0, 0.25])), 1.0, draw(st.integers(1, 5)) + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
        supports = [centers] * n_dists
    probs = []
    for s in supports:
        # zero masses exercise the fall-through to the atom before the insertion point
        raw = np.array(draw(st.lists(st.integers(0, 5), min_size=s.size, max_size=s.size)), float)
        raw[draw(st.integers(0, s.size - 1))] += 1.0
        probs.append(raw / raw.sum())
    unit_dist = np.array(draw(st.lists(st.integers(0, n_dists - 1), min_size=1, max_size=8)))
    return flat_table(supports, probs, edges, unit_dist), supports, probs


@settings(deadline=None, max_examples=100)
@given(data=flat_tables())
def test_flat_lookups_match_reference(data):
    table, supports, probs = data
    tol = ATOM_TOL
    between = [(s[1:] + s[:-1]) / 2.0 for s in supports]
    off_support = np.array([1.0, 27.0, 77.0, 127.0]) / 128.0
    anchors = np.concatenate(supports + between + [off_support])
    if table.edges is not None:
        anchors = np.concatenate([anchors, table.edges])
    shifts = np.array([0.0, 0.5, -0.5, 3.0, -3.0]) * tol
    queries = np.unique((anchors[:, None] + shifts).ravel())
    queries = queries[(queries >= -tol) & (queries <= table.hi + tol)]

    def want(i, e):
        d = table.unit_dist[i]
        return reference_mass(supports[d], probs[d], table.edges, float(e))

    units = np.arange(table.n_units)
    for e in queries:
        expected = [want(i, e) for i in units]
        assert table.imputed_scores(e).tolist() == expected
        assert table.observed_scores(np.full(units.size, e), units=units).tolist() == expected
    pick = np.resize(units, queries.size)
    expected = [want(i, e) for i, e in zip(pick, queries)]
    assert table.observed_scores(queries, units=pick).tolist() == expected

    # variance: the old per-distribution dot products, up to rounding
    mean = np.array([np.dot(supports[d], probs[d]) for d in table.unit_dist])
    var = np.array([
        np.dot((supports[d] - m) ** 2, probs[d]) for d, m in zip(table.unit_dist, mean)
    ])
    np.testing.assert_allclose(table.dist_variance(), var, rtol=0, atol=1e-15)


# -- the gps.csv writer against the per-row writer -----------------------------


def reference_write_csv(table, id_map=None) -> str:
    """Per-row writer: one `csv.writer` row with three reprs per (unit, atom or bin)."""
    ids = id_map.outcome_ids if id_map is not None else [str(i) for i in range(table.n_units)]
    offsets = table.offsets.tolist()
    edges = None
    if table.edges is not None:
        edges = [repr(v) for v in table.edges.tolist()]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["outcome_id", "exposure_lo", "exposure_hi", "probability"])
    for i, d in enumerate(table.unit_dist.tolist()):
        lo, hi = offsets[d], offsets[d + 1]
        probs = table.probs[lo:hi].tolist()
        if edges is None:
            for v, q in zip(table.support[lo:hi].tolist(), probs):
                writer.writerow([ids[i], repr(v), repr(v), repr(q)])
        else:
            for b, q in enumerate(probs):
                writer.writerow([ids[i], edges[b], edges[b + 1], repr(q)])
    return buf.getvalue()


def written(table, id_map=None) -> str:
    buf = io.StringIO(newline="")
    table.write_csv(buf, id_map=id_map)
    return buf.getvalue()


# every character csv.writer quotes for, padding, non-ASCII and NUL; empty ids too
CSV_IDS = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "u", "é", "ß", "中", "\x00"]),
                  max_size=4)


@st.composite
def mc_tables(draw):
    """A Monte Carlo table of a small random graph."""
    spec = GraphSpec(kind="uniform-degree", n_outcome=draw(st.integers(1, 12)), m_diversion=6,
                     deg_min=1, deg_max=draw(st.integers(1, 4)))
    graph = synth_graph(spec, rng=draw(st.integers(0, 2**16)))
    design = draw(st.sampled_from([AssignmentDesign.bernoulli(0.3),
                                   AssignmentDesign.completely_randomized(2)]))
    return mc_gps(graph, design, n_bins=draw(st.integers(1, 7)), n_draws=draw(st.integers(1, 300)),
                  rng=draw(st.integers(0, 2**16)))


@st.composite
def tables_to_write(draw):
    """A table or a `take` subset of it, with an id map for it or None."""
    table = draw(st.one_of(flat_tables().map(lambda data: data[0]), mc_tables()))
    units = draw(st.none() | st.lists(st.integers(0, table.n_units - 1), max_size=10))
    if units is not None:
        table = table.take(units)
    ids = st.lists(CSV_IDS, min_size=table.n_units, max_size=table.n_units)
    return table, draw(st.none() | ids.map(lambda ids: IdMap(tuple(ids), ())))


@settings(deadline=None, max_examples=150)
@given(case=tables_to_write(), block=st.integers(1, 5))
# 0.0 and -0.0 compare equal but print differently
@example(case=(flat_table([np.array([-0.0, 1.0]), np.array([0.0, 1.0])], [np.full(2, 0.5)] * 2),
               None), block=2)
def test_write_csv_matches_per_row_writer(case, block):
    table, id_map = case
    # small blocks split even these tables across several of them
    with mock.patch("bipexp.graph._WRITE_BLOCK", block):
        assert written(table, id_map) == reference_write_csv(table, id_map)


def wide_table(n_units: int) -> GpsTable:
    """n_units units, each with its own five atoms and full-length probabilities."""
    rng = np.random.default_rng(n_units)
    return GpsTable(
        offsets=np.arange(n_units + 1) * 5,
        support=np.tile(np.arange(5) / 4.0, n_units),
        probs=rng.dirichlet(np.ones(5), size=n_units).ravel(),
        unit_dist=np.arange(n_units),
        hi=1.0,
    )


def test_write_csv_matches_per_row_writer_across_full_blocks():
    table = wide_table(10_000)
    id_map = IdMap(tuple(f"unit {i:,}" for i in range(table.n_units)), ())
    assert written(table) == reference_write_csv(table)
    assert written(table, id_map) == reference_write_csv(table, id_map)


class LineCounter:
    """Write target that keeps only the number of lines written."""

    def __init__(self):
        self.lines = 0

    def write(self, text: str) -> None:
        self.lines += text.count("\n")


def test_write_csv_memory_is_flat_in_table_size():
    def write_peak(n_units: int) -> int:
        table = wide_table(n_units)
        sink = LineCounter()
        tracemalloc.start()
        try:
            table.write_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.lines == 1 + 5 * n_units
        return peak

    small, large = write_peak(10_000), write_peak(50_000)
    # a writer that held the whole file would peak five times higher at 50k
    assert large <= 1.25 * small


def test_write_csv_rejects_an_id_map_of_another_length(tmp_path, small_graph, bernoulli_half):
    table = exact_gps_table(small_graph, bernoulli_half)
    full = IdMap.identity(small_graph.n_outcome, small_graph.m_diversion)
    dest = tmp_path / "gps.csv"
    # a subset's units are not the first units of the full map
    with pytest.raises(ValueError, match="2 units"):
        table.take([3, 2]).write_csv(dest, id_map=full)
    short = IdMap(full.outcome_ids[:3], full.diversion_ids)
    with pytest.raises(ValueError, match="3 outcome ids for 4 units"):
        table.write_csv(dest, id_map=short)
    assert not dest.exists()  # raised before anything was written
