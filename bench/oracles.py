"""Correctness checks that do not call the package under test.

Each check recomputes a result from the raw inputs with plain numpy and
returns a list of messages, empty when the outputs agree. They read the
package's outputs only through public, representation-free views: the
`gps.csv` audit rows (outcome_id, exposure_lo, exposure_hi, probability),
a score lookup `lookup(units, exposures) -> scores`, and the estimates.
So they hold for any correct table, exact atoms or Monte Carlo bins.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np

ATOM_TOL = 1e-9
PROB_RTOL = 1e-7
PROB_ATOL = 1e-12


def read_table_rows(lines, keep=None) -> dict[str, list[tuple[float, float, float]]]:
    """Group `gps.csv` rows by outcome id; `keep` limits the ids kept."""
    reader = csv.reader(lines)
    header = next(reader)
    if header != ["outcome_id", "exposure_lo", "exposure_hi", "probability"]:
        raise ValueError(f"unexpected gps.csv header {header}")
    rows: dict[str, list] = defaultdict(list)
    for oid, lo, hi, q in reader:
        if keep is None or oid in keep:
            rows[oid].append((float(lo), float(hi), float(q)))
    return rows


def table_shape(rows: dict[str, list]) -> tuple[int, int]:
    """(distinct distributions, atoms or bins summed over them)."""
    distinct = {tuple(r) for r in rows.values()}
    return len(distinct), sum(len(d) for d in distinct)


def brute_force(weights: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact exposure atoms of one unit by enumerating all 2^deg assignments."""
    d = weights.size
    patterns = (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1
    exposure = patterns @ weights
    mass = np.prod(np.where(patterns == 1, probs, 1.0 - probs), axis=1)
    order = np.argsort(exposure, kind="stable")
    exposure, mass = exposure[order], mass[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(exposure) > ATOM_TOL]))
    return exposure[starts], np.add.reduceat(mass, starts)


def check_exact_table(units, unit_ids, edges, p, rows, lookup) -> list[str]:
    """Compare sampled units' table rows and score lookups with brute force.

    units    : dense indices of the sampled outcome units
    unit_ids : their outcome ids as written in gps.csv
    edges    : unit -> (diversion indices, weights) in the raw input
    p        : raw per-diversion treatment probabilities
    rows     : gps.csv rows grouped by outcome id
    lookup   : (units, exposures) -> scores through the table under test
    """
    errors = []
    q_units, q_levels, q_expect = [], [], []
    for unit, oid in zip(units, unit_ids):
        nbrs, weights = edges(unit)
        atoms, mass = brute_force(np.asarray(weights, dtype=np.float64), p[nbrs])
        got = sorted(rows.get(oid, []))
        lo = np.array([r[0] for r in got])
        hi = np.array([r[1] for r in got])
        q = np.array([r[2] for r in got])
        if (len(got) != atoms.size
                or not np.allclose(lo, atoms, rtol=0, atol=ATOM_TOL)
                or not np.array_equal(lo, hi)
                or not np.allclose(q, mass, rtol=PROB_RTOL, atol=PROB_ATOL)):
            errors.append(f"gps.csv rows of unit {oid} differ from 2^{len(nbrs)} enumeration")
        q_units.append(np.full(atoms.size, unit))
        q_levels.append(atoms)
        q_expect.append(mass)
    scores = lookup(np.concatenate(q_units), np.concatenate(q_levels))
    expect = np.concatenate(q_expect)
    bad = ~np.isclose(scores, expect, rtol=PROB_RTOL, atol=PROB_ATOL)
    if np.any(bad):
        errors.append(f"{int(bad.sum())} score lookups differ from enumeration")
    return errors


def check_cr_table(rows, unit_ids, row_sums, k, m, mc_draws, lookup) -> list[str]:
    """Completely randomized k of m: rows sum to 1, means match (k/m)*row_sum.

    A row's mean is only known to lie between the mass-weighted lower and
    upper bucket edges; Monte Carlo noise adds at most 0.5/sqrt(draws) per
    standard error (exposures lie in [0, 1]), allowed six times over.
    """
    errors = []
    tol = 6 * 0.5 / math.sqrt(mc_draws)
    q_units, q_levels, q_expect = [], [], []
    for unit, oid in enumerate(unit_ids):
        got = rows.get(oid, [])
        lo = np.array([r[0] for r in got])
        hi = np.array([r[1] for r in got])
        q = np.array([r[2] for r in got])
        if abs(q.sum() - 1.0) > 1e-9:
            errors.append(f"row of unit {oid} sums to {q.sum():.12f}")
            continue
        mean = k / m * row_sums[unit]
        if not (q @ lo - tol <= mean <= q @ hi + tol):
            errors.append(
                f"unit {oid}: exact mean {mean:.6f} outside [{q @ lo:.6f}, {q @ hi:.6f}] "
                f"+- {tol:.4f}"
            )
        q_units.append(np.full(q.size, unit))
        q_levels.append((lo + hi) / 2)
        q_expect.append(q)
    if errors:
        return errors[:10] + ([f"... {len(errors) - 10} more"] if len(errors) > 10 else [])
    scores = lookup(np.concatenate(q_units), np.concatenate(q_levels))
    expect = np.concatenate(q_expect)
    bad = ~np.isclose(scores, expect, rtol=PROB_RTOL, atol=PROB_ATOL)
    if np.any(bad):
        errors.append(f"{int(bad.sum())} score lookups differ from gps.csv rows")
    return errors


def exposures(indptr, indices, weights, z) -> np.ndarray:
    """Row-weighted treated share per outcome unit."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return np.bincount(rows, weights=weights * z[indices], minlength=indptr.size - 1)


def replicate_data(seed, t, graph_arrays, design, effect, sigma2_eps, sigma2_gamma):
    """Replicate t's exposures, outcomes and truth, rebuilt from the study seed.

    Follows the documented scheme: replicate t draws from
    SeedSequence([master_seed, 1, t]) the assignment, then the
    diversion-side noise gamma, then the unit noise eps.
    """
    indptr, indices, weights, m = graph_arrays
    n = indptr.size - 1
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1, int(t)]))
    if design["kind"] == "bernoulli":
        z = (rng.random((m, 1)) < design["p"]).astype(np.uint8)[:, 0]
    else:
        z = np.zeros(m, dtype=np.uint8)
        z[rng.permutation(m)[: design["k"]]] = 1
    e = exposures(indptr, indices, weights, z.astype(np.float64))
    degrees = np.diff(indptr).astype(np.float64)
    slopes = np.full(n, degrees.mean()) if effect == "homogeneous" else degrees
    y = slopes * e
    if sigma2_gamma > 0:
        gamma = rng.normal(0.0, np.sqrt(sigma2_gamma), size=m)
        y = y + exposures(indptr, indices, weights, gamma)
    if sigma2_eps > 0:
        y = y + rng.normal(0.0, np.sqrt(sigma2_eps), size=n)
    return e, y, float(slopes.mean())


def ols_slope(e: np.ndarray, y: np.ndarray) -> float:
    x = np.column_stack([np.ones_like(e), e])
    return float(np.linalg.lstsq(x, y, rcond=None)[0][1])


def close(a: float, b: float, rtol: float = 1e-8) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_naive_ols(seed, estimates, truths, graph_arrays, cfg) -> list[str]:
    """Each replicate's naive-ols estimate against a numpy lstsq refit."""
    errors = []
    for t, (est, truth) in enumerate(zip(estimates, truths)):
        e, y, want_truth = replicate_data(
            seed, t, graph_arrays, cfg["design"], cfg["effect"],
            cfg["sigma2_eps"], cfg["sigma2_gamma"],
        )
        want = ols_slope(e, y)
        if not close(est, want):
            errors.append(f"replicate {t}: naive-ols {est!r} != lstsq {want!r}")
        if not close(truth, want_truth, 1e-12):
            errors.append(f"replicate {t}: truth {truth!r} != mean slope {want_truth!r}")
    return errors


def ht_ate(e, y, p1, p0, floor=1e-6) -> float:
    """Horvitz-Thompson ATE from closed-form endpoint scores."""
    n = e.size
    at1 = np.abs(e - 1.0) <= ATOM_TOL
    at0 = np.abs(e) <= ATOM_TOL
    return float(np.sum(y[at1] / np.maximum(p1[at1], floor)) / n
                 - np.sum(y[at0] / np.maximum(p0[at0], floor)) / n)
