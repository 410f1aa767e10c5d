"""Self-test of the benchmark: tiny smoke runs, metric names, oracle rejection."""

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    meta = json.loads(proc.stdout.strip().splitlines()[-2])["meta"]
    for key in ("git_sha", "src_lines", "nproc", "cpu_model", "ram_mb", "python", "numpy",
                "scipy", "blas", "blas_threads"):
        assert key in meta
    assert set(meta["sizes"]) == {"n", "m", "nnz", "distinct_dists", "atoms"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "study-krr", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _small_heterogeneous_table():
    from bipexp import AssignmentDesign, BipartiteGraph, exact_gps_table

    rng = np.random.default_rng(5)
    n, m = 60, 12
    degrees = rng.integers(1, 6, size=n)
    indices = np.concatenate([np.sort(rng.choice(m, size=d, replace=False)) for d in degrees])
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    weights = rng.uniform(0.1, 1.0, size=indices.size)
    p = rng.uniform(0.2, 0.8, size=m)
    graph = BipartiteGraph(n, m, indptr, indices, weights)
    table = exact_gps_table(graph, AssignmentDesign.bernoulli_heterogeneous(p))
    return indptr, indices, weights, p, table


def _rows(table):
    buf = io.StringIO()
    table.write_csv(buf)
    buf.seek(0)
    return oracles.read_table_rows(buf)


def test_exact_table_oracle_rejects_perturbed_table():
    indptr, indices, weights, p, table = _small_heterogeneous_table()
    units = np.arange(indptr.size - 1)
    ids = [str(u) for u in units]

    def edges(u):
        return indices[indptr[u]:indptr[u + 1]], weights[indptr[u]:indptr[u + 1]]

    def lookup(us, levels):
        return table.observed_scores(levels, units=us)

    rows = _rows(table)
    assert oracles.check_exact_table(units, ids, edges, p, rows, lookup) == []

    bad_rows = {k: list(v) for k, v in rows.items()}
    lo, hi, q = bad_rows["7"][0]
    bad_rows["7"][0] = (lo, hi, q * 1.001)
    assert oracles.check_exact_table(units, ids, edges, p, bad_rows, lookup)

    def bad_lookup(us, levels):
        out = lookup(us, levels)
        return np.where(us == 7, out * 1.001, out)

    assert oracles.check_exact_table(units, ids, edges, p, rows, bad_lookup)


def test_cr_table_oracle_rejects_perturbed_row():
    from bipexp import AssignmentDesign, GraphSpec, synth_graph
    from bipexp.simlab import default_gps_table

    graph = synth_graph(GraphSpec("uniform-degree", 100, 20, 1, 5), 4)
    draws = 4000
    table = default_gps_table(graph, AssignmentDesign.completely_randomized(10),
                              rng=5, mc_draws=draws)
    row_sums = oracles.exposures(graph.indptr, graph.indices, graph.weights, np.ones(20))
    ids = [str(i) for i in range(100)]

    def lookup(us, levels):
        return table.observed_scores(levels, units=us)

    rows = _rows(table)
    assert oracles.check_cr_table(rows, ids, row_sums, 10, 20, draws, lookup) == []
    bad_rows = dict(rows)
    bad_rows["3"] = [(lo, hi, q * 1.01) for lo, hi, q in rows["3"]]
    assert oracles.check_cr_table(bad_rows, ids, row_sums, 10, 20, draws, lookup)
    shifted = dict(rows)
    shifted["4"] = [(lo + 0.2, hi + 0.2, q) for lo, hi, q in rows["4"]]
    assert oracles.check_cr_table(shifted, ids, row_sums, 10, 20, draws, lookup)


def test_naive_ols_oracle_rejects_perturbed_estimate():
    from bipexp import AssignmentDesign, DgpSpec, GraphSpec, run_study, synth_graph

    cfg = {"design": {"kind": "bernoulli", "p": 0.5}, "effect": "homogeneous",
           "sigma2_eps": 0.5, "sigma2_gamma": 0.5}
    graph = synth_graph(GraphSpec("uniform-degree", 150, 30, 1, 4), 2)
    dgp = DgpSpec(graph, AssignmentDesign.bernoulli(0.5), effect="homogeneous",
                  sigma2_eps=0.5, sigma2_gamma=0.5)
    result = run_study(dgp, ["naive-ols"], n_sims=3, master_seed=11)
    arrays = (graph.indptr, graph.indices, graph.weights, graph.m_diversion)
    est = result.estimates["naive-ols"]
    assert oracles.check_naive_ols(11, est, result.truth, arrays, cfg) == []
    assert oracles.check_naive_ols(11, est + 1e-4, result.truth, arrays, cfg)
    assert oracles.check_naive_ols(12, est, result.truth, arrays, cfg)
