"""Workload sizes and metric names shared by the benchmark's processes.

Imports nothing beyond the standard library, so the driver process can
read it without importing numpy or the package under test.
"""

from __future__ import annotations

# Default seed of the stored study-krr reference (the shipped presets' seed).
REFERENCE_SEED = 20260819

# Calibration time that defines the reference speed the timings are scaled to
# (typical worker.calibrate time on a 2-core Xeon VM, Python 3.11, numpy 2.4).
CAL_REF_S = 0.06

# Fresh processes that build the set-up per untraced run; setup_s is their median.
SETUP_RUNS = 3

# Bernoulli graph/table recipe of the homogeneous-uncorrelated preset, and the
# completely randomized variant used by study-cr.
_PAPER_GRAPH = {"kind": "uniform-degree", "n_outcome": 1000, "m_diversion": 100,
                "deg_min": 1, "deg_max": 10}
_SMOKE_GRAPH = {"kind": "uniform-degree", "n_outcome": 200, "m_diversion": 20,
                "deg_min": 1, "deg_max": 5}

# Every study workload replays run_study with `n_sims` replicates per
# repetition; `work` is one simulated experiment.
WORKLOADS: dict[str, dict] = {
    # hot path of the homogeneous-uncorrelated preset: gps-krr bootstrap refits
    "study-krr": {
        "kind": "study",
        "graph": _PAPER_GRAPH,
        "design": {"kind": "bernoulli", "p": 0.5},
        "effect": "homogeneous", "sigma2_eps": 0.5, "sigma2_gamma": 0.0,
        "estimators": ["naive-ols", "gps-krr"],
        "intervals": {"naive-ols": ["naive-bootstrap"], "gps-krr": ["naive-bootstrap"]},
        "n_sims": 1, "b_replicates": 200,
        "smoke": {"graph": _SMOKE_GRAPH, "n_sims": 1, "b_replicates": 50},
    },
    # graph-propagated noise, no scores: resampling, sigma split, components
    "study-correlated": {
        "kind": "study",
        "graph": {"kind": "blocks", "n_outcome": 10_000, "m_diversion": 1000,
                  "deg_min": 1, "deg_max": 10, "n_blocks": 20, "cross_share": 0.0},
        "design": {"kind": "bernoulli", "p": 0.5},
        "effect": "homogeneous", "sigma2_eps": 0.5, "sigma2_gamma": 0.5,
        "estimators": ["naive-ols"],
        "intervals": {"naive-ols": ["naive-bootstrap", "block-bootstrap",
                                    "parametric-bootstrap", "ols-asymptotic"]},
        "n_sims": 1, "b_replicates": 200,
        "smoke": {"graph": {"kind": "blocks", "n_outcome": 1000, "m_diversion": 100,
                            "deg_min": 1, "deg_max": 5, "n_blocks": 10,
                            "cross_share": 0.0},
                  "n_sims": 1, "b_replicates": 50},
    },
    # one-shot `gps` + `estimate` on an ingested edge list, every unit distinct
    "table-scale": {
        "kind": "table",
        "n_outcome": 50_000, "m_diversion": 5000, "deg_min": 1, "deg_max": 8,
        "p_range": [0.2, 0.8], "sigma2_eps": 0.5,
        "estimators": ["naive-ols", "ht", "gps-poly", "stratified"],
        "smoke": {"n_outcome": 2000, "m_diversion": 200, "deg_max": 4},
    },
    # completely randomized design: Monte Carlo table from the auto path
    "study-cr": {
        "kind": "study",
        "graph": _PAPER_GRAPH,
        "design": {"kind": "completely-randomized", "k": 50},
        "effect": "heterogeneous", "sigma2_eps": 0.5, "sigma2_gamma": 0.0,
        "estimators": ["naive-ols", "ht", "gps-poly"],
        "intervals": {"ht": ["ols-asymptotic", "parametric-bootstrap"],
                      "gps-poly": ["parametric-bootstrap"]},
        "n_sims": 2, "b_replicates": 200,
        "smoke": {"graph": _SMOKE_GRAPH, "design": {"kind": "completely-randomized", "k": 10},
                  "n_sims": 1, "b_replicates": 50},
    },
}


def workload_config(name: str, smoke: bool) -> dict:
    """The workload's settings, with the tiny smoke sizes laid over them."""
    cfg = {k: v for k, v in WORKLOADS[name].items() if k != "smoke"}
    if smoke:
        cfg.update(WORKLOADS[name]["smoke"])
    return cfg


# name -> (unit, better); the order is the order of the printed metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "throughput": ("work/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
}


def _layer(prefix: str, stats: str) -> dict:
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "total_s": ("s", "lower"), "kept_ratio": ("ratio", "higher"),
             "count": ("count", "lower"), "rows": ("count", "lower"),
             "draws": ("count", "lower"), "bytes": ("bytes", "lower"),
             "bytes_computed": ("bytes", "lower"), "points_mean": ("count", "lower"),
             "p50_s": ("s", "lower"), "p90_s": ("s", "lower"),
             "distinct_dists": ("count", "lower"), "atoms": ("count", "lower")}
    return {f"{prefix}.{s}": units[s] for s in stats.split(",")}


PER_LAYER: dict[str, tuple[str, str]] = {
    **_layer("gps.GpsTable.observed_scores", "calls,self_s,rows"),
    **_layer("gps.GpsTable.imputed_scores", "calls,self_s"),
    **_layer("gps.exact_gps_table", "total_s"),
    **_layer("gps.table", "distinct_dists,atoms"),
    **_layer("gps.mc_gps", "total_s,draws"),
    **_layer("design.draw_assignments", "calls,total_s"),
    **_layer("gps.GpsTable.take", "calls,self_s"),
    **_layer("estimators.Dataset.take", "calls,self_s"),
    **_layer("graph.BipartiteGraph.take", "calls,self_s"),
    **_layer("numerics.krr_fit", "calls,self_s,points_mean"),
    **_layer("numerics.krr_predict", "calls,self_s"),
    **_layer("estimators.beta_krr_fit", "calls,self_s"),
    **_layer("numerics.ols", "calls,self_s"),
    **_layer("estimators.naive_ols", "calls,self_s"),
    **_layer("inference.parametric_bootstrap", "calls,self_s"),
    **_layer("graph.BipartiteGraph.to_dense", "calls,bytes_computed"),
    **_layer("graph.connected_components", "calls,total_s"),
    **_layer("inference.block_bootstrap", "calls,total_s,kept_ratio"),
    **_layer("inference.naive_bootstrap", "calls,total_s,kept_ratio"),
    **_layer("estimators.ht_estimate", "calls,self_s"),
    **_layer("estimators.ht_weighted_regression", "calls,self_s"),
    **_layer("estimators.beta_poly_fit", "calls,self_s"),
    **_layer("estimators.dose_response", "calls,self_s"),
    **_layer("estimators.stratified_estimate", "calls,self_s"),
    **_layer("estimators.trim_warnings", "count"),
    **_layer("graph.load_edge_list", "total_s"),
    **_layer("graph.synth_graph", "total_s"),
    **_layer("gps.GpsTable.write_csv", "total_s,bytes"),
    **_layer("simlab.SimStudyResult.write_json", "total_s"),
    **_layer("simlab.SimStudyResult.write_csv", "total_s"),
    **_layer("simlab.run_study", "total_s"),
    **_layer("simlab.default_gps_table", "total_s"),
    **_layer("simlab.generate_outcomes", "calls,total_s"),
    **_layer("simlab.replicate", "p50_s,p90_s"),
    **_layer("design.linear_exposure", "calls,total_s"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
