"""Batch command line: graph generation, propensity tables, estimation, studies.

Commands read a single YAML config (a file path or the name of a shipped
preset), validated strictly before any computation: unknown keys are
rejected so typos fail loudly. Every command is deterministic given
(config, input files, seed) and writes a provenance sidecar with the
config hash, seed, and package version next to its outputs.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .design import AssignmentDesign, draw_assignment, linear_exposure, load_probability_file
from .errors import (
    BipexpError,
    ConfigError,
    DataError,
    NumericalError,
    ValidationError,
)
from .estimators import (
    Dataset,
    ate,
    beta_cell_means,
    beta_krr_fit,
    beta_poly_fit,
    dose_response,
)
from .gps import exact_gps_table, mc_gps
from .graph import (
    BipartiteGraph,
    GraphSpec,
    IdMap,
    _read_id_column,
    _write_csv_rows,
    _write_json,
    load_edge_list,
    synth_graph,
    write_edge_list,
)
from .inference import MIN_BOOTSTRAP, IntervalEstimate
from .seeding import substream
from .simlab import (
    ESTIMATOR_REGISTRY,
    INTERVAL_METHODS,
    DgpSpec,
    _check_workers,
    check_intervals,
    default_gps_table,
    edges_cut_sweep,
    resolve_estimators,
    run_study,
    simple_example,
)

PRESETS = (
    "homogeneous-uncorrelated",
    "heterogeneous-uncorrelated",
    "correlated-coverage",
    "edges-cut-sweep",
    "simple-example",
)

_EXIT_CODES = ((ConfigError, 2), (DataError, 3), (NumericalError, 4))


# -- config plumbing ----------------------------------------------------------


def load_config(ref: str) -> tuple[dict, bytes]:
    """Resolve a config reference: an existing file path wins over a preset name."""
    path = Path(ref)
    if path.is_file():
        raw = path.read_bytes()
    elif ref in PRESETS:
        raw = resources.files("bipexp.presets").joinpath(f"{ref}.yaml").read_bytes()
    else:
        raise ConfigError(
            f"config {ref!r} is neither a file nor a preset "
            f"(presets: {', '.join(PRESETS)})"
        )
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg, raw


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _section(cfg: dict, name: str, *, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing the {name!r} section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return sec


def _get(section: dict, key: str, kind, where: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{where} is missing {key!r}")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    wrong_type = kind is not None and not isinstance(value, kind)
    bool_as_number = isinstance(value, bool) and kind is not bool
    if wrong_type or bool_as_number:
        raise ConfigError(f"{where}.{key} must be {getattr(kind, '__name__', kind)}")
    return value


def _unit_levels(value, where: str, *, ascending: bool) -> list[float]:
    """A nonempty list of numbers in [0, 1], strictly ascending when asked."""
    ok = isinstance(value, list) and bool(value) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 <= v <= 1.0
        for v in value
    )
    if ok and ascending:
        ok = all(a < b for a, b in zip(value, value[1:]))
    if not ok:
        order = "strictly ascending " if ascending else ""
        raise ConfigError(f"{where} must be a nonempty list of {order}numbers in [0, 1]")
    return [float(v) for v in value]


# -- section builders ---------------------------------------------------------

_SYNTH_KEYS = ("kind", "n_outcome", "m_diversion", "deg_min", "deg_max")
# the keys each graph kind reads
_GRAPH_KEYS = {
    "external-file": ("kind", "path", "normalize"),
    "uniform-degree": _SYNTH_KEYS,
    "blocks": _SYNTH_KEYS + ("n_blocks", "cross_share"),
}


def _parse_graph(cfg: dict, *, sweep_share: float | None = None):
    """The `graph` section, checked before any graph is loaded or synthesized.

    Kind `external-file` (the default) reads `path` and `normalize` and
    gives (path, normalize). A synthetic kind reads its recipe keys and
    gives a `GraphSpec`. A sweep passes `sweep_share`: its graph is a
    recipe (kind `blocks` by default, 10 blocks) whose cross share is
    `sweep_share`, not a key. A key the kind does not read is a config error.
    """
    sweep = sweep_share is not None
    sec = _section(cfg, "graph")
    _check_keys(sec, set().union(*_GRAPH_KEYS.values()), "graph")
    kind = _get(sec, "kind", str, "graph", default="blocks" if sweep else "external-file")
    if kind not in _GRAPH_KEYS:
        raise ConfigError(f"graph: unknown graph kind {kind!r}")
    if kind == "external-file" and sweep:
        raise ConfigError("sweep needs a synthetic graph recipe, not an external file")
    read = set(_GRAPH_KEYS[kind]) - ({"cross_share"} if sweep else set())
    unread = sorted(set(sec) - read)
    if unread:
        where = " in a sweep, whose cut_shares set the cross share" if sweep else ""
        raise ConfigError(f"graph keys not read for kind {kind}{where}: {', '.join(unread)}")
    if kind == "external-file":
        return (_get(sec, "path", str, "graph", required=True),
                _get(sec, "normalize", bool, "graph", default=False))
    try:
        return GraphSpec(
            kind=kind,
            n_outcome=_get(sec, "n_outcome", int, "graph", required=True),
            m_diversion=_get(sec, "m_diversion", int, "graph", required=True),
            deg_min=_get(sec, "deg_min", int, "graph", default=1),
            deg_max=_get(sec, "deg_max", int, "graph", default=1),
            n_blocks=_get(sec, "n_blocks", int, "graph", default=10 if sweep else 1),
            cross_share=sweep_share if sweep else _get(sec, "cross_share", float, "graph", default=0.0),
        )
    except ValidationError as exc:
        raise ConfigError(f"graph: {exc}") from exc


def build_graph(source, seed: int) -> tuple[BipartiteGraph, IdMap]:
    """Synthesize a `GraphSpec` or load a (path, normalize) edge list."""
    if isinstance(source, GraphSpec):
        graph = synth_graph(source, substream(seed, 10))
        return graph, IdMap.identity(graph.n_outcome, graph.m_diversion)
    path, normalize = source
    return load_edge_list(path, normalize=normalize)


# the keys each design kind reads
_DESIGN_KEYS = {
    "bernoulli": ("kind", "p"),
    "bernoulli-heterogeneous": ("kind", "p_file"),
    "completely-randomized": ("kind", "k"),
}


def build_design(cfg: dict, id_map: IdMap | None) -> AssignmentDesign:
    """The `design` section's design; a key its kind does not read is a config error."""
    sec = _section(cfg, "design")
    _check_keys(sec, set().union(*_DESIGN_KEYS.values()), "design")
    kind = _get(sec, "kind", str, "design", default="bernoulli")
    if kind not in _DESIGN_KEYS:
        raise ConfigError(f"unknown design kind {kind!r}")
    unread = sorted(set(sec) - set(_DESIGN_KEYS[kind]))
    if unread:
        raise ConfigError(f"design keys not read for kind {kind}: {', '.join(unread)}")
    if kind == "bernoulli":
        return AssignmentDesign.bernoulli(_get(sec, "p", float, "design", default=0.5))
    if kind == "bernoulli-heterogeneous":
        path = _get(sec, "p_file", str, "design", required=True)
        if id_map is None:
            raise ConfigError("bernoulli-heterogeneous requires a graph with ids")
        return AssignmentDesign.bernoulli_heterogeneous(load_probability_file(path, id_map))
    return AssignmentDesign.completely_randomized(_get(sec, "k", int, "design", required=True))


def _parse_gps(cfg: dict) -> tuple[str, dict]:
    """The `gps` section as (mode, `mc_gps` settings), checked before any computation."""
    sec = _section(cfg, "gps", required=False)
    _check_keys(sec, ("mode", "n_draws", "bins"), "gps")
    mode = _get(sec, "mode", str, "gps", default="auto")
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ConfigError(f"unknown gps mode {mode!r}")
    settings = {}
    for key, name, default in (("bins", "n_bins", 20), ("n_draws", "n_draws", 100_000)):
        if key in sec and mode != "monte-carlo":
            raise ConfigError(f"gps.{key} is read only in monte-carlo mode, not {mode}")
        settings[name] = _get(sec, key, int, "gps", default=default)
        if settings[name] < 1:
            raise ConfigError(f"gps.{key} must be a positive int, got {settings[name]}")
    return mode, settings


def build_gps(gps: tuple[str, dict], graph, design, seed: int):
    mode, settings = gps
    if mode == "exact":
        return exact_gps_table(graph, design)
    if mode == "monte-carlo":
        return mc_gps(graph, design, **settings, rng=substream(seed, 11))
    return default_gps_table(graph, design, rng=substream(seed, 11))


def _parse_estimators(cfg: dict) -> list[str]:
    names = cfg.get("estimators", ["naive-ols"])
    if not isinstance(names, list) or not names:
        raise ConfigError("estimators must be a nonempty list")
    resolve_estimators(names)
    return names


def _parse_intervals(cfg: dict, names: list[str]) -> dict[str, tuple]:
    sec = _section(cfg, "intervals", required=False)
    out: dict[str, tuple] = {}
    for key, methods in sec.items():
        if not isinstance(methods, list):
            raise ConfigError("intervals values must be lists of method names")
        out[key] = tuple(methods)
    check_intervals(resolve_estimators(names), out)
    return out


_BOOTSTRAP_METHODS = ("naive-bootstrap", "block-bootstrap", "parametric-bootstrap")


def _asks_bootstrap(intervals: dict[str, tuple]) -> bool:
    return any(m in _BOOTSTRAP_METHODS for methods in intervals.values() for m in methods)


def _replicates_and_level(
    section: dict, where: str, *, default_b: int, bootstrap: bool
) -> tuple[int, float]:
    """`b_replicates` and `level`, checked before any computation.

    The level must lie in (0, 1); the replicate count must reach
    `MIN_BOOTSTRAP` when a bootstrap interval will run.
    """
    b = _get(section, "b_replicates", int, where, default=default_b)
    level = _get(section, "level", float, where, default=0.95)
    if not 0.0 < level < 1.0:
        raise ConfigError(f"{where}.level must be in (0, 1), got {level}")
    if bootstrap and b < MIN_BOOTSTRAP:
        raise ConfigError(
            f"{where}.b_replicates must be at least {MIN_BOOTSTRAP} "
            f"for bootstrap intervals, got {b}"
        )
    return b, level


# -- output plumbing -------------------------------------------------------------


def _write_table(rows: list[dict], out_dir: Path, stem: str, fmt: str) -> Path:
    path = out_dir / f"{stem}.{fmt}"
    if fmt == "json":
        _write_json(rows, path)
    else:
        _write_csv_rows(rows, path)
    return path


def _write_provenance(out_dir: Path, command: str, raw: bytes, seed: int, outputs: list[str], notes=None) -> None:
    record = {
        "command": command,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "package": "bipexp",
        "version": __version__,
        "outputs": outputs,
    }
    if notes:
        record["notes"] = notes
    _write_json(record, out_dir / "provenance.json")


def _resolve_seed(cfg: dict, args) -> int:
    """The --seed flag, else the config's `seed` key; either must be a nonnegative int."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        where = "--seed" if args.seed is not None else "seed"
        raise ConfigError(f"{where} must be a nonnegative integer, got {seed!r}")
    return seed


def _resolve_out(cfg: dict, args) -> Path:
    out = args.out or cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("out must be a directory path")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- commands ---------------------------------------------------------------------

_TOP_KEYS_COMMON = ("seed", "out")


def cmd_graph_gen(cfg: dict, args) -> int:
    _check_keys(cfg, _TOP_KEYS_COMMON + ("graph",), "config")
    seed = _resolve_seed(cfg, args)
    source = _parse_graph(cfg)
    if not isinstance(source, GraphSpec):
        raise ConfigError("graph-gen needs a synthetic graph spec, not an external file")
    out_dir = _resolve_out(cfg, args)
    graph, id_map = build_graph(source, seed)
    graph_path = out_dir / "graph.csv"
    write_edge_list(graph, graph_path, id_map=id_map)
    degrees = graph.degrees
    hist = np.bincount(degrees, minlength=int(degrees.max(initial=0)) + 1)
    summary = {
        "n_outcome": graph.n_outcome,
        "m_diversion": graph.m_diversion,
        "n_edges": graph.nnz,
        "degree_histogram": {str(d): int(c) for d, c in enumerate(hist) if c > 0},
        "row_normalized": bool(graph.row_normalized),
    }
    _write_json(summary, out_dir / "graph_summary.json")
    _write_provenance(out_dir, "graph-gen", args.raw_config, seed,
                      ["graph.csv", "graph_summary.json"])
    print(f"graph-gen: wrote {graph_path} ({graph.n_outcome}x{graph.m_diversion}, {graph.nnz} edges)")
    return 0


def cmd_gps(cfg: dict, args) -> int:
    _check_keys(cfg, _TOP_KEYS_COMMON + ("graph", "design", "gps"), "config")
    seed = _resolve_seed(cfg, args)
    out_dir = _resolve_out(cfg, args)
    gps = _parse_gps(cfg)
    graph, id_map = build_graph(_parse_graph(cfg), seed)
    design = build_design(cfg, id_map)
    table = build_gps(gps, graph, design, seed)
    gps_path = out_dir / "gps.csv"
    table.write_csv(gps_path, id_map=id_map)
    _write_provenance(out_dir, "gps", args.raw_config, seed, ["gps.csv"])
    print(f"gps: wrote {gps_path} ({table.n_units} units, mode {table.mode})")
    return 0


# the keys each data mode reads
_DATA_KEYS = {
    "fixture": ("fixture", "n_single", "n_double"),
    "files": ("outcomes", "assignment", "exposures"),
}


def _build_estimate_inputs(cfg: dict, gps: tuple[str, dict], seed: int):
    """Returns (dataset, id_map) from a fixture or from data files.

    A fixture builds its own graph and takes an optional `bernoulli`
    design (p = 0.5 without one), whose kind is checked before the design
    is built; files come with the config's graph and design. A key or
    section the mode does not read is a config error.
    """
    sec = _section(cfg, "data")
    _check_keys(sec, set().union(*_DATA_KEYS.values()), "data")
    mode = "fixture" if "fixture" in sec else "files"
    unread = sorted(set(sec) - set(_DATA_KEYS[mode]))
    if unread:
        with_fixture = "with" if mode == "fixture" else "without"
        raise ConfigError(f"data keys not read {with_fixture} a fixture: {', '.join(unread)}")
    if mode == "fixture":
        fixture = _get(sec, "fixture", str, "data")
        if fixture != "simple-example":
            raise ConfigError(f"unknown fixture {fixture!r}")
        if "graph" in cfg:
            raise ConfigError("the simple-example fixture builds its own graph; drop `graph`")
        kind = _get(_section(cfg, "design", required=False), "kind", str, "design",
                    default="bernoulli")
        if kind != "bernoulli":
            raise ConfigError(f"the simple-example fixture needs a bernoulli design, not {kind}")
        design = build_design(cfg, None) if "design" in cfg else AssignmentDesign.bernoulli(0.5)
        example = simple_example(
            n_single=_get(sec, "n_single", int, "data", default=200),
            n_double=_get(sec, "n_double", int, "data", default=200),
            p=design.p,
        )
        graph, design = example.graph, example.design
        rng = substream(seed, 12)
        z = draw_assignment(design, graph.m_diversion, rng)
        exposure = linear_exposure(graph, z)
        y = example.outcomes(exposure)
        gps_table = build_gps(gps, graph, design, seed)
        id_map = IdMap.identity(graph.n_outcome, graph.m_diversion)
        return Dataset.build(graph, gps_table, y, exposure), id_map

    graph, id_map = build_graph(_parse_graph(cfg), seed)
    design = build_design(cfg, id_map)
    outcomes_path = _get(sec, "outcomes", str, "data", required=True)
    y = _read_id_column(outcomes_path, "outcome_id", "y", id_map.outcome_ids)
    if "exposures" in sec and "assignment" in sec:
        raise ConfigError("give either data.assignment or data.exposures, not both")
    if "exposures" in sec:
        exposure = _read_id_column(
            _get(sec, "exposures", str, "data"), "outcome_id", "exposure", id_map.outcome_ids
        )
    else:
        z_path = _get(sec, "assignment", str, "data", required=True)
        z = _read_id_column(z_path, "diversion_id", "z", id_map.diversion_ids)
        if not np.all((z == 0) | (z == 1)):
            raise DataError(f"{z_path}: assignment values must be 0 or 1")
        exposure = linear_exposure(graph, z.astype(np.uint8))
    gps_table = build_gps(gps, graph, design, seed)
    return Dataset.build(graph, gps_table, y, exposure), id_map


_SURFACE_FITTERS = {
    "gps-cell": beta_cell_means,
    "gps-poly": beta_poly_fit,
    "gps-krr": beta_krr_fit,
}


def cmd_estimate(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        _TOP_KEYS_COMMON
        + ("graph", "design", "gps", "data", "estimators", "intervals",
           "b_replicates", "level", "grid"),
        "config",
    )
    seed = _resolve_seed(cfg, args)
    out_dir = _resolve_out(cfg, args)
    names = _parse_estimators(cfg)
    intervals = _parse_intervals(cfg, names)
    b, level = _replicates_and_level(
        cfg, "config", default_b=1000, bootstrap=_asks_bootstrap(intervals)
    )
    grid = cfg.get("grid")
    if grid is not None:
        grid = _unit_levels(grid, "grid", ascending=True)

    gps = _parse_gps(cfg)
    data, _ = _build_estimate_inputs(cfg, gps, seed)
    rows: list[dict] = []
    rng = substream(seed, 13)

    def empty_interval():
        return {"interval_method": "", "lower": "", "upper": "",
                "interval_level": "", "b_replicates": ""}

    for name in names:
        est = ESTIMATOR_REGISTRY[name]
        point = float(est.point(data))
        rows.append({"estimator": name, "quantity": "ate", "level": "",
                     "estimate": point, **empty_interval()})
        for method in intervals.get(name, ()):
            iv: IntervalEstimate = INTERVAL_METHODS[method](data, est, b, level, rng)
            rows.append({
                "estimator": name, "quantity": "ate", "level": "",
                "estimate": iv.estimate, "interval_method": method,
                "lower": iv.lower, "upper": iv.upper,
                "interval_level": iv.level, "b_replicates": iv.n_replicates,
            })
        if grid is not None and name in _SURFACE_FITTERS:
            surface = _SURFACE_FITTERS[name](data)
            curve = dose_response(surface, data.gps, np.asarray(grid, dtype=np.float64))
            for e, mu in zip(curve.grid, curve.mu_hat):
                rows.append({"estimator": name, "quantity": "mu", "level": float(e),
                             "estimate": float(mu), **empty_interval()})
    table_path = _write_table(rows, out_dir, "estimates", args.format)
    _write_provenance(out_dir, "estimate", args.raw_config, seed, [table_path.name])
    print(f"estimate: wrote {table_path} ({len(rows)} rows)")
    return 0


_STUDY_KEYS = (
    "label", "effect", "sigma2_eps", "sigma2_gamma",
    "n_sims", "b_replicates", "level",
)


def cmd_simulate(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        _TOP_KEYS_COMMON + ("graph", "design", "gps", "study", "estimators", "intervals"),
        "config",
    )
    _check_workers(args.workers)
    seed = _resolve_seed(cfg, args)
    out_dir = _resolve_out(cfg, args)
    sec = _section(cfg, "study")
    _check_keys(sec, _STUDY_KEYS, "study")
    n_sims = _get(sec, "n_sims", int, "study", default=100)
    if n_sims <= 0:
        raise ConfigError("study.n_sims must be positive")
    names = _parse_estimators(cfg)
    intervals = _parse_intervals(cfg, names)
    b, level = _replicates_and_level(
        sec, "study", default_b=200, bootstrap=_asks_bootstrap(intervals)
    )
    gps = _parse_gps(cfg)
    graph, id_map = build_graph(_parse_graph(cfg), seed)
    design = build_design(cfg, id_map)
    dgp = DgpSpec(
        graph=graph,
        design=design,
        effect=_get(sec, "effect", str, "study", default="homogeneous"),
        sigma2_eps=_get(sec, "sigma2_eps", float, "study", default=0.0),
        sigma2_gamma=_get(sec, "sigma2_gamma", float, "study", default=0.0),
        label=_get(sec, "label", str, "study", default=""),
    )

    def progress(done: int, total: int) -> None:
        if done == total or done % max(1, total // 10) == 0:
            print(f"simulate: {done}/{total} replicates", file=sys.stderr)

    result = run_study(
        dgp, names, intervals,
        n_sims=n_sims,
        b_replicates=b,
        level=level,
        master_seed=seed,
        workers=args.workers,
        gps=build_gps(gps, graph, design, seed),
        progress=progress,
    )
    csv_path = out_dir / "study.csv"
    json_path = out_dir / "study.json"
    result.write_csv(csv_path)
    result.write_json(json_path)
    notes = None
    if result.n_sims < result.n_requested:
        notes = f"interrupted: {result.n_sims}/{result.n_requested} replicates completed"
    _write_provenance(out_dir, "simulate", args.raw_config, seed,
                      ["study.csv", "study.json"], notes=notes)
    print(f"simulate: wrote {csv_path} and {json_path} ({result.n_sims} replicates)")
    return 0


_SWEEP_KEYS = (
    "cut_shares", "sigma2_eps", "sigma2_gamma", "estimator",
    "n_sims", "b_replicates", "level",
)


def cmd_sweep(cfg: dict, args) -> int:
    _check_keys(cfg, _TOP_KEYS_COMMON + ("graph", "design", "sweep"), "config")
    seed = _resolve_seed(cfg, args)
    out_dir = _resolve_out(cfg, args)
    sec = _section(cfg, "sweep")
    _check_keys(sec, _SWEEP_KEYS, "sweep")
    # every sweep runs the naive and block bootstraps
    b, level = _replicates_and_level(sec, "sweep", default_b=200, bootstrap=True)
    shares = _unit_levels(
        sec.get("cut_shares", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]), "sweep.cut_shares", ascending=False
    )
    # the largest share validates the recipe; the sweep sets each share itself
    spec = _parse_graph(cfg, sweep_share=max(shares))
    design = build_design(cfg, None)
    rows = edges_cut_sweep(
        spec,
        shares,
        design=design,
        sigma2_eps=_get(sec, "sigma2_eps", float, "sweep", default=0.5),
        sigma2_gamma=_get(sec, "sigma2_gamma", float, "sweep", default=0.5),
        estimator=_get(sec, "estimator", str, "sweep", default="naive-ols"),
        n_sims=_get(sec, "n_sims", int, "sweep", default=100),
        b_replicates=b,
        level=level,
        master_seed=seed,
        workers=args.workers,
    )
    sweep_path = out_dir / "sweep.csv"
    _write_csv_rows(rows, sweep_path)
    _write_provenance(out_dir, "sweep", args.raw_config, seed, ["sweep.csv"])
    print(f"sweep: wrote {sweep_path} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "graph-gen": cmd_graph_gen,
    "gps": cmd_gps,
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}

# the commands whose replicates can run in a process pool
_POOLED = ("simulate", "sweep")


def _emit_error(exc: Exception, code: int) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bipexp",
        description="Exposure-response estimation for bipartite experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="config file path or preset name")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in _POOLED:
            p.add_argument("--workers", type=int, default=1)
        if name == "estimate":
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)
    try:
        cfg, raw = load_config(args.config)
        args.raw_config = raw
        declared = cfg.pop("command", None)
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r} but {args.command!r} was invoked"
            )
        return _COMMANDS[args.command](cfg, args)
    except BipexpError as exc:
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                _emit_error(exc, code)
                return code
        _emit_error(exc, 1)
        return 1
    except OSError as exc:
        _emit_error(exc, 3)
        return 3


if __name__ == "__main__":
    sys.exit(main())
