"""Batch command line: graph generation, propensity tables, estimation, studies.

Commands read a single YAML config (a file path or the name of a shipped
preset), validated strictly before any computation: each section is read
through one schema and checked before any graph is built, and unknown
keys are rejected so typos fail loudly. Every command is deterministic given
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
from .design import AssignmentDesign, draw_assignments, linear_exposure, load_probability_file
from .errors import (
    BipexpError,
    ConfigError,
    DataError,
    NumericalError,
    ValidationError,
)
from .estimators import Dataset, dose_response
from .gps import MC_BINS, MC_DRAWS, default_gps_table, exact_gps_table, mc_gps
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
from .seeding import substream
from .simlab import (
    _GPS_STREAM,
    DgpSpec,
    _check_study,
    _check_workers,
    _interval,
    check_request,
    edges_cut_sweep,
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


def _section(cfg: dict, name: str, *, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing the {name!r} section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return sec


_REQUIRED = object()  # the default of a key the section must give


def _value(section: dict, key: str, type_: type, where: str, default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{where} is missing {key!r}")
        return default
    value = section[key]
    if type_ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, type_) or (isinstance(value, bool) and type_ is not bool):
        raise ConfigError(f"{where}.{key} must be {type_.__name__}")
    return value


def _read(cfg: dict, name: str, schemas: dict, kind=None, *, kind_key: str = "kind",
          required: bool = True, note: str = "") -> dict:
    """The section `name` as {key: value}, typed and with defaults filled in.

    A schema maps each key to (type, default), with `_REQUIRED` as the
    default of a key the section must give. A section without kinds
    passes its schema. A section with kinds passes {kind: schema} and
    its default `kind`, which the section's `kind_key` overrides, or, for
    `data`, a function of the section that gives its mode; the values
    hold the kind under `kind_key`. A key no kind reads, an unknown kind
    and a key only other kinds read are config errors; `note` follows
    the kind in the last message.
    """
    sec = _section(cfg, name, required=required)
    kinds = {None: schemas} if kind is None else schemas
    keyed = isinstance(kind, str)
    unknown = sorted(set(sec) - set().union(*kinds.values()) - ({kind_key} if keyed else set()))
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {', '.join(unknown)}")
    if keyed:
        kind = _value(sec, kind_key, str, name, kind)
    elif kind is not None:
        kind = kind(sec)
    if kind not in kinds:
        raise ConfigError(f"unknown {name} {kind_key} {kind!r}")
    unread = sorted(set(sec) - set(kinds[kind]) - {kind_key})
    if unread:
        raise ConfigError(f"{name} keys not read for {kind_key} {kind}{note}: {', '.join(unread)}")
    values = {key: _value(sec, key, type_, name, default)
              for key, (type_, default) in kinds[kind].items()}
    return values if kind is None else {kind_key: kind, **values}


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


# -- section schemas and builders ------------------------------------------------

_SYNTH = {
    "n_outcome": (int, _REQUIRED),
    "m_diversion": (int, _REQUIRED),
    "deg_min": (int, 1),
    "deg_max": (int, 1),
}
_GRAPH = {
    "external-file": {"path": (str, _REQUIRED), "normalize": (bool, False)},
    "uniform-degree": _SYNTH,
    "blocks": {**_SYNTH, "n_blocks": (int, 1), "cross_share": (float, 0.0)},
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
    note = " in a sweep, whose cut_shares set the cross share" if sweep else ""
    values = _read(cfg, "graph", _GRAPH, "blocks" if sweep else "external-file", note=note)
    kind = values["kind"]
    if sweep:
        if kind == "external-file":
            raise ConfigError("sweep needs a synthetic graph recipe, not an external file")
        if "cross_share" in cfg["graph"]:
            raise ConfigError(f"graph keys not read for kind {kind}{note}: cross_share")
        values.update(n_blocks=cfg["graph"].get("n_blocks", 10), cross_share=sweep_share)
    if kind == "external-file":
        return values["path"], values["normalize"]
    try:
        return GraphSpec(**values)
    except ValidationError as exc:
        raise ConfigError(f"graph: {exc}") from exc


def build_graph(source, seed: int) -> tuple[BipartiteGraph, IdMap]:
    """Synthesize a `GraphSpec` or load a (path, normalize) edge list."""
    if isinstance(source, GraphSpec):
        graph = synth_graph(source, substream(seed, 10))
        return graph, IdMap.identity(graph.n_outcome, graph.m_diversion)
    path, normalize = source
    return load_edge_list(path, normalize=normalize)


_DESIGN = {
    "bernoulli": {"p": (float, 0.5)},
    "bernoulli-heterogeneous": {"p_file": (str, _REQUIRED)},
    "completely-randomized": {"k": (int, _REQUIRED)},
}


def _parse_design(cfg: dict, *, required: bool = True) -> AssignmentDesign | str:
    """The `design` section, checked before any graph is loaded or synthesized.

    Gives the design, or the `p_file` path of a `bernoulli-heterogeneous`
    design, whose probabilities need the graph's ids. A value the design
    constructors refuse is a config error.
    """
    values = _read(cfg, "design", _DESIGN, "bernoulli", required=required)
    kind = values.pop("kind")
    if kind == "bernoulli-heterogeneous":
        return values["p_file"]
    try:
        if kind == "bernoulli":
            return AssignmentDesign.bernoulli(**values)
        return AssignmentDesign.completely_randomized(**values)
    except ValidationError as exc:
        raise ConfigError(f"design: {exc}") from exc


def build_design(parsed: AssignmentDesign | str, id_map: IdMap | None) -> AssignmentDesign:
    """The parsed design; a `p_file` path is loaded against the graph's ids."""
    if isinstance(parsed, AssignmentDesign):
        return parsed
    if id_map is None:
        raise ConfigError("bernoulli-heterogeneous requires a graph with ids")
    return AssignmentDesign.bernoulli_heterogeneous(load_probability_file(parsed, id_map))


_GPS = {
    "auto": {},
    "exact": {},
    "monte-carlo": {"bins": (int, MC_BINS), "n_draws": (int, MC_DRAWS)},
}


def _parse_gps(cfg: dict) -> dict:
    """The `gps` section as its mode and `mc_gps` settings, checked before any computation."""
    gps = _read(cfg, "gps", _GPS, "auto", kind_key="mode", required=False)
    for key in ("bins", "n_draws"):
        if gps.get(key, 1) < 1:
            raise ConfigError(f"gps.{key} must be a positive int, got {gps[key]}")
    return gps


def build_gps(gps: dict, graph, design, seed: int):
    if gps["mode"] == "exact":
        return exact_gps_table(graph, design)
    if gps["mode"] == "monte-carlo":
        return mc_gps(graph, design, n_bins=gps["bins"], n_draws=gps["n_draws"],
                      rng=substream(seed, _GPS_STREAM))
    return default_gps_table(graph, design, rng=substream(seed, _GPS_STREAM))


def _parse_estimators(cfg: dict, b_replicates: int, level: float):
    """The `estimators` list and the `intervals` map, checked by `simlab.check_request`."""
    return check_request(cfg.get("estimators", ["naive-ols"]), cfg.get("intervals"),
                         b_replicates, level)


def _resolve_seed(cfg: dict, args) -> int:
    """The --seed flag, else the config's `seed` key; either must be a nonnegative int."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        where = "--seed" if args.seed is not None else "seed"
        raise ConfigError(f"{where} must be a nonnegative integer, got {seed!r}")
    return seed


# -- commands ---------------------------------------------------------------------
#
# Each command checks every section it reads before it builds anything,
# writes its outputs into `out_dir` and returns (output names, notes).


def cmd_graph_gen(cfg: dict, args, seed: int, out_dir: Path):
    source = _parse_graph(cfg)
    if not isinstance(source, GraphSpec):
        raise ConfigError("graph-gen needs a synthetic graph spec, not an external file")
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
    print(f"graph-gen: wrote {graph_path} ({graph.n_outcome}x{graph.m_diversion}, {graph.nnz} edges)")
    return ["graph.csv", "graph_summary.json"], None


def cmd_gps(cfg: dict, args, seed: int, out_dir: Path):
    gps, source, parsed_design = _parse_gps(cfg), _parse_graph(cfg), _parse_design(cfg)
    graph, id_map = build_graph(source, seed)
    design = build_design(parsed_design, id_map)
    table = build_gps(gps, graph, design, seed)
    gps_path = out_dir / "gps.csv"
    table.write_csv(gps_path, id_map=id_map)
    print(f"gps: wrote {gps_path} ({table.n_units} units, mode {table.mode})")
    return ["gps.csv"], None


_DATA = {
    "fixture": {"fixture": (str, _REQUIRED), "n_single": (int, 200), "n_double": (int, 200)},
    "files": {"outcomes": (str, _REQUIRED), "assignment": (str, None), "exposures": (str, None)},
}


def _data_mode(sec: dict) -> str:
    return "fixture" if "fixture" in sec else "files"


def _build_estimate_inputs(cfg: dict, gps: dict, seed: int) -> Dataset:
    """The dataset of a fixture or of data files, with every section checked first.

    A fixture builds its own graph and takes an optional `bernoulli`
    design (p = 0.5 without one); files come with the config's graph and
    design. A key or section the mode does not read is a config error.
    """
    data = _read(cfg, "data", _DATA, _data_mode, kind_key="mode")
    if data["mode"] == "fixture":
        if data["fixture"] != "simple-example":
            raise ConfigError(f"unknown fixture {data['fixture']!r}")
        if "graph" in cfg:
            raise ConfigError("the simple-example fixture builds its own graph; drop `graph`")
        design = _parse_design(cfg, required=False)
        if not isinstance(design, AssignmentDesign) or design.kind != "bernoulli":
            kind = getattr(design, "kind", "bernoulli-heterogeneous")
            raise ConfigError(f"the simple-example fixture needs a bernoulli design, not {kind}")
        example = simple_example(n_single=data["n_single"], n_double=data["n_double"], p=design.p)
        graph, design = example.graph, example.design
        z = draw_assignments(design, graph.m_diversion, 1, substream(seed, 12))[:, 0]
        exposure = linear_exposure(graph, z)
        y = example.outcomes(exposure)
        return Dataset.build(graph, build_gps(gps, graph, design, seed), y, exposure)

    if data["assignment"] is not None and data["exposures"] is not None:
        raise ConfigError("give either data.assignment or data.exposures, not both")
    if data["assignment"] is None and data["exposures"] is None:
        raise ConfigError("data is missing 'assignment'")
    source, parsed_design = _parse_graph(cfg), _parse_design(cfg)
    graph, id_map = build_graph(source, seed)
    design = build_design(parsed_design, id_map)
    y = _read_id_column(data["outcomes"], "outcome_id", "y", id_map.outcome_ids)
    if data["exposures"] is not None:
        exposure = _read_id_column(data["exposures"], "outcome_id", "exposure", id_map.outcome_ids)
    else:
        z = _read_id_column(data["assignment"], "diversion_id", "z", id_map.diversion_ids,
                            (lambda z: z == 0 or z == 1, "must be 0 or 1"))
        exposure = linear_exposure(graph, z.astype(np.uint8))
    return Dataset.build(graph, build_gps(gps, graph, design, seed), y, exposure)


def cmd_estimate(cfg: dict, args, seed: int, out_dir: Path):
    b = _value(cfg, "b_replicates", int, "config", 1000)
    level = _value(cfg, "level", float, "config", 0.95)
    ests, intervals = _parse_estimators(cfg, b, level)
    grid = cfg.get("grid")
    if grid is not None:
        grid = _unit_levels(grid, "grid", ascending=True)

    data = _build_estimate_inputs(cfg, _parse_gps(cfg), seed)
    rows: list[dict] = []
    rng = substream(seed, 13)
    no_interval = {"interval_method": "", "lower": "", "upper": "",
                   "interval_level": "", "b_replicates": ""}
    for est in ests:
        name = est.name
        point = float(est.point(data))
        rows.append({"estimator": name, "quantity": "ate", "level": "",
                     "estimate": point, **no_interval})
        for method in intervals.get(name, ()):
            iv = _interval(data, est, method, b, level, rng, None)
            rows.append({
                "estimator": name, "quantity": "ate", "level": "",
                "estimate": iv.estimate, "interval_method": method,
                "lower": iv.lower, "upper": iv.upper,
                "interval_level": iv.level, "b_replicates": iv.n_replicates,
            })
        if grid is not None and est.surface is not None:
            curve = dose_response(est.surface(data), data.gps, np.asarray(grid, dtype=np.float64))
            for e, mu in zip(curve.grid, curve.mu_hat):
                rows.append({"estimator": name, "quantity": "mu", "level": float(e),
                             "estimate": float(mu), **no_interval})
    table_path = out_dir / f"estimates.{args.format}"
    (_write_json if args.format == "json" else _write_csv_rows)(rows, table_path)
    print(f"estimate: wrote {table_path} ({len(rows)} rows)")
    return [table_path.name], None


_STUDY = {
    "label": (str, ""),
    "effect": (str, "homogeneous"),
    "sigma2_eps": (float, 0.0),
    "sigma2_gamma": (float, 0.0),
    "n_sims": (int, 100),
    "b_replicates": (int, 200),
    "level": (float, 0.95),
}


def cmd_simulate(cfg: dict, args, seed: int, out_dir: Path):
    _check_workers(args.workers)
    study = _read(cfg, "study", _STUDY)
    n_sims, b, level = study.pop("n_sims"), study.pop("b_replicates"), study.pop("level")
    _check_study(study["effect"], study["sigma2_eps"], study["sigma2_gamma"], n_sims)
    ests, intervals = _parse_estimators(cfg, b, level)
    gps, source, parsed_design = _parse_gps(cfg), _parse_graph(cfg), _parse_design(cfg)
    graph, id_map = build_graph(source, seed)
    design = build_design(parsed_design, id_map)
    dgp = DgpSpec(graph, design, **study)

    def progress(done: int, total: int) -> None:
        if done == total or done % max(1, total // 10) == 0:
            print(f"simulate: {done}/{total} replicates", file=sys.stderr)

    result = run_study(
        dgp, ests, intervals,
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
    print(f"simulate: wrote {csv_path} and {json_path} ({result.n_sims} replicates)")
    return ["study.csv", "study.json"], notes


_SWEEP = {
    "cut_shares": (list, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
    "sigma2_eps": (float, 0.5),
    "sigma2_gamma": (float, 0.5),
    "estimator": (str, "naive-ols"),
    "n_sims": (int, 100),
    "b_replicates": (int, 200),
    "level": (float, 0.95),
}


def cmd_sweep(cfg: dict, args, seed: int, out_dir: Path):
    sweep = _read(cfg, "sweep", _SWEEP)
    shares = _unit_levels(sweep.pop("cut_shares"), "sweep.cut_shares", ascending=False)
    # the largest share validates the recipe; the sweep sets each share itself
    spec = _parse_graph(cfg, sweep_share=max(shares))
    design = build_design(_parse_design(cfg), None)
    # edges_cut_sweep checks the interval settings before it draws a graph
    rows = edges_cut_sweep(
        spec, shares, design=design, master_seed=seed, workers=args.workers, **sweep
    )
    sweep_path = out_dir / "sweep.csv"
    _write_csv_rows(rows, sweep_path)
    print(f"sweep: wrote {sweep_path} ({len(rows)} rows)")
    return ["sweep.csv"], None


# each command and the top-level keys it reads besides `seed` and `out`
_COMMANDS = {
    "graph-gen": (cmd_graph_gen, ("graph",)),
    "gps": (cmd_gps, ("graph", "design", "gps")),
    "estimate": (cmd_estimate, ("graph", "design", "gps", "data", "estimators", "intervals",
                                "b_replicates", "level", "grid")),
    "simulate": (cmd_simulate, ("graph", "design", "gps", "study", "estimators", "intervals")),
    "sweep": (cmd_sweep, ("graph", "design", "sweep")),
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
        declared = cfg.pop("command", None)
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r} but {args.command!r} was invoked"
            )
        command, sections = _COMMANDS[args.command]
        unknown = sorted(set(cfg) - {"seed", "out", *sections})
        if unknown:
            raise ConfigError(f"unknown keys in config: {', '.join(unknown)}")
        seed = _resolve_seed(cfg, args)
        out_dir = Path(args.out or _value(cfg, "out", str, "config", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, notes = command(cfg, args, seed, out_dir)
        provenance = {
            "command": args.command,
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "seed": seed,
            "package": "bipexp",
            "version": __version__,
            "outputs": outputs,
        }
        if notes:
            provenance["notes"] = notes
        _write_json(provenance, out_dir / "provenance.json")
        return 0
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
