"""End-to-end command line runs in temp directories.

Each test drives `main` with a real YAML config and checks outputs,
provenance sidecars, exit codes, and the JSON error records on stderr.
"""

import csv
import hashlib
import json

import pytest
import yaml

from bipexp import __version__, cli, simlab
from bipexp.cli import PRESETS, _COMMANDS, _parse_graph, load_config, main
from bipexp.graph import GraphSpec
from conftest import BAD_EDGE_LISTS

EDGES_CSV = (
    "outcome_id,diversion_id,weight\n"
    "a,x,1.0\n"
    "b,x,0.5\n"
    "b,y,0.5\n"
    "c,y,1.0\n"
)


def write_yaml(path, mapping) -> None:
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def stderr_record(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def graph_gen_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "graph": {
            "kind": "uniform-degree", "n_outcome": 30, "m_diversion": 10,
            "deg_min": 1, "deg_max": 3,
        },
    }
    cfg.update(overrides)
    path = tmp_path / "graph_gen.yaml"
    write_yaml(path, cfg)
    return path


# -- graph-gen ----------------------------------------------------------------


def test_graph_gen_outputs_and_provenance(tmp_path, capsys):
    cfg_path = graph_gen_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["graph-gen", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "graph-gen: wrote" in capsys.readouterr().out

    summary = json.loads((out / "graph_summary.json").read_text())
    assert summary["n_outcome"] == 30
    assert summary["m_diversion"] == 10
    assert summary["row_normalized"] is True
    hist = summary["degree_histogram"]
    assert set(hist) <= {"1", "2", "3"}
    assert sum(hist.values()) == 30
    assert summary["n_edges"] == sum(int(d) * c for d, c in hist.items())

    prov = json.loads((out / "provenance.json").read_text())
    assert prov["command"] == "graph-gen"
    assert prov["seed"] == 5
    assert prov["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert prov["version"] == __version__
    assert prov["outputs"] == ["graph.csv", "graph_summary.json"]

    edge_rows = read_rows(out / "graph.csv")
    assert len(edge_rows) == summary["n_edges"]
    assert set(edge_rows[0]) == {"outcome_id", "diversion_id", "weight"}


def test_graph_gen_deterministic_and_seed_sensitive(tmp_path):
    cfg_path = graph_gen_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["graph-gen", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["graph-gen", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert (a / "graph.csv").read_bytes() == (b / "graph.csv").read_bytes()
    assert main(["graph-gen", "--config", str(cfg_path), "--out", str(c), "--seed", "9"]) == 0
    assert (a / "graph.csv").read_bytes() != (c / "graph.csv").read_bytes()
    assert json.loads((c / "provenance.json").read_text())["seed"] == 9


def test_one_block_cross_share_exits_2(tmp_path, capsys):
    # the graph section's n_blocks defaults to 1, which leaves no block to
    # rewire to; this used to hang
    graph = {"kind": "blocks", "n_outcome": 10, "m_diversion": 5, "deg_min": 1, "deg_max": 2,
             "cross_share": 0.5}
    cfg_path = graph_gen_config(tmp_path, graph=graph)
    assert main(["graph-gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert "cross_share" in record["message"] and "n_blocks" in record["message"]

    sweep_path = tmp_path / "sweep.yaml"
    write_yaml(sweep_path, {
        # no cross_share key: the sweep sets the share from cut_shares
        "graph": {**{k: v for k, v in graph.items() if k != "cross_share"}, "n_blocks": 1},
        "design": {"kind": "bernoulli", "p": 0.5},
        "sweep": {"cut_shares": [0.0, 0.25], "n_sims": 2, "b_replicates": 50},
    })
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "s")]) == 2
    assert "n_blocks" in stderr_record(capsys)["message"]


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg_path = graph_gen_config(tmp_path)
    out = tmp_path / "o"
    assert main(["graph-gen", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert "--seed must be a nonnegative integer, got -1" in record["message"]
    assert not out.exists()


RECIPE = {"kind": "uniform-degree", "n_outcome": 40, "m_diversion": 12, "deg_min": 1, "deg_max": 3}
SWEEP_RECIPE = {"kind": "blocks", "n_outcome": 40, "m_diversion": 20, "deg_min": 1, "deg_max": 2,
                "n_blocks": 5}
BAD_GRAPH_SECTIONS = [
    ("gps", {**RECIPE, "path": "edges.csv"}, "graph keys not read for kind uniform-degree: path"),
    ("graph-gen", {**RECIPE, "normalize": False},
     "graph keys not read for kind uniform-degree: normalize"),
    ("simulate", {**RECIPE, "n_blocks": 4}, "graph keys not read for kind uniform-degree: n_blocks"),
    ("gps", {"path": "edges.csv", "n_outcome": 4, "deg_max": 2},
     "graph keys not read for kind external-file: deg_max, n_outcome"),
    ("sweep", {**SWEEP_RECIPE, "path": "edges.csv"}, "not read for kind blocks in a sweep"),
    ("sweep", {**SWEEP_RECIPE, "normalize": True}, "in a sweep, whose cut_shares set the cross "
     "share: normalize"),
    ("sweep", {**SWEEP_RECIPE, "cross_share": 0.2}, "in a sweep, whose cut_shares set the cross "
     "share: cross_share"),
    ("sweep", {"kind": "external-file", "path": "edges.csv"},
     "sweep needs a synthetic graph recipe, not an external file"),
]


@pytest.mark.parametrize("command, section, message", BAD_GRAPH_SECTIONS)
def test_graph_keys_a_kind_does_not_read_exit_2_before_any_graph(
    tmp_path, capsys, monkeypatch, command, section, message
):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was loaded or synthesized before the section was checked")

    for target in ("bipexp.cli.synth_graph", "bipexp.cli.load_edge_list",
                   "bipexp.simlab.synth_graph"):
        monkeypatch.setattr(target, no_graph)
    (tmp_path / "edges.csv").write_text(EDGES_CSV)
    monkeypatch.chdir(tmp_path)
    cfg = {"graph": section, "design": {"kind": "bernoulli", "p": 0.5}}
    if command == "graph-gen":
        del cfg["design"]
    if command == "sweep":
        cfg["sweep"] = {"cut_shares": [0.0, 0.25], "n_sims": 2, "b_replicates": 50}
    if command == "simulate":
        cfg["study"] = {"n_sims": 2}
    write_yaml(tmp_path / "cfg.yaml", cfg)
    assert main([command, "--config", "cfg.yaml", "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert message in record["message"]


def test_graph_gen_rejects_external_graph(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(EDGES_CSV)
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, {"graph": {"path": str(edges)}})
    rc = main(["graph-gen", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "synthetic" in record["message"]


def test_missing_graph_file_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, {"graph": {"path": str(tmp_path / "nope.csv")},
                          "design": {"kind": "bernoulli"}})
    rc = main(["gps", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert stderr_record(capsys)["exit_code"] == 3


# -- gps ---------------------------------------------------------------------


def external_graph_config(tmp_path, gps_section=None):
    edges = tmp_path / "edges.csv"
    edges.write_text(EDGES_CSV)
    cfg = {"graph": {"path": str(edges)}, "design": {"kind": "bernoulli", "p": 0.5}}
    if gps_section is not None:
        cfg["gps"] = gps_section
    path = tmp_path / "cfg.yaml"
    write_yaml(path, cfg)
    return path


def test_gps_exact_table(tmp_path):
    cfg_path = external_graph_config(tmp_path, {"mode": "exact"})
    out = tmp_path / "out"
    assert main(["gps", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "gps.csv")
    assert {r["outcome_id"] for r in rows} == {"a", "b", "c"}
    for unit in ("a", "b", "c"):
        total = sum(float(r["probability"]) for r in rows if r["outcome_id"] == unit)
        assert total == pytest.approx(1.0, abs=1e-12)
    # atoms: each support point is a zero-width bucket
    assert all(r["exposure_lo"] == r["exposure_hi"] for r in rows)
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["command"] == "gps"
    assert prov["outputs"] == ["gps.csv"]


@pytest.mark.parametrize("content, error, message", [
    (b"diversion_id,p\nx,0.5\n" + b"y" * 200_000 + b",0.5\n", "ParseError",
     "line 3: {path}: field larger than field limit (131072)"),
    (b"diversion_id,p\nx,0.5\ny,1.5\n", "ValidationError",
     "line 3: {path}: p '1.5' of diversion_id 'y' must lie strictly inside (0, 1)"),
    (b"diversion_id,p\nx,0.5\ny,\xff\n", "ParseError",
     "{path}: not UTF-8 text: invalid start byte"),
], ids=["long-field", "range", "not-utf8"])
def test_gps_names_the_file_of_a_bad_probability(tmp_path, capsys, content, error, message):
    path = tmp_path / "p.csv"
    path.write_bytes(content)
    cfg_path = external_graph_config(tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["design"] = {"kind": "bernoulli-heterogeneous", "p_file": str(path)}
    write_yaml(cfg_path, cfg)
    out = tmp_path / "o"
    assert main(["gps", "--config", str(cfg_path), "--out", str(out)]) == 3
    record = stderr_record(capsys)
    assert record["error"] == error
    assert record["message"] == message.format(path=path)
    assert not (out / "gps.csv").exists()


def test_gps_monte_carlo_mode(tmp_path):
    cfg_path = external_graph_config(tmp_path, {"mode": "monte-carlo", "bins": 10, "n_draws": 2000})
    out = tmp_path / "out"
    assert main(["gps", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "gps.csv")
    assert all(float(r["exposure_lo"]) < float(r["exposure_hi"]) for r in rows)
    for unit in ("a", "b", "c"):
        total = sum(float(r["probability"]) for r in rows if r["outcome_id"] == unit)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_gps_completely_randomized_is_exact(tmp_path):
    # one of {x, y} treated: a sees x with probability 1/2, and b always sees
    # exactly one of its two half-weight neighbors
    outputs = {}
    for mode in ("exact", "auto", "monte-carlo"):
        section = {"mode": mode, "n_draws": 2000} if mode == "monte-carlo" else {"mode": mode}
        cfg_path = external_graph_config(tmp_path, section)
        cfg = yaml.safe_load(cfg_path.read_text())
        cfg["design"] = {"kind": "completely-randomized", "k": 1}
        write_yaml(cfg_path, cfg)
        out = tmp_path / mode
        assert main(["gps", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs[mode] = (out / "gps.csv").read_bytes()
    assert outputs["auto"] == outputs["exact"]
    rows = read_rows(tmp_path / "exact" / "gps.csv")
    got = [(r["outcome_id"], float(r["exposure_lo"]), float(r["exposure_hi"]),
            float(r["probability"])) for r in rows]
    assert got == [("a", 0.0, 0.0, 0.5), ("a", 1.0, 1.0, 0.5), ("b", 0.5, 0.5, 1.0),
                   ("c", 0.0, 0.0, 0.5), ("c", 1.0, 1.0, 0.5)]
    # the simulator stays available on request
    mc_rows = read_rows(tmp_path / "monte-carlo" / "gps.csv")
    assert all(float(r["exposure_lo"]) < float(r["exposure_hi"]) for r in mc_rows)


def test_gps_unknown_mode_exits_2(tmp_path, capsys):
    cfg_path = external_graph_config(tmp_path, {"mode": "guess"})
    assert main(["gps", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown gps mode" in stderr_record(capsys)["message"]


BAD_GPS_SECTIONS = [
    ({"mode": "monte-carlo", "n_draws": 0}, "gps.n_draws must be a positive int, got 0"),
    ({"mode": "monte-carlo", "bins": 0}, "gps.bins must be a positive int, got 0"),
    ({"mode": "monte-carlo", "bins": 2.5}, "gps.bins must be int"),
    ({"mode": "exact", "bins": 10}, "gps keys not read for mode exact: bins"),
    ({"n_draws": 500}, "gps keys not read for mode auto: n_draws"),
    ({"mode": "monte-carlo", "tol": 1e-9}, "unknown keys in gps: tol"),
]


@pytest.mark.parametrize("command", ["gps", "estimate", "simulate"])
@pytest.mark.parametrize("section, message", BAD_GPS_SECTIONS)
def test_bad_gps_section_exits_2_before_the_graph_is_built(
    tmp_path, capsys, monkeypatch, command, section, message
):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the gps section was checked")

    monkeypatch.setattr("bipexp.cli.build_graph", no_graph)
    cfg = {
        "graph": {"kind": "uniform-degree", "n_outcome": 40, "m_diversion": 12,
                  "deg_min": 1, "deg_max": 3},
        "design": {"kind": "bernoulli", "p": 0.5},
        "gps": section,
    }
    if command == "estimate":
        cfg["data"] = {"outcomes": str(tmp_path / "y.csv"), "assignment": str(tmp_path / "z.csv")}
    if command == "simulate":
        cfg["study"] = {"n_sims": 2}
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert message in record["message"]
    assert not (out / "gps.csv").exists()


@pytest.mark.parametrize(
    "design, message",
    [
        ({"kind": "completely-randomized", "k": 3, "p": 0.9},
         "design keys not read for kind completely-randomized: p"),
        ({"kind": "bernoulli", "p": 0.5, "k": 1}, "design keys not read for kind bernoulli: k"),
        ({"kind": "bernoulli-heterogeneous", "p_file": "nowhere.csv", "p": 0.5},
         "design keys not read for kind bernoulli-heterogeneous: p"),
    ],
)
def test_gps_design_keys_a_kind_does_not_read_exit_2(tmp_path, capsys, design, message):
    cfg_path = external_graph_config(tmp_path)
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["design"] = design
    write_yaml(cfg_path, cfg)
    out = tmp_path / "o"
    assert main(["gps", "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert message in record["message"]
    assert not (out / "gps.csv").exists()


def design_first_config(tmp_path, command, design, graph):
    cfg = {"graph": graph, "design": design}
    if command == "estimate":
        cfg["data"] = {"outcomes": str(tmp_path / "y.csv"), "assignment": str(tmp_path / "z.csv")}
    if command == "simulate":
        cfg["study"] = {"n_sims": 2}
    if command == "sweep":
        cfg["sweep"] = {"cut_shares": [0.0, 0.25], "n_sims": 2, "b_replicates": 50}
    path = tmp_path / "cfg.yaml"
    write_yaml(path, cfg)
    return path


@pytest.mark.parametrize("command", ["gps", "simulate", "estimate"])
def test_design_is_checked_before_a_missing_graph_file(tmp_path, capsys, monkeypatch, command):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was loaded before the design section was checked")

    monkeypatch.setattr("bipexp.cli.build_graph", no_graph)
    design = {"kind": "completely-randomized", "k": 3, "p": 0.9}
    graph = {"path": str(tmp_path / "missing.csv")}
    cfg_path = design_first_config(tmp_path, command, design, graph)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert record["message"] == "design keys not read for kind completely-randomized: p"
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["gps", "simulate", "estimate", "sweep"])
@pytest.mark.parametrize(
    "design, message",
    [
        ({"kind": "bernoulli", "p": 1.5}, "design: bernoulli probability must lie in (0, 1), got 1.5"),
        ({"kind": "completely-randomized", "k": 0}, "design: k must be a positive integer, got 0"),
    ],
    ids=["p-1.5", "k-0"],
)
def test_design_values_the_constructors_refuse_exit_2_before_any_graph(
    tmp_path, capsys, monkeypatch, command, design, message
):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built before the design was checked")

    for target in ("bipexp.cli.build_graph", "bipexp.simlab.synth_graph"):
        monkeypatch.setattr(target, no_graph)
    graph = dict(SWEEP_RECIPE) if command == "sweep" else dict(RECIPE)
    cfg_path = design_first_config(tmp_path, command, design, graph)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert record["message"] == message
    assert not any(out.iterdir())


def test_completely_randomized_k_above_m_still_needs_the_graph(tmp_path, capsys):
    cfg_path = design_first_config(
        tmp_path, "gps", {"kind": "completely-randomized", "k": 13}, dict(RECIPE)
    )
    assert main(["gps", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    record = stderr_record(capsys)
    assert record["error"] == "ValidationError"
    assert "k=13 exceeds number of diversion units 12" in record["message"]


def test_gps_exact_above_degree_cap_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, {
        "graph": {"kind": "uniform-degree", "n_outcome": 5, "m_diversion": 30,
                  "deg_min": 25, "deg_max": 25},
        "design": {"kind": "completely-randomized", "k": 10},
        "gps": {"mode": "exact"},
    })
    out = tmp_path / "out"
    assert main(["gps", "--config", str(cfg_path), "--out", str(out)]) == 3
    record = stderr_record(capsys)
    assert record["error"] == "DataError" and record["exit_code"] == 3
    assert "unit 0 has degree 25 > cap 20" in record["message"]
    assert "mc_gps" in record["message"]
    assert not (out / "gps.csv").exists()


# -- estimate -----------------------------------------------------------------


def fixture_config(tmp_path, **extra):
    cfg = {
        "seed": 3,
        "data": {"fixture": "simple-example", "n_single": 60, "n_double": 60},
        "estimators": ["naive-mean", "ht", "gps-cell"],
        "grid": [0.0, 1.0],
    }
    cfg.update(extra)
    path = tmp_path / "estimate.yaml"
    write_yaml(path, cfg)
    return path


def test_estimate_fixture_table(tmp_path):
    cfg_path = fixture_config(tmp_path)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "estimates.csv")
    ate_rows = {r["estimator"]: r for r in rows if r["quantity"] == "ate"}
    mu_rows = [r for r in rows if r["quantity"] == "mu"]
    assert set(ate_rows) == {"naive-mean", "ht", "gps-cell"}
    assert [r["estimator"] for r in mu_rows] == ["gps-cell", "gps-cell"]
    # noise-free two-type outcomes: the cell-mean curve hits 0 and 1/2 exactly
    mu = {float(r["level"]): float(r["estimate"]) for r in mu_rows}
    assert mu[0.0] == pytest.approx(0.0, abs=1e-12)
    assert mu[1.0] == pytest.approx(0.5, abs=1e-12)
    assert float(ate_rows["gps-cell"]["estimate"]) == pytest.approx(0.5, abs=1e-12)
    assert 0.0 < float(ate_rows["naive-mean"]["estimate"]) < 0.5

    again = tmp_path / "again"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(again)]) == 0
    assert (out / "estimates.csv").read_bytes() == (again / "estimates.csv").read_bytes()


def test_estimate_interval_rows(tmp_path):
    cfg_path = fixture_config(
        tmp_path,
        estimators=["naive-ols"],
        intervals={"naive-ols": ["naive-bootstrap"]},
        b_replicates=60,
        level=0.9,
        grid=None,
    )
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "estimates.csv")
    assert len(rows) == 2
    point, iv = rows
    assert point["interval_method"] == ""
    assert iv["interval_method"] == "naive-bootstrap"
    assert float(iv["lower"]) < float(iv["upper"])
    assert float(iv["interval_level"]) == pytest.approx(0.9)
    assert int(iv["b_replicates"]) == 60


def test_estimate_kernel_fit_over_budget_exits_3(tmp_path, capsys, monkeypatch):
    from bipexp import numerics

    monkeypatch.setattr(numerics, "KRR_MAX_POINTS", 2)
    cfg_path = fixture_config(tmp_path, estimators=["gps-krr"])
    assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    record = stderr_record(capsys)
    assert record["error"] == "DataError" and record["exit_code"] == 3
    assert "budget of 2 (KRR_MAX_POINTS)" in record["message"]


def test_estimate_json_format(tmp_path):
    cfg_path = fixture_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(out), "--format", "json"])
    assert rc == 0
    rows = json.loads((out / "estimates.json").read_text())
    assert isinstance(rows, list)
    assert rows[0]["quantity"] == "ate"


def test_estimate_fixture_reads_the_design_probability(tmp_path):
    # at p = 0.9 no double is unexposed, so no cell-mean estimator here
    settings = {"estimators": ["naive-ols", "ht"], "grid": None}
    estimates = {}
    for p in (0.5, 0.9):
        cfg_path = fixture_config(tmp_path, design={"kind": "bernoulli", "p": p}, **settings)
        out = tmp_path / f"p{p}"
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
        estimates[p] = (out / "estimates.csv").read_bytes()
    assert estimates[0.5] != estimates[0.9]
    # no design section keeps the fixture's own p = 0.5
    cfg_path = fixture_config(tmp_path, **settings)
    out = tmp_path / "default"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "estimates.csv").read_bytes() == estimates[0.5]


@pytest.mark.parametrize(
    "extra, data, message",
    [
        ({"graph": {"kind": "nonsense"}}, {}, "builds its own graph"),
        ({"design": {"kind": "completely-randomized", "k": 10}}, {},
         "needs a bernoulli design, not completely-randomized"),
        # the fixture refuses the kind before the design's probability file is read
        ({"design": {"kind": "bernoulli-heterogeneous", "p_file": "p.csv"}}, {},
         "the simple-example fixture needs a bernoulli design, not bernoulli-heterogeneous"),
        ({"design": {"kind": "bernoulli", "p": 0.5, "k": 3, "p_file": "nowhere.csv"}}, {},
         "design keys not read for kind bernoulli: k, p_file"),
        ({}, {"outcomes": "y.csv"}, "data keys not read for mode fixture: outcomes"),
        ({}, {"assignment": "z.csv"}, "data keys not read for mode fixture: assignment"),
        ({}, {"exposures": "e.csv"}, "data keys not read for mode fixture: exposures"),
    ],
)
def test_estimate_fixture_rejects_what_it_does_not_read(tmp_path, capsys, extra, data, message):
    cfg_path = fixture_config(tmp_path, **extra)
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["data"].update(data)
    write_yaml(cfg_path, cfg)
    out = tmp_path / "o"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert message in record["message"]
    assert not (out / "estimates.csv").exists()


def file_inputs_config(tmp_path, outcomes_rows, z_rows=("x,1", "y,0")):
    edges = tmp_path / "edges.csv"
    edges.write_text(EDGES_CSV)
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("\n".join(outcomes_rows) + "\n")
    assignment = tmp_path / "assignment.csv"
    assignment.write_text("\n".join(("diversion_id,z",) + tuple(z_rows)) + "\n")
    cfg = {
        "graph": {"path": str(edges)},
        "design": {"kind": "bernoulli", "p": 0.5},
        "data": {"outcomes": str(outcomes), "assignment": str(assignment)},
        "estimators": ["naive-mean"],
    }
    path = tmp_path / "cfg.yaml"
    write_yaml(path, cfg)
    return path


def test_estimate_joins_files_by_external_id(tmp_path):
    # rows deliberately out of graph order; z = (x on, y off) makes
    # exposures a=1, b=1/2, c=0 so naive-mean is y_a - y_c = -2
    cfg_path = file_inputs_config(tmp_path, ("outcome_id,y", "c,4.0", "a,2.0", "b,5.0"))
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "estimates.csv")
    assert float(rows[0]["estimate"]) == pytest.approx(-2.0, abs=1e-12)


def test_estimate_missing_outcome_exits_3(tmp_path, capsys):
    cfg_path = file_inputs_config(tmp_path, ("outcome_id,y", "a,2.0", "b,5.0"))
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "missing" in stderr_record(capsys)["message"]


def test_estimate_bad_header_exits_3(tmp_path, capsys):
    cfg_path = file_inputs_config(tmp_path, ("outcome,y", "a,2.0", "b,5.0", "c,4.0"))
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert stderr_record(capsys)["error"] == "ParseError"


@pytest.mark.parametrize("text, error, line, message", BAD_EDGE_LISTS)
def test_estimate_names_a_malformed_edge_list(tmp_path, capsys, text, error, line, message):
    cfg_path = file_inputs_config(tmp_path, ("outcome_id,y", "a,2.0", "b,5.0"))
    (tmp_path / "edges.csv").write_text(text)
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    record = stderr_record(capsys)
    assert record["error"] == error
    assert record["message"] == f"{line}: {tmp_path / 'edges.csv'}: {message}"


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, column", [("outcomes", "y"), ("exposures", "exposure")])
def test_estimate_refuses_non_finite_values_with_the_line(tmp_path, capsys, name, column, text):
    # read as they were, naive-mean and ht would write nan or inf and
    # naive-ols would die on a ValueError traceback
    files = {"outcomes": ["y", "2.0", "5.0", "4.0"], "exposures": ["exposure", "1.0", "0.5", "0.0"]}
    files[name][2] = text  # unit b, on line 3
    cfg_path = file_inputs_config(tmp_path, ())
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["estimators"] = ["naive-mean", "naive-ols", "ht"]
    del cfg["data"]["assignment"]
    for key, (header, *values) in files.items():
        path = tmp_path / f"{key}.csv"
        path.write_text("".join(
            f"{u},{v}\n" for u, v in zip(["outcome_id", *"abc"], [header, *values])))
        cfg["data"][key] = str(path)
    write_yaml(cfg_path, cfg)
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    record = stderr_record(capsys)
    assert record["error"] == "ParseError"
    assert record["message"] == f"line 3: {tmp_path / name}.csv: {column} '{text}' is not finite"


@pytest.mark.parametrize("name, content, error, message", [
    ("outcomes", b"outcome_id,y\na,2.0\nb,\xff\nc,4.0\n", "ParseError",
     "{path}: not UTF-8 text: invalid start byte"),
    ("assignment", b"diversion_id,z\nx,1\ny,2\n", "ValidationError",
     "line 3: {path}: z '2' of diversion_id 'y' must be 0 or 1"),
], ids=["not-utf8", "range"])
def test_estimate_names_the_file_of_a_bad_input(tmp_path, capsys, name, content, error, message):
    cfg_path = file_inputs_config(tmp_path, ("outcome_id,y", "a,2.0", "b,5.0", "c,4.0"))
    path = tmp_path / f"{name}.csv"
    path.write_bytes(content)
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    record = stderr_record(capsys)
    assert record["error"] == error
    assert record["message"] == message.format(path=path)


def test_estimate_rejects_exposures_plus_assignment(tmp_path, capsys):
    cfg_path = file_inputs_config(tmp_path, ("outcome_id,y", "a,2.0", "b,5.0", "c,4.0"))
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["data"]["exposures"] = cfg["data"]["assignment"]
    write_yaml(cfg_path, cfg)
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not both" in stderr_record(capsys)["message"]


@pytest.mark.parametrize("key", ["n_single", "n_double"])
def test_estimate_files_reject_fixture_keys(tmp_path, capsys, key):
    cfg_path = file_inputs_config(tmp_path, ("outcome_id,y", "a,2.0", "b,5.0", "c,4.0"))
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["data"][key] = 60
    write_yaml(cfg_path, cfg)
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert record["message"] == f"data keys not read for mode files: {key}"


def test_estimate_unknown_estimator_exits_2(tmp_path, capsys):
    cfg_path = fixture_config(tmp_path, estimators=["bogus"])
    rc = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown estimator" in stderr_record(capsys)["message"]


@pytest.mark.parametrize("grid", [[1.0, 0.0], ["a", 1.0]])
def test_estimate_bad_grid_exits_2(tmp_path, capsys, grid):
    cfg_path = fixture_config(tmp_path, grid=grid)
    out = tmp_path / "o"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert "grid must be a nonempty list of strictly ascending numbers in [0, 1]" in record["message"]
    assert not (out / "estimates.csv").exists()


def interval_settings_config(tmp_path, command, settings):
    """An estimate, simulate or sweep config asking for a bootstrap interval."""
    if command == "estimate":
        cfg = {"seed": 3,
               "data": {"fixture": "simple-example", "n_single": 60, "n_double": 60},
               "estimators": ["naive-ols"],
               "intervals": {"naive-ols": ["naive-bootstrap"]}, **settings}
        out_name = "estimates.csv"
    elif command == "simulate":
        cfg = {"graph": {"kind": "uniform-degree", "n_outcome": 40, "m_diversion": 12,
                         "deg_min": 1, "deg_max": 3},
               "design": {"kind": "bernoulli", "p": 0.5},
               "study": {"n_sims": 2, "b_replicates": 50, **settings},
               "estimators": ["naive-ols"],
               "intervals": {"naive-ols": ["parametric-bootstrap"]}}
        out_name = "study.csv"
    else:
        cfg = {"graph": {"kind": "blocks", "n_outcome": 40, "m_diversion": 20,
                         "deg_min": 1, "deg_max": 2, "n_blocks": 5},
               "design": {"kind": "bernoulli", "p": 0.5},
               "sweep": {"cut_shares": [0.0], "n_sims": 2, "b_replicates": 50, **settings}}
        out_name = "sweep.csv"
    path = tmp_path / f"{command}.yaml"
    write_yaml(path, cfg)
    return path, out_name


@pytest.mark.parametrize("command", ["estimate", "simulate", "sweep"])
@pytest.mark.parametrize(
    "settings, message",
    [
        ({"level": 1.5}, "level must be in (0, 1), got 1.5"),
        ({"level": 0.0}, "level must be in (0, 1), got 0.0"),
        ({"b_replicates": 20}, "b_replicates must be at least 50 for bootstrap intervals, got 20"),
        ({"b_replicates": 0}, "b_replicates must be at least 50 for bootstrap intervals, got 0"),
    ],
    ids=["level-1.5", "level-0", "b-20", "b-0"],
)
def test_bad_level_or_replicates_exit_2_before_computing(tmp_path, capsys, command, settings, message):
    cfg_path, out_name = interval_settings_config(tmp_path, command, settings)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (out / out_name).exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("estimators", [{"naive-ols": 1}], "unknown estimator {'naive-ols': 1}"),
        ("intervals", {"naive-ols": [["naive-bootstrap"]]},
         "unknown interval method ['naive-bootstrap']"),
    ],
    ids=["estimator-mapping", "interval-list"],
)
def test_malformed_estimator_or_interval_name_exits_2(tmp_path, capsys, command, key, value,
                                                       message):
    # names that are not strings are refused, not looked up in the registries
    cfg_path, out_name = interval_settings_config(tmp_path, command, {})
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg[key] = value
    write_yaml(cfg_path, cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (out / out_name).exists()


@pytest.mark.parametrize(
    "command, settings, message",
    [
        ("simulate", {"effect": "quadratic"}, "unknown effect form 'quadratic'"),
        ("simulate", {"sigma2_eps": -1}, "noise variances must be nonnegative"),
        ("simulate", {"n_sims": 0}, "n_sims must be positive"),
        ("sweep", {"sigma2_gamma": -1}, "noise variances must be nonnegative"),
        ("sweep", {"n_sims": 0}, "n_sims must be positive"),
        ("simulate", {"sigma2_eps": float("nan")}, "noise variances must be nonnegative"),
        ("sweep", {"sigma2_eps": float("nan")}, "noise variances must be nonnegative"),
    ],
    ids=["simulate-effect", "simulate-sigma2-eps", "simulate-n-sims",
         "sweep-sigma2-gamma", "sweep-n-sims", "simulate-sigma2-eps-nan",
         "sweep-sigma2-eps-nan"],
)
def test_bad_study_values_exit_2_before_any_graph(tmp_path, capsys, monkeypatch, command,
                                                   settings, message):
    built = []
    for module, name in ((cli, "build_graph"), (simlab, "synth_graph")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            built.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    cfg_path, out_name = interval_settings_config(tmp_path, command, settings)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert built == []
    assert not (out / out_name).exists()


@pytest.mark.parametrize("method", ["parametric-bootstrap", "ols-asymptotic"])
def test_interval_without_linear_design_exits_2_before_computing(tmp_path, capsys, monkeypatch, method):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the intervals were checked")

    monkeypatch.setattr("bipexp.cli.build_graph", no_graph)
    cfg_path = tmp_path / "sim.yaml"
    write_yaml(cfg_path, {
        "graph": {"kind": "uniform-degree", "n_outcome": 40, "m_diversion": 12,
                  "deg_min": 1, "deg_max": 3},
        "design": {"kind": "bernoulli", "p": 0.5},
        "study": {"n_sims": 2, "b_replicates": 50},
        "estimators": ["gps-krr"],
        "intervals": {"gps-krr": [method]},
    })
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "replicates" not in err  # the progress callback never ran
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert f"estimator 'gps-krr' has no linear design; the {method} interval" in record["message"]
    assert not out.exists() or not any(out.iterdir())


def test_replicate_floor_applies_only_to_bootstrap_intervals(tmp_path):
    cfg_path = fixture_config(
        tmp_path,
        estimators=["naive-ols"],
        intervals={"naive-ols": ["ols-asymptotic"]},
        b_replicates=20,
        grid=None,
    )
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [r["interval_method"] for r in read_rows(out / "estimates.csv")] == ["", "ols-asymptotic"]


# -- simulate and sweep ---------------------------------------------------------


def test_simulate_command(tmp_path, capsys):
    cfg_path = tmp_path / "sim.yaml"
    write_yaml(cfg_path, {
        "seed": 7,
        "graph": {"kind": "uniform-degree", "n_outcome": 40, "m_diversion": 12,
                  "deg_min": 1, "deg_max": 3},
        "design": {"kind": "bernoulli", "p": 0.5},
        "study": {"effect": "heterogeneous", "sigma2_eps": 0.1,
                  "n_sims": 4, "b_replicates": 50},
        "estimators": ["naive-ols"],
        "intervals": {"naive-ols": ["naive-bootstrap"]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "simulate: wrote" in captured.out
    assert "replicates" in captured.err  # progress goes to stderr

    blob = json.loads((out / "study.json").read_text())
    assert blob["n_sims"] == 4
    assert blob["master_seed"] == 7
    assert len(blob["estimates"]["naive-ols"]) == 4
    assert "naive-ols|naive-bootstrap" in blob["covered"]
    assert len(read_rows(out / "study.csv")) == 2  # point row + interval row
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["outputs"] == ["study.csv", "study.json"]


def test_sweep_command(tmp_path):
    cfg_path = tmp_path / "sweep.yaml"
    write_yaml(cfg_path, {
        "seed": 1,
        "graph": {"kind": "blocks", "n_outcome": 40, "m_diversion": 20,
                  "deg_min": 1, "deg_max": 2, "n_blocks": 5},
        "design": {"kind": "bernoulli", "p": 0.5},
        "sweep": {"cut_shares": [0.0, 0.25], "n_sims": 2, "b_replicates": 50},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 4
    assert [float(r["cut_share"]) for r in rows] == [0.0, 0.0, 0.25, 0.25]
    assert {r["interval_method"] for r in rows} == {"naive-bootstrap", "block-bootstrap"}


def test_redraw_graph_is_an_unknown_study_key(tmp_path, capsys, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the study section was checked")

    monkeypatch.setattr("bipexp.cli.build_graph", no_graph)
    cfg_path = tmp_path / "sim.yaml"
    write_yaml(cfg_path, {
        "graph": {"kind": "uniform-degree", "n_outcome": 30, "m_diversion": 30,
                  "deg_min": 1, "deg_max": 3},
        "design": {"kind": "bernoulli", "p": 0.5},
        "study": {"n_sims": 2, "redraw_graph": True},
    })
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert record["message"] == "unknown keys in study: redraw_graph"
    assert not (out / "study.csv").exists()


def test_sweep_bad_cut_share_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.yaml"
    write_yaml(cfg_path, {
        "graph": {"kind": "blocks", "n_outcome": 40, "m_diversion": 20,
                  "deg_min": 1, "deg_max": 2, "n_blocks": 5},
        "design": {"kind": "bernoulli", "p": 0.5},
        "sweep": {"cut_shares": [0.0, "x"], "n_sims": 2, "b_replicates": 50},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError"
    assert "sweep.cut_shares must be a nonempty list of numbers in [0, 1]" in record["message"]
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_workers_below_one_exit_2_before_any_graph(
    tmp_path, capsys, monkeypatch, command, workers
):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built before --workers was checked")

    monkeypatch.setattr("bipexp.cli.build_graph", no_graph)
    monkeypatch.setattr("bipexp.simlab.synth_graph", no_graph)
    cfg = {
        "graph": {"kind": "blocks", "n_outcome": 40, "m_diversion": 20,
                  "deg_min": 1, "deg_max": 2, "n_blocks": 5},
        "design": {"kind": "bernoulli", "p": 0.5},
        command if command == "sweep" else "study": {"n_sims": 2},
    }
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, cfg)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)]
    assert main(argv) == 2
    record = stderr_record(capsys)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert record["message"] == f"workers must be at least 1, got {workers}"
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize(
    "command, flag",
    [
        ("graph-gen", ["--workers", "2"]),
        ("graph-gen", ["--format", "json"]),
        ("gps", ["--workers", "7"]),
        ("gps", ["--format", "json"]),
        ("estimate", ["--workers", "2"]),
        ("simulate", ["--format", "json"]),
        ("sweep", ["--format", "csv"]),
    ],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "simple-example", "--out", str(out), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# -- config plumbing -------------------------------------------------------------


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    cfg_path = graph_gen_config(tmp_path, graphs={"kind": "uniform-degree"})
    rc = main(["graph-gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown keys in config: graphs" in stderr_record(capsys)["message"]


def test_command_mismatch_exits_2(tmp_path, capsys):
    cfg_path = fixture_config(tmp_path, command="estimate")
    rc = main(["gps", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "declares command" in stderr_record(capsys)["message"]


def test_unknown_config_ref_exits_2(tmp_path, capsys):
    rc = main(["estimate", "--config", str(tmp_path / "absent.yaml")])
    assert rc == 2
    assert "presets" in stderr_record(capsys)["message"]


def test_invalid_yaml_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("{{")
    rc = main(["estimate", "--config", str(cfg_path)])
    assert rc == 2
    assert "not valid YAML" in stderr_record(capsys)["message"]


def test_config_root_must_be_mapping(tmp_path, capsys):
    cfg_path = tmp_path / "list.yaml"
    cfg_path.write_text("- 1\n- 2\n")
    rc = main(["estimate", "--config", str(cfg_path)])
    assert rc == 2
    assert "mapping" in stderr_record(capsys)["message"]


def test_bad_design_kind_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(EDGES_CSV)
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, {"graph": {"path": str(edges)}, "design": {"kind": "coin"}})
    rc = main(["gps", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown design kind" in stderr_record(capsys)["message"]


# -- presets ----------------------------------------------------------------------


def test_presets_load_and_declare_commands(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("parsing a graph section synthesized or loaded a graph")

    for target in ("bipexp.cli.synth_graph", "bipexp.cli.load_edge_list"):
        monkeypatch.setattr(target, no_graph)
    for name in PRESETS:
        cfg, raw = load_config(name)
        assert isinstance(cfg, dict)
        assert cfg["command"] in _COMMANDS
        assert isinstance(cfg["seed"], int)
        assert hashlib.sha256(raw).hexdigest()  # raw bytes round out provenance
        if "graph" in cfg:
            share = max(cfg["sweep"]["cut_shares"]) if cfg["command"] == "sweep" else None
            spec = _parse_graph(cfg, sweep_share=share)
            assert isinstance(spec, GraphSpec)
            assert spec.kind == cfg["graph"]["kind"]
            assert spec.n_outcome == cfg["graph"]["n_outcome"]


def test_simple_example_preset_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["estimate", "--config", "simple-example", "--out", str(out)]) == 0
    rows = read_rows(out / "estimates.csv")
    ate_rows = [r for r in rows if r["quantity"] == "ate"]
    assert [r["estimator"] for r in ate_rows] == [
        "naive-mean", "naive-ols", "ht", "gps-cell", "stratified"
    ]
    assert all(r["quantity"] in ("ate", "mu") for r in rows)
