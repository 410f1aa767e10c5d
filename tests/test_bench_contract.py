"""The package names the benchmark harness reaches for still resolve.

`bench/tracing.py` wraps every name in its `TARGETS` by attribute lookup,
and `bench/worker.py` and `bench/test_bench_smoke.py` call
`bipexp.simlab.default_gps_table` with `rng` and `mc_draws`; the tracer's
replicate counters bind the bootstraps' `n_replicates` by name. A renamed
or moved function, or a changed signature, breaks the benchmark only
inside its smoke runs, about a minute in; these checks say so in under a
second. They read `bench/` and
change nothing there.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import bipexp.gps
import bipexp.simlab
from bipexp.design import AssignmentDesign
from bipexp.graph import GraphSpec, synth_graph
from bipexp.seeding import substream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, attr: str):
    obj = importlib.import_module(f"bipexp.{module}")
    for part in attr.split("."):
        obj = inspect.getattr_static(obj, part)
    return obj


def test_tracer_installs_on_every_target_and_uninstalls():
    tracing = load_tracing()
    originals = {name: resolve(module, attr) for name, module, attr, _ in tracing.TARGETS}
    log = tracing.SpanLog()
    tracer = tracing.Tracer(log)
    tracer.install()
    try:
        for name, module, attr, _ in tracing.TARGETS:
            assert resolve(module, attr).__wrapped__ is originals[name], name
        # the study runner reaches the traced names through module globals
        graph = synth_graph(
            GraphSpec(kind="uniform-degree", n_outcome=30, m_diversion=8, deg_min=1, deg_max=3),
            substream(5, 0),
        )
        design = AssignmentDesign.bernoulli(0.5)
        dgp = bipexp.simlab.DgpSpec(graph, design, sigma2_eps=0.5)
        # study-cr's interval mix: ht's two linear-design intervals as well
        bipexp.simlab.run_study(
            dgp, ["naive-ols", "ht"],
            {"naive-ols": ("naive-bootstrap",), "ht": ("ols-asymptotic", "parametric-bootstrap")},
            n_sims=2, b_replicates=50, master_seed=5,
        )
        bipexp.gps.mc_gps(graph, design, n_draws=64, rng=substream(5, 1))
    finally:
        tracer.uninstall()
    for name, module, attr, _ in tracing.TARGETS:
        assert resolve(module, attr) is originals[name], name
    spans = set(log.names)
    for name in ("simlab.run_study", "simlab.default_gps_table", "gps.exact_gps_table",
                 "design.draw_assignments", "design.linear_exposure",
                 "simlab.generate_outcomes", "estimators.naive_ols", "gps.mc_gps",
                 "inference.parametric_bootstrap"):
        assert name in spans, name
    counters = log.counter_sums([0])
    assert counters["gps.mc_gps.draws"] == 64
    # the replicate counters bind `n_replicates` on the bootstrap's signature
    kept, requested = "inference.naive_bootstrap.kept", "inference.naive_bootstrap.requested"
    assert kept in counters and requested in counters
    assert counters[requested] == 100
    assert 0 < counters[kept] <= 100


def test_default_gps_table_takes_rng_and_mc_draws():
    params = inspect.signature(bipexp.simlab.default_gps_table).parameters
    for key in ("rng", "mc_draws"):
        assert params[key].kind is inspect.Parameter.KEYWORD_ONLY, key
    assert params["mc_draws"].default == bipexp.gps.MC_DRAWS
    graph = synth_graph(
        GraphSpec(kind="uniform-degree", n_outcome=20, m_diversion=30, deg_min=21, deg_max=21),
        substream(6, 0),
    )
    table = bipexp.simlab.default_gps_table(
        graph, AssignmentDesign.bernoulli(0.5), rng=substream(6, 1), mc_draws=64
    )
    assert table.mode == "monte-carlo"
    np.testing.assert_allclose(table.probs * 64, np.round(table.probs * 64), atol=1e-9)
