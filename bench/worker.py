"""One benchmark process: set a workload up, time its run phase, check it.

`run.py` starts this script in a fresh interpreter for every sample, with
the checkout's `src` on PYTHONPATH, and reads the JSON it writes to
`--out`. Phases:

* `setup`: time from interpreter start to a ready table (import, graph
  synthesis or ingest, table build), then exit;
* `full`: the same set-up, then repetitions of the run phase until
  `--seconds` have been spent, then the correctness checks. With
  `--trace 1`, untraced and traced repetitions alternate, and the
  per-layer figures come from the traced ones.

The study-krr reference estimates in `reference.json` come from
`Study.reference_estimates`; regenerate them only when a change is meant
to move them, and say by how much.
"""

import time

T0 = time.perf_counter()  # set-up time starts before any import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from spec import PER_LAYER, REFERENCE_SEED, workload_config  # noqa: E402
from tracing import TARGETS, SpanLog, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_SIMS = 3
ORACLE_UNITS = 40
# Draws behind default_gps_table's Monte Carlo table (its default).
MC_DRAWS = 100_000
# Calibration samples taken after set-up and before and after each repetition.
CAL_REPEATS = 2
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.random((120, 120))
_CAL_VECTOR = _CAL_RNG.random(20_000)
_CAL_DESIGN = _CAL_RNG.random((2000, 150))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, numpy and BLAS work.

    The mix mirrors the workloads: an interpreter loop and small numpy
    calls (the per-row and per-replicate Python code), and a tall dense
    least-squares solve (the OLS and variance-split paths). It calls
    nothing from the package, so a change to the package cannot move it.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(20):
        np.sort(_CAL_VECTOR)
    for _ in range(10):
        np.linalg.qr(_CAL_MATRIX)
    for _ in range(2):
        np.linalg.lstsq(_CAL_DESIGN, _CAL_VECTOR[:2000], rcond=None)
    return time.perf_counter() - t


def _design(bipexp, spec: dict):
    if spec["kind"] == "bernoulli":
        return bipexp.AssignmentDesign.bernoulli(spec["p"])
    return bipexp.AssignmentDesign.completely_randomized(spec["k"])


def _sample_units(seed: int, degrees: np.ndarray, count: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 99])
    picks = rng.choice(degrees.size, size=min(count, degrees.size), replace=False)
    return np.unique(np.concatenate([picks, [int(np.argmax(degrees))]]))


def _table_rows(table, keep=None):
    buf = io.StringIO()
    table.write_csv(buf)
    buf.seek(0)
    return oracles.read_table_rows(buf, keep)


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k]), equal_nan=True) for k in a
    )


# The workload classes look package names up at call time (attributes of
# the package, imports inside methods), so the tracer's wrappers apply.


class Study:
    """A `bipexp simulate` run: synthesize, auto table, run_study, write results."""

    def __init__(self, name: str, cfg: dict, seed: int, inputs: Path):
        import bipexp

        self.bipexp = bipexp
        self.name, self.cfg, self.seed = name, cfg, seed

    def _build(self, seed: int):
        from bipexp.seeding import substream
        from bipexp.simlab import default_gps_table

        bp = self.bipexp
        graph = bp.synth_graph(bp.GraphSpec(**self.cfg["graph"]), substream(seed, 10))
        design = _design(bp, self.cfg["design"])
        table = default_gps_table(graph, design, rng=substream(seed, 11))
        return graph, design, table

    def setup(self) -> None:
        self.graph, self.design, self.table = self._build(self.seed)

    def _study(self, graph, design, table, seed, intervals, n_sims, progress=None):
        cfg = self.cfg
        dgp = self.bipexp.DgpSpec(
            graph=graph, design=design, effect=cfg["effect"],
            sigma2_eps=cfg["sigma2_eps"], sigma2_gamma=cfg["sigma2_gamma"], label=self.name,
        )
        return self.bipexp.run_study(
            dgp, cfg["estimators"], intervals, n_sims=n_sims,
            b_replicates=cfg["b_replicates"], level=0.95, master_seed=seed,
            workers=1, gps=table, progress=progress,
        )

    def rep(self, out_dir: Path, progress) -> dict:
        cfg = self.cfg
        intervals = {k: tuple(v) for k, v in cfg["intervals"].items()}
        result = self._study(self.graph, self.design, self.table, self.seed, intervals,
                             cfg["n_sims"], progress)
        result.write_csv(out_dir / "study.csv")
        result.write_json(out_dir / "study.json")
        n_intervals = sum(len(v) for v in intervals.values())
        return {
            "work": result.n_sims,
            "attempted": result.n_sims * (len(cfg["estimators"]) + n_intervals),
            "failed": sum(result.point_failures.values())
            + sum(result.interval_failures.values()),
            "estimates": {k: v.tolist() for k, v in result.estimates.items()},
            "truth": result.truth.tolist(),
            "covered": {f"{a}|{b}": v.tolist() for (a, b), v in result.covered.items()},
        }

    def reference_estimates(self, n_sims: int = REFERENCE_SIMS) -> dict:
        graph, design, table = self._build(REFERENCE_SEED)
        result = self._study(graph, design, table, REFERENCE_SEED, {}, n_sims)
        return {k: v.tolist() for k, v in result.estimates.items()}

    def sizes(self) -> dict:
        rows = _table_rows(self.table)
        distinct, atoms = oracles.table_shape(rows)
        g = self.graph
        return {"n": g.n_outcome, "m": g.m_diversion, "nnz": g.nnz,
                "distinct_dists": distinct, "atoms": atoms}

    def check(self, outs: list[dict], smoke: bool) -> list[str]:
        g, cfg, first = self.graph, self.cfg, outs[0]
        errors = []
        if not all(_same(o["estimates"], first["estimates"]) for o in outs[1:]):
            errors.append("repetitions of the same study disagree")
        arrays = (np.asarray(g.indptr), np.asarray(g.indices), np.asarray(g.weights),
                  g.m_diversion)
        if "naive-ols" in first["estimates"]:
            errors += oracles.check_naive_ols(
                self.seed, first["estimates"]["naive-ols"], first["truth"], arrays, cfg
            )

        def lookup(units, levels):
            return self.table.observed_scores(levels, units=units)

        design = cfg["design"]
        if design["kind"] == "bernoulli":
            units = _sample_units(self.seed, np.diff(arrays[0]), ORACLE_UNITS)
            ids = [str(u) for u in units]
            errors += oracles.check_exact_table(
                units, ids,
                lambda u: (arrays[1][arrays[0][u]:arrays[0][u + 1]],
                           arrays[2][arrays[0][u]:arrays[0][u + 1]]),
                np.full(g.m_diversion, design["p"]), _table_rows(self.table, set(ids)), lookup,
            )
        else:
            row_sums = oracles.exposures(arrays[0], arrays[1], arrays[2],
                                         np.ones(g.m_diversion))
            errors += oracles.check_cr_table(
                _table_rows(self.table), [str(i) for i in range(g.n_outcome)], row_sums,
                design["k"], g.m_diversion, MC_DRAWS, lookup,
            )
        if self.name == "study-krr":
            stored = json.loads((HERE / "reference.json").read_text())
            want = stored["smoke" if smoke else "full"]
            got = self.reference_estimates()
            for k, values in want.items():
                if not np.allclose(got.get(k, []), values, rtol=1e-6, atol=1e-9):
                    errors.append(f"{k} estimates at seed {REFERENCE_SEED} differ from "
                                  f"reference.json: {got.get(k)} vs {values}")
        return errors


class Table:
    """`bipexp gps` then `bipexp estimate` on a seeded edge-list file."""

    def __init__(self, name: str, cfg: dict, seed: int, inputs: Path):
        import bipexp

        self.bipexp = bipexp
        self.name, self.cfg, self.seed, self.inputs = name, cfg, seed, inputs

    def setup(self) -> None:
        bp = self.bipexp
        self.graph, self.id_map = bp.load_edge_list(self.inputs / "edges.csv")
        p = bp.load_probability_file(self.inputs / "p.csv", self.id_map)
        design = bp.AssignmentDesign.bernoulli_heterogeneous(p)
        self.table = bp.exact_gps_table(self.graph, design)
        raw = np.load(self.inputs / "inputs.npz")
        self.raw = {k: raw[k] for k in raw.files}
        o_index = self.id_map.outcome_index()
        d_index = self.id_map.diversion_index()
        outcome_pos = np.array([o_index[f"u{i}"] for i in range(self.raw["y"].size)])
        used = np.flatnonzero(np.bincount(self.raw["indices"], minlength=self.raw["p"].size))
        self.y = np.empty(self.graph.n_outcome)
        self.y[outcome_pos] = self.raw["y"]
        self.z = np.zeros(self.graph.m_diversion, dtype=np.uint8)
        self.z[[d_index[f"d{j}"] for j in used]] = self.raw["z"][used]

    def rep(self, out_dir: Path, progress) -> dict:
        from bipexp.errors import DataError, NumericalError
        from bipexp.simlab import ESTIMATOR_REGISTRY

        bp = self.bipexp
        exposure = bp.linear_exposure(self.graph, self.z)
        data = bp.Dataset.build(self.graph, self.table, self.y, exposure)
        self.gps_csv = out_dir / "gps.csv"
        self.table.write_csv(self.gps_csv, id_map=self.id_map)
        estimates, failed = {}, 0
        for name in self.cfg["estimators"]:
            try:
                estimates[name] = float(ESTIMATOR_REGISTRY[name].point(data))
            except (DataError, NumericalError):
                estimates[name] = float("nan")
                failed += 1
        return {"work": self.graph.n_outcome, "attempted": len(estimates),
                "failed": failed, "estimates": estimates}

    def sizes(self) -> dict:
        with open(self.gps_csv, newline="") as fh:
            distinct, atoms = oracles.table_shape(oracles.read_table_rows(fh))
        g = self.graph
        return {"n": g.n_outcome, "m": g.m_diversion, "nnz": g.nnz,
                "distinct_dists": distinct, "atoms": atoms}

    def check(self, outs: list[dict], smoke: bool) -> list[str]:
        raw, first = self.raw, outs[0]
        errors = []
        if not all(_same(o["estimates"], first["estimates"]) for o in outs[1:]):
            errors.append("repetitions of the same analysis disagree")
        indptr, indices, weights, p = raw["indptr"], raw["indices"], raw["weights"], raw["p"]
        units = _sample_units(self.seed, np.diff(indptr), 3 * ORACLE_UNITS)
        ids = [f"u{u}" for u in units]
        with open(self.gps_csv, newline="") as fh:
            rows = oracles.read_table_rows(fh, set(ids))
        o_index = self.id_map.outcome_index()
        dense = np.array([o_index[i] for i in ids])
        pos = dict(zip(units.tolist(), dense.tolist()))
        errors += oracles.check_exact_table(
            units, ids,
            lambda u: (indices[indptr[u]:indptr[u + 1]], weights[indptr[u]:indptr[u + 1]]),
            p, rows,
            lambda us, levels: self.table.observed_scores(
                levels, units=np.array([pos[u] for u in us.tolist()])),
        )
        est = first["estimates"]
        want_ols = oracles.ols_slope(raw["e"], raw["y"])
        if not oracles.close(est["naive-ols"], want_ols):
            errors.append(f"naive-ols {est['naive-ols']!r} != lstsq {want_ols!r}")
        p1 = np.multiply.reduceat(p[indices], indptr[:-1])
        p0 = np.multiply.reduceat(1.0 - p[indices], indptr[:-1])
        want_ht = oracles.ht_ate(raw["e"], raw["y"], p1, p0)
        if not oracles.close(est["ht"], want_ht):
            errors.append(f"ht {est['ht']!r} != closed-form {want_ht!r}")
        errors += [f"{k} is not finite" for k, v in est.items() if not np.isfinite(v)]
        return errors


def _versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _layer_metrics(log: SpanLog, trim: dict, traced: list[int], untraced_s: list[float],
                   traced_s: list[float], replicate_s: list[float], sizes: dict) -> dict:
    """Per-layer figures: the traced set-up plus the mean traced repetition."""
    reps = len(traced)
    setup, run = log.stats([0]), log.stats(traced)
    c_setup, c_run = log.counter_sums([0]), log.counter_sums(traced)

    def per_run(setup_part, run_part):
        return setup_part + run_part / reps

    def stat(name, key):
        return per_run(setup.get(name, {}).get(key, 0.0), run.get(name, {}).get(key, 0.0))

    def counter(key):
        return per_run(c_setup.get(key, 0.0), c_run.get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    traced_names = {t[0] for t in TARGETS}
    for metric in PER_LAYER:
        prefix, _, key = metric.rpartition(".")
        if prefix in traced_names and key in ("calls", "self_s", "total_s"):
            out[metric] = stat(prefix, key)
    out["gps.GpsTable.observed_scores.rows"] = counter("gps.GpsTable.observed_scores.rows")
    out["numerics.krr_fit.points_mean"] = ratio(counter("numerics.krr_fit.points"),
                                                stat("numerics.krr_fit", "calls"))
    out["graph.BipartiteGraph.to_dense.bytes_computed"] = counter(
        "graph.BipartiteGraph.to_dense.bytes_computed")
    out["gps.mc_gps.draws"] = counter("gps.mc_gps.draws")
    for boot in ("inference.naive_bootstrap", "inference.block_bootstrap"):
        out[f"{boot}.kept_ratio"] = ratio(counter(f"{boot}.kept"), counter(f"{boot}.requested"))
    out["gps.GpsTable.write_csv.bytes"] = counter("gps.GpsTable.write_csv.bytes")
    out["gps.table.distinct_dists"] = sizes["distinct_dists"]
    out["gps.table.atoms"] = sizes["atoms"]
    out["estimators.trim_warnings.count"] = per_run(
        trim.get(0, 0), sum(trim.get(r, 0) for r in traced))
    out["simlab.replicate.p50_s"] = float(np.percentile(replicate_s, 50)) if replicate_s else 0.0
    out["simlab.replicate.p90_s"] = float(np.percentile(replicate_s, 90)) if replicate_s else 0.0
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    runs = np.asarray(log.run)
    out["trace.spans"] = per_run(float(np.sum(runs == 0)), float(np.isin(runs, traced).sum()))
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: float(out[k]) for k in PER_LAYER}


def _check_source(root: Path, bipexp) -> None:
    here = Path(bipexp.__file__).resolve()
    if root / "src" not in here.parents:
        raise RuntimeError(f"imported bipexp from {here}, not from {root / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "full"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    import bipexp
    from bipexp.estimators import PropensityTrimWarning

    _check_source(Path.cwd().resolve(), bipexp)
    cfg = workload_config(args.workload, bool(args.smoke))
    kind = Study if cfg["kind"] == "study" else Table
    wl = kind(args.workload, cfg, args.seed, args.inputs)
    log = SpanLog()
    tracer = Tracer(log)
    trim: dict[int, int] = {}

    def traced(run_id, fn, *a):
        log.run_id = run_id
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PropensityTrimWarning)
            tracer.install()
            try:
                out = fn(*a)
            finally:
                tracer.uninstall()
        trim[run_id] = sum(issubclass(w.category, PropensityTrimWarning) for w in caught)
        return out

    if args.trace:
        traced(0, wl.setup)
    else:
        wl.setup()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "setup_cal_s": [calibrate() for _ in range(CAL_REPEATS)]}
    if args.phase == "full":
        work_dir = args.out.parent / "work"
        work_dir.mkdir(exist_ok=True)
        outs, run_s, cal_s, traced_s, traced_ids, replicate_s = [], [], [], [], [], []
        spent = 0.0
        while spent < args.seconds or (args.trace and not traced_s):
            if args.trace and len(run_s) > len(traced_s):
                t = time.perf_counter()
                outs.append(traced(len(traced_s) + 1, wl.rep, work_dir, None))
                traced_s.append(time.perf_counter() - t)
                traced_ids.append(len(traced_s))
                spent += traced_s[-1]
                continue
            cal_s.append([calibrate() for _ in range(CAL_REPEATS)])
            stamps = [time.perf_counter()]
            outs.append(wl.rep(work_dir, lambda done, total: stamps.append(time.perf_counter())))
            run_s.append(time.perf_counter() - stamps[0])
            replicate_s += np.diff(stamps).tolist()
            spent += run_s[-1]
        cal_s.append([calibrate() for _ in range(CAL_REPEATS)])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = wl.check(outs, bool(args.smoke))
        sizes = wl.sizes()
        result.update({
            "run_s": run_s, "cal_s": cal_s, "work": outs[0]["work"],
            "attempted": sum(o["attempted"] for o in outs),
            "failed": sum(o["failed"] for o in outs),
            "peak_rss_mb": peak_rss_mb, "errors": errors, "sizes": sizes,
            "versions": _versions(),
        })
        if args.trace:
            result["traced_s"] = traced_s
            result["layers"] = _layer_metrics(log, trim, traced_ids, run_s, traced_s,
                                              replicate_s, sizes)
            log.write(args.out.parent / "spans.json")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
