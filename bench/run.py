"""bipexp benchmark: seeded workloads driven through the library's public calls.

Run from the repository root:

    python3 bench/run.py --workload study-krr --seed 1 --seconds 10 --trace 0

Workloads (sizes in spec.py):

* study-krr         the homogeneous-uncorrelated preset's hot path: gps-krr
                    naive-bootstrap refits over ~10 distinct distributions
* study-correlated  a 20-block 10k/1k graph with graph-propagated noise:
                    naive, block and parametric bootstraps, no scores
* table-scale       `gps` then `estimate` on a seeded 50k/5k edge list with
                    heterogeneous Bernoulli probabilities (every unit distinct)
* study-cr          completely randomized design: the auto path's Monte
                    Carlo table, HT and gps-poly with linear-design intervals

With `--trace 0` the run reports the end-to-end metrics: setup_s is the
median over fresh processes of import + graph + table, run_s the median
repetition of the run phase within `--seconds`, throughput the work of
one repetition (simulated experiments, or outcome units for table-scale)
over run_s, peak_rss_mb the run process's ru_maxrss, and ok_share the
share of attempted estimates and intervals that did not fail. Times are
wall seconds rescaled to a reference machine speed measured by a
calibration kernel around the work (`at_reference_speed`). With
`--trace 1` one process alternates untraced and traced repetitions and
reports the per-layer metrics from spans recorded around calls into the
package (tracing.py). Every run checks its outputs against numpy oracles
(oracles.py) and exits 1 when they disagree.

The last stdout line is the result JSON; the line before it carries the
metadata, which is also kept with the spans in `.bench_out/`. `--smoke`
runs tiny sizes for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spec import CAL_REF_S, END_TO_END, PER_LAYER, SETUP_RUNS, WORKLOADS, workload_config

HERE = Path(__file__).resolve().parent
# Whole-run limit; workers that would outlive it are killed.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def prepare_table_inputs(cfg: dict, seed: int, dest: Path) -> None:
    """Edge list, probability file and outcomes for table-scale, from the seed.

    Unit u<i> has a uniform degree in [deg_min, deg_max], distinct
    neighbours d<j> and equal weights 1/degree; diversion unit j is treated
    with its own probability p_j ~ U(p_range). Outcomes follow the
    heterogeneous effect y_i = degree_i * E_i + eps_i.
    """
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    n, m = cfg["n_outcome"], cfg["m_diversion"]
    degrees = rng.integers(cfg["deg_min"], cfg["deg_max"] + 1, size=n)
    indices = np.concatenate([rng.choice(m, size=int(d), replace=False) for d in degrees])
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    weights = np.repeat(1.0 / degrees, degrees)
    p = rng.uniform(*cfg["p_range"], size=m)
    z = (rng.random(m) < p).astype(np.uint8)
    rows = np.repeat(np.arange(n), degrees)
    e = np.bincount(rows, weights=weights * z[indices], minlength=n)
    y = degrees * e + rng.normal(0.0, np.sqrt(cfg["sigma2_eps"]), size=n)

    w_text = [repr(float(w)) for w in 1.0 / np.arange(1, cfg["deg_max"] + 1)]
    with open(dest / "edges.csv", "w", newline="") as fh:
        fh.write("outcome_id,diversion_id,weight\n")
        fh.writelines(
            f"u{i},d{j},{w_text[d - 1]}\n"
            for i, j, d in zip(rows.tolist(), indices.tolist(), degrees[rows].tolist())
        )
    used = np.flatnonzero(np.bincount(indices, minlength=m))
    with open(dest / "p.csv", "w", newline="") as fh:
        fh.write("diversion_id,p\n")
        fh.writelines(f"d{j},{float(p[j])!r}\n" for j in used.tolist())
    np.savez(dest / "inputs.npz", indptr=indptr, indices=indices, weights=weights,
             p=p, z=z, e=e, y=y)


def run_worker(root: Path, out: Path, tag: str, args, phase: str, deadline: float) -> dict:
    result = out / f"{tag}.json"
    log = out / f"{tag}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # load from one process with single-threaded BLAS, recorded in the metadata
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--smoke", str(int(args.smoke)),
           "--inputs", str(out / "inputs"), "--out", str(result)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {tag} process")
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = log.read_text()[-3000:]
        raise BenchError(f"{tag} process exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def machine_meta(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
    }


def _proc_field(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _ram_mb():
    total = _proc_field("/proc/meminfo", "MemTotal")
    return round(int(total.split()[0]) / 1024) if total else None


def at_reference_speed(seconds: float, cal_s: list[float]) -> float:
    """Rescale wall seconds to a machine on which `calibrate()` takes CAL_REF_S.

    On a shared host the speed of one core drifts by tens of percent over
    seconds to minutes; the calibration kernel, timed in the same process
    right around the work, tracks that drift, and dividing it out keeps
    runs made at different times comparable. The raw wall times and the
    calibration samples are kept in the metadata.
    """
    return seconds * CAL_REF_S / statistics.median(cal_s)


def measure(root: Path, out: Path, args) -> tuple[dict, dict, dict]:
    """Run the workers; returns (summary, full worker record, samples)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workers = [run_worker(root, out, f"setup{k}", args, "setup", deadline)
               for k in range(0 if args.smoke or args.trace else SETUP_RUNS - 1)]
    full = run_worker(root, out, "full", args, "full", deadline)
    workers.append(full)
    attempted, failed = full["attempted"], full["failed"]
    if args.trace:
        metrics = full["layers"]
        units = PER_LAYER
    else:
        # cal[i] was taken right before repetition i, cal[-1] after the last one;
        # each repetition is scaled by the groups from i - 1 to i + 2
        cal = full["cal_s"]
        run_s = statistics.median(
            at_reference_speed(t, sum(cal[max(0, i - 1):i + 3], []))
            for i, t in enumerate(full["run_s"]))
        metrics = {
            "setup_s": statistics.median(
                at_reference_speed(w["setup_s"], w["setup_cal_s"]) for w in workers),
            "run_s": run_s,
            "throughput": full["work"] / run_s,
            "peak_rss_mb": full["peak_rss_mb"],
            "ok_share": 1.0 - failed / attempted,
        }
        units = END_TO_END
    summary = {
        "correct": not full["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    samples = {
        "setup_wall_s": [w["setup_s"] for w in workers],
        "setup_cal_s": [w["setup_cal_s"] for w in workers],
        "run_wall_s": full["run_s"], "run_cal_s": full["cal_s"],
        "traced_wall_s": full.get("traced_s"), "work": full["work"], "errors": full["errors"],
    }
    return summary, full, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bipexp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up process")
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "bipexp" / "__init__.py").is_file():
        print(f"bench: {root} has no src/bipexp; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out = root / ".bench_out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = workload_config(args.workload, args.smoke)
    try:
        if cfg["kind"] == "table":
            prepare_table_inputs(cfg, args.seed, out / "inputs")
        summary, full, samples = measure(root, out, args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "inputs", ignore_errors=True)
        shutil.rmtree(out / "work", ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "config": cfg,
        **machine_meta(root), **full["versions"], "sizes": full["sizes"],
        "cal_ref_s": CAL_REF_S, "samples": samples,
    }
    (out / "result.json").write_text(json.dumps({"meta": meta, **summary}, indent=2))
    for err in samples["errors"]:
        print(f"bench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
