"""Benchmark a change against its parent in alternating pairs; write BENCH_<n>.json.

Exports the parent revision and the change with `git archive`, each into
its own directory, and runs `bench/run.py --trace 0` from each copy once
per seed for every workload in BENCHMARK.json, for its `run_seconds`. The
two sides of a pair run back to back, and the side that goes first
alternates from pair to pair. The result is written to BENCH_<n>.json
at the repository root:

    {"description", "parent_commit", "command",
     "workloads": {<workload>: {"summary": ..., "runs": [...]}}}

Each run holds the seed, the order of the pair and both sides' result
summaries (`correct`, `attempted`, `failed`, `metrics`), as the last
line `bench/run.py` prints. The summary gives, per end-to-end metric,
each side's median and quartiles (numpy linear percentiles), the number
of pairs the change won (better in the direction BENCHMARK.json gives;
ties count for neither side), the ratio of the medians and a verdict
(gain, regression, unresolved or flat; see `verdict`) against the
metric's bound in BENCHMARK.json. Throughput is work / run_s on the same
runs, so it takes run_s's verdict.

    python3 tools/bench_pairs.py <parent-rev> <n> --seeds 1901-1905 [--note TEXT]

The change is the working tree: what `git stash create` records
(tracked files, staged new files included), or HEAD when the tree is
clean. Nothing in the repository is changed apart from the BENCH file;
the exports live in a temporary directory.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1901-1905' or '1901,1903,1907' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pair_order(k: int) -> tuple[str, str]:
    """Which side runs first in pair k: the parent in even pairs."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(parent: np.ndarray, change: np.ndarray, bound: float) -> str:
    """One metric's verdict on its pairs of runs, by the benchmark's rules.

    `parent` and `change` hold each side's runs in pair order, signed so
    that higher is better; `bound` is the share of the parent's median by
    which the metric may worsen. In this order: "gain" when the change
    wins at least nine tenths of the pairs and its median beats the parent's by more
    than the parent's q3 - q1; "regression" when its median is worse than
    the parent's by more than the bound; "unresolved" when the parent's
    q3 - q1 is wider than the bound, unless every change run beats every
    parent run; otherwise "flat".
    """
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    lead = np.median(change) - median
    allowed = bound * abs(median)
    if 10 * np.sum(change > parent) >= 9 * parent.size and lead > q3 - q1:
        return "gain"
    if -lead > allowed:
        return "regression"
    if q3 - q1 > allowed and not change.min() > parent.max():
        return "unresolved"
    return "flat"


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per-metric medians, quartiles, pair wins and verdicts of one workload's runs.

    `better` maps each end-to-end metric to "lower" or "higher", and
    `bounds` to the share of the parent median by which it may worsen
    (see `verdict`). `throughput` is work / run_s on the same runs, one
    measurement, so it gets run_s's verdict: judged apart, a gap can fall
    on different sides of the two quartile spreads.
    """
    summary: dict = {"pairs": len(runs)}
    for name, direction in better.items():
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        parent, change = (sign * np.asarray(values[side], dtype=np.float64) for side in SIDES)
        entry = {side: _quartiles(values[side]) for side in SIDES}
        entry["change_wins"] = int(np.sum(change > parent))
        entry["change_over_parent_median"] = (
            entry["change"]["median"] / entry["parent"]["median"])
        entry["verdict"] = verdict(parent, change, bounds[name])
        summary[name] = entry
    if "throughput" in summary and "run_s" in summary:
        summary["throughput"]["verdict"] = summary["run_s"]["verdict"]
    summary["all_correct"] = all(run[side]["correct"] for run in runs for side in SIDES)
    return summary


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of `rev`, as `git archive` writes them, unpacked into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(summary, meta) of one `bench/run.py --trace 0` run from the copy at root."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:  # run.py prints the meta line, then the summary, even when a check fails
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


def describe(seeds: list[int], seconds: float, workloads: dict, meta: dict, note: str) -> str:
    correct = all(w["summary"]["all_correct"] for w in workloads.values())
    seed_text = ", ".join(map(str, seeds))
    text = (
        "bench/run.py result summaries for the parent commit and for this change, run in "
        "pairs that alternate which side goes first ('order' gives each pair's order), each "
        "side in its own `git archive` export (so meta.git_sha is null; meta.src_sha256 "
        f"identifies the source), --seconds {seconds:g}, --trace 0, seeds {seed_text}, "
        f"{len(seeds)} pairs per workload, workloads {', '.join(workloads)}. 'summary' gives "
        "each side's median and quartiles (numpy linear percentiles) per end-to-end metric, "
        "how many pairs the change won on it (ties count for neither) and its verdict: "
        "gain, regression, unresolved or flat against the metric's BENCHMARK.json bound. "
        f"Every run reported correct: {'true' if correct else 'NOT true'}. "
        f"Host: {meta['nproc']} cores, {meta['ram_mb']} MB RAM, Python {meta['python']}, "
        f"numpy {meta['numpy']}, scipy {meta['scipy']}."
    )
    return f"{text} {note}".strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="parent revision")
    ap.add_argument("n", help="the N of BENCH_<N>.json")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1901-1905")
    ap.add_argument("--note", default="", help="appended to the description")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workload_names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    revs = {"parent": _git("rev-parse", args.parent),
            "change": _git("stash", "create") or _git("rev-parse", "HEAD")}

    doc = {"description": "", "parent_commit": _git("rev-parse", "--short", revs["parent"]),
           "command": "python3 bench/run.py --workload <w> --seed <s> "
                      f"--seconds {seconds:g} --trace 0",
           "workloads": {}}
    meta = None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], roots[side])
        for workload in workload_names:
            runs = []
            for k, seed in enumerate(args.seeds):
                order = pair_order(k)
                run = {"seed": seed, "order": list(order)}
                for side in order:
                    run[side], meta = run_bench(roots[side], workload, seed, seconds)
                    value = run[side]["metrics"]["run_s"]["value"]
                    print(f"{workload} seed {seed} {side}: run_s {value:.4f} "
                          f"correct {run[side]['correct']}", file=sys.stderr, flush=True)
                runs.append(run)
            doc["workloads"][workload] = {"summary": summarize(runs, better, bounds), "runs": runs}
    doc["description"] = describe(args.seeds, seconds, doc["workloads"], meta, args.note)
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
