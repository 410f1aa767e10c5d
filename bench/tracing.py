"""Spans around calls into the package's public functions, recorded from outside.

`Tracer.install` rebinds each traced name at every place it is bound in
the imported `bipexp` modules (module globals, registry entries that hold
the function, class attributes for methods) to a wrapper that records a
span; `uninstall` puts the originals back, so untraced and traced
repetitions can alternate in one process. Spans stay in memory (name,
start, end, parent, run id) and are written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _rows(log, name, fn):
    arguments = _bound(fn)

    def extra(args, kwargs, out):
        log.count(f"{name}.rows", np.size(arguments(args, kwargs)["exposures"]))

    return extra


def _krr_points(log, name, fn):
    def extra(args, kwargs, out):
        log.count(f"{name}.points", out.points.shape[0])

    return extra


def _dense_bytes(log, name, fn):
    def extra(args, kwargs, out):
        log.count(f"{name}.bytes_computed", out.size * out.itemsize)

    return extra


def _draws(log, name, fn):
    arguments = _bound(fn)

    def extra(args, kwargs, out):
        log.count(f"{name}.draws", arguments(args, kwargs)["n_draws"])

    return extra


def _kept(log, name, fn):
    arguments = _bound(fn)

    def extra(args, kwargs, out):
        log.count(f"{name}.requested", arguments(args, kwargs)["n_replicates"])
        log.count(f"{name}.kept", out.n_replicates)

    return extra


def _file_bytes(log, name, fn):
    arguments = _bound(fn)

    def extra(args, kwargs, out):
        dest = arguments(args, kwargs)["dest"]
        if isinstance(dest, (str, os.PathLike)):
            log.count(f"{name}.bytes", os.path.getsize(dest))

    return extra


# (span name, module, attribute, extra counters); the span name is the
# defining module and public name, which prefixes the per-layer metrics.
TARGETS = (
    ("graph.synth_graph", "graph", "synth_graph", None),
    ("graph.load_edge_list", "graph", "load_edge_list", None),
    ("graph.connected_components", "graph", "connected_components", None),
    ("graph.BipartiteGraph.take", "graph", "BipartiteGraph.take", None),
    ("graph.BipartiteGraph.to_dense", "graph", "BipartiteGraph.to_dense", _dense_bytes),
    ("design.draw_assignments", "design", "draw_assignments", None),
    ("design.linear_exposure", "design", "linear_exposure", None),
    ("gps.exact_gps_table", "gps", "exact_gps_table", None),
    ("gps.mc_gps", "gps", "mc_gps", _draws),
    ("gps.GpsTable.observed_scores", "gps", "GpsTable.observed_scores", _rows),
    ("gps.GpsTable.imputed_scores", "gps", "GpsTable.imputed_scores", None),
    ("gps.GpsTable.take", "gps", "GpsTable.take", None),
    ("gps.GpsTable.write_csv", "gps", "GpsTable.write_csv", _file_bytes),
    ("estimators.Dataset.take", "estimators", "Dataset.take", None),
    ("estimators.naive_ols", "estimators", "naive_ols", None),
    ("estimators.ht_estimate", "estimators", "ht_estimate", None),
    ("estimators.ht_weighted_regression", "estimators", "ht_weighted_regression", None),
    ("estimators.beta_poly_fit", "estimators", "beta_poly_fit", None),
    ("estimators.beta_krr_fit", "estimators", "beta_krr_fit", None),
    ("estimators.dose_response", "estimators", "dose_response", None),
    ("estimators.stratified_estimate", "estimators", "stratified_estimate", None),
    ("numerics.ols", "numerics", "ols", None),
    ("numerics.krr_fit", "numerics", "krr_fit", _krr_points),
    ("numerics.krr_predict", "numerics", "krr_predict", None),
    ("inference.naive_bootstrap", "inference", "naive_bootstrap", _kept),
    ("inference.block_bootstrap", "inference", "block_bootstrap", _kept),
    ("inference.parametric_bootstrap", "inference", "parametric_bootstrap", None),
    ("simlab.run_study", "simlab", "run_study", None),
    ("simlab.default_gps_table", "simlab", "default_gps_table", None),
    ("simlab.generate_outcomes", "simlab", "generate_outcomes", None),
    ("simlab.SimStudyResult.write_json", "simlab", "SimStudyResult.write_json", None),
    ("simlab.SimStudyResult.write_csv", "simlab", "SimStudyResult.write_csv", None),
)


class SpanLog:
    """In-memory spans plus counters, both keyed by run id."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount) -> None:
        self.counters[self.run_id][key] += float(amount)

    def stats(self, runs) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s, over the given run ids."""
        if not self.names:
            return {}
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        # self time: the span's duration minus the time its child spans cover
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        keep = np.isin(np.asarray(self.run), list(runs))
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in np.flatnonzero(keep):
            s = out[self.names[i]]
            s["calls"] += 1
            s["self_s"] += self_time[i]
            s["total_s"] += dur[i]
        return out

    def counter_sums(self, runs) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for r in runs:
            for key, v in self.counters.get(r, {}).items():
                out[key] += v
        return out

    def write(self, path) -> None:
        index = {n: k for k, n in enumerate(dict.fromkeys(self.names))}
        t0 = self.start[0] if self.start else 0.0
        record = {
            "names": list(index),
            "fields": ["name", "start_s", "end_s", "parent", "run_id"],
            "spans": [
                [index[n], round(s - t0, 9), round(e - t0, 9), p, r]
                for n, s, e, p, r in zip(self.names, self.start, self.end, self.parent, self.run)
            ],
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _wrap(fn, name: str, log: SpanLog, extra):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = log.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            log.finish(idx)
        if extra is not None:
            extra(args, kwargs, out)
        return out

    return traced


class Tracer:
    """Installs and removes the span wrappers on the imported package."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: list = []

    def install(self) -> None:
        if self._undo:
            return
        swaps = {}
        for name, module, attr, extra in TARGETS:
            mod = importlib.import_module(f"bipexp.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                hook = extra(self.log, name, orig) if extra else None
                setattr(cls, meth, _wrap(orig, name, self.log, hook))
                self._undo.append(functools.partial(setattr, cls, meth, orig))
            else:
                orig = getattr(mod, attr)
                hook = extra(self.log, name, orig) if extra else None
                swaps[orig] = _wrap(orig, name, self.log, hook)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bipexp" or n.startswith("bipexp.")]
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in swaps:
                    setattr(mod, key, swaps[val])
                    self._undo.append(functools.partial(setattr, mod, key, val))
                elif isinstance(val, dict):
                    self._rebind_dict(val, swaps)

    def _rebind_dict(self, table: dict, swaps: dict) -> None:
        # registries hold functions directly, or frozen dataclasses holding them
        for key, val in list(table.items()):
            if isinstance(val, types.FunctionType) and val in swaps:
                new = swaps[val]
            elif dataclasses.is_dataclass(val) and not isinstance(val, type):
                changes = {
                    f.name: swaps[v]
                    for f in dataclasses.fields(val)
                    if isinstance(v := getattr(val, f.name), types.FunctionType) and v in swaps
                }
                if not changes:
                    continue
                new = dataclasses.replace(val, **changes)
            else:
                continue
            table[key] = new
            self._undo.append(functools.partial(table.__setitem__, key, val))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
