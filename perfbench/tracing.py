"""Spans around the public functions of orthoselect, for the traced run.

`Tracer.install` replaces every public function of the seven library modules
with a wrapper, in each module that binds it, so calls between modules and
within a module are both seen.  A span is (name, start, end, parent) plus the
counters recorded at that boundary; spans stay in memory and `Tracer.write`
dumps them as one trace document.  `per_layer_metrics` turns trace documents
into the benchmark's per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

LAYERS = ("cli", "matrixio", "sphere", "selection", "linalg", "analytic", "harness")
AUDITS = ("run_order_stat_audit", "run_coherence_audit", "run_norm_audit",
          "run_decoupling_audit", "run_theorem_audit", "run_chernoff_audit")
# spans that own the self time of their layer's helpers below them
ANCHORS = {"cli.main"} | {f"harness.{a}" for a in AUDITS}
PEAK_TRACKED = {"selection.attained_values", "selection.exact_inf_profile"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


HOOKS = {
    "matrixio.load_matrix": lambda a, k, r: {"bytes_read": os.path.getsize(_arg(a, k, 0, "path"))},
    "sphere.build_eps_net": lambda a, k, net: {"net_points": len(net)},
    "selection.constrained_select": lambda a, k, out: {
        "attempts": out.attempts_used, "infeasible": int(math.isinf(out.attained_value))},
    "selection.attained_values": lambda a, k, vals: {"infeasible": int(np.sum(np.isinf(vals)))},
    "selection.feasible_subsets": lambda a, k, feas: {
        "feasible_fraction": len(feas) / math.comb(_arg(a, k, 0, "matrix").p, _arg(a, k, 1, "s"))},
    **{f"harness.{name}": lambda a, k, report: {"trials": len(report.records)} for name in AUDITS},
}


class Tracer:
    """Records spans while installed; `install` and `uninstall` pair up."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span called `name`."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        track_peak = name in PEAK_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            started = track_peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if track_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                if started:
                    tracemalloc.stop()
            extras = {}
            if hook is not None:
                try:
                    extras = hook(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    extras = {}  # the library changed shape; the counter reads 0
            if track_peak:
                extras["peak_mb"] = peak / 2**20
            rec[4] = extras or None
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"orthoselect.{layer}")
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if public and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.span(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "orthoselect" and not name.startswith("orthoselect."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str, phase: str, startup_ns: int | None = None) -> None:
        """Dump the spans recorded so far as one trace document, then forget them."""
        doc = {"phase": phase, "startup_ns": startup_ns, "names": self.names, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.spans.clear()


def function_stats(docs: list[dict]) -> dict[str, dict[str, Counter]]:
    """phase -> span name -> summed calls, total_s, self_s and counters.

    Self time is a span's duration minus its children's.  A layer's helpers
    below an anchor span (the CLI entry, or an audit) add their self time to
    the anchor's `layer_self_s`.
    """
    stats: dict[str, dict[str, Counter]] = {"op": {}, "setup": {}}
    for doc in docs:
        table = stats[doc["phase"]]
        names, spans = doc["names"], doc["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        anchor: list[str | None] = [None] * len(spans)
        for k, (nid, start, end, parent, extras) in enumerate(spans):
            name = names[nid]
            self_s = (end - start - child_ns[k]) / 1e9
            entry = table.setdefault(name, Counter())
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += self_s
            for key, value in (extras or {}).items():
                entry[key] = max(entry[key], value) if key == "peak_mb" else entry[key] + value
            anchor[k] = name if name in ANCHORS else (anchor[parent] if parent >= 0 else None)
            if anchor[k] is not None and name.split(".")[0] == anchor[k].split(".")[0]:
                table[anchor[k]]["layer_self_s"] += self_s
        if doc.get("startup_ns") is not None:
            table.setdefault("cli.main", Counter())["startup_s"] += doc["startup_ns"] / 1e9
    return stats


# (function, statistics reported per op) for the functions named one by one
FUNCTION_METRICS = (
    ("matrixio.load_matrix", ("total_s",)),
    ("matrixio.save_matrix", ("total_s",)),
    ("matrixio.matrix_to_csv", ("total_s",)),
    ("sphere.build_eps_net", ("total_s",)),
    ("sphere.sample_unit_vectors", ("calls", "total_s")),
    ("sphere.sample_sphere_matrix", ("calls", "total_s")),
    ("selection.constrained_select", ("calls", "self_s")),
    ("selection.attained_values", ("calls", "self_s", "peak_mb")),
    ("selection.exact_inf_profile", ("calls", "self_s", "peak_mb")),
    ("selection.feasible_subsets", ("total_s",)),
    ("selection.estimate_gamma", ("self_s",)),
    ("selection.greedy_outer", ("calls", "self_s")),
    ("linalg.operator_norm", ("calls", "self_s")),
    ("linalg.coherence", ("calls", "self_s")),
    ("linalg.sigma_min", ("calls", "self_s")),
    ("analytic.order_stat_cdf", ("calls", "self_s")),
    ("analytic.derive_constants", ("total_s",)),
)


def per_layer_metrics(docs: list[dict], units: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from trace documents.

    A function's figures come from the op phase when ops call it, else from
    set-up; sums are divided by that phase's unit count in `units` (traced ops,
    or traced set-up repetitions).  `peak_mb` is the largest peak of any call,
    and the `_mean` and `_fraction` figures are means over calls.  A layer the
    workload never calls reads 0.
    """
    stats = function_stats(docs)

    def pick(fn: str) -> tuple[Counter, int]:
        for phase in ("op", "setup"):
            if fn in stats[phase]:
                return stats[phase][fn], units[phase]
        return Counter(), 1

    def per_unit(fn: str, key: str) -> float:
        entry, count = pick(fn)
        return entry[key] / count

    def per_call(fn: str, key: str) -> float:
        entry, _ = pick(fn)
        return entry[key] / entry["calls"] if entry["calls"] else 0.0

    out = {
        "cli.startup_s": per_unit("cli.main", "startup_s"),
        "cli.self_s": per_unit("cli.main", "layer_self_s"),
        "matrixio.bytes_read": per_unit("matrixio.load_matrix", "bytes_read"),
        "sphere.net_points": per_unit("sphere.build_eps_net", "net_points"),
        "selection.extract_attempts_mean": per_call("selection.constrained_select", "attempts"),
        "selection.feasible_fraction": per_call("selection.feasible_subsets", "feasible_fraction"),
        "selection.infeasible_directions": per_unit("selection.constrained_select", "infeasible")
        + per_unit("selection.attained_values", "infeasible"),
        "harness.trials": sum(per_unit(f"harness.{a}", "trials") for a in AUDITS),
    }
    for fn, keys in FUNCTION_METRICS:
        for key in keys:
            out[f"{fn}.{key}"] = pick(fn)[0][key] if key == "peak_mb" else per_unit(fn, key)
    for audit in AUDITS:
        out[f"harness.{audit}.self_s"] = per_unit(f"harness.{audit}", "layer_self_s")
    return out
