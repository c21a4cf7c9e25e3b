"""The traced run: spans around the library's public entry points.

Everything here works from the benchmark's side.  Module-level entry points
are looked up by their public names in `expsampling.kernels`, `operators`,
`spaces`, `analysis` and `cli`, and every module binding of the same function
object is swapped for a wrapper while the tracer is installed.  Kernel
profiles are wrapped through `dataclasses.replace` (the kernels are then
registered so that the CLI finds them), and function evaluation through
fresh `WeightedFunction`s.  An entry point the library no longer has is
skipped, and the metrics that rest on it alone are left out of the report.

Spans live in memory in flat arrays and are written out once, at the end of
the run.  A call into an entry point of the layer whose span is innermost is
folded into that span (`discrete_absolute_moment` calling
`discrete_absolute_moment_estimate` is one moment scan).
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import workloads

_MODULES = ("kernels", "operators", "spaces", "analysis", "cli")

# layer -> (module, public names)
ENTRY_POINTS = {
    "operators.evaluate_on_grid": ("operators", ("evaluate_on_grid",)),
    "operators.point_eval": (
        "operators",
        ("max_product_series", "generalized_series", "kantorovich_series",
         "classical_exponential_formula"),
    ),
    "operators.max_product_on_grid": ("operators", ("max_product_series_on_grid",)),
    "operators.take_samples": ("operators", ("take_samples",)),
    "kernels.moment_scan": (
        "kernels",
        ("discrete_absolute_moment_estimate", "discrete_absolute_moment",
         "algebraic_moment", "algebraic_moment_profile", "algebraic_moment_variation"),
    ),
    "kernels.check_conditions": ("kernels", ("check_kernel_conditions",)),
    "spaces.log_modulus": ("spaces", ("weighted_log_modulus_estimate", "weighted_log_modulus")),
    "analysis.verifier": (
        "analysis",
        ("verify_weighted_image_bound", "verify_operator_norm", "convergence_experiment",
         "verify_quantitative_rate", "voronovskaja_check", "lemma_suite",
         "moment_dominance_check", "tail_decay_check", "denominator_bound_check",
         "max_product_lattice_checks", "run_suite", "rate_fit"),
    ),
    "cli": ("cli", ("main",)),
}

# scans of the same kind: a repeat is the same kind on the same arguments
_SCAN_KIND = {
    "discrete_absolute_moment_estimate": "absolute",
    "discrete_absolute_moment": "absolute",
    "algebraic_moment": "algebraic",
    "algebraic_moment_profile": "algebraic_profile",
    "algebraic_moment_variation": "algebraic_profile",
}

# (metric, unit, better, layer it rests on)
PER_LAYER = (
    ("kernels.log_profile.self_ms", "ms", "lower", "kernels.log_profile"),
    ("kernels.log_profile.calls", "count", "lower", "kernels.log_profile"),
    ("kernels.log_profile.points", "count", "lower", "kernels.log_profile"),
    ("kernels.log_profile.nonzero_ratio", "ratio", "higher", "kernels.log_profile"),
    ("operators.evaluate_on_grid.self_ms", "ms", "lower", "operators.evaluate_on_grid"),
    ("operators.evaluate_on_grid.calls", "count", "lower", "operators.evaluate_on_grid"),
    ("operators.grid_points", "count", "lower", "operators.evaluate_on_grid"),
    ("operators.point_eval.self_ms", "ms", "lower", "operators.point_eval"),
    ("operators.point_eval.calls", "count", "lower", "operators.point_eval"),
    ("operators.max_product_on_grid.self_ms", "ms", "lower", "operators.max_product_on_grid"),
    ("operators.max_product_on_grid.calls", "count", "lower", "operators.max_product_on_grid"),
    ("operators.take_samples.self_ms", "ms", "lower", "operators.take_samples"),
    ("spaces.evaluate_log.self_ms", "ms", "lower", "spaces.evaluate_log"),
    ("spaces.evaluate_log.points", "count", "lower", "spaces.evaluate_log"),
    ("kernels.moment_scan.self_ms", "ms", "lower", "kernels.moment_scan"),
    ("kernels.moment_scan.calls", "count", "lower", "kernels.moment_scan"),
    ("kernels.moment_scan.repeat_calls", "count", "lower", "kernels.moment_scan"),
    ("kernels.check_conditions.self_ms", "ms", "lower", "kernels.check_conditions"),
    ("kernels.check_conditions.calls", "count", "lower", "kernels.check_conditions"),
    ("spaces.log_modulus.self_ms", "ms", "lower", "spaces.log_modulus"),
    ("spaces.log_modulus.calls", "count", "lower", "spaces.log_modulus"),
    ("analysis.verifier.self_ms", "ms", "lower", "analysis.verifier"),
    ("cli.self_ms", "ms", "lower", "cli"),
    ("cli.artifact_bytes", "bytes", "lower", "cli"),
)


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of (name, start, end, parent index or -1).  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer(workloads.Hooks):
    """Workload hooks that record spans and counters while installed."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.counters = defaultdict(int)
        self._scans_seen = set()
        self.present = {"kernels.log_profile", "spaces.evaluate_log"}
        self._patches = []
        self._functions = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, layer, fn, after=None, before=None):
        """A wrapper of fn that records a span of `layer` around each call."""
        if layer not in self._name_index:
            self._name_index[layer] = len(self.names)
            self.names.append(layer)
        ix = self._name_index[layer]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.name[stack[-1]] == ix:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = len(self.start)
            self.name.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[span] = clock()
            if after is not None:
                after(args, out)
            return out

        return traced

    def count(self, name, amount):
        self.counters[name] += amount

    def clear(self):
        """Forget the spans and counters recorded so far (after warm-up)."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()
        self._scans_seen.clear()

    def new_op(self):
        """Moment-scan repeats are counted within one op."""
        self._scans_seen.clear()

    # -- workload hooks ----------------------------------------------------

    def kernel(self, kernel):
        def after(args, out):
            self.counters["kernels.log_profile.points"] += int(np.size(args[0]))
            self.counters["kernels.log_profile.nonzero"] += int(np.count_nonzero(out))

        return dataclasses.replace(
            kernel, log_profile=self.wrap("kernels.log_profile", kernel.log_profile, after)
        )

    def function(self, f):
        base = f.log_evaluate
        if base is None:
            base = lambda v, _f=f: _f.evaluate(np.exp(np.asarray(v, dtype=float)))

        def after(args, out):
            self.counters["spaces.evaluate_log.points"] += int(np.size(args[0]))

        return dataclasses.replace(f, log_evaluate=self.wrap("spaces.evaluate_log", base, after))

    # -- installation ------------------------------------------------------

    def install(self):
        """Swap the entry points and registered functions for traced ones."""
        package = sys.modules["expsampling"]
        modules = [package] + [sys.modules[f"expsampling.{m}"] for m in _MODULES]
        for layer, (home, names) in ENTRY_POINTS.items():
            home_module = sys.modules[f"expsampling.{home}"]
            for attr in names:
                original = getattr(home_module, attr, None)
                if not callable(original):
                    continue
                self.present.add(layer)
                before = self._scan_repeat(attr, original) if layer == "kernels.moment_scan" else None
                after = self._grid_points if attr == "evaluate_on_grid" else None
                wrapped = self.wrap(layer, original, after, before)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapped)
        spaces = sys.modules["expsampling.spaces"]
        self._functions = dict(spaces.FUNCTIONS)
        for name, f in self._functions.items():
            spaces.FUNCTIONS[name] = self.function(f)

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        if self._functions:
            sys.modules["expsampling.spaces"].FUNCTIONS.update(self._functions)
            self._functions = {}

    def _grid_points(self, args, rows):
        self.counters["operators.grid_points"] += len(rows)

    def _scan_repeat(self, attr, original):
        signature = inspect.signature(original)
        kind = _SCAN_KIND[attr]

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = [kind]
            for name, value in bound.arguments.items():
                key.append((name, id(value) if name == "kernel" else repr(value)))
            key = tuple(key)
            if key in self._scans_seen:
                self.counters["kernels.moment_scan.repeat_calls"] += 1
            self._scans_seen.add(key)

        return before

    # -- results -----------------------------------------------------------

    def spans(self):
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]

    def metrics(self, ops: int) -> dict:
        """Per-op means of every per-layer metric whose entry points exist."""
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        spans = self.spans()
        for (name, _, _, _), t in zip(spans, self_times(spans)):
            self_ns[name] += t
            calls[name] += 1
        c = self.counters
        points = c["kernels.log_profile.points"]
        values = {
            "kernels.log_profile.nonzero_ratio": c["kernels.log_profile.nonzero"] / points if points else 0.0,
            "kernels.log_profile.points": points / ops,
            "operators.grid_points": c["operators.grid_points"] / ops,
            "spaces.evaluate_log.points": c["spaces.evaluate_log.points"] / ops,
            "kernels.moment_scan.repeat_calls": c["kernels.moment_scan.repeat_calls"] / ops,
            "cli.artifact_bytes": c["cli.artifact_bytes"] / ops,
        }
        out = {}
        for metric, unit, _, layer in PER_LAYER:
            if layer not in self.present:
                continue
            if metric.endswith(".self_ms"):
                value = self_ns[layer] / 1e6 / ops
            elif metric.endswith(".calls"):
                value = calls[layer] / ops
            else:
                value = values[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, ops: int):
        """Write the spans of the run, gzipped JSON in columns."""
        payload = {
            "ops": ops,
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)
