"""Traced runs: spans around the package's public functions, set from outside.

``Tracer`` rebinds every traced function in each orlicz4d module that holds
it under a name.  Modules that did ``from .gridfn import
integrate_samples`` keep their own reference, so rebinding the home module
alone would miss their calls.  A few foreign call sites (scipy's
``CubicSpline`` and ``quad``) are rebound only in the modules listed.  Spans
stay in memory as ``[name, start, end, parent span, op id, value, error]``
and are written out when the run ends; ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of its direct child
spans (the run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _nodes(args, out):
    return len(args[0])


def _points(args, out):
    return int(getattr(args[0], "size", 1))


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _text_bytes(args, out):
    return len(out.encode())


def _exit_code(args, out):
    return out


# (home module, function or Class.method, per-call value or None)
PACKAGE_FUNCTIONS = [
    ("gridfn", "integrate_samples", _nodes),
    ("gridfn", "LogRadialFunction.derivative", None),
    ("norms", "norm", None),
    ("norms", "norms_squared", None),
    ("norms", "check_radial_inequalities", None),
    ("orlicz", "orlicz_norm", None),
    ("orlicz", "orlicz_functional", None),   # one call is one J evaluation
    ("orlicz", "exp_weighted_integral", None),
    ("orlicz", "tm_functional", None),
    ("bubbles", "bubble_values", _points),
    ("bubbles", "make_falpha", None),
    ("decompose", "decompose", None),
    ("decompose", "estimate_A0", None),
    ("decompose", "detect_scale", None),
    ("decompose", "subtract_bubble", None),
    ("decompose", "energy_ledger", None),
    ("concentration", "pair_concentration", None),
    ("serialize", "read_json", _file_bytes),
    ("serialize", "dumps", _text_bytes),
]

# (module, name bound there, span name)
FOREIGN_CALLS = [
    ("gridfn", "CubicSpline", "gridfn.spline_builds"),
    ("decompose", "CubicSpline", "decompose.spline_builds"),
    ("concentration", "quad", "concentration.quad"),
]

CLI_COMMANDS = ("gen-falpha", "orlicz", "tm", "concentration")

REPORTED_SPANS = [
    "gridfn.integrate_samples", "gridfn.spline_builds", "gridfn.derivative",
    "norms.norm", "norms.norms_squared", "norms.check_radial_inequalities",
    "orlicz.orlicz_norm", "orlicz.exp_weighted_integral", "orlicz.tm_functional",
    "bubbles.bubble_values", "bubbles.make_falpha",
    "decompose.decompose", "decompose.estimate_A0", "decompose.detect_scale",
    "decompose.subtract_bubble", "decompose.energy_ledger", "decompose.spline_builds",
    "concentration.pair_concentration", "concentration.quad",
    "serialize.read_json", "serialize.dumps",
] + [f"cli.main.{c}" for c in CLI_COMMANDS]

# per-layer metrics of a traced run: (name, unit); counts are per pass
PER_LAYER = [m for span in REPORTED_SPANS
             for m in ((f"{span}.calls", "count"), (f"{span}.self_s", "s"))] + [
    ("gridfn.integrate_samples.nodes", "count"),
    ("bubbles.bubble_values.points", "count"),
    ("orlicz.J_evals", "count"),
    ("orlicz.J_evals_per_norm", "ratio"),
    ("orlicz.J_overflow", "count"),
    ("orlicz.J_nodes", "count"),
    ("serialize.bytes_read", "bytes"),
    ("serialize.bytes_written", "bytes"),
    ("cli.main.nonzero_exits", "count"),
    ("trace.traced_op_p50_s", "s"),
    ("trace.untraced_op_p50_s", "s"),
    ("trace.overhead_s", "s"),
]

# metrics that must repeat exactly between two traced runs with one seed
COUNT_METRICS = [name for name, unit in PER_LAYER if unit in ("count", "bytes", "ratio")]


class Tracer:
    """Span recorder.  The rebinding list is built once; ``install`` and
    ``uninstall`` only swap attributes, so tracing can be switched per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        package = [m for n, m in list(sys.modules.items())
                   if n == "orlicz4d" or n.startswith("orlicz4d.")]
        for home, attr, value in PACKAGE_FUNCTIONS:
            mod = importlib.import_module(f"orlicz4d.{home}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._add(cls, meth, f"{home}.{meth}", value)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(f"{home}.{attr}", orig, value)
            for m in package:
                for name, obj in list(vars(m).items()):
                    if obj is orig:
                        self._patches.append((m, name, orig, wrapped))
        for home, attr, span in FOREIGN_CALLS:
            self._add(importlib.import_module(f"orlicz4d.{home}"), attr, span)
        self._add(importlib.import_module("orlicz4d.cli"), "main",
                  lambda args: f"cli.main.{args[0][0]}", _exit_code)

    def _add(self, owner, attr, name, value=None) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig, self._wrap(name, orig, value)))

    def _wrap(self, name, fn, value=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if value is not None:
                span[5] = value(args, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, _orig, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapped in reversed(self._patches):
            setattr(owner, attr, orig)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer counts and self times, per pass over the workload inputs."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        value: Counter = Counter()
        nonzero_exits = overflow = j_nodes = 0
        for k, (name, t0, t1, parent, _op, val, err) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_s[k]
            if val is not None:
                value[name] += val
            if name.startswith("cli.main.") and val:
                nonzero_exits += 1
            if name == "orlicz.orlicz_functional" and err == "IntegrandOverflowError":
                overflow += 1
            if (name == "gridfn.integrate_samples" and parent >= 0
                    and spans[parent][0] == "orlicz.exp_weighted_integral"):
                j_nodes += val

        def per_pass(x):
            return x // passes if x % passes == 0 else x / passes

        out: dict[str, float] = {}
        for span in REPORTED_SPANS:
            out[f"{span}.calls"] = per_pass(calls[span])
            out[f"{span}.self_s"] = self_s[span] / passes
        norms_run = calls["orlicz.orlicz_norm"]
        out.update({
            "gridfn.integrate_samples.nodes": per_pass(value["gridfn.integrate_samples"]),
            "bubbles.bubble_values.points": per_pass(value["bubbles.bubble_values"]),
            "orlicz.J_evals": per_pass(calls["orlicz.orlicz_functional"]),
            "orlicz.J_evals_per_norm": (calls["orlicz.orlicz_functional"] / norms_run
                                        if norms_run else 0.0),
            "orlicz.J_overflow": per_pass(overflow),
            "orlicz.J_nodes": per_pass(j_nodes),
            "serialize.bytes_read": per_pass(value["serialize.read_json"]),
            "serialize.bytes_written": per_pass(value["serialize.dumps"]),
            "cli.main.nonzero_exits": per_pass(nonzero_exits),
        })
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, val, err in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - origin, "end": t1 - origin,
                                     "parent": parent, "op": op, "value": val,
                                     "error": err}) + "\n")
