#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [workload ...]

1. BENCHMARK.json lists exactly the metrics, with the units, that run.py
   reports.
2. Two traced runs with the same seed give identical per-layer counts
   (calls, nodes, points, J evaluations, overflows, spline builds, bytes).
   Each traced run also checks that its untraced re-runs reproduce the
   traced outputs, and fails if they do not.

A traced two_bubble_decompose run takes about as long as one pass (ten
decompositions), so checking every workload takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import tracing


def check_manifest() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    listed = {w["name"] for w in spec["workloads"]}
    if listed != set(run.WORKLOAD_NAMES):
        problems.append(f"workloads {sorted(listed)} != {sorted(run.WORKLOAD_NAMES)}")
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(reported):
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(Path(run.__file__).resolve()),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"traced {workload} run failed:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracing.COUNT_METRICS}


def main(argv: list[str]) -> int:
    problems = check_manifest()
    for workload in argv or run.WORKLOAD_NAMES:
        first = traced_counts(workload, run.DEFAULT_SEED)
        second = traced_counts(workload, run.DEFAULT_SEED)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            problems.append(f"{workload}: counts differ between traced runs: {diff}")
        print(f"{workload}: {len(first)} counts compared, {len(diff)} differ", flush=True)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
