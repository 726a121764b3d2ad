#!/usr/bin/env python3
"""Benchmark for orlicz4d: seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload falpha_cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

One run is one client in one process: the next op starts only when the
previous one has returned, and BLAS/OpenMP threads are capped at the number
of CPUs the process may use.  The run repeats whole passes over the seeded
inputs (see workloads.py) until ``--seconds`` of wall time have passed, and
checks every op's output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the ops under the tracer (tracing.py)
and reports per-layer metrics instead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
readable report and the environment come before it, and a record of the run
(plus the spans of a traced run) is written under .bench_out/.

Exit codes: 0 every output correct, 1 an op raised or failed its check,
2 the package could not be imported or set up (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("two_bubble_decompose", "falpha_cli", "corpus_inequalities")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027    # kept back for confirming later performance claims
SETUP_PROBES = 2        # extra set-ups, each in a fresh interpreter
TAIL_BLOCK = 200        # ops per tail block, so a block's tail is at most p95
MIN_UNTRACED_OPS = 2    # traced run: ops also run untraced, for the overhead figure

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB")]


class SetupError(RuntimeError):
    """The package or a workload's inputs could not be set up."""


def cap_threads() -> int:
    """Cap native thread pools at the usable CPU count; children inherit it."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def timed_setup(name: str, seed: int):
    """Import orlicz4d from this checkout and build the workload's inputs.

    Returns (seconds, workload, context); nothing numeric is imported before
    the clock starts, so the package's import cost is inside the figure.
    """
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import orlicz4d
        import workloads
    except ImportError as exc:
        raise SetupError(f"import failed with {SRC} on the path: {exc}") from exc
    if Path(orlicz4d.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"orlicz4d was imported from {orlicz4d.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(seed)
    return perf_counter() - t0, wl, ctx


def probe_setup(name: str, seed: int) -> float:
    """One more set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", name, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def one_op(wl, ctx, x, digest: bool = False):
    """Run one op on input x.  Returns (op seconds, problems, output digest
    or None)."""
    arg = wl.prepare(ctx, x)
    t0 = perf_counter()
    try:
        out = wl.op(ctx, arg)
    except Exception:   # an op that raises counts as failed; the run goes on
        return perf_counter() - t0, [traceback.format_exc()], None
    dt = perf_counter() - t0
    try:
        return dt, wl.check(ctx, x, out), wl.digest(ctx, x, out) if digest else None
    except Exception:   # so does an output the check cannot read
        return dt, [traceback.format_exc()], None


class Tally:
    KEEP = 50   # failure texts kept for the report

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:self.KEEP - len(self.problems)])


def tail(times: list[float], pass_len: int) -> tuple[float, float, int, int]:
    """Tail latency: the highest percentile with at least ten samples beyond.

    Over a long run of millisecond ops that percentile lands among the
    machine's slow patches and flips from run to run.  So the run is cut, in
    order, into blocks of whole passes holding at least TAIL_BLOCK ops (one
    block if the run is shorter).  Each block gives its highest percentile
    with ten samples beyond (its maximum if it has fewer than eleven ops),
    and the median over blocks is reported.  Returns (value, percentile,
    ops per block, blocks).
    """
    per_block = pass_len * -(-TAIL_BLOCK // pass_len)
    blocks = [times[i:i + per_block] for i in range(0, len(times), per_block)]
    if len(blocks) > 1 and len(blocks[-1]) < per_block:
        blocks[-2] = blocks[-2] + blocks.pop()
    tails = [sorted(b)[-11] if len(b) >= 11 else max(b) for b in blocks]
    size = len(blocks[0])
    pct = 100.0 * (size - 10) / size if size >= 11 else 100.0
    return statistics.median(tails), pct, size, len(blocks)


def warm_up(wl, ctx, tally: Tally) -> None:
    """One untimed op on the first input.  The first op in a process pays
    one-off costs (lazy imports, allocator growth) that are not the op's."""
    tally.add(one_op(wl, ctx, wl.inputs(ctx)[0])[1])


def plain_run(wl, ctx, seconds: float, tally: Tally) -> dict:
    inputs = wl.inputs(ctx)
    times: list[float] = []
    warm_up(wl, ctx, tally)
    start = perf_counter()
    while True:
        for x in inputs:
            dt, problems, _ = one_op(wl, ctx, x)
            times.append(dt)
            tally.add(problems)
        if perf_counter() - start >= seconds:
            break
    value, pct, size, blocks = tail(times, len(inputs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {"ops_per_s": len(times) / sum(times),
                    "op_p50_s": statistics.median(times),
                    "op_tail_s": value,
                    "peak_rss_mb": rss_mb},
        "notes": {"ops_per_s": f"{len(times)} ops in {sum(times):.4g} s of op time",
                  "op_tail_s": (f"p{pct:.4g}, 10 of {size} ops beyond it, median over "
                                f"{blocks} block(s)" if size >= 11 else
                                f"maximum: {size} ops, too few for ten beyond")},
        "times": times,
    }


def traced_run(wl, ctx, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Whole traced passes until ``seconds`` have gone by (at least one pass).

    While time remains, and for at least MIN_UNTRACED_OPS ops, each traced op
    is followed at once by an untraced run of the same input, whose output
    must equal the traced output; the overhead figure compares these pairs.
    """
    inputs = wl.inputs(ctx)
    tracer = tracing.Tracer()
    digests: dict[int, str | None] = {}
    pairs: list[tuple[float, float]] = []
    passes = 0
    warm_up(wl, ctx, tally)
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for i, x in enumerate(inputs):
            tracer.op_id = passes * len(inputs) + i
            tracer.install()
            try:
                traced_s, problems, digest = one_op(wl, ctx, x, digest=True)
            finally:
                tracer.uninstall()
            if digests.setdefault(i, digest) != digest:
                problems = problems + [f"op {i}: output differs between traced passes"]
            tally.add(problems)
            if len(pairs) < MIN_UNTRACED_OPS or perf_counter() - start < seconds:
                untraced_s, problems, plain_digest = one_op(wl, ctx, x, digest=True)
                if plain_digest != digest:
                    problems = problems + [f"op {i}: untraced output differs from traced output"]
                tally.add(problems)
                pairs.append((traced_s, untraced_s))
        passes += 1

    metrics = tracer.layer_metrics(passes)
    traced_p50 = statistics.median(t for t, _ in pairs)
    untraced_p50 = statistics.median(u for _, u in pairs)
    metrics.update({"trace.traced_op_p50_s": traced_p50,
                    "trace.untraced_op_p50_s": untraced_p50,
                    "trace.overhead_s": traced_p50 - untraced_p50})
    tracer.write_spans(spans_path)
    return {"metrics": metrics,
            "notes": {"trace.overhead_s": (f"{passes} traced pass(es) of {len(inputs)} ops; "
                                           f"p50 over {len(pairs)} ops, each run traced "
                                           "and then untraced")},
            "spans": str(spans_path.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "blas_threads": threads, "commit": git_commit()}


def run_workload(args) -> int:
    threads = cap_threads()
    try:
        setup_s, wl, ctx = timed_setup(args.workload, args.seed)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = traced_run(wl, ctx, args.seconds, tally, OUT / f"spans-{stem}.jsonl")
            units = dict(tracing.PER_LAYER)
        else:
            setups = [setup_s] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            result = plain_run(wl, ctx, args.seconds, tally)
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["notes"]["setup_s"] = "median of set-ups " + ", ".join(f"{s:.4g}" for s in setups)
            result["setups"] = setups
            units = dict(END_TO_END)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        wl.close(ctx)

    env = environment(threads)
    fail_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, unit in units.items():
        note = result["notes"].get(name)
        print(f"  {name:42s} {result['metrics'][name]!r:>24} {unit:6s}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_frac':42s} {fail_frac!r:>24} ratio   ({tally.failed} of {tally.attempted} ops failed)")
    for p in tally.problems[:5]:
        print(f"FAILED: {p}", file=sys.stderr)

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, attempted=tally.attempted, failed=tally.failed,
                  fail_frac=fail_frac, problems=tally.problems)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        worst = max(worst, proc.returncode)
        if proc.returncode == 2 or not lines:
            continue
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if worst == 2:
        return 2
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="wall time to keep starting passes for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        cap_threads()
        try:
            seconds, wl, ctx = timed_setup(args.workload, args.seed)
        except SetupError as exc:
            print(exc, file=sys.stderr)
            return 2
        wl.close(ctx)
        print(repr(seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
