#!/usr/bin/env python3
"""Seeded end-to-end benchmark for quasicirc, stdlib only.

    python3 bench/run.py --workload solve_roundtrip --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
solve_roundtrip, map_algebra and cli_mix.  `all` runs each in its own child
process, one after another, and prints every metric of each.

Each workload is a closed loop: one caller on one thread sends the next
operation only after the previous one returned.  Only the library call is
timed; its output is checked right after, outside the timed region, and
every wrong output, unexpected exception or wrong exit code counts as a
failed operation.  Set-up (importing the library, generating the inputs and
writing fixture files) is repeated SETUP_REPEATS times and its median is
reported as setup_s.

Times are given at a fixed reference speed.  The shared host this was tuned
on changes speed by up to half within seconds, for any pure-Python loop,
which no run length averages out.  So the benchmark times a fixed reference
kernel (a Fraction polynomial product that shares no code with the library)
before the first operation and after every CALIBRATE_EVERY_S of operation
time, and scales each operation's wall time by REFERENCE_S over the mean
kernel time on either side of it: an operation that ran while the host was
slow counts as it would have at the speed where the kernel takes
REFERENCE_S.  A change to the library moves the operations and not the
kernel, so it shows in full.  Run length and the trace's self times stay
unscaled wall time.

--trace 0 runs whole rounds of operations until --seconds of operation time
have passed and reports the end-to-end metrics.  Each workload fixes the
percentile it reports as op_ms_tail: the highest one with at least ten
samples beyond it at the chosen run length.  The loop goes on until it has
those ten samples, and a fixed percentile keeps runs of different speed
comparable.

--trace 1 runs each of a fixed number of rounds twice, plain and with spans
recorded at the library's module boundaries (spans.py), and reports the
per-layer metrics summed over the traced rounds; the fixed round count makes
every count repeat exactly for a given seed.  A layer the workload never
reaches reads 0.  Every traced run also times COLD_START_RUNS separate
`python -m quasicirc` processes, one after another.  The spans are written to
.bench_run/spans-<workload>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The process exits non-zero, without that line, when the
library source is not found next to this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import count
from pathlib import Path
from time import perf_counter

from spans import LAYER_METRICS, Tracer
from workloads import ROOT, SRC, WORKLOADS, unexpected

SETUP_REPEATS = 9
#: samples a run must have beyond its tail percentile
TAIL_SAMPLES = 10
COLD_START_RUNS = 5
SHOWN_FAILURES = 5
#: the reference kernel's time at the speed all times are given at (the
#: quiet speed of a shared 2-vCPU x86-64 host), how many runs of it make one
#: reading (the fastest counts, so one preemption does not read as a slow
#: host), and the operation time between readings
REFERENCE_S = 2.0e-3
CALIBRATION_REPEATS = 5
CALIBRATE_EVERY_S = 0.2
RUN_DIR = ROOT / ".bench_run"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = LAYER_METRICS + (
    ("cli.cold_start_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def import_library():
    """Import quasicirc from this checkout's src/, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "quasicirc" or n.startswith("quasicirc.")]:
        del sys.modules[name]
    qc = importlib.import_module("quasicirc")
    if SRC.resolve() not in Path(qc.__file__).resolve().parents:
        raise ImportError(f"quasicirc was imported from {qc.__file__}, not from {SRC}")
    return qc


_KERNEL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}


def reference_kernel() -> dict:
    """The square of a fixed 25-term polynomial in two variables."""
    product = {}
    for (a1, a2), x in _KERNEL_TERMS.items():
        for (b1, b2), y in _KERNEL_TERMS.items():
            key = (a1 + b1, a2 + b2)
            product[key] = product.get(key, 0) + x * y
    return product


def kernel_s() -> float:
    """One reading of the host's speed: the fastest of CALIBRATION_REPEATS kernel runs."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        start = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - start)
    return best


def set_up(name: str, seed: int, workdir):
    """Build the workload SETUP_REPEATS times; return the last one and the median time."""
    times = []
    before = kernel_s()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = WORKLOADS[name](import_library(), seed, workdir)
        elapsed = perf_counter() - start
        after = kernel_s()
        times.append(elapsed * 2 * REFERENCE_S / (before + after))
        before = after
    return workload, statistics.median(times)


class Stats:
    """Latencies and outcomes of the operations of one loop.

    `latencies` are at the reference speed, in seconds; `busy` is the wall
    time of the timed calls.  Latencies not yet scaled wait in `pending`
    until the next kernel reading.
    """

    def __init__(self):
        self.latencies = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pending = []
        self.since = 0.0
        self.kernel = kernel_s()

    def add(self, elapsed: float) -> None:
        self.attempted += 1
        self.busy += elapsed
        self.pending.append(elapsed)
        self.since += elapsed
        if self.since >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        """Read the kernel again and scale the pending latencies by both readings."""
        now = kernel_s()
        scale = 2 * REFERENCE_S / (self.kernel + now)
        self.latencies.extend(elapsed * scale for elapsed in self.pending)
        self.pending.clear()
        self.since = 0.0
        self.kernel = now

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(reason)

    def ops_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.latencies)


def run_rounds(workload, rounds, stats, stop=None, tracer=None) -> Stats:
    """Run rounds of operations, closed loop, until `stop(stats)` or the rounds end."""
    for ops in rounds:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
                tracer.active = True
            start = perf_counter()
            try:
                out = workload.execute(op)
            except Exception as exc:  # the check decides whether it was expected
                out = exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
                for name, value in workload.trace_counts(out).items():
                    tracer.count(name, value)
            stats.add(elapsed)
            try:
                problem = workload.check(op, out)
            except Exception as exc:  # a malformed output can break the check itself
                problem = unexpected(exc)
            if problem is not None:
                stats.fail(problem)
        if stop is not None and stop(stats):
            break
    stats.calibrate()
    return stats


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def cold_start_ms(stats: Stats) -> float:
    """Median wall time of `python -m quasicirc partition --weights 1,2`, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "quasicirc", "partition", "--weights", "1,2"]
    times = []
    for _ in range(COLD_START_RUNS):
        start = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        stats.attempted += 1
        try:
            ok = done.returncode == 0 and json.loads(done.stdout) == {"boundaries": [0, 1, 2]}
        except ValueError:
            ok = False
        if not ok:
            stats.fail(f"cold start exited {done.returncode}: {done.stderr.strip()[-200:]}")
    return statistics.median(times) * 1000


def run(name: str, seed: int, seconds: float, trace: bool, patch=None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    `patch`, when given, is called with the set-up workload before anything
    is timed; tests use it to substitute a faulty library call.
    """
    workdir = RUN_DIR / f"{name}-{os.getpid()}"
    try:
        workload, setup_s = set_up(name, seed, workdir)
        if patch is not None:
            patch(workload)
        if not trace:
            p = workload.tail_percentile
            min_ops = math.ceil(TAIL_SAMPLES * 100 / (100 - p))
            stats = run_rounds(
                workload,
                (workload.round(r) for r in count()),
                Stats(),
                stop=lambda s: s.busy >= seconds and s.attempted >= min_ops,
            )
            runs = [stats]
            cuts = statistics.quantiles(stats.latencies, n=100, method="inclusive")
            metrics = {
                "ops_per_s": stats.ops_per_s(),
                "op_ms_p50": cuts[49] * 1000,
                "op_ms_tail": cuts[p - 1] * 1000,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = dict(END_TO_END)
            notes = {
                "op_ms_tail": f"p{p} of {stats.attempted} samples",
            }
        else:
            # each round runs plain and traced, in alternating order, so that
            # drift in machine speed and warm-up touch both sides alike
            plain, traced, tracer = Stats(), Stats(), Tracer()
            for r in range(workload.traced_rounds):
                ops = workload.round(r)
                for with_spans in (r % 2 == 1, r % 2 == 0):
                    if not with_spans:
                        run_rounds(workload, [ops], plain)
                        continue
                    tracer.install()
                    try:
                        run_rounds(workload, [ops], traced, tracer=tracer)
                    finally:
                        tracer.uninstall()
            runs = [plain, traced]
            metrics = {key: value for key, (value, _) in tracer.metrics().items()}
            cold = Stats()
            metrics["cli.cold_start_ms"] = cold_start_ms(cold)
            runs.append(cold)
            metrics["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
            units = dict(PER_LAYER)
            notes = {"trace.overhead_ratio": f"{workload.traced_rounds} rounds, {traced.attempted} operations"}
            RUN_DIR.mkdir(exist_ok=True)
            tracer.dump(RUN_DIR / f"spans-{name}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in runs)
    failed = sum(s.failed for s in runs)
    for reason in [r for s in runs for r in s.failures]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"{name} seed={seed} trace={int(trace)}: {attempted} operations, {failed} failed")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:40s} {value:>16.6g} {units[key]}{note}")
    print(f"  {'fail_ratio':40s} {failed / attempted:>16.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own child process and collect the results."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(done.stdout, end="")
            status = 1
            continue
        *report, last = done.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quasicirc" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
