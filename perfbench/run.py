#!/usr/bin/env python3
"""Benchmark for subsens: four workloads measured end to end, and a traced
mode that reports per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats whole passes over the workload's operations for at least
``--seconds`` seconds (and at least three passes), then checks the last
pass's results against ``reference.py``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("exact-scan", "exact-dp", "sampled", "distributed")
SETUP_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
TRACE_DIR = os.path.join(ROOT, ".perfbench")
# Times are rescaled to a machine on which calibrate() takes this long; see
# "Machine-speed calibration" in README.md.
CALIBRATION_REF_S = 0.025


def pin_environment():
    """One thread everywhere; must run before numpy is imported."""
    os.environ.pop("SENS_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_subsens() -> dict:
    """Import subsens from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import subsens
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import subsens from {SRC}: {exc}") from None
    if not os.path.realpath(subsens.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: subsens was imported from {subsens.__file__}, not {SRC}")
    import subsens.oracle
    import subsens.distributions
    import subsens.transport
    import subsens.sensitivity
    import subsens.distsim
    return {name: getattr(subsens, name)
            for name in ("oracle", "distributions", "transport", "sensitivity", "distsim")}


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and numpy work (about 25 ms)."""
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    x = 0
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + (x >> 7).bit_count()
    a = np.arange(20_000.0)
    for _ in range(20):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - start


class CalibratedClock:
    """Adds up operation time in segments of at least SEGMENT_S seconds and
    rescales each segment by the calibration runs on either side of it."""

    SEGMENT_S = 0.2

    def __init__(self):
        self.speeds = [calibrate()]
        self.segment = 0.0

    def add(self, seconds: float, end_of_pass: bool) -> float:
        """Record operation time; returns the calibrated time of the segment
        this closes, or 0.0 while the segment stays open."""
        self.segment += seconds
        if not end_of_pass and self.segment < self.SEGMENT_S:
            return 0.0
        self.speeds.append(calibrate())
        scaled = self.segment * 2 * CALIBRATION_REF_S / (self.speeds[-2] + self.speeds[-1])
        self.segment = 0.0
        return scaled


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def raised_in_program(exc: BaseException) -> bool:
    """True when the exception passed through a frame under src/."""
    src = os.path.realpath(SRC) + os.sep
    tb = exc.__traceback__
    while tb is not None:
        if os.path.realpath(tb.tb_frame.f_code.co_filename).startswith(src):
            return True
        tb = tb.tb_next
    return False


def run_pass(ops, tracer=None, clock=None):
    """One pass over the operations: returns its wall time, its calibrated
    time (0.0 without a clock), the results and the failures.  An exception
    that passed through the program counts as a failed operation; any
    other exception is a benchmark bug and propagates."""
    results, failures = {}, []
    wall = scaled = 0.0
    for i, (name, op) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            results[name] = op(results)
        except Exception as exc:
            if not raised_in_program(exc):
                raise
            failures.append((name, type(exc).__name__, str(exc)))
        elapsed = time.perf_counter() - start
        wall += elapsed
        if clock is not None:
            scaled += clock.add(elapsed, end_of_pass=i == len(ops) - 1)
    return wall, scaled, results, failures


def measure_setup(args) -> list[float]:
    """Wall times of fresh interpreters that import subsens and build the
    workload's instances, then exit.  The child's stdout is a pipe so that
    the end is seen when the pipe closes; waiting on the process with a
    timeout alone polls in steps of up to 50 ms."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return times


def check_failures(workload, failure_kinds, checks):
    """Every failed operation is a check failure unless it is the workload's
    known failure and raised the exception class recorded for it."""
    for (name, kind, message), count in sorted(failure_kinds.items()):
        expected = workload.known_failures.get(name)
        if kind == expected:
            print(f"perfbench: known failure x{count}: {name}: {kind}: {message}",
                  file=sys.stderr)
            continue
        claim = "succeeds" if expected is None else f"fails only with {expected}"
        checks(f"{name}: operation {claim}", False, f"{kind} x{count}: {message}")


def layer_metrics(tracing, tracer, stats, plain, traced, checks) -> dict:
    per_pass = [s.metrics() for s in stats]
    out = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif not tracer.available(name):
            value = None
        elif name in tracing.EXACT_COUNTS:
            values = {p[name] for p in per_pass}
            checks(f"{name} repeats exactly in every traced pass", len(values) == 1,
                   f"{sorted(values)}")
            value = per_pass[0][name]
        else:
            value = statistics.median(p[name] for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(args, tracer):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    spans = [{"id": s, "parent": p, "name": n, "start": a, "end": b, "op": o}
             for s, p, n, a, b, o in tracer.stats.spans]
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, fh)
    return path


def run_workload(args) -> int:
    sub = import_subsens()
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    import selftest
    import tracing

    broken = selftest.failures()
    if broken:
        print("perfbench: reference self-test failed: " + ", ".join(broken), file=sys.stderr)
        return 1
    setup_times = [] if args.trace else measure_setup(args)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.operations()
    tracer = tracing.Tracer(sub, workload.rules) if args.trace else None
    plain, scaled, traced, stats = [], [], [], []
    attempted = failed = 0
    failure_kinds = Counter()
    clock = CalibratedClock()
    rss_before_mb = peak_rss_mb()
    start = time.perf_counter()
    while True:
        # the previous pass's garbage is collected here, not inside a timed pass
        results = None
        gc.collect()
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.new_pass()
            tracer.install()
            try:
                elapsed, _, results, failures = run_pass(ops, tracer=tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            stats.append(tracer.stats)
        else:
            elapsed, calibrated, results, failures = run_pass(ops, clock=clock)
            plain.append(elapsed)
            scaled.append(calibrated)
        attempted += len(ops)
        failed += len(failures)
        failure_kinds.update(failures)
        passes = min(len(plain), len(traced)) if tracer else len(plain)
        if passes >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    rss_after_mb = peak_rss_mb()

    checks = workloads.Checks()
    check_failures(workload, failure_kinds, checks)
    workload.check(results, checks)
    if tracer:
        metrics = layer_metrics(tracing, tracer, stats, plain, traced, checks)
        print(f"spans of the last traced pass: {write_spans(args, tracer)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "report_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": rss_after_mb, "unit": "MB"},
            "pass_rss_mb": {"value": rss_after_mb - rss_before_mb, "unit": "MB"},
        }
    for problem in checks.failures:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} plain + {len(traced)} traced passes in {wall:.1f} s")
    print(f"  uncalibrated pass median {statistics.median(plain):.4f} s, "
          f"calibration kernel median {statistics.median(clock.speeds):.4f} s")
    print(f"  operations: {attempted} attempted, {failed} failed")
    print(f"  checks: {checks.count - len(checks.failures)} passed, "
          f"{len(checks.failures)} failed")
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<34} {shown:>14} {m['unit']}")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 and not lines:
            return proc.returncode
        status = status or proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
