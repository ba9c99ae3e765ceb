#!/usr/bin/env python3
"""Record one section of a ``BENCH_*.json`` file for a checkout of subsens.

Run from the repository root:

    python3 scripts/bench_record.py --out BENCH_8.json --section change
    python3 scripts/bench_record.py --out BENCH_8.json --section parent \
        --root ../parent-checkout

The script measures the checkout at ``--root`` (default: the repository that
holds this script) with that checkout's own ``perfbench/run.py``, unchanged:

- each workload ``REPEATS`` times untraced (the 4 end-to-end metrics) and
  ``REPEATS`` times with ``--trace 1`` (the 21 per-layer metrics), at seed
  ``SEED`` for ``SECONDS`` seconds, and keeps the median of every metric;
- the wall time of every ``subsens reproduce`` suite and of the tier-1 test
  run;
- the number of lines in ``src/``.

The section is written under its name into ``--out``; other sections
already in the file are kept, so a parent and a change can be recorded by
the same script into one file.  Each section carries the platform, CPU
count and Python and numpy versions it was recorded under.  Every run must
report ``correct: true``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-scan", "exact-dp", "sampled", "distributed")
SEED = 7
SECONDS = 20
REPEATS = 3
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _timed(cmd: list[str], root: str) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - start, proc


def perfbench(root: str, workload: str, trace: int) -> dict:
    """One perfbench run; returns its metric values by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    _, proc = _timed(cmd, root)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench {workload} (trace {trace}) exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench {workload} (trace {trace}) failed its checks:\n"
                         + proc.stdout)
    return {name: m["value"] for name, m in result["metrics"].items()}


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def suite_times(root: str) -> dict:
    listing = subprocess.run([sys.executable, "-m", "subsens.harness", "list-suites"],
                             cwd=root, env=_env(root), stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    names = [line.split(":")[0] for line in listing.splitlines() if line.strip()]
    times = {}
    with tempfile.TemporaryDirectory() as out:
        for name in names:
            cmd = [sys.executable, "-m", "subsens.harness", "reproduce", name,
                   "--outdir", out]
            elapsed, proc = _timed(cmd, root)
            if proc.returncode != 0:
                raise SystemExit(f"suite {name} exited {proc.returncode}:\n"
                                 f"{proc.stdout}{proc.stderr}")
            times[name] = elapsed
    return times


def src_lines(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def record(root: str) -> dict:
    workloads = {}
    for workload in WORKLOADS:
        plain = [perfbench(root, workload, 0) for _ in range(REPEATS)]
        traced = [perfbench(root, workload, 1) for _ in range(REPEATS)]
        workloads[workload] = {"end_to_end": medians(plain), "traced": medians(traced),
                               "runs": {"end_to_end": plain, "traced": traced}}
    tier1_s, proc = _timed([sys.executable] + TIER1, root)
    return {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "perfbench": {"seed": SEED, "seconds": SECONDS, "repeats": REPEATS,
                      "statistic": "median", "workloads": workloads},
        "suite_wall_s": suite_times(root),
        "tier1": {"wall_s": tier1_s, "summary": proc.stdout.strip().splitlines()[-1]},
        "src_lines": src_lines(root),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="BENCH_*.json file to update")
    ap.add_argument("--section", required=True, help="name of the section to write")
    ap.add_argument("--root", default=os.path.dirname(HERE), help="checkout to measure")
    args = ap.parse_args(argv)
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.setdefault("sections", {})[args.section] = record(os.path.abspath(args.root))
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
