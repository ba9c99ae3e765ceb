#!/usr/bin/env python3
"""Record one section of a ``BENCH_*.json`` file for a checkout of subsens.

Run from the repository root:

    python3 scripts/bench_record.py --out BENCH_10.json --section change
    python3 scripts/bench_record.py --out BENCH_10.json --section parent \
        --root ../parent-checkout

The script measures the checkout at ``--root`` (default: the repository that
holds this script) with that checkout's own ``perfbench/run.py``, unchanged:

- each workload ``REPEATS`` times untraced (the 4 end-to-end metrics) and
  ``REPEATS`` times with ``--trace 1`` (the 21 per-layer metrics), at seed
  ``SEED`` for ``SECONDS`` seconds, and keeps the median of every metric;
- the wall time of every ``subsens reproduce`` suite and of the tier-1 test
  run;
- the number of lines in ``src/``.

Wall times drift with the machine's speed, so every suite, the tier-1 run
and every perfbench run is bracketed by two timings of ``calibrate()`` from
the checkout's own ``perfbench/run.py``, each the median of
``CALIBRATIONS`` calls, since one call varies by up to 2x.  Each raw time
is stored next to ``wall_s * CALIBRATION_REF_S / mean(before, after)``, the
time on a machine where the kernel takes ``CALIBRATION_REF_S``
(``setup_s_calibrated`` for perfbench's ``setup_s``).

The section is written under its name into ``--out``; other sections
already in the file are kept, so a parent and a change can be recorded by
the same script into one file.  Each section carries the platform, CPU
count and Python and numpy versions it was recorded under.  Every run must
report ``correct: true``.
"""

from __future__ import annotations

import argparse
import importlib.util
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
CALIBRATIONS = 5
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


def load_perfbench(root: str):
    """The checkout's own ``perfbench/run.py`` as a module, unchanged."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(root, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calibrated(cmd: list[str], root: str, bench) -> tuple[dict, subprocess.CompletedProcess]:
    """Run ``cmd`` between two calibration timings; returns the raw wall
    time, both timings and the calibration factor, and the process."""
    before = statistics.median(bench.calibrate() for _ in range(CALIBRATIONS))
    wall, proc = _timed(cmd, root)
    after = statistics.median(bench.calibrate() for _ in range(CALIBRATIONS))
    factor = bench.CALIBRATION_REF_S / ((before + after) / 2)
    return {"wall_s": wall, "calibrated_s": wall * factor,
            "calibration_s": [before, after], "factor": factor}, proc


def perfbench(root: str, workload: str, trace: int, bench) -> dict:
    """One perfbench run; returns its metric values by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    timing, proc = _calibrated(cmd, root, bench)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench {workload} (trace {trace}) exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench {workload} (trace {trace}) failed its checks:\n"
                         + proc.stdout)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if "setup_s" in values:
        values["setup_s_calibrated"] = values["setup_s"] * timing["factor"]
    return values


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def suite_times(root: str, bench) -> dict:
    listing = subprocess.run([sys.executable, "-m", "subsens.harness", "list-suites"],
                             cwd=root, env=_env(root), stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    names = [line.split(":")[0] for line in listing.splitlines() if line.strip()]
    times = {}
    with tempfile.TemporaryDirectory() as out:
        for name in names:
            cmd = [sys.executable, "-m", "subsens.harness", "reproduce", name,
                   "--outdir", out]
            times[name], proc = _calibrated(cmd, root, bench)
            if proc.returncode != 0:
                raise SystemExit(f"suite {name} exited {proc.returncode}:\n"
                                 f"{proc.stdout}{proc.stderr}")
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
    bench = load_perfbench(root)
    workloads = {}
    for workload in WORKLOADS:
        plain = [perfbench(root, workload, 0, bench) for _ in range(REPEATS)]
        traced = [perfbench(root, workload, 1, bench) for _ in range(REPEATS)]
        workloads[workload] = {"end_to_end": medians(plain), "traced": medians(traced),
                               "runs": {"end_to_end": plain, "traced": traced}}
    tier1, proc = _calibrated([sys.executable] + TIER1, root, bench)
    return {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "perfbench": {"seed": SEED, "seconds": SECONDS, "repeats": REPEATS,
                      "statistic": "median", "workloads": workloads},
        "calibration_ref_s": bench.CALIBRATION_REF_S,
        "suites": suite_times(root, bench),
        "tier1": {**tier1, "summary": proc.stdout.strip().splitlines()[-1]},
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
