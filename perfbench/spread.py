"""Run-to-run spread of the benchmark's metrics over seeds.

    python3 perfbench/spread.py --seeds 10 [--first-seed 100] [--workloads NAME ...]
    python3 perfbench/spread.py --seeds 10 --traced --json perfbench/baseline.json

Runs perfbench/run.py once per seed and workload, one run at a time, for the
run_seconds of BENCHMARK.json. For every end-to-end metric it prints the
median and the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. --traced adds one traced run per workload (on the first
seed) for the per-layer metrics; --json writes all of it, with the machine
and the layer-to-metric map, to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import run
import tracing
from workloads import WORKLOADS


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run's result, with its wall time under "elapsed_s"."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True, cwd=run.ROOT)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--json", type=Path, help="write the results to this file")
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
        "layers": {name: moves for name, _, _, moves in tracing.METRICS},
    }
    ok = True
    for workload in args.workloads:
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        ok = ok and all(r["correct"] for r in results)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{workload:15s} {name:12s} median {median:10.4f}  spread {spread:6.3f}  bound {bound:.2f}  {verdict}")
        rows["elapsed_s"] = max(r["elapsed_s"] for r in results)
        print(f"{workload:15s} longest run {rows['elapsed_s']:.1f} s")
        report["end_to_end"][workload] = rows
        if args.traced:
            traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
            ok = ok and traced["correct"]
            report["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
