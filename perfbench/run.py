"""End-to-end benchmark of conicfin on generated scenario workloads.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_quotes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in its own process

A run generates the workload's scenarios from --seed (perfbench/workloads.py)
and writes each as JSON under perfbench/out/<workload>/, beside its artifacts,
so `conicfin run` can replay it; the next run of the workload replaces them.
It then drives the scenarios through the public
`conicfin.scenario.run_scenario` from one process and one thread, in a closed
loop with jobs_parallel=1: a first pass sets the reference artifacts, then
passes repeat until --seconds have elapsed. Every pass goes through the
correctness gate (perfbench/gate.py).

End-to-end metrics (--trace 0):
  setup_s      median over fresh processes of `import conicfin` plus the first
               load_scenario of every scenario of the workload, each rescaled
               like scenario_s by the reference kernel run just before it
  scenario_s   median wall time of one pass over the workload's scenarios
               (load, all jobs, artifact and summary.json writes), each pass
               rescaled to a host on which the reference kernel below takes
               REFERENCE_S; the raw median, quartiles and sample count are
               printed with it
  peak_rss_mb  peak resident set of this process
  failed_ratio jobs failing the gate / jobs attempted, printed and carried in
               the result's `failed` and `attempted`

The host this benchmark was written on (2 vCPUs shared with other tenants)
drifts in speed by up to a third over tens of seconds, uniformly across
interpreter and numpy work. Each timed pass is therefore preceded by a fixed
numpy-and-interpreter kernel that does not touch conicfin, and scenario_s is
the median of pass time / kernel time, times REFERENCE_S; setup_s is rescaled
the same way. A change to conicfin moves the pass time and not the kernel, so
it moves the metric in full. The raw wall times are printed beside them.

With --trace 1 the loop alternates untraced and traced passes and reports the
per-layer metrics of perfbench/tracing.py instead: medians over traced passes,
and trace.overhead_ratio, the traced over the untraced median pass time
minus one. Traced passes go through the same gate, so their artifacts must be
byte-identical to the untraced first pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 2 when the package source is
missing and 1 when the tracer loses its wiring.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh processes timed for setup_s: at least SETUP_PROCESSES, and more while
# SETUP_SECONDS last, so that short set-ups get more samples.
SETUP_PROCESSES = 7
SETUP_SECONDS = 5.0
MIN_TIMED_PASSES = 3
REFERENCE_S = 0.1
END_TO_END = {"setup_s": "s", "scenario_s": "s", "peak_rss_mb": "MB"}


class MissingPackage(RuntimeError):
    """The checkout holds no package source to benchmark."""


def import_scenario_module():
    """conicfin.scenario from this checkout's src/, never an installed copy."""
    if not (SRC / "conicfin" / "__init__.py").is_file():
        raise MissingPackage(f"no conicfin package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import conicfin.scenario

    if not Path(conicfin.scenario.__file__).resolve().is_relative_to(SRC):
        raise MissingPackage(f"imported conicfin from {conicfin.scenario.__file__}, not {SRC}")
    return conicfin.scenario


def measure_setup(paths: list) -> tuple:
    """Seconds of import plus first load in fresh processes, raw and rescaled
    by the reference kernel."""
    probe = HERE / "setup_probe.py"
    raw, rescaled = [], []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(raw) < SETUP_PROCESSES or time.perf_counter() < deadline:
        kernel = reference_kernel()
        proc = subprocess.run(
            [sys.executable, "-I", str(probe), *map(str, paths)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(proc.stdout.split()[-1]))
        rescaled.append(raw[-1] / kernel * REFERENCE_S)
    return raw, rescaled


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel shaped like conicfin's work: many
    backward rollbacks of small arrays, where interpreter and numpy call
    overhead dominate, and a few of a 8,192-leaf array, where vector
    arithmetic does. About REFERENCE_S on a quiet host."""
    rng = np.random.default_rng(0)
    small = rng.normal(size=(8, 4))
    large = rng.normal(size=8192)
    start = time.perf_counter()
    for _ in range(8000):
        y = small
        while y.shape[-1] > 1:
            y = 0.5 * (y[..., 0::2] + y[..., 1::2]) + 0.1 * np.abs(y[..., 0::2] - y[..., 1::2])
    for _ in range(200):
        y = large
        while y.size > 1:
            y = 0.5 * (y[0::2] + y[1::2]) + np.log(np.cosh(0.5 * (y[0::2] - y[1::2])))
    return time.perf_counter() - start


class Runner:
    """Runs passes of one workload and tallies the gate."""

    def __init__(self, scenario_module, cases: list, out: Path):
        self.scenario = scenario_module
        self.cases = cases
        self.out = out
        self.reference = None
        self.attempted = 0
        self.failures = []

    def run_pass(self) -> float:
        gc.collect()
        summaries = []
        start = time.perf_counter()
        for case in self.cases:
            try:
                # Looked up on every call, so a traced pass goes through the tracer.
                summaries.append(self.scenario.run_scenario(case.config, str(self.out / case.label)))
            except Exception:  # a crashed scenario fails all its jobs; the run goes on
                summaries.append(None)
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if self.reference is None:
            self.reference = [
                gate.job_digests(str(self.out / c.label), s) if s else [] for c, s in zip(self.cases, summaries)
            ]
        for case, summary, ref in zip(self.cases, summaries, self.reference):
            self.attempted += len(case.statuses)
            if summary is None:
                self.failures += [f"{case.label}: run_scenario raised"] * len(case.statuses)
            else:
                self.failures += gate.failed_jobs(case, str(self.out / case.label), summary, ref)
        return elapsed


def run_workload(args) -> int:
    try:
        scenario = import_scenario_module()
    except MissingPackage as exc:
        print(exc, file=sys.stderr)
        return 2
    cases = WORKLOADS[args.workload](args.seed)
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    paths = []
    for case in cases:
        path = out / f"{case.label}.json"
        path.write_text(json.dumps(case.config) + "\n")
        paths.append(path)

    runner = Runner(scenario, cases, out)
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, per_pass = [], [], []
        runner.run_pass()
        deadline = time.perf_counter() + args.seconds
        while len(traced) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
            plain.append(runner.run_pass())
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
            per_pass.append(tracer.metrics())
            idle = [layer for layer in tracing.ACTIVE_LAYERS[args.workload] if tracer.layer_calls(layer) == 0]
            if idle:
                print(f"traced pass recorded no calls in layers {idle}", file=sys.stderr)
                return 1
        values = tracing.median_metrics(per_pass)
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = {name: unit for name, unit, _, _ in tracing.METRICS}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"{args.workload} seed {args.seed}: {len(traced)} traced and {len(plain)} untraced passes")
        for name, unit, _, moves in tracing.METRICS:
            print(f"  {name:32s} {values[name]:14.6g} {unit:6s} moves {moves}")
    else:
        setup_raw, setup = measure_setup(paths)
        runner.run_pass()
        times, rescaled = [], []
        deadline = time.perf_counter() + args.seconds
        while len(times) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
            kernel = reference_kernel()
            times.append(runner.run_pass())
            rescaled.append(times[-1] / kernel * REFERENCE_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        s1, s2, s3 = statistics.quantiles(setup_raw, n=4)
        q1, q2, q3 = statistics.quantiles(times, n=4)
        setup_s, scenario_s = statistics.median(setup), statistics.median(rescaled)
        values = {"setup_s": setup_s, "scenario_s": scenario_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"{args.workload} seed {args.seed}:")
        print(f"  setup_s      {setup_s:.4f} s   (raw median {s2:.4f}, quartiles {s1:.4f} {s3:.4f}, n={len(setup)} processes)")
        print(f"  scenario_s   {scenario_s:.4f} s   (raw median {q2:.4f}, quartiles {q1:.4f} {q3:.4f}, n={len(times)} passes)")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  failed_ratio {len(runner.failures) / runner.attempted:.4f} 1   ({len(runner.failures)} of {runner.attempted} jobs)")
    for message in runner.failures[:20]:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their lines, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of the pass loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
