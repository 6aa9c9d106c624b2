"""Self-test of the benchmark's correctness gate and metric names.

    python3 perfbench/selftest.py

Runs small generated workloads for two passes through the gate and checks
that the true expectations give failed_ratio 0, that each deliberately wrong
expectation (a status, a known answer, a reference digest) makes it positive,
and that BENCHMARK.json names exactly the metrics run.py reports. Exits 1 when
any check does not hold.
"""

import json
import sys

import run
import tracing
import workloads

OUT = run.HERE / "out" / "selftest"


def failed_ratio(cases: list, corrupt_reference: bool = False) -> float:
    runner = run.Runner(run.import_scenario_module(), cases, OUT)
    runner.run_pass()
    if corrupt_reference:
        runner.reference[0][0] = "0" * 64
    runner.run_pass()
    return len(runner.failures) / runner.attempted


def small_cases() -> list:
    return workloads.lattice_quotes(0, horizon=6) + workloads.exact_tables(0, planted=1, clean=1)


def main() -> int:
    checks = []

    checks.append(("true expectations pass", failed_ratio(small_cases()) == 0.0))

    cases = small_cases()
    cases[0].statuses[0] = "warn"
    checks.append(("a wrong expected status fails", failed_ratio(cases) > 0.0))

    cases = small_cases()
    cfg = cases[0].config
    levels, gamma = cfg["streams"]["div"]["values"], cfg["drivers"]["gx"]["gamma"]
    cases[0].checks[0] = workloads._check_entropic_root(levels, gamma * 1.01)
    checks.append(("a wrong closed-form root fails", failed_ratio(cases) > 0.0))

    cases = small_cases()
    book = cases[-1]
    book.checks[0] = workloads._check_fills([v + 0.01 for v in book.config["jobs"][0]["expect"]])
    checks.append(("a wrong book fill fails", failed_ratio(cases) > 0.0))

    checks.append(("outputs unlike the first pass fail", failed_ratio(small_cases(), corrupt_reference=True) > 0.0))

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    checks.append((
        "BENCHMARK.json lists the traced metrics",
        layer_units == {name: unit for name, unit, _, _ in tracing.METRICS},
    ))
    checks.append((
        "BENCHMARK.json lists the end-to-end metrics",
        [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
    ))
    checks.append(("BENCHMARK.json lists the workloads", [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)))

    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
