"""Write the artifacts of the bundled scenarios, the benchmark scenarios and the studies.

Runs every scenario in scenarios/ and every scenario that
perfbench/workloads.py generates for seeds 1 and 7, each into its own
directory under OUT, and runs each study script in scripts/ with its
default arguments, writing its output to OUT/scripts/<name>.txt; all with
the conicfin of the checkout the script sits in. A change that must leave
outputs byte-identical is checked by running the script in both checkouts
and comparing the two directories:

    python3 scripts/write_artifacts.py /tmp/before    # in the parent checkout
    python3 scripts/write_artifacts.py /tmp/after     # in the changed checkout
    diff -r /tmp/before /tmp/after
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from conicfin.scenario import run_scenario  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 7)
STUDIES = ("arbitrage_demo", "hedged_vs_plain", "spread_vs_level")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write the artifacts under")
    args = parser.parse_args()

    runs = []
    bundled = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(bundled)):
        with open(os.path.join(bundled, name)) as f:
            runs.append((os.path.join("scenarios", os.path.splitext(name)[0]), json.load(f)))
    for workload, generate in sorted(WORKLOADS.items()):
        for seed in SEEDS:
            for case in generate(seed):
                runs.append((os.path.join(workload, f"seed{seed}", case.label), case.config))
    for rel, cfg in runs:
        summary = run_scenario(cfg, os.path.join(args.out, rel))
        print(f"{rel}: {'passed' if summary['passed'] else 'FAILED'}")
    os.makedirs(os.path.join(args.out, "scripts"), exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for name in STUDIES:
        script = os.path.join(ROOT, "scripts", f"{name}.py")
        run = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True)
        run.check_returncode()
        with open(os.path.join(args.out, "scripts", f"{name}.txt"), "w") as f:
            f.write(run.stdout)
        print(f"scripts/{name}: written")


if __name__ == "__main__":
    main()
