"""Smoke runs of the study scripts, the artifact writer and the size report in scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

STUDIES = ["arbitrage_demo", "hedged_vs_plain", "spread_vs_level"]


def run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / f"{name}.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("name", STUDIES)
def test_study_scripts_run_with_their_defaults(name):
    assert run_script(name).strip()


def test_size_report_prints_the_four_size_numbers():
    sizes = json.loads(run_script("size_report"))
    assert list(sizes) == ["lines", "exports", "defaulted_params", "test_lines"]
    assert all(isinstance(v, int) and v > 0 for v in sizes.values())


def test_write_artifacts_writes_every_run_and_study(tmp_path):
    """The byte-identity tool writes a summary for each bundled scenario and
    each benchmark case at its two seeds, and a non-empty output per study."""
    run_script("write_artifacts", str(tmp_path))
    runs = [Path("scenarios") / p.stem for p in (REPO_ROOT / "scenarios").glob("*.json")]
    for workload, generate in WORKLOADS.items():
        runs += [Path(workload) / f"seed{seed}" / case.label for seed in (1, 7) for case in generate(seed)]
    for run in runs:
        assert (tmp_path / run / "summary.json").is_file(), run
    for study in STUDIES:
        assert (tmp_path / "scripts" / f"{study}.txt").read_text().strip(), study
