"""Smoke runs of the study scripts and the size report in scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("name", ["arbitrage_demo", "hedged_vs_plain", "spread_vs_level"])
def test_study_scripts_run_with_their_defaults(name):
    assert run_script(name).strip()


def test_size_report_prints_the_four_size_numbers():
    sizes = json.loads(run_script("size_report"))
    assert list(sizes) == ["lines", "exports", "defaulted_params", "test_lines"]
    assert all(isinstance(v, int) and v > 0 for v in sizes.values())
