"""Smoke test: each demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "walk_anatomy.py",
    "averaged_vs_alpha.py",
    "single_walk_series.py",
    "phase_structure.py",
    "isolated_maxima.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    """The python block under "## Library quickstart" in README.md runs,
    and its first two lines print the 0.25, 4 and the 1.0 its comments give."""
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    (p, n), (e,) = (map(float, line.split()) for line in result.stdout.splitlines()[:2])
    assert abs(p - 0.25) < 1e-12 and n == 4 and abs(e - 1.0) < 1e-12
