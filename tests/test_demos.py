"""Smoke runs of the demos that exercise the smallness report and Picard."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import evolvesurf

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["04_picard_iteration.py", "05_smallness_conditions.py"])
def test_demo_runs(name):
    src = str(Path(evolvesurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
