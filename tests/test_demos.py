"""Smoke runs of every demo script: each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import evolvesurf

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    src = str(Path(evolvesurf.__file__).resolve().parents[1])
    # demos that write files put them under TMPDIR or the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
