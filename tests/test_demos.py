"""Every demo runs to its end: exit 0, no traceback, and no warning, a RuntimeWarning being an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_warning(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cmd = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    # In tmp_path: a demo writes its figure to the working directory where matplotlib is installed.
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
