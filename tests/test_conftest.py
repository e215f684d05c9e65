"""A failing @given test is reported as a failure, and the tests after it still run."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

FAILING_THEN_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    pass
"""


def test_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # The suite's conftest and pyproject.toml's warning filter (every warning an error).
    shutil.copy(HERE / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_session.py").write_text(FAILING_THEN_PASSING)
    config = HERE.parent / "pyproject.toml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-c", str(config), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_session.py"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
