"""The suite's warning filters, applied to a probe file in a separate pytest
session: a failing hypothesis test is reported as one failure and the session
goes on, and a numpy RuntimeWarning raised in the package still fails."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
import numpy as np
from hypothesis import given, settings, strategies as st

from fuzzloc.model import mm1_metrics


@given(st.integers(0, 100))
@settings(database=None)
def test_failing_given(x):
    assert x < 10


def test_passing():
    pass


def test_runtime_warning_in_package():
    mm1_metrics(np.float64(1e200), np.float64(1e300))  # overflow in numpy scalar arithmetic
'''


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "2 failed, 1 passed" in result.stdout
    assert "FAILED test_probe.py::test_runtime_warning_in_package" in result.stdout
