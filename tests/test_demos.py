"""Each narrative demo runs to completion as a script against the source tree."""

import glob
import os
import subprocess
import sys

import pytest

import pgq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pgq.__file__)))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, path], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
