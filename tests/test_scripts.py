"""Smoke test: the demo scripts run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["a2_audit.py", "flagship_d4tilde.py",
                                    "kronecker_strata.py"])
def test_demo_script_runs(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
