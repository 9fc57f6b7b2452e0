"""The scripts under demos/ run start to finish in a fresh interpreter,
with numpy's RuntimeWarnings made errors there too (pytest's filter does
not reach a subprocess)."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_direct_increments_demo(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(REPO / "demos" / "direct_increments_demo.py")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    found = re.search(r"right 0\.5-quantile: estimate (\S+),", proc.stdout)
    assert found, proc.stdout
    # unit-rate Exp(1) jumps at intensity 1: the exact quantile is log 2
    assert abs(float(found.group(1)) - math.log(2.0)) <= 0.05
