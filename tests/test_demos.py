"""Every demo runs end to end against the current API.

Each demo is started as its own interpreter with the package source on
PYTHONPATH, so a renamed or removed public name fails here rather than
only when someone runs the demo by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_simple_example.py",
    "02_exposure_distributions.py",
    "03_dose_response.py",
    "04_bootstrap_coverage.py",
    "05_edges_cut.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
