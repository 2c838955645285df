"""The demo scripts run to completion and print what they printed when
their goldens were recorded."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PROBLEMS" not in proc.stdout
    # timings are the only lines that vary from run to run
    out = "".join(line for line in proc.stdout.splitlines(keepends=True) if not line.startswith("elapsed: "))
    assert out == (GOLDENS / f"{demo.stem}.txt").read_text()
