"""The demos against the library they call.

scalar_posterior.py runs in under a second, so it is run as a script.
The other two take about a minute each at smoke scale; they are only
compiled.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_scalar_posterior_demo_runs():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "scalar_posterior.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("exact posterior:")
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["cadps", "dps", "pigdm"]


@pytest.mark.parametrize("name", ["easy_vs_hard_cells.py", "mode_coverage.py"])
def test_demo_compiles(name):
    path = DEMOS / name
    compile(path.read_text(), str(path), "exec")
