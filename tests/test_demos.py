"""The demo against the library it calls.

scalar_posterior.py runs in under a second, so it is run as a script.
"""

import os
import subprocess
import sys
from pathlib import Path

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
