"""Every demo runs to the end with numpy's floating-point warnings
turned into errors."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_run(tmp_path, child_pythonpath):
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                              cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, f"{demo.name}: {done.stderr}"
