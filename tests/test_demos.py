"""The demos that fit dimensions and flat constants, certify graphs and
blow up measures run to the end."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_run(tmp_path, child_pythonpath):
    for name in ("01_metric_and_cones.py", "02_dimension_and_density.py",
                 "03_tangent_detection.py",
                 "05_cantor_constructions.py", "06_defeater_energy.py"):
        done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                              capture_output=True, text=True)
        assert done.returncode == 0, f"{name}: {done.stderr}"
