"""Smoke test: the example scripts run end to end on their own output."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_write_their_outputs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    steps = [
        ("make_synthetic_data.py", ["--out-dir", "data", "--n-frames", "5"],
         ["data/config.json", "data/pressure.csv", "data/frames.csv"]),
        ("order_selection.py", ["--frames", "data/frames.csv",
                                "--out", "report.json"], ["report.json"]),
        ("step_response.py", ["--t-end", "0.5", "--out", "step.csv"],
         ["step.csv"]),
    ]
    for name, args, outputs in steps:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for out in outputs:
            assert (tmp_path / out).stat().st_size > 0, out
