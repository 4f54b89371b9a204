"""Smoke tests of the runnable experiments in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_toy_benchmark_runs_at_tiny_size():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--trials", "2", "--t", "600", "--max-epoch", "2", "--hidden", "4",
            "--b-low", "2", "--b-high", "4", "--m", "2"]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "toy_benchmark.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "model,mean_f1,std,t_vs_single_CE,p,stars" in done.stdout.splitlines()
