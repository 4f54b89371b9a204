"""Smoke tests of the runnable experiments in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_toy_benchmark_runs_at_tiny_size(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--trials", "2", "--t", "600", "--max-epoch", "2", "--hidden", "4",
            "--b-low", "2", "--b-high", "4", "--m", "2", "--outdir", str(tmp_path)]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "toy_benchmark.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "model,mean_f1,std,t_vs_single_CE,p,stars" in done.stdout.splitlines()
    header, *rows = (tmp_path / "significance.csv").read_text().splitlines()
    assert header == "pair,t,p,stars"
    mixed = [row.split(",") for row in rows if row.startswith("mixed CE+F1")]
    assert len(mixed) == 1
    float(mixed[0][2])  # the p-value cell is a plain number
    assert (tmp_path / "trials_mixed_CE_F1_M_2.csv").read_text().startswith("trial,seed,mean_f1")
