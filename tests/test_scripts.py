"""Smoke tests of the runnable experiments in scripts/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lstmens import overlap

ROOT = Path(__file__).resolve().parent.parent


def _toy_benchmark(trials, outdir, m=2):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["--trials", str(trials), "--t", "600", "--max-epoch", "2", "--hidden", "4",
            "--b-low", "2", "--b-high", "4", "--m", str(m), "--outdir", str(outdir)]
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "toy_benchmark.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_toy_benchmark_runs_at_tiny_size(tmp_path):
    done = _toy_benchmark(2, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "model,mean_f1,std,t_vs_single_CE,p,stars" in done.stdout.splitlines()
    header, *rows = (tmp_path / "significance.csv").read_text().splitlines()
    assert header == "pair,t,p,stars"
    mixed = [row.split(",") for row in rows if row.startswith("mixed CE+F1")]
    assert len(mixed) == 1
    float(mixed[0][2])  # the p-value cell is a plain number
    assert (tmp_path / "trials_mixed_CE_F1_M_2.csv").read_text().startswith("trial,seed,mean_f1")


def test_toy_benchmark_rejects_one_trial_before_training(tmp_path):
    # a t-test needs two trials per set; one trial used to train and only then fail
    done = _toy_benchmark(1, tmp_path / "out")
    assert done.returncode == 2
    assert "--trials must be at least 2" in done.stderr
    assert "trial 0" not in done.stdout and not (tmp_path / "out").exists()


@pytest.mark.parametrize("m", [1, 3])
def test_toy_benchmark_rejects_m_outside_two_to_max_epoch_before_training(m, tmp_path):
    # --m 1 gives the mixed ensemble 0 members per run, --m 3 asks a 2-epoch
    # run for 3 snapshots; both used to fail only after a whole trial
    done = _toy_benchmark(2, tmp_path / "out", m=m)
    assert done.returncode == 2
    assert f"--m must be in [2, --max-epoch 2], got {m}" in done.stderr
    assert "trial 0" not in done.stdout and not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the helper thread needs sched_setaffinity and at least 2 CPUs")
def test_overlap_timing_runs_at_tiny_size(capsys):
    # in this process: a child would inherit the calling thread's pin to one
    # CPU once an earlier test has started the helper, and find no helper
    spec = importlib.util.spec_from_file_location("overlap_timing",
                                                  ROOT / "scripts" / "overlap_timing.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = overlap.MIN_MACS
    assert script.main(["--hidden", "4", "--members", "3", "--batch", "2", "--length", "3",
                        "--repeats", "3"]) == 0
    assert overlap.MIN_MACS == real
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# 2x4 M=3 B=2 L=3 D=6 K=6, 3 repeats"
    assert lines[1].startswith("# offload asks about 768 multiply-adds")
    assert lines[1].endswith("picks inline")
    assert lines[2] == "mode,median_ms,q1_ms,q3_ms"
    assert [line.split(",")[0] for line in lines[3:]] == ["inline", "helper", "helper/inline"]
    assert all(float(cell) > 0 for line in lines[3:] for cell in line.split(",")[1:])
