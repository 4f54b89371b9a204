"""Smoke tests of the runnable experiments in scripts/."""

import argparse
import importlib.util
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from lstmens import TrialSet, overlap

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import toy_benchmark  # noqa: E402

# read at collection, before lstmens.overlap can pin this thread to one CPU
CPUS = set(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else set()
needs_two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="worker processes need 2 CPUs")


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


def _tiny_args(**changes):
    return argparse.Namespace(**{
        **dict(d=3, k=3, t=600, snr=1.0, hidden=4, max_epoch=2, b_low=2, b_high=4,
               l_low=16, l_high=32, dropout=0.5, m=2), **changes})


@pytest.fixture
def pools(monkeypatch):
    """run_trials sees the CPUs this process started with; returns the
    worker count of every pool it starts."""
    started = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS)
    monkeypatch.setattr(toy_benchmark, "ProcessPoolExecutor", Recorded)
    return started


@needs_two_cpus
@pytest.mark.parametrize("cpus", ["all", "one", "no affinity"])
def test_run_trials_gives_the_serial_list_in_seed_order(monkeypatch, pools, cpus):
    args, seeds = _tiny_args(), [7, 9, 8]
    serial = [list(toy_benchmark.run_trial(seed, args).items()) for seed in seeds]
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(CPUS)})
    elif cpus == "no affinity":
        monkeypatch.delattr(os, "sched_setaffinity")
    assert [list(r.items()) for r in toy_benchmark.run_trials(seeds, args)] == serial
    assert pools == ([min(len(CPUS), 3)] if cpus == "all" else [])


@needs_two_cpus
def test_a_trial_that_raises_in_a_worker_raises_in_the_caller(pools):
    with pytest.raises(ValueError, match="training stream too short"):
        toy_benchmark.run_trials([7, 8], _tiny_args(b_high=600))  # --b-high >= --t
    assert pools == [2]


def test_paired_t_test_over_seeds():
    # criterion 5's ten (ensemble, single CE) test F1 pairs, to 4 digits
    # (unrounded they give t = 0.84); Welch's unpaired test gives p = 0.82
    ens = [0.9122, 0.9097, 0.9432, 0.8978, 0.9318, 0.9125, 0.8864, 0.9275, 0.9078, 0.9126]
    single = [0.9019, 0.9115, 0.9421, 0.9023, 0.9258, 0.9139, 0.8953, 0.9250, 0.8978, 0.9095]
    res = toy_benchmark.paired_t_test(TrialSet("ens", ens), TrialSet("single", single))
    assert (res.df, round(res.t, 2), round(res.p, 2), res.stars) == (9, 0.85, 0.42, "")
    # differences with zero spread: no difference, or a shift by 0.25 exactly
    same = toy_benchmark.paired_t_test(TrialSet("a", [0.5, 0.25]), TrialSet("b", [0.5, 0.25]))
    shift = toy_benchmark.paired_t_test(TrialSet("a", [0.75, 0.5]), TrialSet("b", [0.5, 0.25]))
    assert (same.t, same.p, same.stars) == (0.0, 1.0, "")
    assert (shift.t, shift.p, shift.stars) == (float("inf"), 0.0, "***")


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
