#!/usr/bin/env python3
"""Desk-scale benchmark: single learner vs bagged ensembles on synthetic data.

Runs repeated trials of the full pipeline (synthesize an imbalanced activity
stream, train with epoch-wise bagging under CE and F1 losses, fuse top-M
snapshots, score sample-wise on the held-out test split), then prints a
mean +/- std table with two-tailed paired t-tests over the seeds against the
single-learner baseline. Trials run in worker processes, one per CPU this
process may use (`run_trials`). Criterion 5 of the acceptance suite runs its
trials through the same `run_trials`.

Example:
    python scripts/toy_benchmark.py --trials 10 --max-epoch 20
"""

import argparse
import math
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from lstmens import (
    BaggingConfig,
    LossKind,
    TrialSet,
    TTestResult,
    apply_normalizer,
    confusion,
    ensemble_infer,
    fit_normalizer,
    holdout_split,
    mean_f1,
    mixed_ensemble,
    run_bagging,
    select_top_m,
    significance_stars,
    synth_har,
)
from lstmens.data import write_csv
from lstmens.evaluation import student_t_two_tailed_p

LOSSES = (LossKind.CE, LossKind.F1)


def run_trial(seed: int, args, losses=LOSSES) -> dict:
    """One seeded trial: test macro-F1 of each loss's best snapshot and top-M
    ensemble, and of the mixed ensemble when both CE and F1 are trained."""
    seq = synth_har(args.d, args.k, args.t, "imbalanced", snr=args.snr, seed=seed)
    a, b = int(args.t * 0.8), int(args.t * 0.9)
    train, val, test = holdout_split(seq, (0, a), (a, b), (b, args.t))
    stats = fit_normalizer(train)
    train, val, test = (apply_normalizer(stats, s) for s in (train, val, test))

    runs = {}
    for loss in losses:
        cfg = BaggingConfig(
            b_low=args.b_low, b_high=args.b_high, l_low=args.l_low,
            l_high=args.l_high, max_epoch=args.max_epoch, loss=loss,
            dropout_p=args.dropout, seed=seed + 5000,
        )
        runs[loss] = run_bagging(train, val, cfg, hidden_dim=args.hidden,
                                 num_layers=2)

    def score(ensemble):
        _, preds = ensemble_infer(ensemble, test.X.T)
        return mean_f1(confusion(preds, test.z, args.k))

    m = args.m
    result = {f"single {loss.value}": score(select_top_m(runs[loss], 1)) for loss in losses}
    for loss in losses:
        result[f"ensemble {loss.value} (M={m})"] = score(select_top_m(runs[loss], m))
    if all(loss in runs for loss in LOSSES):
        result[f"mixed CE+F1 (M={2 * (m // 2)})"] = score(
            mixed_ensemble([runs[loss] for loss in LOSSES], m // 2))
    return result


def _pin(cpus) -> None:
    """Worker initializer: pin this process to a CPU that no other worker takes."""
    os.sched_setaffinity(0, {cpus.get()})


def run_trials(seeds, args, losses=LOSSES) -> list[dict]:
    """run_trial for each seed, in seed order. Trials run in spawned worker
    processes, one per CPU the calling thread may use and at most one per
    trial, each pinned to a CPU of its own; serially where only one CPU is
    free (as after `lstmens.overlap` has pinned the calling thread) or CPU
    affinity is unsupported. A trial that raises in a worker raises here."""
    seeds = list(seeds)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    cpus = cpus[:len(seeds)]
    if len(cpus) < 2:
        return [run_trial(seed, args, losses) for seed in seeds]
    # spawn, not fork: a fork after OpenBLAS has started its threads can hang
    ctx = multiprocessing.get_context("spawn")
    free = ctx.SimpleQueue()
    for cpu in cpus:
        free.put(cpu)
    pool = ProcessPoolExecutor(len(cpus), mp_context=ctx, initializer=_pin, initargs=(free,))
    try:
        return list(pool.map(partial(run_trial, args=args, losses=losses), seeds))
    finally:  # after a failed trial, the trials not yet started are dropped
        pool.shutdown(cancel_futures=True)


def paired_t_test(a: TrialSet, b: TrialSet) -> TTestResult:
    """Two-tailed paired t-test over the per-seed differences a - b, with
    df = n - 1. Differences with zero spread give t = 0 and p = 1 when their
    mean is 0, otherwise an infinite t and p = 0, as `t_test` does."""
    diffs = a.scores - b.scores
    mean, se = float(diffs.mean()), float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    if se == 0.0:
        t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    else:
        t = mean / se
    df = diffs.size - 1
    p = student_t_two_tailed_p(t, df)
    return TTestResult(t, p, df, significance_stars(p))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=100)
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--t", type=int, default=20_000)
    parser.add_argument("--snr", type=float, default=1.0)
    parser.add_argument("--hidden", type=int, default=32)
    parser.add_argument("--max-epoch", type=int, default=20)
    parser.add_argument("--b-low", type=int, default=8)
    parser.add_argument("--b-high", type=int, default=16)
    parser.add_argument("--l-low", type=int, default=16)
    parser.add_argument("--l-high", type=int, default=32)
    parser.add_argument("--dropout", type=float, default=0.5)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--outdir", help="also write trials_*.csv and significance.csv")
    args = parser.parse_args()
    if args.trials < 2:
        parser.error(f"--trials must be at least 2 for the t-tests, got {args.trials}")
    if not 2 <= args.m <= args.max_epoch:  # the mixed ensemble takes M // 2 from each run
        parser.error(f"--m must be in [2, --max-epoch {args.max_epoch}], got {args.m}")

    t0 = time.time()
    per_model: dict[str, list[float]] = {}
    seeds = range(args.base_seed, args.base_seed + args.trials)
    for i, (seed, result) in enumerate(zip(seeds, run_trials(seeds, args))):
        for name, f1 in result.items():
            per_model.setdefault(name, []).append(f1)
        joined = "  ".join(f"{name}={f1:.4f}" for name, f1 in result.items())
        print(f"trial {i} (seed {seed}): {joined}", flush=True)

    sets = {name: TrialSet(name, scores) for name, scores in per_model.items()}
    baseline = sets["single CE"]
    print(f"\n{args.trials} trials, {time.time() - t0:.0f}s total")
    print("model,mean_f1,std,t_vs_single_CE,p,stars")
    pairs = []
    for name, ts in sets.items():
        if name == baseline.name:
            print(f"{name},{ts.mean:.4f},{ts.std:.4f},,,")
            continue
        res = paired_t_test(ts, baseline)
        pairs.append((f"{name} vs {baseline.name}", res))
        print(f"{name},{ts.mean:.4f},{ts.std:.4f},{res.t:.3f},{res.p:.2e},{res.stars}")

    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for name, ts in sets.items():
            slug = re.sub(r"\W+", "_", name).strip("_")
            write_csv(os.path.join(args.outdir, f"trials_{slug}.csv"),
                      ["trial", "seed", "mean_f1"],
                      [[i, args.base_seed + i, repr(float(score))]
                       for i, score in enumerate(ts.scores)])
        write_csv(os.path.join(args.outdir, "significance.csv"), ["pair", "t", "p", "stars"],
                  [[pair, repr(res.t), repr(res.p), res.stars] for pair, res in pairs])
        print(f"# wrote per-model trials and significance CSVs to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
