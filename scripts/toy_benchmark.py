#!/usr/bin/env python3
"""Desk-scale benchmark: single learner vs bagged ensembles on synthetic data.

Runs repeated trials of the full pipeline (synthesize an imbalanced activity
stream, train with epoch-wise bagging under CE and F1 losses, fuse top-M
snapshots, score sample-wise on the held-out test split), then prints a
mean +/- std table with two-tailed Welch t-tests against the single-learner
baseline.

Example:
    python scripts/toy_benchmark.py --trials 10 --max-epoch 20
"""

import argparse
import os
import re
import sys
import time

from lstmens import (
    BaggingConfig,
    LossKind,
    TrialSet,
    apply_normalizer,
    confusion,
    ensemble_infer,
    fit_normalizer,
    holdout_split,
    mean_f1,
    mixed_ensemble,
    run_bagging,
    select_top_m,
    synth_har,
    t_test,
)
from lstmens.data import write_csv


def run_trial(seed: int, args) -> dict:
    seq = synth_har(args.d, args.k, args.t, "imbalanced", snr=args.snr, seed=seed)
    a, b = int(args.t * 0.8), int(args.t * 0.9)
    train, val, test = holdout_split(seq, (0, a), (a, b), (b, args.t))
    stats = fit_normalizer(train)
    train, val, test = (apply_normalizer(stats, s) for s in (train, val, test))

    runs = {}
    for loss in (LossKind.CE, LossKind.F1):
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
    return {
        "single CE": score(select_top_m(runs[LossKind.CE], 1)),
        "single F1": score(select_top_m(runs[LossKind.F1], 1)),
        f"ensemble CE (M={m})": score(select_top_m(runs[LossKind.CE], m)),
        f"ensemble F1 (M={m})": score(select_top_m(runs[LossKind.F1], m)),
        f"mixed CE+F1 (M={2 * (m // 2)})": score(
            mixed_ensemble([runs[LossKind.CE], runs[LossKind.F1]], m // 2)
        ),
    }


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
    for i in range(args.trials):
        seed = args.base_seed + i
        result = run_trial(seed, args)
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
        res = t_test(ts, baseline)
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
