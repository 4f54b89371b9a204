"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end benchmark
(criterion 5) takes a few minutes; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from lstmens import (
    BaggingConfig,
    LossKind,
    apply_normalizer,
    ce_gap,
    confusion,
    ensemble_infer,
    epoch_coverage,
    fit_normalizer,
    grad_check,
    holdout_split,
    infer_stream,
    init_network,
    make_schedule,
    mean_f1,
    per_class_f1,
    random_check_frame,
    run_bagging,
    select_top_m,
    significance_stars,
    synth_har,
    t_test,
)
from lstmens.cli import main as cli_main
from lstmens.evaluation import TrialSet
from lstmens.network import classify, step
from lstmens.rng import Rng


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    """BPTT matches central finite differences (delta=1e-5) at 1e-4 for
    every tensor, CE and F1, 20 seeds, on the tiny 2-layer network."""
    t0 = time.time()
    worst = 0.0
    worst_at = ""
    for seed in range(20):
        rng = Rng(seed)
        net = init_network(3, 4, 3, num_layers=2, rng=rng)
        frame = random_check_frame(net, rng, length=5, batch=2)
        for loss in (LossKind.CE, LossKind.F1):
            rep = grad_check(net, frame, loss, tolerance=1e-4, delta=1e-5)
            m = max(rep.max_rel_error.values())
            if m > worst:
                worst = m
                worst_at = f"seed {seed}/{loss.value}"
            assert rep.ok, (seed, loss, rep.failures)
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 120.0,
        f"worst rel err {worst:.2e} ({worst_at}) over 20 seeds x 2 losses, "
        f"{elapsed:.0f}s",
    )


def test_criterion_2_fusion_loss_gap():
    """Average-member CE >= fused CE (delta >= -1e-12) on 1e4 random
    configurations; identical members give delta == 0 exactly."""
    rng = Rng(271828)
    min_delta = math.inf
    for _ in range(10_000):
        m = rng.uniform_int(1, 16)
        n = rng.uniform_int(1, 64)
        p = np.clip(rng.uniform_block(m * n).reshape(m, n), 1e-12, 1.0)
        min_delta = min(min_delta, ce_gap(p).delta)
    assert min_delta >= -1e-12

    exact_zero = True
    for trial in range(50):
        row = np.clip(rng.uniform_block(32), 1e-6, 1.0).reshape(1, 32)
        members = rng.uniform_int(1, 9)
        gap = ce_gap(np.repeat(row, members, axis=0))
        exact_zero = exact_zero and gap.delta == 0.0
    report(
        2,
        min_delta >= -1e-12 and exact_zero,
        f"min delta {min_delta:.2e} over 1e4 draws; identical members exact 0: "
        f"{exact_zero}",
    )


def test_criterion_3_coverage_statistic():
    """Mean unused-data fraction over 200 simulated epochs (T=100k,
    full-size ranges) lies in [0.35, 0.40]."""
    cfg = BaggingConfig()  # B in U(128,256), L in U(16,32)
    rng = Rng(0)
    t = 100_000
    unused = [
        epoch_coverage(make_schedule(t, cfg, rng), t) for _ in range(200)
    ]
    mean_unused = float(np.mean(unused))
    report(
        3,
        0.35 <= mean_unused <= 0.40,
        f"mean unused fraction {mean_unused:.4f} over 200 epochs "
        f"(range {min(unused):.3f}..{max(unused):.3f})",
    )


def test_criterion_4_samplewise_equivalence():
    """Streaming one sample at a time with carried state is bitwise equal to
    whole-sequence inference, over 100 random nets and sequences."""
    rng = Rng(424242)
    all_equal = True
    for trial in range(100):
        d = rng.uniform_int(2, 5)
        h = rng.uniform_int(3, 8)
        k = rng.uniform_int(2, 4)
        layers = rng.uniform_int(1, 2)
        length = rng.uniform_int(5, 30)
        net = init_network(d, h, k, num_layers=layers, rng=rng)
        xs = rng.normal_block(length * d).reshape(length, d)
        whole = infer_stream(net, xs)
        state = net.zero_state()
        for t in range(length):
            logits, state, _ = step(net, xs[t], state)
            if not np.array_equal(whole[t], classify(logits)):
                all_equal = False
    report(4, all_equal, "100 random nets: streaming == whole-sequence, bitwise")


def _toy_trial(seed: int) -> tuple[float, float]:
    """One end-to-end trial: returns (ensemble M=10, best single) test F1."""
    seq = synth_har(6, 4, 20_000, "imbalanced", snr=1.5, seed=seed)
    train, val, test = holdout_split(seq, (0, 16_000), (16_000, 18_000),
                                     (18_000, 20_000))
    stats = fit_normalizer(train)
    train, val, test = (apply_normalizer(stats, s) for s in (train, val, test))
    cfg = BaggingConfig(b_low=8, b_high=16, l_low=16, l_high=32, max_epoch=20,
                        loss=LossKind.CE, dropout_p=0.5, seed=seed + 5000)
    learners = run_bagging(train, val, cfg, hidden_dim=32, num_layers=2)

    def score(m):
        _, preds = ensemble_infer(select_top_m(learners, m), test.X.T)
        return mean_f1(confusion(preds, test.z, 4))

    return score(10), score(1)


def test_criterion_5_toy_end_to_end():
    """Desk-scale pipeline: over 10 seeded trials the M=10 CE ensemble beats
    or ties the best single learner in >= 9, and its mean F1 is >= 0.90."""
    t0 = time.time()
    ens_scores, single_scores = [], []
    for i in range(10):
        ens, single = _toy_trial(100 + i)
        ens_scores.append(ens)
        single_scores.append(single)
        print(f"  trial {i}: ensemble={ens:.4f} single={single:.4f} "
              f"diff={ens - single:+.4f}", flush=True)
    wins = sum(e >= s for e, s in zip(ens_scores, single_scores))
    mean_ens = float(np.mean(ens_scores))
    elapsed = time.time() - t0
    report(
        5,
        wins >= 9 and mean_ens >= 0.90 and elapsed < 900.0,
        f"ensemble >= single in {wins}/10 trials; ensemble mean F1 "
        f"{mean_ens:.4f} (single {np.mean(single_scores):.4f}); {elapsed:.0f}s",
    )


def test_criterion_6_metric_oracle():
    """mean_f1 matches an independently coded per-class formula on 1000
    random confusion matrices to 1e-12; the hand case is exactly 1/3."""

    def oracle(cm):
        k = cm.shape[0]
        total = 0.0
        for i in range(k):
            tp = float(cm[i, i])
            fp = float(cm[:, i].sum() - cm[i, i])
            fn = float(cm[i, :].sum() - cm[i, i])
            denom = 2 * tp + fp + fn
            total += 2 * tp / denom if denom > 0 else 0.0
        return total / k

    rng = Rng(61)
    max_err = 0.0
    for _ in range(1000):
        k = rng.uniform_int(1, 10)
        cm = np.array([[rng.uniform_int(0, 40) for _ in range(k)] for _ in range(k)])
        max_err = max(max_err, abs(mean_f1(cm) - oracle(cm)))
    hand = mean_f1(np.array([[1, 1], [0, 0]]))
    report(
        6,
        max_err < 1e-12 and hand == 1.0 / 3.0,
        f"max |mean_f1 - oracle| = {max_err:.2e} over 1000 matrices; "
        f"hand case == 1/3 exactly: {hand == 1.0 / 3.0}",
    )


def test_criterion_7_statistical_harness():
    """Welch oracle case (t ~ -1.0, p ~ 0.3466) reproduced to 1e-3; stars
    assigned exactly at the 0.05 / 0.01 / 0.001 thresholds."""
    res = t_test(TrialSet("a", [1, 2, 3, 4, 5]), TrialSet("b", [2, 3, 4, 5, 6]))
    welch_ok = abs(res.t + 1.0) < 1e-3 and abs(res.p - 0.3466) < 1e-3
    stars_ok = (
        significance_stars(0.001) == "***"
        and significance_stars(0.001 + 1e-12) == "**"
        and significance_stars(0.01) == "**"
        and significance_stars(0.01 + 1e-12) == "*"
        and significance_stars(0.05) == "*"
        and significance_stars(0.05 + 1e-12) == ""
    )
    report(
        7,
        welch_ok and stars_ok,
        f"Welch t={res.t:.4f} p={res.p:.4f} (df={res.df:.1f}); "
        f"threshold stars exact: {stars_ok}",
    )


def test_criterion_8_training_determinism(tmp_path, capsys):
    """Two cmd_train runs with identical flags produce byte-identical
    manifests and model files."""
    data_path = tmp_path / "data.csv"
    code = cli_main(
        ["synth", "--d", "3", "--k", "3", "--t", "2000", "--regime", "imbalanced",
         "--snr", "2.0", "--seed", "5", "--out", str(data_path)]
    )
    assert code == 0
    flags = ["train", "--data", str(data_path), "--k", "3", "--hidden", "8",
             "--layers", "2", "--b-low", "4", "--b-high", "8", "--l-low", "8",
             "--l-high", "16", "--max-epoch", "3", "--dropout", "0.5",
             "--seed", "11"]
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for outdir in dirs:
        assert cli_main(flags + ["--outdir", str(outdir)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names
    )
    report(
        8,
        identical and "manifest.csv" in names and len(names) == 5,
        f"{len(names)} files byte-identical across reruns: {identical}",
    )
