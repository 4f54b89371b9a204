"""Command-line surface for the full pipeline.

Subcommands: synth, train, fuse, infer, eval, gradcheck, coverage. All
tabular output is CSV; every command is deterministic given its flags (all
randomness flows from explicit seeds) and prints a reproducibility header
comment line. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import bagging, data, ensembles, evaluation
from .network import init_network
from .rng import Rng
from .training import LossKind, grad_check, random_check_frame

NORM_NAME = "norm_stats.csv"  # the normalizer file train writes into its run directory


def _cfg_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _echo_header(args: argparse.Namespace) -> None:
    seed = getattr(args, "seed", "-")
    print(f"# seed={seed} cfg-hash={_cfg_hash(args)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    _echo_header(args)
    seq = data.synth_har(args.d, args.k, args.t, args.regime, args.snr, args.seed)
    data.save_csv(seq, args.out)
    sidecar = {
        "generator": "synth_har",
        "d": args.d,
        "k": args.k,
        "t": args.t,
        "regime": args.regime,
        "snr": args.snr,
        "seed": args.seed,
    }
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"# wrote {args.out} ({seq.num_samples} samples, {seq.num_channels} channels)")
    return 0


def cmd_train(args) -> int:
    _echo_header(args)
    seq = data.load_csv(args.data, data.CsvSchema(num_classes=args.k, label_col=args.label_col))
    fractions = tuple(float(f) for f in args.split.split(","))
    train, val, _ = data.holdout_split(seq, *data.fraction_ranges(seq.num_samples, fractions))
    stats = data.fit_normalizer(train)
    train, val = data.apply_normalizer(stats, train), data.apply_normalizer(stats, val)
    cfg = bagging.BaggingConfig(
        b_low=args.b_low,
        b_high=args.b_high,
        l_low=args.l_low,
        l_high=args.l_high,
        max_epoch=args.max_epoch,
        loss=LossKind(args.loss.upper()),
        dropout_p=args.dropout,
        seed=args.seed,
    )
    if train.num_samples <= cfg.b_high:  # checked before anything is written
        raise ValueError(f"--b-high {cfg.b_high} must be below the "
                         f"{train.num_samples} samples of the training split")
    os.makedirs(args.outdir, exist_ok=True)
    data.save_norm_stats(stats, os.path.join(args.outdir, NORM_NAME))
    print("epoch,train_loss,val_f1")

    def on_epoch(epoch, train_loss, val_f1):
        print(f"{epoch},{train_loss!r},{val_f1!r}")
        sys.stdout.flush()

    learners = bagging.run_bagging(
        train, val, cfg,
        hidden_dim=args.hidden,
        num_layers=args.layers,
        learning_rate=args.lr,
        on_epoch=on_epoch,
    )
    manifest = bagging.save_learners(learners, args.outdir)
    print(f"# wrote {manifest}")
    return 0


def cmd_fuse(args) -> int:
    _echo_header(args)
    runs = [bagging.load_learners(path) for path in args.manifest]
    for path, n in zip(args.manifest, map(len, runs)):
        if not 1 <= args.m <= n:
            raise ValueError(f"--m {args.m} outside [1, {n}] for --manifest {path}")
    ens = ensembles.mixed_ensemble(runs, args.m)
    ensembles.save_ensemble(ens, args.out)
    print(f"# wrote {args.out} ({ens.size} members: {ens.provenance})")
    return 0


def cmd_infer(args) -> int:
    _echo_header(args)
    ens = ensembles.load_ensemble(args.ensemble)
    d, k = ens.members[0].net.input_dim, ens.members[0].net.num_classes
    schema = data.CsvSchema(num_classes=k, label_col=args.label_col)
    seq = data.load_csv(args.data, schema)
    # train wrote each member's normalizer into the member's run directory
    norms = dict.fromkeys(os.path.join(os.path.dirname(m.source_path), NORM_NAME)
                          for m in ens.members)
    (first, stats), *others = [(path, data.load_norm_stats(path)) for path in norms]
    bits = (stats.mean.tobytes(), stats.std.tobytes(), stats.channels)
    for path, other in others:
        if (other.mean.tobytes(), other.std.tobytes(), other.channels) != bits:
            raise ValueError(f"{path} differs from {first}: "
                             f"the ensemble's runs were normalized differently")
    for what, n in ((f"--data {args.data}", seq.num_channels), (first, len(stats.mean))):
        if n != d:
            raise ValueError(f"{what} has {n} channel(s), --ensemble {args.ensemble} expects {d}")
    # a header-less data file's channels are named ch0, ch1, ... by position
    if seq.channel_names != stats.channels:
        raise ValueError(f"--data {args.data} has channels {','.join(seq.channel_names)}, "
                         f"{first} has {','.join(stats.channels)}")
    seq = data.apply_normalizer(stats, seq)
    probs, preds = ensembles.ensemble_infer(ens, seq.X.T)
    header = ["t", "pred", "label"] + [f"p_{i}" for i in range(k)]
    rows = [
        [t, int(preds[t]), int(seq.z[t])] + [repr(float(v)) for v in probs[t]]
        for t in range(seq.num_samples)
    ]
    data.write_csv(args.out, header, rows)
    print(f"# wrote {args.out} ({seq.num_samples} predictions)")
    return 0


def cmd_eval(args) -> int:
    _echo_header(args)
    (header_no, header), rows, (preds, labels) = data.read_csv_columns(
        args.pred, ("pred", "label"), (int, int))
    probs = [name for name in header if name.startswith("p_")]
    k = len(probs)
    if k == 0 or probs != [f"p_{i}" for i in range(k)]:
        raise ValueError(f"{args.pred} line {header_no}: need the columns p_0..p_{{K-1}} "
                         f"that infer writes, one per class; found {probs}")
    preds, labels = np.array(preds), np.array(labels)
    bad = (np.minimum(preds, labels) < 0) | (np.maximum(preds, labels) >= k)
    if bad.any():
        lineno, row = rows[int(bad.argmax())]
        raise ValueError(f"{args.pred} line {lineno}: pred {row['pred']}, label "
                         f"{row['label']}; classes are 0..{k - 1}")
    cm = evaluation.confusion(preds, labels, k)
    class_f1 = evaluation.per_class_f1(cm)
    os.makedirs(args.outdir, exist_ok=True)
    data.write_csv(
        os.path.join(args.outdir, "class_f1.csv"),
        ["class", "f1"],
        [[i, repr(float(v))] for i, v in enumerate(class_f1)],
    )
    data.write_csv(
        os.path.join(args.outdir, "confusion.csv"),
        ["true", "pred", "count"],
        [[i, j, int(cm[i, j])] for i in range(k) for j in range(k)],
    )
    print(f"mean_f1,{evaluation.mean_f1(cm)!r}")
    return 0


def cmd_gradcheck(args) -> int:
    _echo_header(args)
    print("seed,loss,tensor,max_rel_error,ok")
    worst = 0.0
    failed = False
    for trial in range(args.seeds):
        rng = Rng(args.seed + trial)
        net = init_network(3, 4, 3, num_layers=2, rng=rng)
        frame = random_check_frame(net, rng)
        for loss in (LossKind.CE, LossKind.F1):
            report = grad_check(net, frame, loss, tolerance=args.tolerance)
            failed = failed or not report.ok
            for tensor, err in report.max_rel_error.items():
                worst = max(worst, err)
                ok = tensor not in report.failures
                print(f"{args.seed + trial},{loss.value},{tensor},{err:.3e},{int(ok)}")
    print(f"# worst max_rel_error={worst:.3e} tolerance={args.tolerance:g}")
    return 1 if failed else 0


def cmd_coverage(args) -> int:
    _echo_header(args)
    cfg = bagging.BaggingConfig(
        b_low=args.b_low, b_high=args.b_high, l_low=args.l_low, l_high=args.l_high,
        max_epoch=1, seed=args.seed,
    )
    rng = Rng(args.seed)
    unused = [
        bagging.epoch_coverage(bagging.make_schedule(args.t, cfg, rng), args.t)
        for _ in range(args.epochs)
    ]
    arr = np.array(unused)
    print("epochs,t,mean_unused,min_unused,max_unused")
    print(
        f"{args.epochs},{args.t},"
        f"{float(arr.mean())!r},{float(arr.min())!r},{float(arr.max())!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


DEFAULTS = bagging.BaggingConfig()  # the paper's schedule, epochs and dropout


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_rate(text: str) -> float:
    """argparse type of a learning rate, which must be finite and above 0."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


def _add_schedule_flags(p) -> None:
    """The per-epoch mini-batch size and frame length ranges."""
    for field in ("b_low", "b_high", "l_low", "l_high"):
        p.add_argument("--" + field.replace("_", "-"), type=int,
                       default=getattr(DEFAULTS, field))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstmens",
        description="Epoch-wise bagged LSTM ensembles for sample-wise "
                    "sequence classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic activity dataset CSV")
    p.add_argument("--d", type=int, required=True, help="number of channels")
    p.add_argument("--k", type=int, required=True, help="number of classes")
    p.add_argument("--t", type=int, required=True, help="number of samples")
    p.add_argument("--regime", choices=["balanced", "imbalanced"], default="balanced")
    p.add_argument("--snr", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run epoch-wise bagged training")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--label-col", type=int, default=0)
    p.add_argument("--split", default="0.8,0.1,0.1",
                   help="train,val,test fractions over the stream")
    p.add_argument("--hidden", type=_positive_int, default=256)
    p.add_argument("--layers", type=_positive_int, default=2)
    _add_schedule_flags(p)
    p.add_argument("--max-epoch", type=int, default=DEFAULTS.max_epoch)
    p.add_argument("--loss", choices=[kind.value.lower() for kind in LossKind], default="ce")
    p.add_argument("--dropout", type=float, default=DEFAULTS.dropout_p)
    p.add_argument("--lr", type=_positive_rate, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuse", help="build an ensemble manifest from learners")
    p.add_argument("--manifest", action="append", required=True,
                   help="learner manifest CSV of one run; repeat to fuse several runs")
    p.add_argument("--m", type=int, required=True,
                   help="keep the top M snapshots by validation F1 of each manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("infer", help="sample-wise ensemble inference over a CSV")
    p.add_argument("--ensemble", required=True, help="ensemble manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score an inference CSV")
    p.add_argument("--pred", required=True,
                   help="output of the infer command; its p_ columns give K")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the analytic gradients")
    p.add_argument("--seeds", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("coverage",
                       help="Monte-Carlo estimate of per-epoch unused data")
    p.add_argument("--t", type=int, default=100000)
    p.add_argument("--epochs", type=_positive_int, default=200)
    _add_schedule_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_coverage)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
