"""Epoch-wise bagging: randomized schedules, per-epoch training, snapshots.

Each training epoch gets its own randomized plan: a mini-batch size B drawn
uniformly from [b_low, b_high], B random starting positions along the
training stream, and a sequence of random frame lengths from [l_low,
l_high]. All B streams advance in lockstep by the same frame length; LSTM
state carries across consecutive frames within the epoch and resets at epoch
boundaries. Each stream consumes floor(T/B) samples per epoch (the last
frame may overshoot by up to l_high - 1 because the budget is checked before
the length is drawn), so a substantial fraction of the training data is
left untouched each epoch -- the bootstrap-like subsetting that makes the
per-epoch snapshots diverse enough to aggregate.

Frame positions index the stream modulo T (equivalent to reading from the
sequence concatenated with itself), so the rare overshoot past the end
wraps around instead of failing.

One continuous model is trained across all epochs (optimizer moments
persist); the per-epoch parameter snapshots, each scored on a held-out
validation stream, are what the ensemble layer aggregates.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .data import LabeledSequence
from .evaluation import confusion, mean_f1
from .modelio import LOSS_KINDS, ModelMeta, load_model, save_model
from .network import LstmNetwork, infer_stream, init_network
from .rng import Rng
from .training import AdamState, FrameBatch, LossKind, adam_update, bptt_frame


@dataclass
class BaggingConfig:
    b_low: int = 128
    b_high: int = 256
    l_low: int = 16
    l_high: int = 32
    max_epoch: int = 100
    loss: LossKind = LossKind.CE
    dropout_p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.b_low <= self.b_high:
            raise ValueError(f"bad mini-batch size range [{self.b_low}, {self.b_high}]")
        if not 1 <= self.l_low <= self.l_high:
            raise ValueError(f"bad frame length range [{self.l_low}, {self.l_high}]")
        if self.max_epoch < 1:
            raise ValueError("max_epoch must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")


@dataclass
class FrameSchedule:
    """One epoch's randomized mini-batch plan.

    starts are 0-based stream positions; the paper-facing convention
    (positions 1..floor(T(1-1/B))) maps to starts 0..bound-1.
    """

    epoch: int
    batch_size: int
    starts: np.ndarray
    frame_lengths: list[int]
    budget: int

    @property
    def consumed(self) -> int:
        """Samples each stream consumes this epoch (> budget, by design)."""
        return int(sum(self.frame_lengths))


@dataclass
class BaseLearner:
    """Immutable snapshot of the network after one training epoch."""

    net: LstmNetwork
    epoch: int
    loss: LossKind
    val_f1: float
    source_path: str | None = None


def make_schedule(num_samples: int, cfg: BaggingConfig, rng: Rng, epoch: int = 0) -> FrameSchedule:
    """Draw one epoch's plan, in the fixed order: batch size, starts, lengths."""
    if num_samples <= cfg.b_high:
        raise ValueError(
            f"training stream too short: T={num_samples} must exceed b_high={cfg.b_high}"
        )
    batch = rng.uniform_int(cfg.b_low, cfg.b_high)
    # start positions are uniform on 1..floor(T(1-1/B)); the bound degenerates
    # to 0 for B == 1, in which case the single stream starts at the beginning
    bound = max(1, (num_samples * (batch - 1)) // batch)
    starts = np.array(
        [rng.uniform_int(1, bound) - 1 for _ in range(batch)], dtype=np.int64
    )
    budget = num_samples // batch
    lengths: list[int] = []
    consumed = 0
    while consumed <= budget:
        length = rng.uniform_int(cfg.l_low, cfg.l_high)
        lengths.append(length)
        consumed += length
    return FrameSchedule(epoch, batch, starts, lengths, budget)


def epoch_coverage(schedule: FrameSchedule, num_samples: int) -> float:
    """Exact fraction of stream positions no stream of the epoch touches."""
    touched = np.zeros(num_samples, dtype=bool)
    span = min(schedule.consumed, num_samples)
    offsets = np.arange(span)
    for start in schedule.starts:
        touched[(start + offsets) % num_samples] = True
    return float(1.0 - touched.mean())


def _gather_frame(data: LabeledSequence, positions: np.ndarray, length: int):
    """(L, B, D) inputs and (L, B) targets starting at each stream position."""
    idx = (positions[:, None] + np.arange(length)[None, :]) % data.num_samples
    inputs = data.X[:, idx].transpose(2, 1, 0).copy()
    targets = data.z[idx].T.copy()
    return inputs, targets


def train_epoch(net: LstmNetwork, data: LabeledSequence, schedule: FrameSchedule,
                cfg: BaggingConfig, opt: AdamState, rng: Rng):
    """Run one epoch's frames, updating net and opt in place.

    States start at zero for every stream and carry across the epoch's
    frames. Returns (net, opt, mean loss over the epoch's frames).
    """
    if data.num_channels != net.input_dim:
        raise ValueError(
            f"data has {data.num_channels} channels, network expects {net.input_dim}"
        )
    positions = schedule.starts.copy()
    state = net.zero_state(schedule.batch_size)
    losses = []
    for length in schedule.frame_lengths:
        inputs, targets = _gather_frame(data, positions, length)
        frame = FrameBatch(inputs, targets, state)
        grads, state, loss_value = bptt_frame(net, frame, cfg.loss, cfg.dropout_p, rng)
        adam_update(net, grads, opt)
        losses.append(loss_value)
        positions = positions + length
    return net, opt, float(np.mean(losses))


def validation_f1(net: LstmNetwork, val: LabeledSequence) -> float:
    """Sample-wise mean F1 of the network on a validation stream."""
    probs = infer_stream(net, val.X.T)
    preds = probs.argmax(axis=1)
    return mean_f1(confusion(preds, val.z, val.num_classes))


def run_bagging(data: LabeledSequence, val: LabeledSequence, cfg: BaggingConfig,
                rng: Rng | None = None, hidden_dim: int = 256, num_layers: int = 2,
                learning_rate: float = 0.001, on_epoch=None) -> list[BaseLearner]:
    """Full bagged training run: one BaseLearner snapshot per epoch.

    A single network is trained continuously (ADAM moments persist across
    epochs); after every epoch its parameters are snapshotted and scored by
    sample-wise mean F1 on the validation stream. on_epoch, if given, is
    called as on_epoch(epoch, train_loss, val_f1) after each epoch.
    """
    if val.num_samples < 1:
        raise ValueError("validation stream is empty")
    rng = rng if rng is not None else Rng(cfg.seed)
    net = init_network(data.num_channels, hidden_dim, data.num_classes, num_layers, rng)
    opt = AdamState(learning_rate=learning_rate)
    learners = []
    for epoch in range(1, cfg.max_epoch + 1):
        schedule = make_schedule(data.num_samples, cfg, rng, epoch)
        _, _, train_loss = train_epoch(net, data, schedule, cfg, opt, rng)
        val_f1 = validation_f1(net, val)
        learners.append(BaseLearner(net.copy(), epoch, cfg.loss, val_f1))
        if on_epoch is not None:
            on_epoch(epoch, train_loss, val_f1)
    return learners


# ---------------------------------------------------------------------------
# snapshot persistence
#
# A manifest is a CSV of learners, one row per model file, read by column
# name. Learner manifests (save_learners) and ensemble manifests
# (ensembles.save_ensemble) share the layout; an ensemble manifest starts
# with a `# provenance=...` comment line, which load_learners skips.

MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ["epoch", "loss", "val_f1", "path"]


def write_manifest(fh, learners: list[BaseLearner], paths: list[str]) -> None:
    """The header and one row per learner, paths[j] being learner j's model file."""
    writer = csv.writer(fh)
    writer.writerow(MANIFEST_FIELDS)
    for learner, path in zip(learners, paths):
        writer.writerow([learner.epoch, learner.loss.value, repr(learner.val_f1), path])


def save_learners(learners: list[BaseLearner], outdir) -> str:
    """Write one model file per learner plus a manifest CSV; returns its path.

    Model paths in the manifest are relative to the manifest's directory, so
    a run directory can be moved (and byte-compared) as a unit.
    """
    os.makedirs(outdir, exist_ok=True)
    names = []
    for learner in learners:
        names.append(f"learner_e{learner.epoch}_{learner.loss.value}.lstm")
        save_model(learner.net, os.path.join(outdir, names[-1]),
                   ModelMeta(learner.loss.value, learner.epoch, learner.val_f1))
    manifest_path = os.path.join(outdir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        write_manifest(fh, learners, names)
    return manifest_path


def _parse_row(row: dict) -> tuple[int, LossKind, float]:
    """(epoch, loss, val_f1) of one manifest row; a ValueError says what is wrong."""
    try:
        epoch = int(row["epoch"])
    except ValueError:
        raise ValueError(f"epoch {row['epoch']!r} is not an integer") from None
    if row["loss"] not in LOSS_KINDS:
        raise ValueError(f"unknown loss {row['loss']!r}, expected one of {', '.join(LOSS_KINDS)}")
    try:
        val_f1 = float(row["val_f1"])
    except ValueError:
        val_f1 = None
    if val_f1 is None or not np.isfinite(val_f1):
        raise ValueError(f"val_f1 {row['val_f1']!r} is not a finite number")
    return epoch, LossKind(row["loss"]), val_f1


def load_learners(manifest_path) -> list[BaseLearner]:
    """Read a learner or ensemble manifest and its model files into BaseLearners.

    Columns are found by header name, so any column order loads. Each row
    must be complete and well-formed and must agree with its model file's
    header on (epoch, loss, val_f1); an empty manifest is an error. Every
    failure is a ValueError naming the manifest and the line.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    numbered = [(n, line) for n, line in enumerate(lines, start=1)
                if line.strip() and not line.startswith("#")]
    if not numbered:
        raise ValueError(f"{manifest_path} line {len(lines) + 1}: empty manifest, expected "
                         f"the header {','.join(MANIFEST_FIELDS)}")
    records = zip((n for n, _ in numbered), csv.reader(line for _, line in numbered))
    header_no, header = next(records)
    missing = [name for name in MANIFEST_FIELDS if name not in header]
    if missing:
        raise ValueError(f"{manifest_path} line {header_no}: header lacks column(s) "
                         f"{', '.join(missing)}")
    learners = []
    for lineno, cells in records:
        where = f"{manifest_path} line {lineno}"
        if len(cells) != len(header):
            raise ValueError(f"{where}: {len(cells)} column(s), the header has {len(header)}")
        row = dict(zip(header, cells))
        try:
            epoch, loss, val_f1 = _parse_row(row)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        path = os.path.join(base, row["path"])
        net, meta = load_model(path)
        if (meta.epoch, meta.loss, meta.val_f1) != (epoch, loss.value, val_f1):
            raise ValueError(
                f"{where}: row has epoch={epoch}, loss={loss.value}, val_f1={val_f1!r} but "
                f"model file {row['path']} has epoch={meta.epoch}, loss={meta.loss}, "
                f"val_f1={meta.val_f1!r}"
            )
        learners.append(BaseLearner(net, epoch, loss, val_f1, source_path=path))
    if not learners:
        raise ValueError(f"{manifest_path} line {header_no}: no learners after the header")
    return learners
