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

Snapshots are scored a window at a time. run_bagging trains G epochs,
copying each epoch's parameters into row g of one (G, P) window buffer,
then validates the whole window in one stacked pass over the validation
stream (one kernel step per sample for all G snapshots, each bit-identical
to scoring that snapshot alone). G is as many snapshots as fit in
WINDOW_BYTES, at least one; every epoch's snapshot keeps viewing its row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import LabeledSequence, read_csv_columns, write_csv
from .evaluation import confusion, mean_f1
from .modelio import BaseLearner, load_model, save_model, snapshot_fields
from .network import LstmNetwork, infer_stream, init_network
from .rng import Rng
from .training import AdamState, FrameBatch, LossKind, adam_update, bptt_frame

# parameter bytes of the snapshots trained before their window is validated:
# 642 snapshots of a 2x32 network, 10 of a 2x256 one
WINDOW_BYTES = 64 << 20


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

    batch_size: int
    starts: np.ndarray
    frame_lengths: list[int]
    budget: int

    @property
    def consumed(self) -> int:
        """Samples each stream consumes this epoch (> budget, by design)."""
        return int(sum(self.frame_lengths))


def make_schedule(num_samples: int, cfg: BaggingConfig, rng: Rng) -> FrameSchedule:
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
    return FrameSchedule(batch, starts, lengths, budget)


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
                cfg: BaggingConfig, opt: AdamState, rng: Rng) -> float:
    """Run one epoch's frames, updating net and opt in place.

    States start at zero for every stream and carry across the epoch's
    frames. Returns the mean loss over the epoch's frames.
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
    return float(np.mean(losses))


def validation_f1(net: LstmNetwork, val: LabeledSequence) -> list[float]:
    """Sample-wise mean F1 on a validation stream, one score per network.

    A single network gives a list of one score. A stacked network (M
    snapshots in one (M, P) `flat`) streams its members in lockstep through
    one `infer_stream` pass and gives M scores, each equal to the float
    that scoring that snapshot alone returns.
    """
    probs = infer_stream(net, val.X.T)
    return [mean_f1(confusion(preds, val.z, val.num_classes))
            for preds in probs.argmax(axis=-1).reshape(-1, val.num_samples)]


def run_bagging(data: LabeledSequence, val: LabeledSequence, cfg: BaggingConfig,
                hidden_dim: int = 256, num_layers: int = 2,
                learning_rate: float = 0.001, on_epoch=None) -> list[BaseLearner]:
    """Full bagged training run: one BaseLearner snapshot per epoch.

    A single network is trained continuously (ADAM moments persist across
    epochs); after every epoch its parameters are copied into the current
    window buffer, and once the window's G epochs (WINDOW_BYTES worth of
    snapshots, fewer in the last window) are trained, one stacked
    validation_f1 pass scores them all by sample-wise mean F1. All
    randomness comes from Rng(cfg.seed); validation draws none. on_epoch,
    if given, is called as on_epoch(epoch, train_loss, val_f1) for every
    epoch in order, each window's calls coming after that window's pass.
    """
    if val.num_samples < 1:
        raise ValueError("validation stream is empty")
    rng = Rng(cfg.seed)
    net = init_network(data.num_channels, hidden_dim, data.num_classes, num_layers, rng)
    opt = AdamState(learning_rate=learning_rate)
    window = max(1, WINDOW_BYTES // net.flat.nbytes)
    learners = []
    for first in range(1, cfg.max_epoch + 1, window):
        epochs = range(first, min(first + window, cfg.max_epoch + 1))
        buffer = np.empty((len(epochs), net.flat.size))
        losses = []
        for row in buffer:
            schedule = make_schedule(data.num_samples, cfg, rng)
            losses.append(train_epoch(net, data, schedule, cfg, opt, rng))
            row[...] = net.flat
        scores = validation_f1(LstmNetwork(buffer, net.shape), val)
        for row, epoch, train_loss, val_f1 in zip(buffer, epochs, losses, scores):
            learners.append(BaseLearner(net.with_flat(row), epoch, cfg.loss, val_f1))
            if on_epoch is not None:
                on_epoch(epoch, train_loss, val_f1)
    return learners


# ---------------------------------------------------------------------------
# snapshot persistence
#
# A manifest is a CSV file (data.read_csv / data.write_csv) with the header
# MANIFEST_FIELDS and one row per learner's model file, read by column name
# so any column order loads. Learner manifests (save_learners) and ensemble
# manifests (ensembles.save_ensemble) share the layout and load_learners is
# the one reader of both; an ensemble manifest starts with a
# `# provenance=...` comment line for people to read, skipped on load.

MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ["epoch", "loss", "val_f1", "path"]


def manifest_rows(learners: list[BaseLearner], paths: list[str]) -> list[list]:
    """One MANIFEST_FIELDS row per learner, paths[j] being learner j's model file."""
    return [[learner.epoch, learner.loss.value, repr(learner.val_f1), path]
            for learner, path in zip(learners, paths)]


def save_learners(learners: list[BaseLearner], outdir) -> str:
    """Write one model file per learner plus a manifest CSV; returns its path.

    Model paths in the manifest are relative to the manifest's directory, so
    a run directory can be moved (and byte-compared) as a unit.
    """
    os.makedirs(outdir, exist_ok=True)
    names = []
    for learner in learners:
        names.append(f"learner_e{learner.epoch}_{learner.loss.value}.lstm")
        save_model(learner, os.path.join(outdir, names[-1]))
    manifest_path = os.path.join(outdir, MANIFEST_NAME)
    write_csv(manifest_path, MANIFEST_FIELDS, manifest_rows(learners, names))
    return manifest_path


def load_learners(manifest_path) -> list[BaseLearner]:
    """Read a learner or ensemble manifest and its model files into BaseLearners.

    The CSV checks are data.read_csv_columns'; each row's fields are parsed
    by modelio.snapshot_fields and must agree with its model file's header.
    Every failure is a ValueError naming the manifest and the line.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    _, rows, _ = read_csv_columns(manifest_path, MANIFEST_FIELDS,
                                  (str,) * len(MANIFEST_FIELDS))
    learners = []
    for lineno, row in rows:
        where = f"{manifest_path} line {lineno}"
        try:
            fields = snapshot_fields(row["epoch"], row["loss"], row["val_f1"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        learner = load_model(os.path.join(base, row["path"]))
        if (learner.epoch, learner.loss, learner.val_f1) != fields:
            raise ValueError(
                f"{where}: row has epoch={row['epoch']}, loss={row['loss']}, "
                f"val_f1={row['val_f1']} but model file {row['path']} has "
                f"epoch={learner.epoch}, loss={learner.loss.value}, val_f1={learner.val_f1!r}"
            )
        learners.append(learner)
    return learners
