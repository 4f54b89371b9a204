"""CSV files, dataset ingestion, normalization, splits, and the synthetic
generator.

read_csv and write_csv are the one reader and the one writer for every CSV
file the package reads or writes (datasets, normalizer stats, manifests,
predictions, metrics): blank lines and '#' lines are skipped, every row has
the first row's width, and every input error reads "<path> line N: ...",
N being the line in the file.

Sequences are stored channels-first: X has shape (D, T) with one
double-precision row per sensor channel, and z holds one class index per
sample. Dataset CSV files are the transpose of that: one row per sample,
with the label in a configurable column (default 0) and every other column
a channel.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import Rng

log = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-8


@dataclass
class LabeledSequence:
    X: np.ndarray  # (D, T)
    z: np.ndarray  # (T,) int
    num_classes: int
    channel_names: list[str] | None = None  # None names the channels ch0, ch1, ...

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.z = np.asarray(self.z, dtype=np.int64)
        if self.X.ndim != 2 or self.z.ndim != 1 or self.X.shape[1] != self.z.shape[0]:
            raise ValueError(
                f"inconsistent sequence shapes: X {self.X.shape}, z {self.z.shape}"
            )
        if self.channel_names is None:
            self.channel_names = [f"ch{i}" for i in range(self.X.shape[0])]
        if self.z.shape[0] < 1:
            raise ValueError("sequence must contain at least one sample")
        if self.z.min() < 0 or self.z.max() >= self.num_classes:
            raise ValueError(
                f"labels out of range [0, {self.num_classes}): "
                f"found [{self.z.min()}, {self.z.max()}]"
            )

    @property
    def num_channels(self) -> int:
        return self.X.shape[0]

    @property
    def num_samples(self) -> int:
        return self.X.shape[1]

    def slice(self, lo: int, hi: int) -> "LabeledSequence":
        return LabeledSequence(self.X[:, lo:hi], self.z[lo:hi], self.num_classes,
                               self.channel_names)


@dataclass
class CsvSchema:
    num_classes: int
    label_col: int = 0


# ---------------------------------------------------------------------------
# CSV files


def read_csv(path) -> list[tuple[int, list[str]]]:
    """Every row of a CSV file as a (file line, cells) pair.

    Blank lines and lines starting with '#' are skipped, and every row must
    have as many cells as the first. A file without rows, or a row of
    another width, is a ValueError reading "<path> line N: ...", N being the
    line in the file.
    """
    lineno = 0

    def content(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if line.strip() and not line.startswith("#"):
                yield line

    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = [(lineno, cells) for cells in csv.reader(content(fh))]
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} line {lineno + 1}: no rows")
    first, width = rows[0][0], len(rows[0][1])
    for n, cells in rows:
        if len(cells) != width:
            raise ValueError(f"{path} line {n}: {len(cells)} cells, line {first} has {width}")
    return rows


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write the header and rows with csv's \\r\\n row ending, after a
    '# <comment>' line (ending in \\n) when a comment is given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_columns(path, columns, convert):
    """Read the named columns of a CSV file whose first row is a header.

    Returns (header, rows, values): header is the (file line, cells) pair of
    the header row, rows holds (file line, row dict) per data row and
    values[j] the cells of columns[j] converted by convert[j], a tuple of
    one callable per column. A header without one of the columns, with one
    of them twice or without rows after it, or a cell that its converter
    rejects, is a ValueError naming the path and the file line.
    """
    (header_no, header), *records = read_csv(path)
    for name in columns:
        if header.count(name) != 1:
            problem = "missing" if name not in header else "duplicate"
            raise ValueError(f"{path} line {header_no}: {problem} column {name!r}")
    if not records:
        raise ValueError(f"{path} line {header_no}: no rows after the header")
    rows, values = [], [[] for _ in columns]
    for lineno, cells in records:
        row = dict(zip(header, cells))
        rows.append((lineno, row))
        for name, fn, column in zip(columns, convert, values):
            try:
                column.append(fn(row[name]))
            except ValueError:
                raise ValueError(f"{path} line {lineno}: {name} {row[name]!r} "
                                 f"is not a valid {fn.__name__}") from None
    return (header_no, header), rows, values


def _interpolate_nans(X: np.ndarray, names: list[str], where: str) -> dict[str, int]:
    """Linear interpolation of NaN runs per channel, in place.

    Boundary NaNs copy the nearest valid value. A channel with no valid
    value at all is an error, prefixed with where. Returns per-channel
    interpolation counts.
    """
    counts: dict[str, int] = {}
    for d in range(X.shape[0]):
        nan = np.isnan(X[d])
        if not nan.any():
            continue
        if nan.all():
            raise ValueError(f"{where}: channel {names[d]!r} contains no valid values")
        valid = np.flatnonzero(~nan)
        X[d, nan] = np.interp(np.flatnonzero(nan), valid, X[d, valid])
        counts[names[d]] = int(nan.sum())
    return counts


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, schema: CsvSchema) -> LabeledSequence:
    """Parse a dataset CSV. Header row is optional and detected by content.

    Labels must be integers in [0, K) and values finite. Literal NaN cells in
    feature columns are linearly interpolated per channel; interpolation
    counts are logged. Every error names the path and the file line.
    """
    rows = read_csv(path)
    (first, head), width = rows[0], len(rows[0][1])
    if not 0 <= schema.label_col < width:
        raise ValueError(f"{path} line {first}: label column {schema.label_col} "
                         f"outside row width {width}")
    feature_cols = [i for i in range(width) if i != schema.label_col]
    names = None  # no header row: LabeledSequence's default names
    if not all(_is_number(c) for c in head):  # a header row, naming the channels
        names = [head[i].strip() for i in feature_cols]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path} line {first}: no data rows after the header")

    try:  # numpy parses each str cell with float()
        table = np.array([cells for _, cells in rows], dtype=np.float64)
    except ValueError:
        lineno, col, cell = next((n, j, c) for n, cells in rows
                                 for j, c in enumerate(cells) if not _is_number(c))
        what = "label" if col == schema.label_col else "value"
        raise ValueError(f"{path} line {lineno}: unparseable {what} {cell!r} "
                         f"in column {col}") from None
    labels = table[:, schema.label_col]
    integral = np.isfinite(labels) & (labels == np.floor(labels))
    bad = ~integral | (labels < 0) | (labels >= schema.num_classes)
    if bad.any():
        t = int(bad.argmax())
        lineno, cells = rows[t]
        problem = (f"label {int(labels[t])} outside [0, {schema.num_classes})" if integral[t]
                   else f"label {cells[schema.label_col]!r} is not an integer")
        raise ValueError(f"{path} line {lineno}: {problem}")
    inf = np.isinf(table)  # the labels are finite by now
    if inf.any():
        t, col = divmod(int(inf.argmax()), width)
        lineno, cells = rows[t]
        raise ValueError(f"{path} line {lineno}: value {cells[col]!r} in column {col} "
                         f"is not finite")
    del rows  # the cell strings hold most of the memory load_csv takes

    # X is (D, T) and C-contiguous; the NaN runs are interpolated in place
    seq = LabeledSequence(table.T[feature_cols], labels.astype(np.int64),
                          schema.num_classes, names)
    counts = _interpolate_nans(seq.X, seq.channel_names, f"{path} line {first}")
    if counts:
        total = sum(counts.values())
        log.info("interpolated %d missing values (%s)", total,
                 ", ".join(f"{k}: {v}" for k, v in counts.items()))
    return seq


def save_csv(seq: LabeledSequence, path) -> None:
    """Write a sequence in the load_csv layout: label first, then channels."""
    write_csv(path, ["label"] + list(seq.channel_names),
              ([int(seq.z[t])] + [repr(float(v)) for v in seq.X[:, t]]
               for t in range(seq.num_samples)))


# ---------------------------------------------------------------------------
# normalization


@dataclass
class NormStats:
    mean: np.ndarray  # (D,)
    std: np.ndarray  # (D,)
    channels: list[str]  # the training data's channel names, as norm_stats files record them


def fit_normalizer(train: LabeledSequence) -> NormStats:
    """Per-channel mean/std from the training split only, recording its
    channel names.

    Channels with (near-)zero spread are floored at SIGMA_FLOOR with a
    warning rather than rejected; dead channels are common in real dumps.
    """
    mean = train.X.mean(axis=1)
    std = train.X.std(axis=1)
    low = std < SIGMA_FLOOR
    if low.any():
        flagged = [train.channel_names[i] for i in np.flatnonzero(low)]
        warnings.warn(
            f"near-constant channel(s) {flagged}: std floored at {SIGMA_FLOOR}",
            RuntimeWarning,
            stacklevel=2,
        )
        std = np.where(low, SIGMA_FLOOR, std)
    return NormStats(mean, std, train.channel_names)


def apply_normalizer(stats: NormStats, seq: LabeledSequence) -> LabeledSequence:
    """(x - mean) / std per channel; never recomputes statistics.

    The statistics must cover exactly the sequence's channels: a 1-channel
    file would otherwise broadcast silently across all of them.
    """
    if stats.mean.shape != (seq.num_channels,) or stats.std.shape != (seq.num_channels,):
        raise ValueError(
            f"normalizer has {stats.mean.shape[0]} channel(s), data has {seq.num_channels}"
        )
    X = (seq.X - stats.mean[:, None]) / stats.std[:, None]
    return LabeledSequence(X, seq.z.copy(), seq.num_classes, seq.channel_names)


def save_norm_stats(stats: NormStats, path) -> None:
    write_csv(path, ["channel", "mean", "std"],
              ([name, repr(float(m)), repr(float(s))]
               for name, m, s in zip(stats.channels, stats.mean, stats.std)))


def load_norm_stats(path) -> NormStats:
    """Read a save_norm_stats file, channel names included; every mean must
    be finite and every std finite and positive, or normalized data would
    turn non-finite."""
    _, rows, (channels, mean, std) = read_csv_columns(
        path, ("channel", "mean", "std"), (str, float, float))
    mean, std = np.array(mean), np.array(std)
    bad = ~(np.isfinite(mean) & np.isfinite(std) & (std > 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(
            f"{path} line {rows[i][0]} (channel {channels[i]!r}): "
            f"mean {mean[i]!r}, std {std[i]!r}; need a finite mean and a "
            f"finite, positive std"
        )
    return NormStats(mean, std, channels)


# ---------------------------------------------------------------------------
# splits


def holdout_split(seq: LabeledSequence, train_range, val_range, test_range):
    """Slice three disjoint contiguous [lo, hi) ranges out of one stream."""
    ranges = [tuple(train_range), tuple(val_range), tuple(test_range)]
    for lo, hi in ranges:
        if not 0 <= lo < hi <= seq.num_samples:
            raise ValueError(f"range [{lo}, {hi}) invalid for T={seq.num_samples}")
    for i in range(3):
        for j in range(i + 1, 3):
            (a0, a1), (b0, b1) = ranges[i], ranges[j]
            if a0 < b1 and b0 < a1:
                raise ValueError(f"overlapping ranges [{a0},{a1}) and [{b0},{b1})")
    return tuple(seq.slice(lo, hi) for lo, hi in ranges)


def fraction_ranges(num_samples: int, fractions=(0.8, 0.1, 0.1)):
    """Contiguous train/val/test ranges from split fractions."""
    if len(fractions) != 3 or any(f <= 0 for f in fractions) or sum(fractions) > 1 + 1e-9:
        raise ValueError(f"bad split fractions {fractions}")
    a = int(num_samples * fractions[0])
    b = a + int(num_samples * fractions[1])
    c = min(num_samples, b + int(round(num_samples * fractions[2])))
    return (0, a), (a, b), (b, c)


# ---------------------------------------------------------------------------
# synthetic activity streams


BURST_FRACTION = 0.15  # share of runs carrying burst sensor noise
BURST_GAIN = 3.0  # burst noise std relative to the base noise
# strongest per-run lean of one class's offsets toward another; synth_har
# lowers it further wherever the class geometry needs (see _lean_cap)
BLEND_MAX = 0.3


def _lean_cap(offsets: np.ndarray) -> float:
    """Largest per-run lean that keeps the classes' offset levels apart.

    A run of class k leaning by lam toward class j sits at
    (1 - lam) * offsets[k] + lam * offsets[j], at most lam * dmax from
    offsets[k], where dmax (dmin) is the largest (smallest) distance between
    two classes' offset vectors. With leans below b, two runs of one class
    lie within 2*b*dmax of each other and runs of different classes at least
    dmin - 2*b*dmax apart, so the per-class level clusters stay disjoint for
    b < dmin / (4 * dmax). Returns min(BLEND_MAX, dmin / (4 * dmax)).
    """
    diff = offsets[:, None, :] - offsets[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    pairs = dist[np.triu_indices(offsets.shape[0], k=1)]
    dmax = float(pairs.max())
    if dmax == 0.0:
        return BLEND_MAX  # all levels coincide; a lean moves nothing
    return min(BLEND_MAX, float(pairs.min()) / (4.0 * dmax))


def synth_har(num_channels: int, num_classes: int, length: int,
              regime: str = "balanced", snr: float = 4.0, seed: int = 0) -> LabeledSequence:
    """Synthetic multichannel activity stream for desk-scale experiments.

    Each class gets a distinct per-channel signature: an offset level plus a
    sinusoid with class-specific base frequency and per-channel phase.
    Activities occur in runs with lognormal durations, and every run varies
    around its class signature the way repeated executions of one activity
    differ: random amplitude/frequency factors, fresh phases, and a random
    lean of the offset pattern toward one other class. The lean stays below
    min(BLEND_MAX, dmin / (4 * dmax)), where dmin and dmax are the smallest
    and largest distances between two classes' offset vectors; below that
    bound the offset levels of each class's runs form a cluster disjoint from
    every other class's (see _lean_cap), so the noiseless class signatures
    stay distinct. White Gaussian noise of standard
    deviation 1/snr covers the stream (snr=inf means noiseless), and a
    fraction of runs additionally carries stronger burst noise on a random
    subset of channels, mimicking the intermittent sensor faults that make
    parts of a real recording scarcely usable for training. Ambiguity
    between instances comes from that noise, the bursts and the remaining
    lean within a class.

    regime "balanced" cycles the classes round-robin, so class fractions
    concentrate near 1/K. regime "imbalanced" alternates background (class
    0) runs with activity runs and draws every background run strictly
    longer than the activity run that follows, so class 0 holds at least
    half the samples for every seed and truncation point.
    """
    if num_channels < 2 or num_classes < 2:
        raise ValueError("synth_har needs num_channels >= 2 and num_classes >= 2")
    if regime not in ("balanced", "imbalanced"):
        raise ValueError(f"unknown regime {regime!r}")
    if length < 2:
        raise ValueError("length must be >= 2")
    rng = Rng(seed)

    # class/channel signatures
    channel_phase = rng.uniform_block(num_channels) * 2.0 * np.pi
    offsets = 0.8 * np.cos(
        2.0 * np.pi
        * np.outer(np.arange(num_classes), np.arange(1, num_channels + 1))
        / num_classes
        + channel_phase[None, :]
    )  # (K, D)
    max_lean = _lean_cap(offsets)
    # evenly spaced base frequencies (cycles/sample); the per-run +/-15%
    # jitter below never bridges adjacent classes' bands
    freqs = 0.03 + 0.12 * np.arange(num_classes) / max(1, num_classes - 1)
    noise_std = 0.0 if math.isinf(snr) else 1.0 / snr

    def run_length(median: float) -> int:
        return max(8, int(round(median * math.exp(0.35 * rng.normal()))))

    z = np.empty(length, dtype=np.int64)
    X = np.empty((num_channels, length))
    burst_mask = np.zeros((num_channels, length))
    t = 0
    activity = 0
    pending = 0  # length of the preceding background run (imbalanced regime)
    while t < length:
        if regime == "balanced":
            k = activity % num_classes
            run = run_length(90.0)
        elif activity % 2 == 0:
            # background run, built to strictly exceed the activity run
            # that follows so class 0 keeps a majority under any truncation
            k = 0
            run = run_length(70.0) + run_length(35.0)
            pending = run
        else:
            k = 1 + (activity // 2) % (num_classes - 1)
            run = min(pending - 1, run_length(70.0))
        end = min(t + run, length)
        span = end - t
        z[t:end] = k
        # per-run execution variability around the class signature
        amp = 0.7 * (0.6 + 0.8 * rng.uniform())
        freq = freqs[k] * (0.85 + 0.3 * rng.uniform())
        phases = (rng.uniform_block(num_channels) * 2.0 * np.pi)[:, None]
        other = (k + 1 + rng.uniform_int(0, num_classes - 2)) % num_classes
        lean = max_lean * rng.uniform()
        level = (1.0 - lean) * offsets[k] + lean * offsets[other]
        local = np.arange(span, dtype=np.float64)[None, :]
        X[:, t:end] = level[:, None] + amp * np.sin(
            2.0 * np.pi * freq * local + phases
        )
        # occasional burst faults on a random subset of channels
        burst_gate = rng.uniform() < BURST_FRACTION
        channel_gate = rng.uniform_block(num_channels) < 0.5
        if burst_gate:
            burst_mask[channel_gate, t:end] = 1.0
        t = end
        activity += 1

    base = rng.normal_block(num_channels * length).reshape(num_channels, length)
    burst = rng.normal_block(num_channels * length).reshape(num_channels, length)
    X = X + noise_std * base + (BURST_GAIN * noise_std) * burst_mask * burst
    return LabeledSequence(X, z, num_classes)
