"""Binary model files (LSTMENS v2): a two-line ASCII header, then net.flat.

    LSTMENS v2\n
    D H K LAYERS LOSSKIND EPOCH VALF1\n
    <LstmNetwork.flat as raw little-endian float64, 8 bytes per parameter>

The body is the in-memory parameter vector (layout in network.py), so save
followed by load is bit-exact by construction; VALF1 is written with repr.
The per-tensor text format v1 is retired. Every ModelFormatError names the
file and the header line or the parameter body at fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import LstmNetwork
from .training import LossKind


FORMAT_TAG = "LSTMENS"
FORMAT_VERSION = "v2"
RETIRED_VERSION = "v1"  # the per-tensor text format


class ModelFormatError(ValueError):
    """Raised when a model file cannot be read."""


@dataclass
class BaseLearner:
    """Immutable snapshot of the network after one training epoch."""

    net: LstmNetwork
    epoch: int
    loss: LossKind
    val_f1: float
    source_path: str | None = None


def snapshot_fields(epoch: str, loss: str, val_f1: str) -> tuple[int, LossKind, float]:
    """(epoch, loss, val_f1) of a snapshot from their text; a ValueError names the field."""
    try:
        epoch_value = int(epoch)
    except ValueError:
        raise ValueError(f"epoch {epoch!r} is not an integer") from None
    try:
        loss_kind = LossKind(loss)
    except ValueError:
        kinds = ", ".join(kind.value for kind in LossKind)
        raise ValueError(f"unknown loss {loss!r}, expected one of {kinds}") from None
    try:
        val_f1_value = float(val_f1)
    except ValueError:
        val_f1_value = np.nan
    if not np.isfinite(val_f1_value):
        raise ValueError(f"val_f1 {val_f1!r} is not a finite number")
    return epoch_value, loss_kind, val_f1_value


def save_model(learner: BaseLearner, path) -> None:
    """Write one snapshot; a stack (an (M, P) flat) is rejected before the
    file is opened, since the header describes a single member."""
    net = learner.net
    if net.flat.ndim != 1:
        raise ValueError(f"{path}: cannot save a stack of {net.flat.shape[0]} networks "
                         f"as one model file")
    header = (
        f"{FORMAT_TAG} {FORMAT_VERSION}\n"
        f"{net.input_dim} {net.hidden_dim} {net.num_classes} {net.num_layers} "
        f"{learner.loss.value} {learner.epoch} {float(learner.val_f1)!r}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(net.flat.astype("<f8", copy=False).tobytes())


def load_model(path) -> BaseLearner:
    """The snapshot a model file holds, with source_path=str(path)."""
    def fail(where: str, msg: str):
        raise ModelFormatError(f"{path} {where}: {msg}")

    with open(path, "rb") as fh:
        tag = fh.readline().decode("ascii", "replace").split()
        cfg_line = fh.readline()
        body = fh.read()
    if len(tag) != 2 or tag[0] != FORMAT_TAG:
        fail("line 1", f"not a {FORMAT_TAG} model file")
    if tag[1] == RETIRED_VERSION:
        fail("line 1", f"model format {tag[1]} is retired, this version reads only "
                       f"{FORMAT_VERSION}; retrain to write the file again")
    if tag[1] != FORMAT_VERSION:
        fail("line 1", f"incompatible format version {tag[1]!r}, expected {FORMAT_VERSION}")
    cfg = cfg_line.decode("ascii", "replace").split()
    if len(cfg) != 7:
        fail("line 2", f"expected 7 header fields, got {len(cfg)}")
    try:
        d, h, k, n_layers = (int(v) for v in cfg[:4])
    except ValueError:
        fail("line 2", f"malformed dimension header: {' '.join(cfg)!r}")
    if min(d, h, k, n_layers) < 1:
        fail("line 2", f"invalid model dimensions D={d} H={h} K={k} layers={n_layers}")
    try:
        epoch, loss, val_f1 = snapshot_fields(cfg[5], cfg[4], cfg[6])
    except ValueError as exc:
        fail("line 2", str(exc))

    net = LstmNetwork.zeros(d, h, k, n_layers)
    if len(body) != net.flat.nbytes:
        fail("parameters", f"expected {net.flat.nbytes} bytes, found {len(body)}")
    net.flat[...] = np.frombuffer(body, dtype="<f8")
    if not np.isfinite(net.flat).all():
        name = next(name for name, arr in net.param_items() if not np.isfinite(arr).all())
        fail("parameters", f"tensor {name!r} contains non-finite values")
    return BaseLearner(net, epoch, loss, val_f1, source_path=str(path))
