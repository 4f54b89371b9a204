"""Portable text format for trained networks.

Layout (UTF-8, one record per line):

    LSTMENS v1
    D H K LAYERS LOSSKIND EPOCH VALF1
    <tensor name> <ndim> <dim...> <values...>

Values are row-major doubles rendered with Python's repr, which is the
shortest decimal string that round-trips exactly, so save followed by load
is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import LstmNetwork
from .training import LossKind


FORMAT_TAG = "LSTMENS"
FORMAT_VERSION = "v1"
LOSS_KINDS = tuple(kind.value for kind in LossKind)


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed; message carries the line."""


@dataclass
class ModelMeta:
    loss: str = "CE"
    epoch: int = 0
    val_f1: float = 0.0


def save_model(net: LstmNetwork, path, meta: ModelMeta | None = None) -> None:
    meta = meta if meta is not None else ModelMeta()
    lines = [
        f"{FORMAT_TAG} {FORMAT_VERSION}",
        f"{net.input_dim} {net.hidden_dim} {net.num_classes} {net.num_layers} "
        f"{meta.loss} {meta.epoch} {float(meta.val_f1)!r}",
    ]
    for name, arr in net.param_items():
        dims = " ".join(str(d) for d in arr.shape)
        values = " ".join(repr(float(v)) for v in arr.ravel())
        lines.append(f"{name} {arr.ndim} {dims} {values}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fail(lineno: int, msg: str):
    raise ModelFormatError(f"model file line {lineno}: {msg}")


def _zeros_network(d: int, h: int, k: int, n_layers: int) -> LstmNetwork:
    if min(d, h, k, n_layers) < 1:
        raise ModelFormatError(f"invalid model dimensions D={d} H={h} K={k} layers={n_layers}")
    return LstmNetwork.zeros(d, h, k, n_layers)


def load_model(path) -> tuple[LstmNetwork, ModelMeta]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        _fail(1, "empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_TAG:
        _fail(1, f"not a {FORMAT_TAG} model file")
    if header[1] != FORMAT_VERSION:
        _fail(1, f"incompatible format version {header[1]!r}, expected {FORMAT_VERSION}")
    if len(lines) < 2:
        _fail(2, "missing dimension header")
    cfg = lines[1].split()
    if len(cfg) != 7:
        _fail(2, f"expected 7 header fields, got {len(cfg)}")
    try:
        d, h, k, n_layers = (int(v) for v in cfg[:4])
        meta = ModelMeta(loss=cfg[4], epoch=int(cfg[5]), val_f1=float(cfg[6]))
    except ValueError:
        _fail(2, f"malformed dimension header: {lines[1]!r}")
    if meta.loss not in LOSS_KINDS:
        _fail(2, f"unknown loss kind {meta.loss!r}, expected one of {', '.join(LOSS_KINDS)}")
    if not np.isfinite(meta.val_f1):
        _fail(2, f"non-finite val_f1 {cfg[6]!r}")

    net = _zeros_network(d, h, k, n_layers)
    expected = {name: arr for name, arr in net.param_items()}
    seen = set()
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        name = parts[0]
        if name not in expected:
            _fail(lineno, f"unknown tensor {name!r}")
        if name in seen:
            _fail(lineno, f"duplicate tensor {name!r}")
        target = expected[name]
        try:
            ndim = int(parts[1])
            dims = tuple(int(v) for v in parts[2 : 2 + ndim])
            values = np.array([float(v) for v in parts[2 + ndim :]], dtype=np.float64)
        except (ValueError, IndexError):
            _fail(lineno, f"malformed tensor record for {name!r}")
        if dims != target.shape:
            _fail(lineno, f"tensor {name!r} has dims {dims}, expected {target.shape}")
        if values.size != target.size:
            _fail(lineno, f"tensor {name!r} has {values.size} values, expected {target.size}")
        if not np.all(np.isfinite(values)):
            _fail(lineno, f"tensor {name!r} contains non-finite values")
        target[...] = values.reshape(dims)
        seen.add(name)
    missing = sorted(set(expected) - seen)
    if missing:
        _fail(len(lines), f"truncated file, missing tensors: {', '.join(missing)}")
    return net, meta
