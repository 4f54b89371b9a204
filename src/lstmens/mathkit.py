"""Dense double-precision kernels: stable nonlinearities and averaging.

All math in the package runs in float64. The nonlinearities are written in
branch-stable forms (no exponentiation of large positive arguments) and their
outputs are nudged into the open ranges (0,1) / (-1,1) so downstream code can
rely on strict bounds even for saturated inputs.
"""

from __future__ import annotations

import numpy as np

# smallest positive normal double; used as the open-interval floor
_TINY = np.finfo(np.float64).tiny
_ONE_BELOW = np.nextafter(1.0, 0.0)


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, stable for any finite input.

    Only exp(-|x|) is ever evaluated, so large positive inputs cannot
    overflow; the result is 1/(1+e) for x >= 0 and e/(1+e) below, clipped
    into the open interval (0, 1). The numerator exp(fmin(x, 0)) is that
    branch pair without a select, bit for bit (exp(0) is 1; a NaN comes
    through e). out, if given, receives the result and may be v itself.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(-np.abs(v))
    num = np.exp(np.fmin(v, 0.0))
    e += 1.0
    return _clip_into(np.divide(num, e, out=out), _TINY, _ONE_BELOW)


def tanh_vec(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise tanh with outputs kept strictly inside (-1, 1); out as in
    sigmoid."""
    result = np.tanh(np.asarray(v, dtype=np.float64), out=out)
    return _clip_into(result, -_ONE_BELOW, _ONE_BELOW)


def _clip_into(out: np.ndarray, low: float, high: float) -> np.ndarray:
    """np.clip(out, low, high) written into out (same values, NaN kept)."""
    np.maximum(out, low, out=out)
    np.minimum(out, high, out=out)
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Probability simplex map via max-subtraction.

    Invariant under adding a constant to all logits; entries are strictly
    positive and sum to 1 within 1e-12 for any finite input.
    """
    x = np.asarray(logits, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    return np.clip(p, _TINY, None)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """log of softmax computed directly (never log(softmax(x)))."""
    x = np.asarray(logits, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def anchored_mean(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean computed as v0 + mean(v - v0).

    Exact (bitwise v0) when all entries along the axis are equal, and more
    accurate than a plain mean for tightly clustered values. Used wherever
    averaging identical member outputs must be an exact identity.
    """
    v = np.asarray(values, dtype=np.float64)
    anchor = np.take(v, 0, axis=axis)
    return anchor + (v - np.expand_dims(anchor, axis)).mean(axis=axis)
