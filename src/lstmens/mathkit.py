"""Dense double-precision kernels: stable nonlinearities and averaging.

All math runs in float64. The nonlinearities are branch-stable (large positive
arguments are never exponentiated) and clip into the open ranges (0,1) /
(-1,1), so downstream code can rely on strict bounds for saturated inputs; they
are bare in-place ufunc calls, as the kernels call them every layer-step.
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
    through e). Each exp runs in place; out, if given, receives the result
    and may be v itself. A scalar gives the value of its 1-element array.
    """
    v = np.asarray(v, dtype=np.float64)
    if not v.ndim:  # a ufunc on a 0-d array returns a scalar, which out= rejects
        return sigmoid(v.reshape(1), None if out is None else out.reshape(1))[0]
    e = np.abs(v)
    np.exp(np.negative(e, out=e), out=e)
    e += 1.0
    num = np.fmin(v, 0.0)
    p = np.divide(np.exp(num, out=num), e, out=num if out is None else out)
    np.maximum(p, _TINY, out=p)
    return np.minimum(p, _ONE_BELOW, out=p)


def tanh_vec(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise tanh with outputs kept strictly inside (-1, 1); out and
    scalars as in sigmoid."""
    v = np.asarray(v, dtype=np.float64)
    if not v.ndim:
        return tanh_vec(v.reshape(1), None if out is None else out.reshape(1))[0]
    t = np.tanh(v, out=out)
    np.maximum(t, -_ONE_BELOW, out=t)
    return np.minimum(t, _ONE_BELOW, out=t)


def softmax(logits: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Probability simplex map via max-subtraction.

    Invariant under adding a constant to all logits; entries are strictly
    positive and sum to 1 within 1e-12 for any finite input. A block of
    rows gives each row's softmax bit for bit; out as in sigmoid.
    """
    x = np.asarray(logits, dtype=np.float64)
    e = np.empty_like(x) if out is None else out  # an array even for a scalar
    np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=e)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return np.maximum(e, _TINY, out=e)


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
    return v.take(0, axis) + np.add.reduce(v - v.take([0], axis), axis) / v.shape[axis]
