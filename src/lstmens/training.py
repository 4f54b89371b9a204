"""Losses, truncated backpropagation through time, ADAM, gradient checking.

A frame is a block of L consecutive timesteps advanced in lockstep across B
streams. Gradients are exact within the frame and truncated at its boundary:
the carried-in state is treated as a constant, while the carried-out state
flows to the next frame forward-only.

Dropout is inverted dropout on every layer's output h, resampled per
timestep, applied to feed-forward connections only (the recurrent h path is
never masked). Mask values are 0 or 1/(1-p), so the masked activation equals
the unmasked one in expectation and p=0 reproduces the inference forward
pass bit for bit.

Where lstmens.overlap hands them to its helper thread, the backward pass's
weight-gradient products run there one task at a time in the inline order,
so gradients are the same bytes wherever they were computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import overlap
from .mathkit import log_softmax, softmax
from .network import LstmNetwork, LstmState, forward_frame, step_batch  # noqa: F401 -- perfbench/tracer.py counts step_batch
from .rng import Rng


class LossKind(enum.Enum):
    CE = "CE"
    F1 = "F1"


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """ADAM moments as flat vectors in the LstmNetwork.flat layout, allocated
    lazily on the first update."""

    learning_rate: float = 0.001
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass
class FrameBatch:
    """inputs (L, B, D); targets (L, B) ints; state: (B, H) per layer,
    carried in from the previous frame of the same streams."""

    inputs: np.ndarray
    targets: np.ndarray
    state: LstmState


# ---------------------------------------------------------------------------
# losses


def _ce_grad(logits: np.ndarray, targets: np.ndarray):
    """(loss, dloss/dlogits) for the mean cross entropy -log p(target).

    The loss comes from the log-softmax of the raw scores (never the log of
    a stored probability), so it stays finite when the softmax saturates.
    """
    k = logits.shape[-1]
    flat = logits.reshape(-1, k)
    t = targets.ravel()
    n = t.size
    if n == 0:
        raise ValueError("CE loss: empty batch")
    logp = log_softmax(flat)
    loss = float(-logp[np.arange(n), t].mean())
    dlogits = softmax(flat)
    dlogits[np.arange(n), t] -= 1.0
    dlogits /= n
    return loss, dlogits.reshape(logits.shape)


def _f1_grad(logits: np.ndarray, targets: np.ndarray):
    """(loss, dloss/dlogits) for the soft macro-F1 loss through the softmax.

    With p the softmax of the logits, each class k present in the batch
    contributes 1 - 2*sum_t p_tk*z_tk / (sum_t p_tk + sum_t z_tk), and the
    loss, in [0, 1], is the mean over present classes. Classes with no
    target samples in the batch are excluded (their term would be
    0/0-degenerate).
    """
    k = logits.shape[-1]
    flat = logits.reshape(-1, k)
    t = targets.ravel()
    n = t.size
    if n == 0:
        raise ValueError("F1 loss: batch with no labels")
    p = softmax(flat)
    counts = np.bincount(t, minlength=k).astype(np.float64)
    present = counts > 0
    n_present = int(present.sum())
    z = np.zeros((n, k))
    z[np.arange(n), t] = 1.0
    overlap = (p * z).sum(axis=0)
    denom = p.sum(axis=0) + counts
    terms = 1.0 - 2.0 * overlap[present] / denom[present]
    loss = float(terms.mean())
    # d term_k / d p_tk = -2 (z_tk * denom_k - overlap_k) / denom_k^2
    dp = np.zeros((n, k))
    dp[:, present] = (
        -2.0
        * (z[:, present] * denom[present] - overlap[present])
        / (denom[present] ** 2)
        / n_present
    )
    # chain through softmax: dlogit_j = p_j * (dp_j - sum_k dp_k p_k)
    dlogits = p * (dp - (dp * p).sum(axis=1, keepdims=True))
    return loss, dlogits.reshape(logits.shape)


_LOSS_GRADS = {LossKind.CE: _ce_grad, LossKind.F1: _f1_grad}


# ---------------------------------------------------------------------------
# dropout masks, frame backward


def draw_dropout_masks(rng: Rng, num_layers: int, length: int, batch: int,
                       hidden: int, dropout_p: float):
    """Fresh inverted-dropout masks, one per (timestep, layer).

    Draw order is timestep-major, layer-minor, each mask row-major; the
    whole frame is one uniform_block, which SplitMix64 makes bit-identical
    to drawing the masks one by one in that order. Returns None when p == 0
    so the masked and unmasked code paths are literally the same.
    """
    if dropout_p == 0.0:
        return None
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    scale = 1.0 / (1.0 - dropout_p)
    masks = rng.uniform_block(length * num_layers * batch * hidden)
    # in place: a second frame-sized array costs its page faults (~2x here)
    np.multiply(masks >= dropout_p, scale, out=masks)
    return masks.reshape(length, num_layers, batch, hidden)


def backward_frame(net: LstmNetwork, caches, dlogits: np.ndarray) -> LstmNetwork:
    """Exact gradients of the frame loss w.r.t. every parameter, as a
    network of net's shape whose parameters are the gradients.

    Gradients are truncated at the frame boundary: nothing flows into the
    carried-in state. Each layer-step fills a gate-major (4, B, H)
    preactivation gradient like the cached activations, then one transposing
    copy gives the (B, 4H) block whose weight gradients are 2 products and
    input/recurrent gradients 2 more. Accumulation order is fixed (reverse
    time, top layer down, streams summed inside the matrix products), so
    results are bitwise reproducible.

    Where `overlap.offload` takes the top layer's two weight-gradient
    products, each layer-step's two are one helper task, at most one
    outstanding, so every byte is the inline one; an exception a
    task raises is raised here, and no task is left when this returns or
    raises.
    """
    length, batch, k = dlogits.shape
    hidden = net.hidden_dim
    gnet = net.with_flat(np.zeros_like(net.flat))

    # output head: logits_t = up_top_t @ w + b
    up_top = np.stack([caches[t][-1]["up"] for t in range(length)])
    flat_d = dlogits.reshape(-1, k)
    gnet.output.w += up_top.reshape(-1, hidden).T @ flat_d
    gnet.output.b += flat_d.sum(axis=0)
    dup_top = (flat_d @ net.output.w.T).reshape(length, batch, hidden)

    n_layers = net.num_layers
    dh_rec = [np.zeros((batch, hidden)) for _ in range(n_layers)]
    dc_rec = [np.zeros((batch, hidden)) for _ in range(n_layers)]
    dz = np.empty((4, batch, hidden))
    offload = overlap.offload(batch * sum(net.layers[-1].dims) * 4 * hidden)
    pending = None
    try:
        for t in reversed(range(length)):
            dup = dup_top[t]
            for idx in reversed(range(n_layers)):
                cc = caches[t][idx]
                layer, glayer = net.layers[idx], gnet.layers[idx]
                mask = cc["mask"]
                dh = (dup if mask is None else dup * mask) + dh_rec[idx]
                z, tc = cc["z"], cc["tc"]
                f, i, o, g = z
                dc = dh * o * (1.0 - tc * tc) + dc_rec[idx]
                # rows 0-2 are dc*c_prev, dc*g and dh*tc, then times s and times
                # (1 - s) of the three sigmoid gates, one call each for all three
                np.multiply(dc, cc["c_prev"], out=dz[0])
                np.multiply(dc, g, out=dz[1])
                np.multiply(dh, tc, out=dz[2])
                dz[:3] *= z[:3]
                dz[:3] *= 1.0 - z[:3]
                np.multiply(dc * i, 1.0 - g * g, out=dz[3])
                # (B, 4H), a copy: a helper task may still read it when dz is refilled
                da = dz.transpose(1, 0, 2).copy().reshape(batch, 4 * hidden)
                if not offload:
                    _add_weight_grads(glayer, cc["x_in"], cc["h_prev"], da)
                else:
                    if pending is not None:
                        overlap.wait(pending)
                    pending = overlap.submit(_add_weight_grads, glayer, cc["x_in"],
                                             cc["h_prev"], da)
                glayer.b += da.sum(axis=0)
                if idx > 0:  # layer 0's input gradient would flow into the data
                    dup = da @ layer.wx.T
                dh_rec[idx] = da @ layer.wh.T
                dc_rec[idx] = dc * f
        if pending is not None:
            overlap.wait(pending)
    finally:  # after a failure too, no task of this frame is left queued or running
        if pending is not None:
            overlap.settle(pending)
    return gnet


def _add_weight_grads(glayer, x_in, h_prev, da) -> None:
    """backward_frame's weight-gradient statements, inline or as one helper task."""
    glayer.wx += x_in.T @ da
    glayer.wh += h_prev.T @ da


def bptt_frame(net: LstmNetwork, frame: FrameBatch, loss: LossKind,
               dropout_p: float = 0.0, rng: Rng | None = None):
    """Forward + backward over one frame.

    Returns (grads, new_state, loss_value). Fresh dropout masks are drawn
    from rng per timestep and layer; rng may be None when dropout_p == 0.
    """
    length, batch, _ = frame.inputs.shape
    if dropout_p > 0.0 and rng is None:
        raise ValueError("bptt_frame: dropout requires an rng")
    masks = draw_dropout_masks(
        rng, net.num_layers, length, batch, net.hidden_dim, dropout_p
    )
    caches = []
    logits, new_state = forward_frame(net, frame.inputs, frame.state, masks, caches)
    if not np.all(np.isfinite(logits)):
        bad = np.where(~np.isfinite(logits).all(axis=(0, 2)))[0]
        raise FloatingPointError(
            f"non-finite activations in stream(s) {bad.tolist()} of the frame"
        )
    loss_value, dlogits = _LOSS_GRADS[loss](logits, frame.targets)
    if not np.isfinite(loss_value):
        raise FloatingPointError(f"non-finite {loss.value} loss over the frame")
    grads = backward_frame(net, caches, dlogits)
    return grads, new_state, loss_value


# ---------------------------------------------------------------------------
# optimizer


def adam_update(net: LstmNetwork, grads: LstmNetwork, opt: AdamState) -> None:
    """One ADAM step, updating net parameters and moments in place.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with bias-corrected
    moments, as one vectorized update over the flat parameter vector.
    """
    g = grads.flat
    opt.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** opt.step
    c2 = 1.0 - b2 ** opt.step
    if opt.m is None:
        opt.m = np.zeros_like(net.flat)
        opt.v = np.zeros_like(net.flat)
    m, v = opt.m, opt.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    net.flat -= opt.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# gradient oracle


def _frame_loss_highprec(net: LstmNetwork, frame: FrameBatch, loss: LossKind):
    """Frame loss via an independent forward pass in extended precision.

    This is the oracle side of the gradient check, so it deliberately does
    not share code with step_batch/forward_frame, and it runs in
    np.longdouble: at delta=1e-5 the difference quotient of a float64 loss
    carries ~1e-11 of rounding noise, enough to mask errors in small
    gradient entries. Dropout off (masks are identity at check time).
    """
    ld = np.longdouble
    inputs = frame.inputs.astype(ld)
    hs = [h.astype(ld) for h in frame.state.h]
    cs = [c.astype(ld) for c in frame.state.c]
    length, _, _ = inputs.shape
    k = net.num_classes
    weights = [{name: arr.astype(ld) for name, arr in layer.tensors()}
               for layer in net.layers]
    out_w = net.output.w.astype(ld)
    out_b = net.output.b.astype(ld)

    def sig(a):
        e = np.exp(-np.abs(a))
        return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    logits = np.empty((length,) + frame.inputs.shape[1:2] + (k,), dtype=ld)
    for t in range(length):
        inp = inputs[t]
        for idx, w in enumerate(weights):
            f = sig(inp @ w["wxf"] + hs[idx] @ w["whf"] + w["bf"])
            i = sig(inp @ w["wxi"] + hs[idx] @ w["whi"] + w["bi"])
            g = np.tanh(inp @ w["wxc"] + hs[idx] @ w["whc"] + w["bc"])
            c = f * cs[idx] + i * g
            o = sig(inp @ w["wxo"] + hs[idx] @ w["who"] + w["bo"])
            hs[idx] = o * np.tanh(c)
            cs[idx] = c
            inp = hs[idx]
        logits[t] = inp @ out_w + out_b

    flat = logits.reshape(-1, k)
    targets = frame.targets.ravel()
    shifted = flat - flat.max(axis=1, keepdims=True)
    if loss is LossKind.CE:
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -logp[np.arange(targets.size), targets].mean()
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    counts = np.bincount(targets, minlength=k).astype(ld)
    present = counts > 0
    overlap = np.zeros(k, dtype=ld)
    np.add.at(overlap, targets, p[np.arange(targets.size), targets])
    denom = p.sum(axis=0) + counts
    return (1.0 - 2.0 * overlap[present] / denom[present]).mean()


def finite_difference_grads(net: LstmNetwork, frame: FrameBatch, loss: LossKind,
                            delta: float = 1e-5) -> LstmNetwork:
    """Central-difference gradients of the frame loss, entry by entry.

    Each entry of net.flat is perturbed in place, so every per-gate view the
    oracle reads sees it (perturbing through a copy, such as the ravel of a
    column view, would leave the network unchanged). Perturbed losses come
    from _frame_loss_highprec, so the quotient noise (~eps_longdouble /
    2 delta ~ 5e-15) stays far below the tolerances the check is run at.
    """
    grads = net.with_flat(np.zeros_like(net.flat))
    flat = net.flat
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + delta
        up = _frame_loss_highprec(net, frame, loss)
        flat[j] = orig - delta
        down = _frame_loss_highprec(net, frame, loss)
        flat[j] = orig
        grads.flat[j] = float((up - down) / (2.0 * delta))
    return grads


def relative_errors(analytic: LstmNetwork, numeric: LstmNetwork) -> dict:
    """Per-tensor max of |ga - gn| / max(|ga|, |gn|, 1e-8)."""
    out = {}
    for (name, ga), (_, gn) in zip(analytic.param_items(), numeric.param_items()):
        scale = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        out[name] = float((np.abs(ga - gn) / scale).max())
    return out


def random_check_frame(net: LstmNetwork, rng: Rng, length: int = 5,
                       batch: int = 2) -> FrameBatch:
    """Random frame (inputs, targets, carried-in states) for gradient checks.

    Carried states are random rather than zero so the cell-history paths
    (forget gate, c_prev products) carry weight from the first timestep.
    """
    d, h, k = net.input_dim, net.hidden_dim, net.num_classes
    inputs = rng.normal_block(length * batch * d).reshape(length, batch, d)
    targets = np.array(
        [[rng.uniform_int(0, k - 1) for _ in range(batch)] for _ in range(length)]
    )
    state = LstmState([], [])
    for _ in net.layers:
        state.h.append(np.tanh(rng.normal_block(batch * h).reshape(batch, h)))
        state.c.append(rng.normal_block(batch * h).reshape(batch, h))
    return FrameBatch(inputs, targets, state)


@dataclass
class GradCheckReport:
    max_rel_error: dict
    tolerance: float

    @property
    def failures(self) -> list[str]:
        # `not e < tol` rather than `e >= tol`: a NaN error (or tolerance) fails
        return [n for n, e in self.max_rel_error.items() if not e < self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(net: LstmNetwork, frame: FrameBatch, loss: LossKind,
               tolerance: float = 1e-4, delta: float = 1e-5) -> GradCheckReport:
    """Compare analytic BPTT gradients against central finite differences.

    Dropout must be off: the analytic pass runs with p=0 so both sides see
    the same deterministic function.
    """
    analytic, _, _ = bptt_frame(net, frame, loss, dropout_p=0.0)
    numeric = finite_difference_grads(net, frame, loss, delta)
    return GradCheckReport(relative_errors(analytic, numeric), tolerance)
