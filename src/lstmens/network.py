"""Multi-layer LSTM network: parameters, the forward step and frame loop, inference.

Weight layout: each layer stores its gates fused, as wx (D_in x 4H), wh
(H x 4H) and b (4H), with the gate column blocks in the order [f, i, o, g];
stacking wx on wh gives the usual combined (D_in+H) x 4H matrix acting on
[x, h]. All tensors of one network, the output head included, are views into
one contiguous float64 vector (`LstmNetwork.flat`), laid out layer by layer
as [wx, wh, b] and then [w, b] of the head, so a snapshot is one copy and the
optimizer is one vectorized update; a model file stores this vector as is.
The per-gate names (wxf, whf, ... bo; c names the cell candidate g) are
column views of the fused tensors: initialisation, the gradient oracle and
model-file error messages address parameters by them.

Every network is built one way: `LstmNetwork(flat, shape)` binds the views
over a given buffer, and `zeros` and `with_flat` only choose that buffer. A
stack of M same-shape networks is the same constructor over an (M, P)
buffer, one member's flat per row (ensemble_infer binds `np.stack` of its
members' flats, run_bagging a window buffer): every tensor gains a leading
member axis (wx (M, D_in, 4H), wh (M, H, 4H), b (M, 1, 4H); head w (M, H,
K), b (M, 1, K)), and the shape properties read the trailing axes.

The recurrent state is always an `LstmState`, per-layer lists of h and c
arrays: (H,) for one streamed sample (`step`), (B, H) for B training
streams, with the member axis in front for a stacked network.

Per timestep and layer, with sigmoid s and previous (h, c):

    a = x@Wx + h@Wh + b                fused preactivations, (B, 4H)
    z = a as (4, B, H)                 gate-major, each gate contiguous
    [f, i, o] = s(z[:3])               forget, input, output gates
    g = tanh(z[3])                     cell candidate
    c' = f * c + i * g                 new cell state
    h' = o * tanh(c')                  new hidden state

The last layer's hidden state feeds a linear head: logits = h' @ W + b.

There is one kernel, `layer_step`, and one loop over timesteps,
`forward_frame`, which runs a training frame and an `infer_stream` stream.
Everything is batch-first (B, feature), and a stacked network adds the
member axis in front ((M, B, feature)), so the same body advances B
training streams, one streamed sample (bare (D,) and (H,) vectors, whose
products round as (1, n) rows do), or one sample through all M members of
an ensemble in lockstep. numpy's stacked matmul makes the same per-member
BLAS call as the 2-D product, so a stacked member's output is
bit-identical to the member run alone, and streaming one sample at a time
is bit-identical to whole-sequence inference.

Where lstmens.overlap takes a frame, `forward_frame` shares it with the
helper thread. A stack that keeps no caches (stacked inference, validation
windows) runs half of its members there for the whole frame (a member
split); anything else runs its upper layers there one step behind the lower
ones (a layer wavefront). The bytes do not depend on where a member or a
layer-step ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mathkit, overlap
from .mathkit import sigmoid, softmax, tanh_vec
from .rng import Rng

# fixed tensor order within a layer; initialisation and param_items (gradient
# reports, model-file errors) iterate parameters in this order
LAYER_WEIGHTS = ("wxf", "whf", "wxi", "whi", "wxc", "whc", "wxo", "who")
LAYER_BIASES = ("bf", "bi", "bc", "bo")
# column-block order of the gates inside wx, wh and b
GATE_ORDER = ("f", "i", "o", "c")


def _view(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """buf's last axis as (rows, cols); a view, since that axis is unit-stride."""
    return buf.reshape(*buf.shape[:-1], rows, cols)


def _bias_view(buf: np.ndarray) -> np.ndarray:
    """A bias vector as is, or a stack of them as (M, 1, n) rows."""
    return buf if buf.ndim == 1 else _view(buf, 1, buf.shape[-1])


class LstmLayerParams:
    """One layer's fused parameters wx (D_in, 4H), wh (H, 4H), b (4H), and
    the per-gate names (LAYER_WEIGHTS + LAYER_BIASES) as column views, all
    viewing `buf` (no copy): 1-d, or (M, size) for stacked members, whose
    views gain a leading M axis."""

    def __init__(self, buf: np.ndarray, d_in: int, hidden: int):
        width = 4 * hidden
        self.wx = _view(buf[..., : d_in * width], d_in, width)
        self.wh = _view(buf[..., d_in * width : (d_in + hidden) * width], hidden, width)
        self.b = _bias_view(buf[..., (d_in + hidden) * width :])
        for k, gate in enumerate(GATE_ORDER):
            cols = slice(k * hidden, (k + 1) * hidden)
            setattr(self, "wx" + gate, self.wx[..., cols])
            setattr(self, "wh" + gate, self.wh[..., cols])
            setattr(self, "b" + gate, self.b[..., cols])

    @staticmethod
    def size(d_in: int, hidden: int) -> int:
        return (d_in + hidden + 1) * 4 * hidden

    @property
    def dims(self) -> tuple[int, int]:
        return self.input_dim, self.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.wx.shape[-2]

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[-2]

    def tensors(self):
        for name in LAYER_WEIGHTS + LAYER_BIASES:
            yield name, getattr(self, name)


class OutputLayerParams:
    """Linear head w (H, K), b (K,), viewing `buf` like LstmLayerParams."""

    def __init__(self, buf: np.ndarray, hidden: int, k: int):
        self.w = _view(buf[..., : hidden * k], hidden, k)
        self.b = _bias_view(buf[..., hidden * k :])

    @staticmethod
    def size(hidden: int, k: int) -> int:
        return (hidden + 1) * k

    @property
    def dims(self) -> tuple[int, int]:
        return self.w.shape[-2:]


@dataclass
class LstmState:
    """Per-layer hidden and cell arrays of the recurrent state: (H,) each
    for one stream, (B, H) for a batch of streams, with a leading member
    axis for a stacked network."""

    h: list[np.ndarray]
    c: list[np.ndarray]


class LstmNetwork:
    """Stacked LSTM layers plus a linear head over one flat parameter vector.

    `LstmNetwork(flat, shape)` binds the layers and head as views into flat
    (no copy); shape is ((D_in, H) per layer, (H, K) of the head), as the
    `shape` property returns it.
    """

    def __init__(self, flat: np.ndarray, shape: tuple):
        layer_dims, head_dims = shape
        self.flat, self.layers, offset = flat, [], 0
        for dims in layer_dims:
            size = LstmLayerParams.size(*dims)
            self.layers.append(LstmLayerParams(flat[..., offset : offset + size], *dims))
            offset += size
        self.output = OutputLayerParams(flat[..., offset:], *head_dims)

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int, num_classes: int,
              num_layers: int) -> "LstmNetwork":
        d_ins = [input_dim] + [hidden_dim] * (num_layers - 1)
        layer_dims = tuple((d, hidden_dim) for d in d_ins)
        head_dims = (hidden_dim, num_classes)
        size = sum(LstmLayerParams.size(*dims) for dims in layer_dims)
        return cls(np.zeros(size + OutputLayerParams.size(*head_dims)), (layer_dims, head_dims))

    def with_flat(self, flat: np.ndarray) -> "LstmNetwork":
        """A network of this shape whose tensors are views into flat (no copy)."""
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector has shape {flat.shape}, expected {self.flat.shape}")
        return LstmNetwork(flat, self.shape)

    @property
    def shape(self) -> tuple:
        """((D_in, H) per layer, (H, K) of the head): what must match to stack."""
        return tuple(la.dims for la in self.layers), self.output.dims

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def hidden_dim(self) -> int:
        return self.layers[0].hidden_dim

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_classes(self) -> int:
        return self.output.b.shape[-1]

    def param_items(self):
        """All parameter tensors as (name, array) in a fixed global order."""
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.tensors():
                yield f"l{idx}.{name}", arr
        yield "out.w", self.output.w
        yield "out.b", self.output.b

    def zero_state(self, batch: int | None = None) -> LstmState:
        """Fresh all-zero state: (H,) arrays, or (batch, H) when batched; a
        stacked network's arrays have the member axis in front."""
        shape = (*self.flat.shape[:-1], *(() if batch is None else (batch,)), self.hidden_dim)
        return LstmState([np.zeros(shape) for _ in self.layers],
                         [np.zeros(shape) for _ in self.layers])


def step_batch(net, x, state: LstmState, masks=None, cache=None):
    """One timestep for a batch of streams: `layer_step` per layer, the head.

    x: (B, D) and state per-layer (B, H) arrays, or (D,) and (H,) for one
    sample (`step`). masks, when given, is a per-layer sequence of (B, H)
    multipliers applied to each layer's output on its feed-forward (upward)
    connection only; the recurrent h path stays unmasked. Returns (logits
    (B, K), new_state). When `cache` is a list, one dict of intermediates
    per layer is appended for the backward pass; its z is the gate-major
    (4, B, H) activation block, whose C-contiguous rows are f, i, o and g.
    For a stacked network ((M, P) flat) the state arrays and the results
    carry the member axis in front, (M, B, ...); x may be shared, (B, D).
    """
    logits, h, c = _layers(net, 0, x, state.h, state.c, masks, cache, sigmoid)
    return logits, LstmState(h, c)


def _layers(net, lo, inp, h_prev, c_prev, masks, cache, sig):
    """Layers lo, lo + 1, ... of one step, one per (h, c) pair given, then the
    head if they reach the top: (logits or the upward output, h list, c list)."""
    h, c = [], []
    for idx, (hp, cp) in enumerate(zip(h_prev, c_prev), lo):
        hn, cn, inp = layer_step(net.layers[idx], inp, hp, cp,
                                 None if masks is None else masks[idx], cache, sig)
        h.append(hn)
        c.append(cn)
    if lo + len(h) == len(net.layers):
        inp = inp @ net.output.w + net.output.b
    return inp, h, c


def layer_step(layer, inp, h_prev, c_prev, mask, cache, sig):
    """One layer's timestep, the one kernel: (h, c, up), where up, h times
    the mask (h itself without one), is the input of the layer above or of
    the head. sig is the gates' sigmoid (`mathkit.sigmoid`)."""
    # inp @ wx + h_prev @ wh + b is accumulated in place, (..., B, 4H) like h,
    # then gate-major (4, ..., B, H), copied if B > 1: each gate a row of z
    shape = h_prev.shape
    lead = len(shape) - 1
    a = inp @ layer.wx
    a += h_prev @ layer.wh
    a += layer.b
    z = np.ascontiguousarray(a.reshape(shape[:-1] + (4, shape[-1]))
                             .transpose((lead, *range(lead), lead + 1)))
    sig(z[:3], out=z[:3])
    tanh_vec(z[3], out=z[3])
    f, i, o, g = z
    c = f * c_prev
    c += i * g
    tc = tanh_vec(c)
    h = o * tc
    up = h if mask is None else h * mask
    if cache is not None:
        cache.append({"z": z, "x_in": inp, "h_prev": h_prev, "c_prev": c_prev,
                      "tc": tc, "mask": mask, "up": up})
    return h, c, up


def step(net: LstmNetwork, x: np.ndarray, state: LstmState):
    """Advance the network by one sample, without dropout.

    state holds (H,) arrays (net.zero_state()), read, not modified. Returns
    (logits (K,), new_state, None); the None slot holds no cache and stays
    only for callers that unpack three values (the benchmark's stream loop).
    """
    # contiguous like infer_stream's rows: numpy multiplies a strided row
    # (e.g. a column of a (D, T) array) by another code path that rounds
    # differently, which would break bitwise streaming == whole-stream
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"step: input shape {x.shape}, expected ({net.input_dim},)")
    if not np.isfinite(x).all():
        raise ValueError("step: non-finite input sample")
    return (*step_batch(net, x, state), None)


def forward_frame(net, inputs: np.ndarray, state: LstmState, masks=None, caches=None):
    """The one loop over timesteps: L steps of B streams, for a training
    frame and for `infer_stream` alike.

    inputs: (L, B, D); state: (B, H) per layer; masks: (L, num_layers, B, H)
    or None. Returns (logits (L, B, K), new_state), with the member axis in
    front for a stacked network. When `caches` is a list, each timestep
    appends its list of per-layer intermediates (`step_batch`'s cache).

    Where `overlap.offload` takes the top layer-step (asked once per frame),
    the helper thread shares the frame. A stack of M >= 2 members that keeps
    no caches is split by member (`_member_split`, one task). Otherwise the
    layers form a wavefront: layer l at step t does not depend on layer
    l - 1 at step t + 1, so the helper runs the upper half of the layers and
    the head of step t while this thread runs the lower half of step t + 1,
    one task outstanding. Either way no task is left when this returns or
    raises, and the bytes and cache order are `step_batch`'s. Below the
    threshold, and for a lone 1-layer net, it runs `step_batch` per step.
    """
    length, batch, _ = inputs.shape
    logits = np.empty((*net.flat.shape[:-1], length, batch, net.num_classes))
    n, top = net.num_layers, net.layers[-1]
    split = caches is None and net.flat.ndim > 1 and len(net.flat) > 1
    if not (split or n > 1) or not overlap.offload(state.h[-1].size * 4 * sum(top.dims)):
        return logits, _steps(step_batch, net, inputs, state, masks, caches, logits)
    if split:
        return logits, _member_split(net, inputs, state, masks, logits)
    mid, pending = (n + 1) // 2, None  # layer 0's narrow input: the odd layer goes below
    lh, uh, lc, uc = state.h[:mid], state.h[mid:], state.c[:mid], state.c[mid:]
    try:
        for t in range(length):
            mask = None if masks is None else masks[t]
            cache = None if caches is None else []
            up, lh, lc = _layers(net, 0, inputs[t], lh, lc, mask, cache, sigmoid)
            if t:
                logits[..., t - 1, :, :], uh, uc = overlap.wait(pending)
            # mathkit's own sigmoid: a wrapper on this module's name (the
            # benchmark's call counter) must only run on the calling thread
            pending = overlap.submit(_layers, net, mid, up, uh, uc, mask, cache, mathkit.sigmoid)
            if caches is not None:
                caches.append(cache)
        if length:
            logits[..., -1, :, :], uh, uc = overlap.wait(pending)
    finally:  # after a failure too, no task of this frame is left queued or running
        if pending is not None:
            overlap.settle(pending)
    return logits, LstmState(lh + uh, lc + uc)


def _steps(step_fn, net, inputs, state, masks, caches, logits):
    """The plain loop: step_fn(net, x, state, mask, cache) per timestep, its
    logits written into logits[..., t, :, :]; returns the last state."""
    for t in range(len(inputs)):
        cache = None if caches is None else []
        logits[..., t, :, :], state = step_fn(net, inputs[t], state,
                                              None if masks is None else masks[t], cache)
        if caches is not None:
            caches.append(cache)
    return state


def _bare_step(net, x, state, mask, cache):
    """`step_batch` on mathkit's own sigmoid, for either half of a member
    split: the benchmark wraps this module's names, and a wrapper must only
    run on the calling thread."""
    logits, h, c = _layers(net, 0, x, state.h, state.c, mask, cache, mathkit.sigmoid)
    return logits, LstmState(h, c)


def _member_split(net, inputs, state, masks, logits):
    """A stack's frame as two stacks, each the whole frame of the plain loop
    over its own rows of the parameters, state and logits: rows [mid:] on
    the helper, rows [:mid] here, the larger half at odd M (it timed faster
    here than on the helper). Returns the carried state, each layer's rows
    joined in member order."""
    def half(rows):
        return (_bare_step, LstmNetwork(net.flat[rows], net.shape), inputs,
                LstmState([h[rows] for h in state.h], [c[rows] for c in state.c]),
                masks, None, logits[rows])

    mid = (len(net.flat) + 1) // 2
    task = overlap.submit(_steps, *half(slice(mid, None)))
    try:
        low = _steps(*half(slice(mid)))
        high = overlap.wait(task)
    finally:  # after a failure too, the helper's half is neither queued nor running
        overlap.settle(task)
    return LstmState([np.concatenate(pair) for pair in zip(low.h, high.h)],
                     [np.concatenate(pair) for pair in zip(low.c, high.c)])


def classify(logits: np.ndarray) -> np.ndarray:
    """Class probabilities along the last axis: one sample's (K,) logits, or a
    block of rows such as a stream's (T, K), each row bit for bit as alone."""
    return softmax(logits)


def infer_stream(net: LstmNetwork, xs) -> np.ndarray:
    """Sample-wise inference over a stream, carrying state across samples.

    xs: (T, D) array or iterable of (D,) vectors, validated once up front
    (width, finiteness; the first bad row is named). Returns the (T, K)
    array of per-sample class probabilities, or (M, T, K) from a stacked
    network, whose members advance in lockstep: the stream is one
    `forward_frame` of T steps over B = 1, without dropout. Each sample's
    row product rounds like `step`'s vector product, and one softmax over
    the stream's logits, in place, equals classifying each sample's, so
    feeding the stream one sample at a time with an externally carried
    state is bit-identical.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.size == 0:
        xs = xs.reshape(0, net.input_dim)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(
            f"infer_stream: stream shape {xs.shape}, expected (T, {net.input_dim})"
        )
    bad = ~np.isfinite(xs).all(axis=1)
    if bad.any():
        raise ValueError(f"infer_stream: non-finite input sample at row {int(bad.argmax())}")
    logits, _ = forward_frame(net, xs[:, None], net.zero_state(1))
    logits = logits.reshape(*logits.shape[:-2], net.num_classes)
    return softmax(logits, out=logits)


def init_network(
    input_dim: int,
    hidden_dim: int,
    num_classes: int,
    num_layers: int,
    rng: Rng,
) -> LstmNetwork:
    """Random network: weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    fan_in is the row count of each per-gate block; blocks are drawn in
    LAYER_WEIGHTS order, layer by layer, then the head. Biases start at zero
    except the forget-gate bias, which starts at 1.0 so early training does
    not erase the cell state.
    """
    if min(input_dim, hidden_dim, num_classes, num_layers) < 1:
        raise ValueError("init_network: all dimensions must be positive")

    def draw(target: np.ndarray) -> None:
        rows, cols = target.shape
        bound = 1.0 / np.sqrt(rows)
        u = rng.uniform_block(rows * cols).reshape(rows, cols)
        target[...] = (2.0 * u - 1.0) * bound

    net = LstmNetwork.zeros(input_dim, hidden_dim, num_classes, num_layers)
    for layer in net.layers:
        for name in LAYER_WEIGHTS:
            draw(getattr(layer, name))
        layer.bf[...] = 1.0
    draw(net.output.w)
    return net
