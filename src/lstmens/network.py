"""Multi-layer LSTM network: parameters, per-sample forward pass, inference.

Weight layout: each layer stores its gates fused, as wx (D_in x 4H), wh
(H x 4H) and b (4H), with the gate column blocks in the order [f, i, o, g];
stacking wx on wh gives the usual combined (D_in+H) x 4H matrix acting on
[x, h]. All tensors of one network, the output head included, are views into
one contiguous float64 vector (`LstmNetwork.flat`), laid out layer by layer
as [wx, wh, b] and then [w, b] of the head, so a snapshot is one copy and the
optimizer is one vectorized update. The per-gate names (wxf, whf, ... bo; c
names the cell candidate g) are column views of the fused tensors: model
files, initialisation and the gradient oracle address parameters by them.

Every network is built one way: `LstmNetwork(flat, shape)` binds the views
over a given buffer, and `zeros`, `with_flat`, `copy` and `stack` only
choose that buffer. `LstmNetwork.stack` puts M same-shape networks into one
whose `flat` is an (M, P) array: every tensor gains a leading member axis
(wx (M, D_in, 4H), wh (M, H, 4H), b (M, 1, 4H); head w (M, H, K), b (M, 1,
K)), and the shape properties read the trailing axes.

The recurrent state is always an `LstmState`, per-layer lists of h and c
arrays: (H,) for one streamed sample (`step`), (B, H) for B training
streams, with the member axis in front for a stacked network.

Per timestep and layer, with sigmoid s and previous (h, c):

    a = x@Wx + h@Wh + b                fused preactivations, (B, 4H)
    [f, i, o] = s(a[..., :3H])         forget, input, output gates
    g = tanh(a[..., 3H:])              cell candidate
    c' = f * c + i * g                 new cell state
    h' = o * tanh(c')                  new hidden state

The last layer's hidden state feeds a linear head: logits = h' @ W + b.

There is one kernel, `step_batch`. Everything is batch-first (B, feature),
and a stacked network adds the member axis in front ((M, B, feature)), so
the same body advances B training streams, one streamed sample (B=1), or
one sample through all M members of an ensemble in lockstep. numpy's
stacked matmul makes the same per-member BLAS call as the 2-D product, so
a stacked member's output is bit-identical to the member run alone, and
streaming one sample at a time is bit-identical to whole-sequence inference
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathkit import sigmoid, softmax, tanh_vec
from .rng import Rng

# fixed tensor order within a layer; initialisation, serialisation and the
# optimizer all iterate parameters in this order
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
    def stack(cls, nets) -> "LstmNetwork":
        """M same-shape networks as one, for lockstep inference.

        Its `flat` is a fresh (M, P) array whose row m is a copy of
        nets[m].flat; every tensor view gains a leading member axis.
        """
        nets = list(nets)
        shapes = {net.shape for net in nets}
        if len(shapes) != 1:
            raise ValueError(f"stack needs networks of one shape, got {sorted(shapes)}")
        return cls(np.stack([n.flat for n in nets]), shapes.pop())

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

    def copy(self) -> "LstmNetwork":
        return self.with_flat(self.flat.copy())

    def zero_state(self, batch: int | None = None) -> LstmState:
        """Fresh all-zero state: (H,) arrays, or (batch, H) when batched; a
        stacked network's arrays have the member axis in front."""
        shape = (*self.flat.shape[:-1], *(() if batch is None else (batch,)), self.hidden_dim)
        return LstmState([np.zeros(shape) for _ in self.layers],
                         [np.zeros(shape) for _ in self.layers])


def step_batch(net, x, state: LstmState, masks=None, cache=None):
    """One timestep for a batch of streams.

    x: (B, D); state: per-layer (B, H) arrays. masks, when given, is a
    per-layer sequence of (B, H) multipliers applied to each layer's output
    on its feed-forward (upward) connection only; the recurrent h path stays
    unmasked. Returns (logits (B, K), new_state). When `cache` is a list,
    one dict of intermediates per layer is appended for use by the backward
    pass; its f, i, o and g are column views of one (B, 4H) block.
    For a stacked network (LstmNetwork.stack) the state arrays and the
    results carry the member axis in front, (M, B, ...); x may be shared,
    (B, D).
    """
    inp = x
    hidden = net.hidden_dim
    new = LstmState([], [])
    for idx, layer in enumerate(net.layers):
        h_prev, c_prev = state.h[idx], state.c[idx]
        # preactivations inp @ wx + h_prev @ wh + b, accumulated in place and
        # then overwritten by the gate activations: one (B, 4H) buffer
        a = inp @ layer.wx
        a += h_prev @ layer.wh
        a += layer.b
        s = sigmoid(a[..., : 3 * hidden], out=a[..., : 3 * hidden])
        f, i, o = s[..., :hidden], s[..., hidden : 2 * hidden], s[..., 2 * hidden :]
        g = tanh_vec(a[..., 3 * hidden :], out=a[..., 3 * hidden :])
        c = f * c_prev
        c += i * g
        tc = tanh_vec(c)
        h = o * tc
        mask = None if masks is None else masks[idx]
        up = h if mask is None else h * mask
        if cache is not None:
            cache.append(
                {
                    "x_in": inp,
                    "h_prev": h_prev,
                    "c_prev": c_prev,
                    "f": f,
                    "i": i,
                    "g": g,
                    "o": o,
                    "tc": tc,
                    "mask": mask,
                    "up": up,
                }
            )
        new.h.append(h)
        new.c.append(c)
        inp = up
    logits = inp @ net.output.w + net.output.b
    return logits, new


def step(net: LstmNetwork, x: np.ndarray, state: LstmState, dropout_masks=None):
    """Advance the network by one sample.

    state holds (H,) arrays (net.zero_state()). Returns (logits (K,),
    new_state, cache) where cache holds each layer's gate activations and
    inputs (the intermediates a backward pass needs). dropout_masks, if
    given, is a per-layer list of (H,) multipliers and is only meaningful
    during training.
    """
    # contiguous like infer_stream's rows: numpy multiplies a strided row
    # (e.g. a column of a (D, T) array) by another code path that rounds
    # differently, which would break bitwise streaming == whole-stream
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"step: input shape {x.shape}, expected ({net.input_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("step: non-finite input sample")
    # the kernel runs (1, n) rows, as infer_stream does
    batched = LstmState([h[None] for h in state.h], [c[None] for c in state.c])
    masks = None if dropout_masks is None else [m[None] for m in dropout_masks]
    cache: list[dict] = []
    logits, new = step_batch(net, x[None], batched, masks, cache)
    return logits[0], LstmState([h[0] for h in new.h], [c[0] for c in new.c]), cache


def classify(logits: np.ndarray) -> np.ndarray:
    """Class probability vector for one sample's logits (per row for (M, K))."""
    return softmax(np.asarray(logits, dtype=np.float64))


def infer_stream(net: LstmNetwork, xs) -> np.ndarray:
    """Sample-wise inference over a stream, carrying state across samples.

    xs: (T, D) array or iterable of (D,) vectors, validated once up front
    (width, finiteness; the first bad row is named). Returns the (T, K)
    array of per-sample class probabilities, or (M, T, K) for a stacked
    network, whose members advance in lockstep: one `step_batch` call per
    sample. No dropout on this path. Each sample runs the same B=1 kernel
    `step` runs, so feeding the stream one sample at a time with an
    externally carried state is bit-identical.
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
    state = net.zero_state(1)
    probs = np.empty((*net.flat.shape[:-1], xs.shape[0], net.num_classes))
    for t in range(xs.shape[0]):
        logits, state = step_batch(net, xs[t : t + 1], state)
        probs[..., t, :] = classify(logits[..., 0, :])
    return probs


def init_network(
    input_dim: int,
    hidden_dim: int,
    num_classes: int,
    num_layers: int = 2,
    rng: Rng | None = None,
) -> LstmNetwork:
    """Random network: weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    fan_in is the row count of each per-gate block; blocks are drawn in
    LAYER_WEIGHTS order, layer by layer, then the head. Biases start at zero
    except the forget-gate bias, which starts at 1.0 so early training does
    not erase the cell state.
    """
    if min(input_dim, hidden_dim, num_classes, num_layers) < 1:
        raise ValueError("init_network: all dimensions must be positive")
    rng = rng if rng is not None else Rng(0)

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
