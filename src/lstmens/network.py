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

`LstmNetwork.stack` puts M same-shape networks into one whose `flat` is an
(M, P) array: every tensor gains a leading member axis (wx (M, D_in, 4H),
wh (M, H, 4H), b (M, 1, 4H); head w (M, H, K), b (M, 1, K)), and the shape
properties read the trailing axes.

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


class _ParamBlock:
    """Tensors that are views into one buffer `buf`, set up by _bind: 1-d,
    or (M, size) for stacked members, whose views gain a leading M axis."""

    @classmethod
    def view(cls, buf: np.ndarray, *dims: int):
        """A block of the given dims viewing buf (no copy)."""
        block = cls.__new__(cls)
        block._bind(buf, *dims)
        return block

    @classmethod
    def zeros(cls, *dims: int):
        return cls.view(np.zeros(cls.size(*dims)), *dims)


class LstmLayerParams(_ParamBlock):
    """One layer's fused parameters wx (D_in, 4H), wh (H, 4H), b (4H).

    Built from the twelve per-gate tensors (LAYER_WEIGHTS + LAYER_BIASES as
    keywords); afterwards each per-gate name is a view into the fused block.
    """

    def __init__(self, **tensors):
        names = set(LAYER_WEIGHTS + LAYER_BIASES)
        if set(tensors) != names:
            raise TypeError(f"LstmLayerParams needs exactly the tensors {sorted(names)}")
        d_in, hidden = np.shape(tensors["wxf"])
        self._bind(np.empty(self.size(d_in, hidden)), d_in, hidden)
        for name, value in tensors.items():
            getattr(self, name)[...] = value

    @staticmethod
    def size(d_in: int, hidden: int) -> int:
        return (d_in + hidden + 1) * 4 * hidden

    def _bind(self, buf: np.ndarray, d_in: int, hidden: int) -> None:
        width = 4 * hidden
        self.buf = buf
        self.wx = _view(buf[..., : d_in * width], d_in, width)
        self.wh = _view(buf[..., d_in * width : (d_in + hidden) * width], hidden, width)
        self.b = _bias_view(buf[..., (d_in + hidden) * width :])
        for k, gate in enumerate(GATE_ORDER):
            cols = slice(k * hidden, (k + 1) * hidden)
            setattr(self, "wx" + gate, self.wx[..., cols])
            setattr(self, "wh" + gate, self.wh[..., cols])
            setattr(self, "b" + gate, self.b[..., cols])

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


class OutputLayerParams(_ParamBlock):
    """Linear head w (H, K), b (K,), stored as views into one buffer."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        hidden, k = np.shape(w)
        self._bind(np.empty(self.size(hidden, k)), hidden, k)
        self.w[...] = w
        self.b[...] = b

    @staticmethod
    def size(hidden: int, k: int) -> int:
        return (hidden + 1) * k

    def _bind(self, buf: np.ndarray, hidden: int, k: int) -> None:
        self.buf = buf
        self.w = _view(buf[..., : hidden * k], hidden, k)
        self.b = _bias_view(buf[..., hidden * k :])

    @property
    def dims(self) -> tuple[int, int]:
        return self.w.shape[-2:]


@dataclass
class LstmState:
    """Per-layer hidden and cell vectors for one stream (shape (H,) each)."""

    h: list[np.ndarray]
    c: list[np.ndarray]

    def copy(self) -> "LstmState":
        return LstmState([v.copy() for v in self.h], [v.copy() for v in self.c])


class LstmNetwork:
    """Stacked LSTM layers plus a linear head over one flat parameter vector.

    The constructor copies the given blocks' values into a fresh `flat`; the
    network's own layers and head are views into it.
    """

    def __init__(self, layers: list[LstmLayerParams], output: OutputLayerParams):
        flat = np.concatenate([p.buf for p in (*layers, output)])
        self._bind(flat, [la.dims for la in layers], output.dims)

    def _bind(self, flat: np.ndarray, layer_dims, head_dims) -> None:
        self.flat, self.layers, offset = flat, [], 0
        for dims in layer_dims:
            size = LstmLayerParams.size(*dims)
            self.layers.append(LstmLayerParams.view(flat[..., offset : offset + size], *dims))
            offset += size
        self.output = OutputLayerParams.view(flat[..., offset:], *head_dims)

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
        net = cls.__new__(cls)
        net._bind(np.stack([n.flat for n in nets]), *shapes.pop())
        return net

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int, num_classes: int,
              num_layers: int) -> "LstmNetwork":
        d_ins = [input_dim] + [hidden_dim] * (num_layers - 1)
        return cls([LstmLayerParams.zeros(d, hidden_dim) for d in d_ins],
                   OutputLayerParams.zeros(hidden_dim, num_classes))

    def with_flat(self, flat: np.ndarray) -> "LstmNetwork":
        """A network of this shape whose tensors are views into flat (no copy)."""
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector has shape {flat.shape}, expected {self.flat.shape}")
        net = LstmNetwork.__new__(LstmNetwork)
        net._bind(flat, *self.shape)
        return net

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

    def get_param(self, name: str) -> np.ndarray:
        prefix, _, attr = name.partition(".")
        if prefix == "out":
            return getattr(self.output, attr)
        return getattr(self.layers[int(prefix[1:])], attr)

    def copy(self) -> "LstmNetwork":
        return self.with_flat(self.flat.copy())

    def zero_state(self, batch: int | None = None):
        """Fresh all-zero state; (H,) vectors, or (batch, H) when batched."""
        h = self.hidden_dim
        shape = (h,) if batch is None else (batch, h)
        if batch is None:
            return LstmState(
                [np.zeros(shape) for _ in self.layers],
                [np.zeros(shape) for _ in self.layers],
            )
        return [(np.zeros(shape), np.zeros(shape)) for _ in self.layers]


def step_batch(net, x, hs, cs, masks=None, cache=None):
    """One timestep for a batch of streams.

    x: (B, D); hs, cs: per-layer lists of (B, H). masks, when given, is a
    per-layer list of (B, H) multipliers applied to each layer's output on
    its feed-forward (upward) connection only; the recurrent h path stays
    unmasked. Returns (logits (B, K), new_hs, new_cs). When `cache` is a
    list, one dict of intermediates per layer is appended for use by the
    backward pass; its f, i, o and g are column views of one (B, 4H) block.
    For a stacked network (LstmNetwork.stack) hs, cs and the results carry
    the member axis in front, (M, B, ...); x may be shared, (B, D).
    """
    inp = x
    hidden = net.hidden_dim
    new_hs, new_cs = [], []
    for idx, layer in enumerate(net.layers):
        h_prev, c_prev = hs[idx], cs[idx]
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
        new_hs.append(h)
        new_cs.append(c)
        inp = up
    logits = inp @ net.output.w + net.output.b
    return logits, new_hs, new_cs


def step(net: LstmNetwork, x: np.ndarray, state: LstmState, dropout_masks=None):
    """Advance the network by one sample.

    Returns (logits (K,), new_state, cache) where cache holds each layer's
    gate activations and inputs (the intermediates a backward pass needs).
    dropout_masks, if given, is a per-layer list of (H,) multipliers and is
    only meaningful during training.
    """
    # contiguous like infer_stream's rows: numpy multiplies a strided row
    # (e.g. a column of a (D, T) array) by another code path that rounds
    # differently, which would break bitwise streaming == whole-stream
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"step: input shape {x.shape}, expected ({net.input_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("step: non-finite input sample")
    hs = [h.reshape(1, -1) for h in state.h]
    cs = [c.reshape(1, -1) for c in state.c]
    masks = None
    if dropout_masks is not None:
        masks = [m.reshape(1, -1) for m in dropout_masks]
    cache: list[dict] = []
    logits, new_hs, new_cs = step_batch(net, x.reshape(1, -1), hs, cs, masks, cache)
    new_state = LstmState([h[0] for h in new_hs], [c[0] for c in new_cs])
    return logits[0], new_state, cache


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
    members = net.flat.shape[:-1]  # () for a plain network, (M,) for a stack
    hs = [np.zeros((*members, 1, net.hidden_dim)) for _ in net.layers]
    cs = [np.zeros((*members, 1, net.hidden_dim)) for _ in net.layers]
    probs = np.empty((*members, xs.shape[0], net.num_classes))
    for t in range(xs.shape[0]):
        logits, hs, cs = step_batch(net, xs[t : t + 1], hs, cs)
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
