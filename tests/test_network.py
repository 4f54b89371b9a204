import numpy as np
import pytest

from lstmens import classify, infer_stream, init_network, step
from lstmens.mathkit import sigmoid, tanh_vec
from lstmens.network import LstmNetwork, LstmState, forward_frame, step_batch
from lstmens.rng import Rng
from lstmens.training import draw_dropout_masks

from conftest import tiny_net


def zero_net(d=2, h=3, k=2, layers=1):
    return LstmNetwork.zeros(d, h, k, layers)


# ---------------------------------------------------------------------------
# step


def test_step_zero_parameters_fixed_point():
    net = zero_net()
    x, state = np.array([0.7, -1.3]), net.zero_state()
    logits, new_state, none = step(net, x, state)
    cache = []
    step_batch(net, x, state, cache=cache)  # the gates of the same 1-D step
    f, i, o, g = cache[0]["z"]
    assert np.array_equal(f, np.full(3, 0.5))
    assert np.array_equal(i, np.full(3, 0.5))
    assert np.array_equal(o, np.full(3, 0.5))
    assert np.array_equal(g, np.zeros(3))
    assert np.array_equal(new_state.c[0], np.zeros(3))
    assert np.array_equal(new_state.h[0], np.zeros(3))
    assert np.array_equal(logits, np.zeros(2))
    assert none is None


def test_step_gate_ranges_random_sweep():
    # 1000 random (params, input, state) draws keep every gate in range
    rng = Rng(42)
    for trial in range(1000):
        net = init_network(3, 5, 2, num_layers=1, rng=rng)
        x = rng.normal_block(3)
        state = net.zero_state()
        state.h[0] = np.tanh(rng.normal_block(5))
        state.c[0] = rng.normal_block(5)
        logits, new_state, _ = step(net, x, state)
        cache = []
        step_batch(net, x, state, cache=cache)
        f, i, o, g = cache[0]["z"]
        for gate in (f, i, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(g) < 1.0)
        assert np.all(np.abs(new_state.h[0]) < 1.0)
        assert np.all(np.isfinite(logits))


def test_step_leaves_the_carried_state_alone():
    # step runs the kernel on the caller's (H,) arrays unwrapped: it must
    # not write into them, and must hand back fresh (H,) arrays, so a state
    # kept by the caller (two members, a replay) is never changed under it
    rng = Rng(13)
    net = init_network(3, 5, 2, num_layers=3, rng=rng)
    state = net.zero_state()
    state.h = [np.tanh(rng.normal_block(5)) for _ in range(3)]
    state.c = [rng.normal_block(5) for _ in range(3)]
    before = [a.tobytes() for a in state.h + state.c]
    for _ in range(3):
        x = rng.normal_block(3)
        logits, new_state, _ = step(net, x, state)
        assert [a.tobytes() for a in state.h + state.c] == before
        assert logits.shape == (2,)
        for a in new_state.h + new_state.c:
            assert a.shape == (5,)
            assert not any(np.shares_memory(a, b) for b in state.h + state.c)
        again, _, _ = step(net, x, state)
        assert again.tobytes() == logits.tobytes()


def test_step_memory_cell_preserved_under_saturated_gates():
    # forget gate pinned open, input gate pinned shut: c must persist
    net = zero_net(d=1, h=1, k=2, layers=1)
    net.layers[0].bf[:] = 50.0
    net.layers[0].bi[:] = -50.0
    state = net.zero_state()
    state.c[0] = np.array([0.37])
    for _ in range(10):
        _, state, _ = step(net, np.array([1.0]), state)
    assert abs(state.c[0][0] - 0.37) < 1e-12


def test_step_rejects_bad_input():
    net = zero_net()
    with pytest.raises(ValueError, match="input shape"):
        step(net, np.zeros(5), net.zero_state())
    with pytest.raises(ValueError, match="non-finite"):
        step(net, np.array([np.nan, 0.0]), net.zero_state())


# ---------------------------------------------------------------------------
# classify


def test_classify_pairs():
    assert np.array_equal(classify(np.zeros(2)), np.array([0.5, 0.5]))
    p = classify(np.log(np.array([1.0, 3.0])))
    assert abs(p[0] - 0.25) < 1e-15 and abs(p[1] - 0.75) < 1e-15


def test_classify_shift_invariance():
    x = np.array([0.1, -2.0, 3.3])
    assert np.max(np.abs(classify(x + 7.0) - classify(x))) < 1e-12


# ---------------------------------------------------------------------------
# infer_stream


def test_infer_stream_empty():
    net = tiny_net()
    assert infer_stream(net, np.empty((0, 3))).shape == (0, 3)


def test_infer_stream_equals_manual_stepping():
    # infer_stream takes one softmax over the stream's logits; each row must
    # be bitwise each sample's own classify, for one network and for a stack,
    # also at K >= 8, where numpy sums a row pairwise in unrolled blocks; and
    # step's (H,) vector products must round as infer_stream's (1, H) rows,
    # also at the paper's 2x256 and with three layers
    shapes = [(6, k, 2) for k in (3, 2, 8, 9, 17)] + [(256, 4, 2), (7, 5, 3)]
    for hidden, k, layers in shapes:
        rng = Rng(9)
        nets = [init_network(4, hidden, k, num_layers=layers, rng=rng)]
        xs = rng.normal_block(4 * 25).reshape(25, 4)
        nets += [init_network(4, hidden, k, num_layers=layers, rng=rng) for _ in range(2)]
        stacked = infer_stream(LstmNetwork(np.stack([n.flat for n in nets]), nets[0].shape), xs)
        for j, net in enumerate(nets):
            whole = infer_stream(net, xs)
            state = net.zero_state()
            for t in range(25):
                logits, state, _ = step(net, xs[t], state)
                assert whole[t].tobytes() == classify(logits).tobytes()
                assert stacked[j, t].tobytes() == whole[t].tobytes()


def test_infer_stream_partition_associativity():
    rng = Rng(10)
    net = init_network(3, 5, 2, num_layers=2, rng=rng)
    xs = rng.normal_block(3 * 30).reshape(30, 3)
    whole = infer_stream(net, xs)
    state = net.zero_state()
    pieces = []
    for lo, hi in [(0, 7), (7, 19), (19, 30)]:
        probs = np.empty((hi - lo, 2))
        for t in range(lo, hi):
            logits, state, _ = step(net, xs[t], state)
            probs[t - lo] = classify(logits)
        pieces.append(probs)
    assert np.array_equal(whole, np.concatenate(pieces))


def test_infer_stream_names_first_non_finite_row():
    net = tiny_net()
    xs = Rng(11).normal_block(3 * 12).reshape(12, 3)
    xs[7, 1] = np.nan
    xs[9, 0] = np.inf
    with pytest.raises(ValueError, match=r"non-finite input sample at row 7\b"):
        infer_stream(net, xs)


def test_infer_stream_rejects_wrong_width():
    net = tiny_net()
    with pytest.raises(ValueError, match=r"stream shape \(5, 4\), expected \(T, 3\)"):
        infer_stream(net, np.zeros((5, 4)))
    with pytest.raises(ValueError, match="stream shape"):
        infer_stream(net, np.zeros(6))


# ---------------------------------------------------------------------------
# fused parameter layout


def test_per_gate_names_are_views_into_flat():
    net = tiny_net(seed=6)
    for name, arr in net.param_items():
        assert np.shares_memory(arr, net.flat), name
    layer = net.layers[0]
    h = layer.hidden_dim
    # gate column blocks in the order [f, i, o, g]
    for k, gate in enumerate(("f", "i", "o", "c")):
        assert np.array_equal(getattr(layer, "wx" + gate), layer.wx[:, k * h:(k + 1) * h])
        assert np.array_equal(getattr(layer, "wh" + gate), layer.wh[:, k * h:(k + 1) * h])
        assert np.array_equal(getattr(layer, "b" + gate), layer.b[k * h:(k + 1) * h])
    sizes = sum(arr.size for _, arr in net.param_items())
    assert net.flat.size == sizes


def test_fused_step_matches_per_gate_formula():
    rng = Rng(8)
    net = init_network(3, 4, 2, num_layers=2, rng=rng)
    for layer in net.layers:
        layer.b[...] = rng.normal_block(layer.b.size)
    x = rng.normal_block(3)
    state = net.zero_state()
    state.h = [np.tanh(rng.normal_block(4)) for _ in range(2)]
    state.c = [rng.normal_block(4) for _ in range(2)]
    logits, new_state, _ = step(net, x, state)

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    inp = x
    for idx, la in enumerate(net.layers):
        h, c = state.h[idx], state.c[idx]
        f = sig(inp @ la.wxf + h @ la.whf + la.bf)
        i = sig(inp @ la.wxi + h @ la.whi + la.bi)
        g = np.tanh(inp @ la.wxc + h @ la.whc + la.bc)
        o = sig(inp @ la.wxo + h @ la.who + la.bo)
        c = f * c + i * g
        inp = o * np.tanh(c)
        assert np.allclose(new_state.c[idx], c, rtol=0, atol=1e-13)
        assert np.allclose(new_state.h[idx], inp, rtol=0, atol=1e-13)
    assert np.allclose(logits, inp @ net.output.w + net.output.b, rtol=0, atol=1e-13)


def test_writing_through_gate_view_moves_step_output():
    net = tiny_net(seed=7)
    x = np.array([0.3, -0.2, 0.9])
    before, _, _ = step(net, x, net.zero_state())
    net.layers[1].bf += 3.0
    net.layers[0].bo[...] = -2.0
    after, _, _ = step(net, x, net.zero_state())
    assert not np.array_equal(before, after)
    fresh = tiny_net(seed=7)
    fresh.flat[...] = net.flat
    again, _, _ = step(fresh, x, fresh.zero_state())
    assert np.array_equal(after, again)


def test_copy_shares_no_memory():
    net = tiny_net(seed=9)
    dup = net.with_flat(net.flat.copy())
    assert not np.shares_memory(dup.flat, net.flat)
    for (name, a), (_, b) in zip(net.param_items(), dup.param_items()):
        assert not np.shares_memory(a, b), name
        assert np.array_equal(a, b)
    dup.layers[0].wxf += 1.0
    assert not np.array_equal(dup.layers[0].wxf, net.layers[0].wxf)


def test_constructor_copies_per_gate_tensors_into_layout():
    # per-gate tensors written through the views of LstmNetwork.zeros land in
    # the fused column blocks [f, i, o, g] of flat, in the documented layout
    ws = {n: np.full((2 if n.startswith("wx") else 3, 3), float(k))
          for k, n in enumerate(("wxf", "whf", "wxi", "whi", "wxc", "whc", "wxo", "who"))}
    bs = {n: np.full(3, 10.0 + k) for k, n in enumerate(("bf", "bi", "bc", "bo"))}
    built = LstmNetwork.zeros(2, 3, 2, 1)
    for name, value in {**ws, **bs}.items():
        getattr(built.layers[0], name)[...] = value
    built.output.w[...] = 1.0
    blocks = {kind: [{**ws, **bs}[kind + gate] for gate in ("f", "i", "o", "c")]
              for kind in ("wx", "wh", "b")}
    expected = np.concatenate([np.hstack(blocks["wx"]).ravel(), np.hstack(blocks["wh"]).ravel(),
                               np.hstack(blocks["b"]), np.ones(6), np.zeros(2)])
    assert np.array_equal(built.flat, expected)
    assert np.shares_memory(built.layers[0].wx, built.flat)


# ---------------------------------------------------------------------------
# stacked members


def _stack(nets):
    return LstmNetwork(np.stack([net.flat for net in nets]), nets[0].shape)


def test_stack_rows_are_member_flats_with_member_axis_views():
    nets = [tiny_net(seed=s) for s in (1, 2, 3)]
    stacked = _stack(nets)
    assert stacked.flat.shape == (3, nets[0].flat.size)
    for m, net in enumerate(nets):
        assert np.array_equal(stacked.flat[m], net.flat)
        assert not np.shares_memory(stacked.flat, net.flat)
        for (name, a), (_, b) in zip(net.param_items(), stacked.param_items()):
            assert np.array_equal(b[m].reshape(a.shape), a), name
    layer, head = stacked.layers[1], stacked.output
    assert layer.wx.shape == (3, 4, 16) and layer.wh.shape == (3, 4, 16)
    assert layer.b.shape == (3, 1, 16) and layer.bf.shape == (3, 1, 4)
    assert head.w.shape == (3, 4, 3) and head.b.shape == (3, 1, 3)
    for _, arr in stacked.param_items():
        assert np.shares_memory(arr, stacked.flat)
    assert stacked.shape == nets[0].shape
    assert (stacked.input_dim, stacked.hidden_dim, stacked.num_classes) == (3, 4, 3)


def test_stacked_infer_stream_equals_each_member_bitwise():
    rng = Rng(12)
    nets = [init_network(4, 6, 3, num_layers=2, rng=rng) for _ in range(4)]
    xs = rng.normal_block(4 * 30).reshape(30, 4)
    probs = infer_stream(_stack(nets), xs)
    assert probs.shape == (4, 30, 3)
    for m, net in enumerate(nets):
        assert probs[m].tobytes() == infer_stream(net, xs).tobytes()
    assert infer_stream(_stack(nets), np.empty((0, 4))).shape == (4, 0, 3)


def _frame_bytes(logits, state):
    return [logits.tobytes()] + [a.tobytes() for a in state.h + state.c]


@pytest.mark.parametrize("batch", [1, 3])
def test_stacked_forward_frame_equals_each_member_bitwise(batch):
    # the stacked frame keeps no caches; each member alone keeps them
    rng = Rng(15)
    nets = [init_network(4, 6, 3, num_layers=2, rng=rng) for _ in range(3)]
    inputs = rng.normal_block(9 * batch * 4).reshape(9, batch, 4)
    stacked = _stack(nets)
    logits, state = forward_frame(stacked, inputs, stacked.zero_state(batch))
    assert logits.shape == (3, 9, batch, 3)
    for m, net in enumerate(nets):
        caches = []
        alone = forward_frame(net, inputs, net.zero_state(batch), caches=caches)
        member = LstmState([h[m] for h in state.h], [c[m] for c in state.c])
        assert _frame_bytes(logits[m], member) == _frame_bytes(*alone)
        assert len(caches) == 9 and all(len(cache) == 2 for cache in caches)


def test_forward_frame_caches_change_no_byte():
    rng = Rng(16)
    net = init_network(4, 6, 3, num_layers=2, rng=rng)
    inputs = rng.normal_block(7 * 3 * 4).reshape(7, 3, 4)
    masks = draw_dropout_masks(rng, 2, 7, 3, 6, 0.3)
    without = forward_frame(net, inputs, net.zero_state(3), masks)
    caches = []
    with_list = forward_frame(net, inputs, net.zero_state(3), masks, caches)
    assert _frame_bytes(*without) == _frame_bytes(*with_list)
    assert [cache[1]["mask"].tobytes() for cache in caches] == [m[1].tobytes() for m in masks]


@pytest.mark.parametrize("members, batch", [(None, 1), (None, 5), (3, 4)])
def test_step_batch_caches_contiguous_gate_rows(members, batch):
    # each cached gate is a C-contiguous row of one gate-major block, bitwise
    # what the nonlinearities give on the column blocks of the fused
    # (..., B, 4H) preactivation
    rng = Rng(14)
    nets = [init_network(3, 5, 2, num_layers=2, rng=rng) for _ in range(members or 1)]
    net = nets[0] if members is None else _stack(nets)
    state = net.zero_state(batch)
    state.h = [np.tanh(rng.normal_block(h.size)).reshape(h.shape) for h in state.h]
    state.c = [rng.normal_block(c.size).reshape(c.shape) for c in state.c]
    x = rng.normal_block(batch * 3).reshape(batch, 3)
    cache = []
    step_batch(net, x, state, cache=cache)
    inp = x
    for idx, (layer, cc) in enumerate(zip(net.layers, cache)):
        a = inp @ layer.wx + state.h[idx] @ layer.wh + layer.b
        cols = [a[..., k * 5:(k + 1) * 5] for k in range(4)]
        want = dict(zip("fio", map(sigmoid, cols[:3])), g=tanh_vec(cols[3]))
        want["tc"] = tanh_vec(want["f"] * state.c[idx] + want["i"] * want["g"])
        got = dict(zip("fiog", cc["z"]), tc=cc["tc"])
        for name, value in want.items():
            assert got[name].flags.c_contiguous, (idx, name)
            assert got[name].shape == (*net.flat.shape[:-1], batch, 5)
            assert got[name].tobytes() == value.tobytes(), (idx, name)
        inp = cc["up"]


# ---------------------------------------------------------------------------
# init_network


def test_init_seeded_reproducible():
    a = init_network(5, 7, 4, num_layers=2, rng=Rng(123))
    b = init_network(5, 7, 4, num_layers=2, rng=Rng(123))
    for (na, ta), (nb, tb) in zip(a.param_items(), b.param_items()):
        assert na == nb and np.array_equal(ta, tb)


def test_init_fan_in_bound_h256():
    net = init_network(256, 256, 4, num_layers=2, rng=Rng(0))
    for name, arr in net.param_items():
        if not name.endswith(("bf", "bi", "bc", "bo", "out.b")):
            assert np.abs(arr).max() <= 1.0 / 16.0


def test_init_forget_bias_one_and_zero_biases():
    net = tiny_net(seed=4)
    for layer in net.layers:
        assert np.array_equal(layer.bf, np.ones(layer.hidden_dim))
        for b in (layer.bi, layer.bc, layer.bo):
            assert np.array_equal(b, np.zeros(layer.hidden_dim))
    assert np.array_equal(net.output.b, np.zeros(3))


def test_chained_layer_dims():
    net = init_network(5, 8, 3, num_layers=3, rng=Rng(1))
    assert net.layers[0].input_dim == 5
    assert all(layer.input_dim == 8 for layer in net.layers[1:])
    assert net.output.w.shape == (8, 3)
