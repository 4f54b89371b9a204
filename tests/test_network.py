import numpy as np
import pytest

from lstmens import classify, infer_stream, init_network, step
from lstmens.network import LstmNetwork
from lstmens.rng import Rng

from conftest import tiny_net


def zero_net(d=2, h=3, k=2, layers=1):
    return LstmNetwork.zeros(d, h, k, layers)


# ---------------------------------------------------------------------------
# step


def test_step_zero_parameters_fixed_point():
    net = zero_net()
    logits, state, cache = step(net, np.array([0.7, -1.3]), net.zero_state())
    layer = cache[0]
    assert np.array_equal(layer["f"][0], np.full(3, 0.5))
    assert np.array_equal(layer["i"][0], np.full(3, 0.5))
    assert np.array_equal(layer["o"][0], np.full(3, 0.5))
    assert np.array_equal(layer["g"][0], np.zeros(3))
    assert np.array_equal(state.c[0], np.zeros(3))
    assert np.array_equal(state.h[0], np.zeros(3))
    assert np.array_equal(logits, np.zeros(2))


def test_step_gate_ranges_random_sweep():
    # 1000 random (params, input, state) draws keep every gate in range
    rng = Rng(42)
    for trial in range(1000):
        net = init_network(3, 5, 2, num_layers=1, rng=rng)
        x = rng.normal_block(3)
        state = net.zero_state()
        state.h[0] = np.tanh(rng.normal_block(5))
        state.c[0] = rng.normal_block(5)
        logits, new_state, cache = step(net, x, state)
        gates = cache[0]
        for name in ("f", "i", "o"):
            assert np.all(gates[name] > 0.0) and np.all(gates[name] < 1.0)
        assert np.all(np.abs(gates["g"]) < 1.0)
        assert np.all(np.abs(new_state.h[0]) < 1.0)
        assert np.all(np.isfinite(logits))


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
    rng = Rng(9)
    net = init_network(4, 6, 3, num_layers=2, rng=rng)
    xs = rng.normal_block(4 * 25).reshape(25, 4)
    whole = infer_stream(net, xs)
    state = net.zero_state()
    for t in range(25):
        logits, state, _ = step(net, xs[t], state)
        assert np.array_equal(whole[t], classify(logits))


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
    dup = net.copy()
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


def test_stack_rows_are_member_flats_with_member_axis_views():
    nets = [tiny_net(seed=s) for s in (1, 2, 3)]
    stacked = LstmNetwork.stack(nets)
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


def test_stack_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="one shape"):
        LstmNetwork.stack([tiny_net(h=4), tiny_net(h=5)])
    with pytest.raises(ValueError, match="one shape"):
        LstmNetwork.stack([tiny_net(layers=2), tiny_net(layers=1)])
    with pytest.raises(ValueError, match="one shape"):
        LstmNetwork.stack([tiny_net(k=3), tiny_net(k=2)])
    with pytest.raises(ValueError, match="one shape"):
        LstmNetwork.stack([])


def test_stacked_infer_stream_equals_each_member_bitwise():
    rng = Rng(12)
    nets = [init_network(4, 6, 3, num_layers=2, rng=rng) for _ in range(4)]
    xs = rng.normal_block(4 * 30).reshape(30, 4)
    probs = infer_stream(LstmNetwork.stack(nets), xs)
    assert probs.shape == (4, 30, 3)
    for m, net in enumerate(nets):
        assert probs[m].tobytes() == infer_stream(net, xs).tobytes()
    assert infer_stream(LstmNetwork.stack(nets), np.empty((0, 4))).shape == (4, 0, 3)


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
