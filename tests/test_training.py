import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lstmens import init_network
from lstmens.mathkit import softmax
from lstmens.rng import Rng
from lstmens.training import (
    AdamState,
    FrameBatch,
    GradCheckReport,
    LossKind,
    _ce_grad,
    _f1_grad,
    adam_update,
    bptt_frame,
    finite_difference_grads,
    forward_frame,
    grad_check,
    random_check_frame,
    relative_errors,
)

from conftest import tiny_net


# ---------------------------------------------------------------------------
# cross entropy


def ce_value(logits, targets):
    return _ce_grad(logits, targets)[0]


def test_ce_near_perfect_predictions():
    logits = np.array([[30.0, 0.0], [0.0, 30.0]])
    assert ce_value(logits, np.array([0, 1])) < 1e-12


def test_ce_uniform_is_log_k():
    logits = np.zeros((6, 4))
    targets = np.array([0, 1, 2, 3, 0, 1])
    assert abs(ce_value(logits, targets) - math.log(4.0)) < 1e-15


def test_ce_matches_per_sample_oracle():
    rng = Rng(3)
    logits = 3.0 * rng.normal_block(40).reshape(10, 4)
    targets = np.array([rng.uniform_int(0, 3) for _ in range(10)])
    # independent oracle: average of -ln p_target with p from softmax
    expected = np.mean(
        [-math.log(softmax(logits[t])[targets[t]]) for t in range(10)]
    )
    assert abs(ce_value(logits, targets) - expected) < 1e-12


def test_ce_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        ce_value(np.zeros((0, 3)), np.zeros(0, dtype=int))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30)
def test_ce_nonnegative(seed):
    rng = Rng(seed)
    logits = 5.0 * rng.normal_block(24).reshape(8, 3)
    targets = np.array([rng.uniform_int(0, 2) for _ in range(8)])
    assert ce_value(logits, targets) >= 0.0


# ---------------------------------------------------------------------------
# F1 loss, fed the logits whose softmax is the probability table of each case


def f1_value(logits, targets):
    return _f1_grad(logits, targets)[0]


def test_f1_perfect_one_hot():
    probs = np.eye(3)[np.array([0, 1, 2, 1])]
    # nudge off the exact one-hot so probabilities stay in (0, 1)
    probs = np.clip(probs, 1e-300, 1.0)
    assert f1_value(np.log(probs), np.array([0, 1, 2, 1])) < 1e-12


def test_f1_hand_case_single_sample():
    # one sample, target 0, p = [0.5, 0.5]:
    # class 0 term = 1 - 2*0.5 / (0.5 + 1) = 1/3; class 1 absent
    loss = f1_value(np.log(np.array([[0.5, 0.5]])), np.array([0]))
    assert abs(loss - 1.0 / 3.0) < 1e-15


def test_f1_rejects_empty():
    with pytest.raises(ValueError, match="no labels"):
        f1_value(np.zeros((0, 2)), np.zeros(0, dtype=int))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=50)
def test_f1_bounded(seed):
    rng = Rng(seed)
    logits = 4.0 * rng.normal_block(36).reshape(12, 3)
    targets = np.array([rng.uniform_int(0, 2) for _ in range(12)])
    loss = f1_value(logits, targets)
    assert 0.0 <= loss <= 1.0


# ---------------------------------------------------------------------------
# BPTT gradients


@pytest.mark.parametrize("loss", [LossKind.CE, LossKind.F1])
def test_bptt_matches_finite_differences(loss):
    rng = Rng(101)
    net = tiny_net(seed=101)
    frame = random_check_frame(net, rng)
    report = grad_check(net, frame, loss)
    assert report.ok, report.max_rel_error


def test_bptt_gradients_cover_every_tensor():
    net = tiny_net(seed=5)
    frame = random_check_frame(net, Rng(5))
    grads, new_state, loss_value = bptt_frame(net, frame, LossKind.CE)
    assert grads.shape == net.shape and grads.flat.shape == net.flat.shape
    shapes = [(name, arr.shape) for name, arr in net.param_items()]
    assert [(name, g.shape) for name, g in grads.param_items()] == shapes
    assert math.isfinite(loss_value)
    assert len(new_state.h) == len(new_state.c) == net.num_layers


def test_grad_check_detects_sign_flip():
    net = tiny_net(seed=8)
    frame = random_check_frame(net, Rng(8))
    analytic, _, _ = bptt_frame(net, frame, LossKind.CE)
    corrupted = analytic.with_flat(analytic.flat.copy())
    corrupted.layers[0].wxi[...] *= -1.0
    numeric = finite_difference_grads(net, frame, LossKind.CE)
    errors = relative_errors(corrupted, numeric)
    assert errors["l0.wxi"] > 1e-4


def test_grad_check_report_fails_a_nan_error():
    # relative_errors gives NaN where an analytic gradient is inf or NaN
    report = GradCheckReport({"l0.wxi": 1e-9, "l0.wxf": float("nan")}, tolerance=1e-4)
    assert report.failures == ["l0.wxf"] and not report.ok
    assert not GradCheckReport({"l0.wxi": 1e-9}, tolerance=float("nan")).ok


def test_states_carry_across_frames():
    # states flow forward across a frame boundary even though gradients stop
    rng = Rng(21)
    net = tiny_net(seed=21)
    inputs = rng.normal_block(8 * 2 * 3).reshape(8, 2, 3)
    targets = np.zeros((8, 2), dtype=int)
    _, whole_state = forward_frame(net, inputs, net.zero_state(2), caches=[])
    first = FrameBatch(inputs[:5], targets[:5], net.zero_state(2))
    _, mid_state, _ = bptt_frame(net, first, LossKind.CE)
    second = FrameBatch(inputs[5:], targets[5:], mid_state)
    _, end_state, _ = bptt_frame(net, second, LossKind.CE)
    for a, b in zip(whole_state.h + whole_state.c, end_state.h + end_state.c):
        assert np.array_equal(a, b)


def test_bptt_reports_offending_stream_on_blowup():
    net = tiny_net(seed=2)
    frame = random_check_frame(net, Rng(2), length=3, batch=2)
    frame.inputs[1, 1, :] = np.nan
    with pytest.raises(FloatingPointError, match=r"stream\(s\) \[1\]"):
        bptt_frame(net, frame, LossKind.CE)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_masks_values_and_mean():
    from lstmens.training import draw_dropout_masks

    rng = Rng(77)
    masks = draw_dropout_masks(rng, 2, 20, 8, 16, 0.5)
    values = np.unique(masks)
    assert set(values.tolist()) <= {0.0, 2.0}
    assert abs(masks.mean() - 1.0) < 0.02


def test_dropout_block_draw_matches_per_mask_loop():
    from lstmens.training import draw_dropout_masks

    def loop_reference(rng, num_layers, length, batch, hidden, p):
        # one uniform_block per (timestep, layer), timestep-major
        masks = np.empty((length, num_layers, batch, hidden))
        for t in range(length):
            for layer in range(num_layers):
                u = rng.uniform_block(batch * hidden).reshape(batch, hidden)
                masks[t, layer] = (u >= p) * (1.0 / (1.0 - p))
        return masks

    for shape, p in [((2, 7, 3, 5), 0.5), ((3, 1, 1, 4), 0.2), ((1, 16, 9, 8), 0.75)]:
        block_rng, loop_rng = Rng(41), Rng(41)
        block = draw_dropout_masks(block_rng, *shape, p)
        loop = loop_reference(loop_rng, *shape, p)
        assert block.shape == loop.shape
        assert block.tobytes() == loop.tobytes()
        # both leave the generator in the same state
        assert block_rng.next_u64() == loop_rng.next_u64()


def test_dropout_zero_is_bitwise_inference_path():
    from lstmens.network import step

    rng = Rng(30)
    net = init_network(3, 5, 2, num_layers=2, rng=rng)
    inputs = rng.normal_block(4 * 1 * 3).reshape(4, 1, 3)
    logits_train, _ = forward_frame(net, inputs, net.zero_state(1), masks=None, caches=[])
    state = net.zero_state()
    for t in range(4):
        logits, state, _ = step(net, inputs[t, 0], state)
        assert np.array_equal(logits_train[t, 0], logits)


def test_dropout_requires_rng():
    net = tiny_net()
    frame = random_check_frame(net, Rng(0))
    with pytest.raises(ValueError, match="rng"):
        bptt_frame(net, frame, LossKind.CE, dropout_p=0.5, rng=None)


def test_dropout_training_deterministic():
    net_a = tiny_net(seed=3)
    net_b = tiny_net(seed=3)
    frame_a = random_check_frame(net_a, Rng(4))
    frame_b = random_check_frame(net_b, Rng(4))
    ga, _, la = bptt_frame(net_a, frame_a, LossKind.CE, 0.5, Rng(9))
    gb, _, lb = bptt_frame(net_b, frame_b, LossKind.CE, 0.5, Rng(9))
    assert la == lb
    assert ga.flat.tobytes() == gb.flat.tobytes()


# ---------------------------------------------------------------------------
# ADAM


def test_adam_zero_gradient_is_identity():
    net = tiny_net(seed=11)
    before = {n: a.copy() for n, a in net.param_items()}
    adam_update(net, net.with_flat(np.zeros_like(net.flat)), AdamState())
    for name, arr in net.param_items():
        assert np.array_equal(arr, before[name])


def test_adam_first_step_hand_case():
    # scalar parameter, g = 1, t = 1: step is lr * 1 / (1 + eps)
    net = tiny_net(seed=12)
    theta0 = net.output.b.copy()
    grads = net.with_flat(np.zeros_like(net.flat))
    grads.output.b[...] = 1.0
    opt = AdamState(learning_rate=0.001)
    adam_update(net, grads, opt)
    expected_step = 0.001 * 1.0 / (1.0 + 1e-8)
    assert np.allclose(theta0 - net.output.b, expected_step, rtol=0, atol=1e-18)
    assert opt.step == 1


def test_adam_two_runs_identical():
    def run():
        net = tiny_net(seed=13)
        opt = AdamState()
        rng = Rng(50)
        for _ in range(5):
            frame = random_check_frame(net, rng)
            grads, _, _ = bptt_frame(net, frame, LossKind.CE)
            adam_update(net, grads, opt)
        return net

    a, b = run(), run()
    for (na, ta), (nb, tb) in zip(a.param_items(), b.param_items()):
        assert np.array_equal(ta, tb)


def test_adam_update_leaves_earlier_snapshot_unchanged():
    net = tiny_net(seed=14)
    snapshot = net.with_flat(net.flat.copy())
    before = snapshot.flat.tobytes()
    frame = random_check_frame(net, Rng(14))
    grads, _, _ = bptt_frame(net, frame, LossKind.CE)
    adam_update(net, grads, AdamState())
    assert snapshot.flat.tobytes() == before
    assert net.flat.tobytes() != before


def test_adam_flat_update_equals_per_tensor_expression():
    # the one-vector update applies, entry by entry, the per-tensor formula
    net = tiny_net(seed=15)
    opt = AdamState(learning_rate=0.01)
    frames = [random_check_frame(net, Rng(15 + n)) for n in range(3)]
    ref = {name: arr.copy() for name, arr in net.param_items()}
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    for step_no, frame in enumerate(frames, start=1):
        grads, _, _ = bptt_frame(net, frame, LossKind.CE)
        adam_update(net, grads, opt)
        c1, c2 = 1.0 - 0.9 ** step_no, 1.0 - 0.999 ** step_no
        for name, g in grads.param_items():
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
            ref[name] = ref[name] - 0.01 * (m[name] / c1) / (np.sqrt(v[name] / c2) + 1e-8)
        for name, arr in net.param_items():
            assert np.array_equal(arr, ref[name]), name
