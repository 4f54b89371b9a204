"""The helper thread (lstmens.overlap): `overlap.offload` alone decides which
tasks go to it, full-scale shapes go and small ones stay; with every task
handed to it, the layer wavefront and the backward give the same bytes as
inline; failures surface and leave no task behind; no thread starts where
none can run, in a forked child, or at desk scale."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lstmens import BaseLearner, Ensemble, ensemble_infer, infer_stream, init_network, overlap
from lstmens import network, training
from lstmens.network import LstmNetwork, step
from lstmens.rng import Rng
from lstmens.training import (LossKind, backward_frame, bptt_frame, draw_dropout_masks,
                              forward_frame, random_check_frame)

INLINE = 1 << 62  # a MIN_MACS no product reaches
SRC = Path(__file__).resolve().parent.parent / "src"

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the helper thread needs sched_setaffinity and at least 2 CPUs")


@pytest.fixture
def tasks(monkeypatch):
    """Every task handed to the helper from here on, as (fn, *args)."""
    seen = []
    submit = overlap.submit
    monkeypatch.setattr(overlap, "submit", lambda *a: seen.append(a) or submit(*a))
    return seen


@pytest.fixture
def both_ways(monkeypatch, tasks):
    """run(fn) -> (fn() inline, fn() with every task on the helper); the
    helper path must hand over at least one task."""

    def run(fn):
        monkeypatch.setattr(overlap, "MIN_MACS", INLINE)
        inline = fn()
        assert not tasks
        monkeypatch.setattr(overlap, "MIN_MACS", 0)
        assert overlap.ready()
        offloaded = fn()
        assert tasks
        tasks.clear()
        return inline, offloaded

    return run


def _bytes(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _state_bytes(state) -> list[bytes]:
    return _bytes(*state.h, *state.c)


def _cache_bytes(caches) -> list:
    """Every entry of every step's per-layer cache dicts, in order."""
    return [(key, None if value is None else _bytes(value)[0])
            for cache in caches for entry in cache for key, value in entry.items()]


@needs_two_cpus
def test_full_scale_hands_over_and_a_lone_step_does_not(tasks):
    rng = Rng(11)
    nets = [init_network(6, 256, 4, num_layers=2, rng=rng) for _ in range(2)]
    x = rng.normal_block(6)
    step(nets[0], x, nets[0].zero_state())  # step_batch alone never hands over
    infer_stream(nets[0], x.reshape(1, 6))  # top layer-step: 512 x 1024 = 2^19
    assert not tasks
    ens = Ensemble([BaseLearner(net, j, LossKind.CE, 0.5) for j, net in enumerate(nets)])
    ensemble_infer(ens, x.reshape(1, 6))  # two members' layer-steps as one: 2^20
    # one task, the whole stream for member 1; member 0 streams on this thread
    assert [task[:2] for task in tasks] == [(network._steps, network._bare_step)]
    assert tasks[0][2].flat.tobytes() == nets[1].flat.tobytes()
    tasks.clear()
    bptt_frame(nets[0], random_check_frame(nets[0], Rng(12), length=2, batch=128), LossKind.CE)
    assert [task[0] for task in tasks] == [network._layers] * 2 + [training._add_weight_grads] * 4


@needs_two_cpus
@pytest.mark.parametrize("forced", [True, False])
def test_offload_alone_decides(monkeypatch, tasks, forced):
    net = init_network(4, 6, 3, num_layers=2, rng=Rng(13))
    frame = random_check_frame(net, Rng(14), length=5, batch=3)
    dlogits = Rng(15).normal_block(5 * 3 * 3).reshape(5, 3, 3)
    xs = Rng(16).normal_block(10 * 4).reshape(10, 4)

    def run():  # the bytes of a forward, a backward and a stream; the task count after each
        caches = []
        logits, state = forward_frame(net, frame.inputs, frame.state, caches=caches)
        counts = [len(tasks)]
        grads = backward_frame(net, caches, dlogits)
        counts.append(len(tasks))
        probs = infer_stream(net, xs)
        counts.append(len(tasks))
        return _bytes(logits, grads.flat, probs) + _state_bytes(state), counts

    inline, counts = run()  # 2x6 products stay inline under the real MIN_MACS
    assert counts == [0, 0, 0]
    assert overlap.ready()
    # MIN_MACS says the opposite of offload, which must win
    monkeypatch.setattr(overlap, "MIN_MACS", INLINE if forced else 0)
    monkeypatch.setattr(overlap, "offload", lambda macs: forced)
    out, counts = run()
    assert out == inline
    if forced:
        assert 0 < counts[0] < counts[1] < counts[2]
    else:
        assert counts == [0, 0, 0]


@needs_two_cpus
@pytest.mark.parametrize("loss", [LossKind.CE, LossKind.F1])
@pytest.mark.parametrize("batch", [1, 5, 12])
def test_frames_are_bitwise_on_the_helper(both_ways, loss, batch):
    net = init_network(4, 6, 3, num_layers=2, rng=Rng(batch))
    frame = random_check_frame(net, Rng(40 + batch), length=7, batch=batch)
    masks = draw_dropout_masks(Rng(2), net.num_layers, 7, batch, net.hidden_dim, 0.3)
    dlogits = Rng(3).normal_block(7 * batch * 3).reshape(7, batch, 3)

    def frames():
        caches = []
        logits, state = forward_frame(net, frame.inputs, frame.state, masks, caches)
        grads = backward_frame(net, caches, dlogits)
        bptt_grads, bptt_state, value = bptt_frame(net, frame, loss, dropout_p=0.3, rng=Rng(4))
        return (_bytes(logits, grads.flat, bptt_grads.flat, np.array(value))
                + _state_bytes(state) + _state_bytes(bptt_state))

    inline, offloaded = both_ways(frames)
    assert offloaded == inline


@needs_two_cpus
@pytest.mark.parametrize("layers, members, batch",
                         [(2, 1, 5), (3, 1, 4), (2, 2, 1), (3, 2, 1), (1, 1, 5)])
def test_the_wavefront_is_bitwise(both_ways, tasks, layers, members, batch):
    # the upper half of the layers (1 of 2, or 1 of 3) runs one step behind
    # on the helper: one task per step, and caches, logits, carried state and
    # gradients byte for byte the inline ones; a 1-layer net hands over none
    rng = Rng(20 + layers)
    nets = [init_network(4, 6, 3, num_layers=layers, rng=rng) for _ in range(members)]
    net = nets[0] if members == 1 else LstmNetwork(np.stack([n.flat for n in nets]), nets[0].shape)
    frame = random_check_frame(nets[0], Rng(30), length=7, batch=batch)
    masks = draw_dropout_masks(Rng(31), layers, 7, batch, 6, 0.5)
    dlogits = Rng(32).normal_block(7 * batch * 3).reshape(7, batch, 3)
    state = net.zero_state(batch) if members > 1 else frame.state
    forward_tasks = []

    def frame_bytes():
        caches = []
        logits, new_state = forward_frame(net, frame.inputs, state, masks, caches)
        forward_tasks.append([task[0] for task in tasks])
        out = _bytes(logits) + _state_bytes(new_state) + _cache_bytes(caches)
        if members == 1:  # the backward trains one network
            out += _bytes(backward_frame(net, caches, dlogits).flat)
        return out

    inline, offloaded = both_ways(frame_bytes)
    assert offloaded == inline
    assert forward_tasks == [[], [network._layers] * 7 * (layers > 1)]


def _stack(nets):
    return LstmNetwork(np.stack([net.flat for net in nets]), nets[0].shape)


def _random_state(net, batch, rng):
    shape = (len(net.flat), batch, net.hidden_dim)
    h, c = ([rng.normal_block(int(np.prod(shape))).reshape(shape) for _ in net.layers]
            for _ in range(2))
    return network.LstmState(h, c)


@needs_two_cpus
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("members", [2, 3, 4])
def test_the_member_split_is_bitwise(both_ways, tasks, members, batch, layers):
    # a stack that keeps no caches splits by member, 1-layer stacks too: one
    # task per frame, the helper's half of rows [(M+1)//2:]; logits and carried
    # state byte for byte the inline ones, over a carried second frame and a
    # masked one, and each member's logits those of the member run alone
    rng = Rng(50 + 7 * members + batch + layers)
    nets = [init_network(4, 6, 3, num_layers=layers, rng=rng) for _ in range(members)]
    net = _stack(nets)
    inputs = rng.normal_block(2 * 5 * batch * 4).reshape(2, 5, batch, 4)
    state = _random_state(net, batch, rng)
    masks = draw_dropout_masks(Rng(51), layers, 5, batch, 6, 0.5)
    xs = rng.normal_block(9 * 4).reshape(9, 4)
    frame_tasks = []

    def split_bytes():
        out, carried = [], state
        for frame, frame_masks in zip(inputs, (None, masks)):
            logits, carried = forward_frame(net, frame, carried, frame_masks)
            out += _bytes(logits) + _state_bytes(carried)
            frame_tasks.append(list(tasks))
        out += _bytes(infer_stream(net, xs))
        frame_tasks.append(list(tasks))
        return out

    inline, offloaded = both_ways(split_bytes)
    assert offloaded == inline
    assert [len(seen) for seen in frame_tasks] == [0, 0, 0, 1, 2, 3]
    for task in frame_tasks[-1]:
        assert task[:2] == (network._steps, network._bare_step)
        assert task[2].flat.tobytes() == net.flat[(members + 1) // 2:].tobytes()
    alone = np.stack([forward_frame(member, inputs[0], network.LstmState(
        [h[j] for h in state.h], [c[j] for c in state.c]))[0] for j, member in enumerate(nets)])
    assert _bytes(alone) == inline[:1]


@needs_two_cpus
@pytest.mark.parametrize("side", ["helper", "caller"])
def test_a_failing_member_half_surfaces_and_leaves_no_task(monkeypatch, side):
    # the third step of the helper's half (row 2) or of this thread's half
    # (rows 0:2) raises; either way the error surfaces from forward_frame, the
    # helper's half is neither queued nor running afterwards, and the next
    # frame gives the inline bytes
    rng = Rng(60)
    net = _stack([init_network(3, 4, 2, num_layers=2, rng=rng) for _ in range(3)])
    inputs = rng.normal_block(6 * 2 * 3).reshape(6, 2, 3)
    want = _bytes(forward_frame(net, inputs, net.zero_state(2))[0])  # inline: 3x2x4 is small
    bare_step, calls, started = network._bare_step, [], threading.Event()

    def failing(half, *args):
        mine = "helper" if len(half.flat) == 1 else "caller"
        calls.append(mine)
        if mine == "helper":
            started.set()
            time.sleep(0.01)  # still running on the helper when this thread's half is done
        elif calls.count(mine) == 3:
            assert started.wait(timeout=30)  # the helper's half is under way
        if calls.count(mine) == 3 and mine == side:
            raise RuntimeError("member half failed")
        return bare_step(half, *args)

    monkeypatch.setattr(overlap, "MIN_MACS", 0)
    assert overlap.ready()
    monkeypatch.setattr(network, "_bare_step", failing)
    with pytest.raises(RuntimeError, match="member half failed"):
        forward_frame(net, inputs, net.zero_state(2))
    seen = list(calls)
    # tasks run first in, first out: once this probe has run on the helper,
    # a half still queued or running when forward_frame raised would have
    # added to calls
    assert overlap.ready().submit(len, calls).result(timeout=30) == len(seen)
    assert calls == seen
    assert calls.count(side) == 3
    if side == "caller":  # the helper's half, under way at the raise, was waited for
        assert calls.count("helper") == 6
    monkeypatch.setattr(network, "_bare_step", bare_step)
    assert _bytes(forward_frame(net, inputs, net.zero_state(2))[0]) == want


@needs_two_cpus
def test_inference_is_bitwise_on_the_helper(both_ways):
    rng = Rng(5)
    nets = [init_network(3, 5, 4, num_layers=2, rng=rng) for _ in range(3)]
    stack = LstmNetwork(np.stack([net.flat for net in nets]), nets[0].shape)
    ens = Ensemble([BaseLearner(net, j, LossKind.CE, 0.5) for j, net in enumerate(nets)])
    xs = rng.normal_block(3 * 20).reshape(20, 3)

    def inference():
        out = _bytes(infer_stream(nets[0], xs), infer_stream(stack, xs),
                     *ensemble_infer(ens, xs))
        state = nets[0].zero_state()
        for x in xs[:5]:
            logits, state, _ = step(nets[0], x, state)
            out += _bytes(logits) + _state_bytes(state)
        return out

    inline, offloaded = both_ways(inference)
    assert offloaded == inline


@needs_two_cpus
def test_a_failing_task_surfaces_and_leaves_nothing_queued(monkeypatch):
    net = init_network(3, 4, 2, num_layers=2, rng=Rng(6))
    frame = random_check_frame(net, Rng(7), length=4, batch=3)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("task failed")
        time.sleep(0.01)  # still running on the helper when the next one is due

    monkeypatch.setattr(overlap, "MIN_MACS", 0)
    assert overlap.ready()
    monkeypatch.setattr(training, "_add_weight_grads", failing)
    with pytest.raises(RuntimeError, match="task failed"):
        bptt_frame(net, frame, LossKind.CE)
    # tasks run first in, first out: once this probe has run on the helper,
    # any task still queued behind the failure would have run too
    assert overlap.ready().submit(len, calls).result(timeout=30) == 3
    assert len(calls) == 3


@needs_two_cpus
@pytest.mark.parametrize("side", ["helper", "caller"])
def test_a_failing_layer_step_surfaces_and_leaves_no_task(monkeypatch, side):
    # the third upper-half task (on the helper) or the third lower half (on
    # this thread) raises; either way the error surfaces from forward_frame,
    # which leaves no task queued or running, and the next frame is inline's
    net = init_network(3, 4, 2, num_layers=2, rng=Rng(36))
    frame = random_check_frame(net, Rng(37), length=6, batch=3)
    want = _bytes(forward_frame(net, frame.inputs, frame.state)[0])  # inline: 2x4 is small
    layers, calls, ended = network._layers, [], []

    def failing(net, lo, *args):
        calls.append(lo)
        if calls.count(lo) == 3 and (lo > 0) == (side == "helper"):
            raise RuntimeError("layer-step failed")
        out = layers(net, lo, *args)
        if lo:
            time.sleep(0.01)  # still running on the helper when the next step is due
            ended.append(lo)
        return out

    monkeypatch.setattr(overlap, "MIN_MACS", 0)
    assert overlap.ready()
    monkeypatch.setattr(network, "_layers", failing)
    with pytest.raises(RuntimeError, match="layer-step failed"):
        forward_frame(net, frame.inputs, frame.state)
    seen = list(calls), list(ended)
    # tasks run first in, first out: once this probe has run on the helper,
    # a task still queued or running when forward_frame raised would have
    # added to calls or ended
    assert overlap.ready().submit(len, calls).result(timeout=30) == len(seen[0])
    assert (calls, ended) == seen
    assert calls.count(1 if side == "helper" else 0) == 3
    monkeypatch.setattr(network, "_layers", layers)
    assert _bytes(forward_frame(net, frame.inputs, frame.state)[0]) == want


@pytest.mark.parametrize("cpus", [{0}, None])
def test_no_helper_without_two_cpus_or_pinning(monkeypatch, cpus):
    pinned = []
    monkeypatch.setattr(overlap, "_helper", None)
    monkeypatch.setattr(overlap, "MIN_MACS", 0)
    if cpus is None:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "sched_setaffinity", lambda *a: pinned.append(a))
    threads = threading.active_count()
    net = init_network(3, 4, 2, num_layers=2, rng=Rng(8))
    frame = random_check_frame(net, Rng(9), length=3, batch=2)
    bptt_frame(net, frame, LossKind.CE)
    infer_stream(net, np.zeros((4, 3)))
    assert overlap.ready() is False
    assert threading.active_count() == threads and not pinned


@needs_two_cpus
def test_a_forked_child_computes_inline(monkeypatch):
    net = init_network(3, 4, 2, num_layers=2, rng=Rng(10))
    frame = random_check_frame(net, Rng(11), length=2, batch=1)
    want = _bytes(forward_frame(net, frame.inputs, frame.state)[0])
    monkeypatch.setattr(overlap, "MIN_MACS", 0)
    assert overlap.ready()
    overlap.wait(overlap.submit(np.matmul, frame.inputs[0], net.layers[0].wx))  # the helper runs
    pid = os.fork()
    if pid == 0:  # the child: one frame that asks for a hand-over, then out without pytest's cleanup
        ok = False
        try:
            ok = (_bytes(forward_frame(net, frame.inputs, frame.state)[0]) == want
                  and overlap.ready() is False and threading.active_count() == 1)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_desk_training_starts_no_thread():
    # a fresh interpreter, unpinned: an earlier test in this process may have
    # started the helper and pinned this thread, and a child inherits the pin;
    # the 20-epoch window is desk's largest layer-step, 20 x 64 x 128 = 164k
    script = (
        "import os, threading\n"
        "if hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, range(os.cpu_count()))\n"
        "from lstmens import BaggingConfig, run_bagging, synth_har\n"
        "data = synth_har(6, 4, 1300, 'balanced', snr=4.0, seed=0)\n"
        "cfg = BaggingConfig(b_low=8, b_high=16, l_low=16, l_high=32, max_epoch=20,"
        " dropout_p=0.5, seed=1)\n"
        "learners = run_bagging(data.slice(0, 1000), data.slice(1000, 1300), cfg,"
        " hidden_dim=32, num_layers=2)\n"
        "print(len(learners), threading.active_count())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split() == ["20", "1"]
