"""The helper thread (lstmens.overlap): `overlap.offload` alone decides which
products go to it, full-scale shapes go and small ones stay; with every product
handed to it, the kernels give the same bytes as inline; failures surface; no
thread starts where none can run, in a forked child, or at desk scale."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lstmens import BaseLearner, Ensemble, ensemble_infer, infer_stream, init_network, overlap
from lstmens import training
from lstmens.network import LstmNetwork, step, step_batch
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
    """run(fn) -> (fn() inline, fn() with every product on the helper); the
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


@needs_two_cpus
def test_full_scale_hands_over_and_a_lone_step_does_not(tasks):
    rng = Rng(11)
    nets = [init_network(6, 256, 4, num_layers=2, rng=rng) for _ in range(2)]
    x = rng.normal_block(6)
    step(nets[0], x, nets[0].zero_state())  # 256 x 1024 multiply-adds per product
    assert not tasks
    ens = Ensemble([BaseLearner(net, j, LossKind.CE, 0.5) for j, net in enumerate(nets)])
    ensemble_infer(ens, x.reshape(1, 6))  # two members' products as one: 2^19
    assert {task[0] for task in tasks} == {np.matmul}
    tasks.clear()
    bptt_frame(nets[0], random_check_frame(nets[0], Rng(12), length=2, batch=128), LossKind.CE)
    assert {task[0] for task in tasks} == {np.matmul, training._add_weight_grads}


@needs_two_cpus
@pytest.mark.parametrize("forced", [True, False])
def test_offload_alone_decides(monkeypatch, tasks, forced):
    net = init_network(4, 6, 3, num_layers=2, rng=Rng(13))
    frame = random_check_frame(net, Rng(14), length=5, batch=3)
    dlogits = Rng(15).normal_block(5 * 3 * 3).reshape(5, 3, 3)
    xs = Rng(16).normal_block(10 * 4).reshape(10, 4)

    def run():  # the bytes of a forward, a backward and a stream; the task count after each
        logits, state, caches = forward_frame(net, frame.inputs, frame.state)
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
        logits, state, caches = forward_frame(net, frame.inputs, frame.state, masks)
        grads = backward_frame(net, caches, dlogits)
        bptt_grads, bptt_state, value = bptt_frame(net, frame, loss, dropout_p=0.3, rng=Rng(4))
        return (_bytes(logits, grads.flat, bptt_grads.flat, np.array(value))
                + _state_bytes(state) + _state_bytes(bptt_state))

    inline, offloaded = both_ways(frames)
    assert offloaded == inline


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
    x, state = np.ones(3), net.zero_state()
    want = _bytes(step_batch(net, x, state)[0])
    monkeypatch.setattr(overlap, "MIN_MACS", 0)
    assert overlap.ready()
    overlap.wait(overlap.submit(np.matmul, x, net.layers[0].wx))  # the helper thread runs
    pid = os.fork()
    if pid == 0:  # the child: one forced-offload product, then out without pytest's cleanup
        ok = False
        try:
            ok = (_bytes(step_batch(net, x, state)[0]) == want and overlap.ready() is False
                  and threading.active_count() == 1)
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
    # the 20-epoch window is desk's largest product (82k)
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
