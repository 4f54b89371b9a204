"""One helper thread that runs large tasks beside the calling thread.

At paper scale (2x256, B in the hundreds) a training step is a handful of
matrix products of millions of multiply-adds each, and numpy releases the
interpreter lock inside every one of them, so work on two CPUs runs at the
same time. `network.forward_frame` hands the helper the upper half of the
layers of each step (a layer wavefront) and `training.backward_frame` each
layer-step's weight gradients; both keep every statement's operands,
association and order, so the results are bit for bit those of running the
tasks inline.

This module alone decides where a task runs: `offload(macs)` is true when a
frame's top-layer task has at least MIN_MACS multiply-adds and the helper
runs; below that, a hand-over costs more than it saves. The helper is one
thread, started on the first such task, and only where `os.sched_setaffinity`
exists and the process may run on at least 2 CPUs. It then pins the calling
thread to the first allowed CPU and itself to the second: unpinned, the two
threads can share one CPU and nothing overlaps. Elsewhere, and in a child
forked after the helper started, no thread exists and every task runs inline.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# multiply-adds of the smallest task handed to the helper: the top layer's
# step, (M*B)(D_in+H)4H, in a forward frame, and its two weight-gradient
# products, B(D_in+H)4H, in a backward frame. A hand-over costs 15-40 us, and
# the wavefront waits on one every step. Timed inline and on the helper (1
# BLAS thread, 2 vCPUs, L=24 frames, 300-sample streams): frames ran
# 1.2-1.9x slower on the helper at 2^19 (2x64 B=16), mostly 1.1-1.4x at 2^20
# and mostly faster from 2^21; B=1 streams of two stacked 2x256 members
# (2^20) ran 0.76-0.90x, and backward tasks 0.87-1.26x at 2^20 and
# 0.59-1.04x at 2^21. Full scale's training and its stacked (M >= 2) inference hand over;
# a lone 2x256 network and every desk and stream task stay inline.
MIN_MACS = 1 << 20

_helper: ThreadPoolExecutor | bool | None = None  # None: not tried yet
_start = threading.Lock()


def ready() -> ThreadPoolExecutor | bool:
    """The helper thread's executor, started on the first call; False where
    no helper can run, so every task runs inline."""
    global _helper
    if _helper is None:
        with _start:
            if _helper is None:
                cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
                if len(cpus) < 2:
                    _helper = False
                else:
                    os.sched_setaffinity(0, {cpus[0]})
                    _helper = ThreadPoolExecutor(1, "lstmens-overlap", os.sched_setaffinity,
                                                 (0, {cpus[1]}))
    return _helper


def offload(macs: int) -> bool:
    """Whether a task of `macs` multiply-adds goes to the helper."""
    return macs >= MIN_MACS and bool(ready())


def submit(fn, *args):
    """Queue fn(*args) on the helper (`offload` must be true); returns the
    task for `wait`. Tasks run one at a time, first in, first out."""
    return _helper.submit(fn, *args), fn, args


def wait(task):
    """The task's result. A task the helper has not started is taken back and
    run here, so the caller never waits on work that sits in the queue; an
    exception the task raised is raised here."""
    future, fn, args = task
    return fn(*args) if future.cancel() else future.result()


def settle(task) -> None:
    """Leave the task neither queued nor running (taken back unrun, or
    waited for), dropping its result or exception; for clean-up on failure."""
    future = task[0]
    if not future.cancel():
        future.exception()


def _forget() -> None:
    # a forked child has no helper thread; it must compute inline
    global _helper
    _helper = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
