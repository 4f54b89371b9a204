"""One helper thread that runs large tasks beside the calling thread.

At paper scale (2x256, B in the hundreds) a training step is a handful of
matrix products of millions of multiply-adds each, and numpy releases the
interpreter lock inside every one of them, so work on two CPUs runs at the
same time. `network.forward_frame` hands the helper half of a stack's
members for the whole frame (a member split, for stacked inference: one
task per frame) or, for one network and for a stack that keeps caches, the
upper half of the layers of each step (a layer wavefront: one task per
step), and `training.backward_frame` each layer-step's weight gradients.
All keep every statement's operands, association and order, so the results
are bit for bit those of running the tasks inline.

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
# products, B(D_in+H)4H, in a backward frame. A hand-over costs 15-40 us; the
# wavefront waits on one every step, the member split once per frame. Timed
# inline and on the helper (1 BLAS thread, 2 vCPUs, L=24 frames, 300-sample
# streams): frames ran 1.2-1.9x slower on the helper at 2^19 (2x64 B=16),
# mostly 1.1-1.4x at 2^20 and mostly faster from 2^21; backward tasks
# 0.87-1.26x at 2^20 and 0.59-1.04x at 2^21. B=1 stacked streams, member
# split (and the layer wavefront) as a fraction of inline, medians of 9 in
# two processes: 2x256 M=2 0.62-0.67 (0.69-0.70), M=3 0.85-0.90
# (0.81-0.93), M=4 0.59-0.65 (0.70-0.71), M=10 0.52-0.59 (0.63-0.71), and
# 3,750 samples at M=10 (medians of 3) 0.50 (0.65-0.68); 2x128 M=8
# 0.81-0.87 (0.79-0.82); 2x32 M=128 0.92-0.96 (0.86-0.87); 2x32 M=10 (82k,
# inline here) 2.1 (1.9-2.0). Full scale's training and its stacked (M >= 2)
# inference hand over; a lone 2x256 stream and every desk and stream task
# stay inline.
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
