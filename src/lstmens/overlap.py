"""One helper thread that runs large matrix products beside the calling thread.

At paper scale (2x256, B in the hundreds) a training step is a handful of
matrix products of millions of multiply-adds each, and numpy releases the
interpreter lock inside every one of them, so two independent products on two
CPUs run at the same time. `network.step_batch` hands the helper each layer's
recurrent product and `training.backward_frame` each layer-step's weight
gradients; both keep every product's operands, association and order, so the
results are bit for bit those of running the products inline.

This module alone decides where a product runs: `offload(macs)` is true when
a product has at least MIN_MACS multiply-adds and the helper runs. Below
that, handing one over costs more than it saves, so the kernels run it inline.
The helper is one thread, started on the first such product, and only where
`os.sched_setaffinity` exists and the process may run on at least 2 CPUs. It
then pins the calling thread to the first allowed CPU and itself to the
second: unpinned, the two threads can share one CPU and nothing overlaps.
Elsewhere, and in a child forked after the helper started, no thread exists
and every product runs inline.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# multiply-adds of the smallest product handed to the helper. A hand-over
# costs 15-40 us; timed inline and on the helper (1 BLAS thread, 2 vCPUs),
# all but one of the step_batch and L=24 backward_frame shapes below 2^19
# ran 1.03-3x slower on the helper (a 2x256 B=1 step ran 0.91-1.03x), and
# every step_batch shape at 2^19 ran faster. Full scale's training and its
# stacked (M >= 2) inference hand over; a lone 2x256 step and every desk
# product stay inline.
MIN_MACS = 1 << 19

_helper: ThreadPoolExecutor | bool | None = None  # None: not tried yet
_start = threading.Lock()


def ready() -> ThreadPoolExecutor | bool:
    """The helper thread's executor, started on the first call; False where
    no helper can run, so every product runs inline."""
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
    """Whether a product of `macs` multiply-adds goes to the helper."""
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


def _forget() -> None:
    # a forked child has no helper thread; it must compute inline
    global _helper
    _helper = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
