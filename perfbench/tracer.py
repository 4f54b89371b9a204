"""Out-of-process-boundary tracing for the benchmark's traced run.

The tracer wraps package functions from outside: each wrapper replaces the
name in the module where its caller looks it up (for example
``lstmens.bagging.bptt_frame``, the name ``train_epoch`` calls), so the
package source is never edited. Span wrappers record (name, start, end,
parent) in memory; count wrappers only count calls, for functions that run
too often for a span each. Nothing is written until ``dump`` at the end.

Spans named EXCLUDED (the benchmark's own reference-kernel probes) are
recorded but not counted as time of the spans around them.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, layer name). A layer may be reached through several
# module-level names; each is patched so every caller is seen.
SPAN_TARGETS = (
    ("lstmens.data", "load_csv", "data.load_csv"),
    ("lstmens.bagging", "run_bagging", "bagging.run_bagging"),
    ("lstmens.bagging", "make_schedule", "bagging.make_schedule"),
    ("lstmens.bagging", "train_epoch", "bagging.train_epoch"),
    ("lstmens.bagging", "bptt_frame", "training.bptt_frame"),
    ("lstmens.training", "draw_dropout_masks", "training.draw_dropout_masks"),
    ("lstmens.training", "forward_frame", "training.forward_frame"),
    ("lstmens.training", "backward_frame", "training.backward_frame"),
    ("lstmens.bagging", "adam_update", "training.adam_update"),
    ("lstmens.bagging", "validation_f1", "bagging.validation_f1"),
    ("lstmens.bagging", "infer_stream", "network.infer_stream"),
    ("lstmens.ensembles", "infer_stream", "network.infer_stream"),
    ("lstmens.network", "step", "network.step"),
    ("lstmens.bagging", "confusion", "evaluation.confusion"),
    ("lstmens.evaluation", "confusion", "evaluation.confusion"),
    ("lstmens.bagging", "save_learners", "bagging.save_learners"),
    ("lstmens.bagging", "load_learners", "bagging.load_learners"),
    ("lstmens.bagging", "save_model", "modelio.save_model"),
    ("lstmens.bagging", "load_model", "modelio.load_model"),
    ("lstmens.ensembles", "load_model", "modelio.load_model"),
    ("lstmens.ensembles", "select_top_m", "ensembles.select_top_m"),
    ("lstmens.ensembles", "save_ensemble", "ensembles.save_ensemble"),
    ("lstmens.ensembles", "load_ensemble", "ensembles.load_ensemble"),
    ("lstmens.ensembles", "ensemble_infer", "ensembles.ensemble_infer"),
    ("workloads", "fuse", "bench.fuse"),  # the benchmark's own `lstmens fuse` stage
)

COUNT_TARGETS = (
    ("lstmens.training", "step_batch", "network.step_batch"),
    ("lstmens.network", "step_batch", "network.step_batch"),
    ("lstmens.network", "sigmoid", "mathkit.sigmoid"),
    ("lstmens.rng", "Rng.uniform_block", "rng.uniform_block"),
)

# layers whose wrapper also records the size of the file it wrote
_BYTES_WRITTEN = "modelio.save_model"
EXCLUDED = "bench.probe"


class Tracer:
    """Span and call-count recorder; ``install`` patches, ``restore`` undoes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.bytes_written = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == _BYTES_WRITTEN:
                self.bytes_written += os.path.getsize(args[1])
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def exclude(self, fn):
        """Wrap fn so its time is removed from every span it runs inside."""
        return self._span_wrapper(EXCLUDED, fn)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every target; a missing name raises, so renames fail loudly."""
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for module_name, attr, layer in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)  # AttributeError if renamed
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, make(layer, original))

    def restore(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: span count, total seconds and self seconds.

        A span's duration leaves out the EXCLUDED spans inside it; its self
        time is that duration minus the durations of its direct children.
        The program is single-threaded, so sibling spans never overlap and
        the sum equals the covered time.
        """
        excluded = defaultdict(float)
        for name, start, end, parent in self.spans:
            while name == EXCLUDED and parent >= 0:
                excluded[parent] += end - start
                parent = self.spans[parent][3]
        duration = [end - start - excluded[idx]
                    for idx, (_, start, end, _) in enumerate(self.spans)]
        child_time = defaultdict(float)
        for idx, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0 and name != EXCLUDED:
                child_time[parent] += duration[idx]
        out: dict = defaultdict(lambda: {"spans": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, _, _, _) in enumerate(self.spans):
            if name == EXCLUDED:
                continue
            row = out[name]
            row["spans"] += 1
            row["s"] += duration[idx]
            row["self_s"] += duration[idx] - child_time[idx]
        return dict(out)

    def bookkeeping_estimate(self, calls: int = 20_000) -> float:
        """Seconds this run's wrappers cost, from the timed cost of one wrapped
        no-op call times the number of spans and counted calls recorded."""
        probe = Tracer()
        noop = probe._span_wrapper("noop", lambda: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        per_call = (time.perf_counter() - t0) / calls
        return per_call * (len(self.spans) + sum(self.counts.values()))

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of spans called `name` that have an `ancestor` span above them."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def dump(self, path) -> None:
        """Write every span and count as JSON (names indexed to keep it small)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                    "bytes_written": self.bytes_written,
                },
                fh,
            )
