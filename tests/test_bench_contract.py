"""Benchmark contract: the package names perfbench/tracer.py patches exist,
and the stream workload runs without a failed check.

The traced benchmark run (`python3 perfbench/run.py --trace 1`) wraps package
functions from outside, by (module, attribute), where their callers look them
up. A renamed or removed name would otherwise surface only in a traced run,
and a broken file contract only as the benchmark's failed share; here both
fail in the ordinary suite. perfbench is read, never written.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from lstmens import (BaseLearner, Ensemble, LabeledSequence, LstmNetwork, bagging, ensembles,
                     infer_stream, init_network)
from lstmens.rng import Rng
from lstmens.training import LossKind, bptt_frame, random_check_frame

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_import(monkeypatch):
    """importlib.import_module for perfbench/ modules, imported as the
    benchmark imports them and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


@pytest.fixture
def tracer_module(perfbench_import):
    return perfbench_import("tracer")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(tracer_module):
    targets = tracer_module.SPAN_TARGETS + tracer_module.COUNT_TARGETS
    missing = []
    for module_name, attr, layer in targets:
        try:
            if not callable(_resolve(module_name, attr)):
                missing.append(f"{module_name}.{attr} ({layer}) is not callable")
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module_name}.{attr} ({layer}): {exc}")
    assert not missing, missing


def test_counted_names_are_the_ones_the_kernel_calls(tracer_module):
    # one layer-step is one fused sigmoid; one dropout frame is one block draw
    net = init_network(3, 4, 2, num_layers=2, rng=Rng(0))
    frame = random_check_frame(net, Rng(1), length=5, batch=2)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        bptt_frame(net, frame, LossKind.CE, dropout_p=0.5, rng=Rng(2))
        infer_stream(net, np.zeros((6, 3)))
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["network.step_batch"] == 5 + 6
    assert counts["mathkit.sigmoid"] == net.num_layers * counts["network.step_batch"]
    assert counts["rng.uniform_block"] == 1


def test_ensemble_infer_is_one_kernel_step_per_sample(tracer_module):
    # M same-shape members advance in lockstep: T samples are T step_batch
    # calls, not M*T, and the stacked stream still passes through the
    # `network.infer_stream` span
    rng = Rng(3)
    members = [BaseLearner(init_network(3, 4, 2, num_layers=2, rng=rng), j, LossKind.CE, 0.5)
               for j in range(5)]
    xs = rng.normal_block(3 * 7).reshape(7, 3)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        ensembles.ensemble_infer(Ensemble(members), xs)  # the name the tracer patches
    finally:
        tracer.restore()
    assert tracer.counts["network.step_batch"] == 7
    assert tracer.counts["mathkit.sigmoid"] == 2 * 7
    names = [span[0] for span in tracer.spans]
    assert names.count("ensembles.ensemble_infer") == 1
    assert names.count("network.infer_stream") == 1


def test_window_validation_is_one_kernel_step_per_sample(tracer_module):
    # a window of G snapshots is scored in one stacked pass: T samples are T
    # step_batch calls, not G*T, inside one `bagging.validation_f1` span
    rng = Rng(4)
    nets = [init_network(3, 4, 2, num_layers=2, rng=rng) for _ in range(5)]
    val = LabeledSequence(rng.normal_block(3 * 7).reshape(3, 7), [0, 1, 1, 0, 1, 0, 0], 2)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        stacked = LstmNetwork(np.stack([net.flat for net in nets]), nets[0].shape)
        scores = bagging.validation_f1(stacked, val)  # the patched name
    finally:
        tracer.restore()
    assert len(scores) == 5
    assert tracer.counts["network.step_batch"] == 7
    names = [span[0] for span in tracer.spans]
    assert names.count("bagging.validation_f1") == 1
    assert tracer.count_under("network.infer_stream", "bagging.validation_f1") == 1
    assert tracer.count_under("evaluation.confusion", "bagging.validation_f1") == 5


def test_stream_workload_has_no_failed_check(perfbench_import, tmp_path):
    # the stream pipeline writes a dataset CSV and a learner manifest, fuses
    # an ensemble manifest, loads all three and streams through `step`; it
    # runs traced, as `perfbench/run.py --trace 1` runs it, and must record
    # every span and count that run requires, so a refactor that stops
    # calling through a patched name fails here
    tracer_module, workloads = perfbench_import("tracer"), perfbench_import("workloads")
    ledger = workloads.Ledger()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        meter = workloads.RefMeter(workloads.WORKLOAD_UNITS["stream"])
        meter.probe = tracer.exclude(meter.probe)
        workloads.run("stream", 1, 0.0, str(tmp_path), ledger, meter)
    finally:
        tracer.restore()
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.errors
    assert workloads.EXPECTED_SPANS["stream"] <= set(tracer.summary())
    assert workloads.EXPECTED_COUNTS <= set(tracer.counts)
