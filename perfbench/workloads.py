"""The benchmark's three workloads and the checks on their outputs.

Every workload drives only the package's public functions, in the order the
``lstmens train / fuse / infer / eval`` commands use them, and reaches them
through their modules (``bagging.run_bagging``) so the traced run can patch
them. Inputs come from the workload seed through ``synth_har`` and
``save_csv``; the program only sees the CSV it loads.

Each workload runs a fixed pipeline once; its results are fingerprinted.
It then repeats its inference pass until ``seconds`` have passed since the
pipeline started, so a faster program measures more passes in the same
window.

- desk: one criterion-5 trial. 2x32 LSTM, B in U(8,16), 20 epochs of CE
  training on 16k samples, top-10 of 20 snapshots fused and run over the
  2k-sample test split. Tiny matrices: per-timestep Python and ufunc
  overhead dominates, model files are small.
- full: the paper's full-scale configuration. 2x256 LSTM, B in U(128,256),
  30k training and 3.75k validation samples, soft-F1 loss, 2 epochs, both
  snapshots fused from the manifest and run over a 1k-sample test slice.
  GEMM-bound training; 16.7 MB text model files make save/load/fuse heavy.
- stream: sample-wise streaming through 10 of 12 random 2x32 members over
  three 1k-sample sessions. No training at all; B=1 inference dominates.

The training seed is part of each workload's fixed configuration, not drawn
from the workload seed: it sets the per-epoch batch sizes, and with it the
number of timesteps per epoch, so holding it fixed keeps timings comparable
across data seeds.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from lstmens import bagging, data, ensembles, evaluation, mathkit, network, training
from lstmens.rng import Rng
from lstmens.training import LossKind

CHANNELS, CLASSES, LAYERS = 6, 4, 2
SNR = 1.5
TRAIN_SEED = 5000
SETUP_REPEATS = 9
# Nominal seconds of the reference kernel's parse part on an idle core of the
# machine the benchmark was defined on; setup_s is set-up refs times this.
PARSE_REF_S = 0.4e-3
PARSE = ("parse",)
# the reference unit of each workload's run and inference times (see RefMeter):
# desk is small-matrix ufunc work, full is GEMM-bound, and stream's B=1 steps
# are bound by per-call interpreter overhead
WORKLOAD_UNITS = {"desk": ("ufunc",), "full": ("ufunc", "gemm"), "stream": PARSE}
FUSE_REPEATS = 5
clock = time.perf_counter


class Ledger:
    """Operations attempted and failed; every check and exception is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


class RefMeter:
    """The machine's current speed, as the time of a fixed reference kernel.

    On a shared 2-vCPU box the same code runs up to twice as slow from one
    fraction of a second to the next, so seconds measured in different runs
    are not comparable within the bounds the benchmark needs. The meter times
    a small fixed kernel every GAP seconds while the program runs, from hooks
    on its per-timestep and model-file calls, and gated timings are expressed
    in units of that kernel's mean time over the same interval ("ref").

    The kernel has three parts, timed apart: "ufunc", about 0.25 ms of
    LSTM-step-like small-matrix ufunc calls; "gemm", one 16x256x256 matrix
    product; and "parse", about 0.4 ms of splitting text and parsing floats.
    A unit is the sum of some parts, chosen to resemble the work it measures,
    because a loaded box slows different kinds of work by different amounts:
    each workload has its own unit (WORKLOAD_UNITS) for its run and
    inference times, and set-up and `fuse`, which parse text, use PARSE.
    The kernel is the benchmark's own code, so a change to the program moves
    the program's time and not the unit. Probe time is subtracted from every
    interval it falls in, so the plain-second figures are the program's alone.
    """

    GAP = 0.02
    NEAREST = 5  # probes averaged for an interval shorter than GAP

    def __init__(self, unit: tuple[str, ...]):
        g = np.random.default_rng(0)
        self._a, self._x = g.random((32, 128)) - 0.5, g.random((12, 32))
        self._A, self._B = g.random((16, 256)), g.random((256, 256))
        self._text = " ".join(repr(float(v)) for v in g.random(1000))
        self.unit = unit
        self.paused = False  # set while a sample's latency is being timed
        self.ends: list[float] = []
        self.durations: dict[str, list[float]] = {"ufunc": [], "gemm": [], "parse": []}

    def probe(self) -> None:
        t0 = clock()
        v = self._x
        for _ in range(8):
            a = v @ self._a
            e = np.exp(-np.abs(a))
            s = np.clip(np.where(a >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)), 1e-300, 1.0)
            v = np.tanh(s[:, :32] * s[:, 32:64] + s[:, 64:96])
        t1 = clock()
        self._A @ self._B
        t2 = clock()
        [float(v) for v in self._text.split()]
        t3 = clock()
        self.ends.append(t3)
        self.durations["ufunc"].append(t1 - t0)
        self.durations["gemm"].append(t2 - t1)
        self.durations["parse"].append(t3 - t2)

    def unit_times(self, unit: tuple[str, ...] | None = None) -> np.ndarray:
        """Each probe's time of a unit (default: the meter's own)."""
        return np.sum([self.durations[part] for part in unit or self.unit], axis=0)

    def tick(self) -> None:
        if (not self.paused
                and (not self.ends or clock() - self.ends[-1] >= self.GAP)):
            self.probe()

    def ref(self, t0: float, t1: float, unit: tuple[str, ...] | None = None) -> float:
        """Mean time of a unit over [t0, t1], or of the NEAREST probes."""
        if not self.ends:
            return float("nan")
        ends, durs = np.asarray(self.ends), self.unit_times(unit)
        distance = np.maximum(np.maximum(t0 - ends, ends - t1), 0.0)
        k = max(self.NEAREST, int(np.count_nonzero(distance == 0.0)))
        return float(durs[np.argsort(distance, kind="stable")[:k]].mean())

    def ref_at(self, points: np.ndarray) -> np.ndarray:
        """`ref(t, t)` for every t in points (ascending or not), vectorised."""
        ends, durs = np.asarray(self.ends), self.unit_times()
        k = min(self.NEAREST, ends.size)
        if k == 0:
            return np.full(points.shape, np.nan)
        # the k nearest probes to t are among the k on each side of it
        idx = np.searchsorted(ends, points)[:, None] + np.arange(-k, k)
        valid = (idx >= 0) & (idx < ends.size)
        idx = np.clip(idx, 0, ends.size - 1)
        distance = np.where(valid, np.abs(ends[idx] - points[:, None]), np.inf)
        nearest = np.take_along_axis(idx, np.argsort(distance, axis=1, kind="stable")[:, :k],
                                     axis=1)
        return durs[nearest].mean(axis=1)

    def span(self, t0: float, t1: float,
             unit: tuple[str, ...] | None = None) -> tuple[float, float]:
        """(seconds without probes, the same in refs) for the interval [t0, t1]."""
        if not self.ends:
            return t1 - t0, float("nan")
        ends = np.asarray(self.ends)
        probe_s = self.unit_times(tuple(self.durations))
        inside = (ends - probe_s >= t0) & (ends <= t1)
        seconds = t1 - t0 - float(probe_s[inside].sum())
        return seconds, seconds / self.ref(t0, t1, unit)

    def timed(self, fn, *args, unit: tuple[str, ...] | None = None):
        """Run fn bracketed by probes: (result, seconds, refs)."""
        self.probe()
        t0 = clock()
        out = fn(*args)
        t1 = clock()
        self.probe()
        return (out, *self.span(t0, t1, unit))

    def timed_short(self, fn, unit: tuple[str, ...], probes: int = 3):
        """Run fn, a fraction of a second long, between `probes` probes on each
        side: (result, seconds, refs), in units of the median of those probes.

        Over so few probes one that was preempted would pull a mean, so the
        median is used; ticks are paused so no probe falls inside fn.
        """
        for _ in range(probes):
            self.probe()
        self.paused = True
        t0 = clock()
        out = fn()
        seconds = clock() - t0
        self.paused = False
        for _ in range(probes):
            self.probe()
        return out, seconds, seconds / float(np.median(self.unit_times(unit)[-2 * probes:]))


@contextmanager
def ticking(meter: RefMeter):
    """Probe the machine from the program's frequent calls while inside.

    A hook point the program no longer has is skipped: probes thin out, but
    the timed run does not depend on the program's internal names.
    """
    targets = [(network, "step_batch"), (training, "step_batch"),
               (training, "backward_frame"), (bagging, "save_model"),
               (bagging, "load_model"), (ensembles, "load_model")]
    saved = [(mod, name, getattr(mod, name)) for mod, name in targets
             if hasattr(mod, name)]

    def hooked(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            meter.tick()
            return out
        return wrapper

    for mod, name, fn in saved:
        setattr(mod, name, hooked(fn))
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


@dataclass(frozen=True)
class TrainSpec:
    n_train: int
    n_val: int
    n_test: int
    hidden: int
    b_low: int
    b_high: int
    epochs: int
    loss: LossKind
    m: int


DESK = TrainSpec(16_000, 2_000, 2_000, 32, 8, 16, 20, LossKind.CE, 10)
FULL = TrainSpec(30_000, 3_750, 1_000, 256, 128, 256, 2, LossKind.F1, 2)

STREAM_HIDDEN = 32
STREAM_BUILT, STREAM_M = 12, 10
STREAM_VAL = 500
STREAM_SESSION, STREAM_SESSIONS = 1_000, 6
STREAM_PIPELINE_SESSIONS = 3  # sessions in the fixed, fingerprinted pipeline


# ---------------------------------------------------------------------------
# helpers


def params_bytes(net) -> bytes:
    return b"".join(name.encode() + arr.tobytes() for name, arr in net.param_items())


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def write_inputs(seed: int, length: int, path: str) -> None:
    seq = data.synth_har(CHANNELS, CLASSES, length, "imbalanced", snr=SNR, seed=seed)
    data.save_csv(seq, path)


def load_normalized(path: str, n_train: int | None):
    """load_csv plus a normalizer fitted on the first n_train samples (all if None)."""
    seq = data.load_csv(path, data.CsvSchema(num_classes=CLASSES))
    fit_on = seq if n_train is None else seq.slice(0, n_train)
    return data.apply_normalizer(data.fit_normalizer(fit_on), seq)


def timed_setups(meter: RefMeter, fn) -> tuple[dict, object]:
    """Run a set-up SETUP_REPEATS times, each timed by `timed_short`.

    Set-up is text parsing, so its unit is PARSE. Returns
    the median seconds and refs per set-up, the refs also in nominal seconds
    (refs x PARSE_REF_S, the gated setup_s), and the last set-up's result.
    """
    seconds, refs, out = [], [], None
    for _ in range(SETUP_REPEATS):
        out, s, r = meter.timed_short(fn, PARSE)
        seconds.append(s)
        refs.append(r)
    ref = float(np.median(refs))
    return {"setup_s": ref * PARSE_REF_S, "setup_ref": ref,
            "setup_raw_s": float(np.median(seconds))}, out


def fuse(manifest: str, reference: dict, m: int, out_path: str, ledger: Ledger) -> None:
    """`lstmens fuse`: a learner manifest on disk -> a written ensemble manifest.

    Then every reloaded snapshot is compared bit for bit with the saved one
    (reference maps epoch -> network).
    """
    loaded = bagging.load_learners(manifest)
    ensembles.save_ensemble(ensembles.select_top_m(loaded, m), out_path)
    for lr in loaded:
        ref = reference.get(lr.epoch)
        ledger.check(ref is not None and params_bytes(lr.net) == params_bytes(ref),
                     f"snapshot of epoch {lr.epoch} reloaded differently from saved")


def timed_fuses(meter: RefMeter, manifest: str, reference: dict, m: int, out_path: str,
                ledger: Ledger) -> tuple[float, float]:
    """FUSE_REPEATS checked fuses timed as one block: mean (seconds, refs) per fuse.

    The bit-for-bit checks are inside the block; they cost a few percent of
    the parsing they check and keep the block free of gaps.
    """
    _, seconds, refs = meter.timed(
        lambda: [fuse(manifest, reference, m, out_path, ledger) for _ in range(FUSE_REPEATS)],
        unit=PARSE)
    return seconds / FUSE_REPEATS, refs / FUSE_REPEATS


def check_loaded_ensemble(ens, reference: dict, ledger: Ledger) -> None:
    same = all(params_bytes(m.net) == params_bytes(reference[m.epoch]) for m in ens.members)
    ledger.check(same, "load_ensemble returned members that differ from the saved ones")


def inference_pass(meter: RefMeter, ens, seq, ledger: Ledger) -> dict:
    """Stream seq sample by sample through every member, then run offline.

    Each member advances with `step` on its own carried state, the member
    probabilities are fused with the same anchored mean `ensemble_infer`
    uses, and the fused label is taken. Then `ensemble_infer` runs over the
    whole stream and must agree bit for bit.
    """
    nets = [m.net for m in ens.members]
    xs = seq.X.T
    n, k = xs.shape[0], seq.num_classes
    states = [net.zero_state() for net in nets]
    member_probs = np.empty((len(nets), n, k))
    streamed = np.empty((n, k))
    streamed_labels = np.empty(n, dtype=np.int64)
    latency = np.empty(n)
    done_at = np.empty(n)
    meter.probe()
    for t in range(n):
        meter.paused = True
        t0 = clock()
        x = xs[t]
        for j, net in enumerate(nets):
            logits, states[j], _ = network.step(net, x, states[j])
            member_probs[j, t] = network.classify(logits)
        streamed[t] = mathkit.anchored_mean(member_probs[:, t], axis=0)
        streamed_labels[t] = streamed[t].argmax()
        done_at[t] = clock()
        latency[t] = done_at[t] - t0
        meter.paused = False
        meter.tick()

    (fused, labels), infer_s, infer_refs = meter.timed(ensembles.ensemble_infer, ens, xs)

    ledger.check(
        bool(np.all(np.isfinite(fused)))
        and bool(np.all(np.abs(fused.sum(axis=1) - 1.0) <= 1e-12))
        and np.array_equal(labels, fused.argmax(axis=1)),
        "fused probabilities not finite, not normalised, or labels != argmax",
    )
    ledger.check(streamed.tobytes() == fused.tobytes()
                 and np.array_equal(streamed_labels, labels),
                 "per-sample streamed output differs from ensemble_infer")
    gap = ensembles.ce_gap(member_probs[:, np.arange(n), seq.z])
    ledger.check(gap.delta >= -1e-12, f"ce_gap delta {gap.delta!r} < -1e-12")

    fused_f1 = evaluation.mean_f1(evaluation.confusion(labels, seq.z, k))
    # members are ordered best validation F1 first
    best_f1 = evaluation.mean_f1(
        evaluation.confusion(member_probs[0].argmax(axis=1), seq.z, k))
    return {
        "fused": fused,
        "latency": latency,
        "done_at": done_at,
        "samples": n,
        "infer_s": infer_s,
        "infer_refs": infer_refs,
        "fused_f1": fused_f1,
        "best_single_f1": best_f1,
        "ce_gap": gap._asdict(),
    }


def _common_metrics(meter: RefMeter, passes: list[dict], fuse_s: float,
                    fuse_ref: float) -> dict:
    latency = np.concatenate([p["latency"] for p in passes])
    # after the run, so this bookkeeping falls in no timed interval
    latency_refs = latency / meter.ref_at(np.concatenate([p["done_at"] for p in passes]))
    latency = latency * 1e6
    first = passes[0]
    return {
        "fuse_s": fuse_s,
        "fuse_ref": fuse_ref,
        "infer_samples_per_s": float(np.median([p["samples"] / p["infer_s"] for p in passes])),
        "infer_samples_per_ref": float(np.median([p["samples"] / p["infer_refs"]
                                                  for p in passes])),
        "sample_latency_us_p50": float(np.percentile(latency, 50)),
        "sample_latency_us_p99": float(np.percentile(latency, 99)),
        "sample_latency_ref_p50": float(np.percentile(latency_refs, 50)),
        "sample_latency_ref_p99": float(np.percentile(latency_refs, 99)),
        "latency_samples": int(latency.size),
        "inference_passes": len(passes),
        "ref_ms_p50": float(np.median(meter.unit_times()) * 1e3),
        "parse_ref_ms_p50": float(np.median(meter.unit_times(PARSE)) * 1e3),
        "ref_probes": len(meter.ends),
        "fused_f1": first["fused_f1"],
        "fused_gain_f1": first["fused_f1"] - first["best_single_f1"],
        "ce_gap": first["ce_gap"],
    }


# ---------------------------------------------------------------------------
# workloads


def run_training(spec: TrainSpec, seed: int, seconds: float, workdir: str,
                 ledger: Ledger, meter: RefMeter) -> dict:
    """desk and full: train -> save -> fuse -> load -> infer -> eval."""
    csv_path = os.path.join(workdir, "data.csv")
    ens_path = os.path.join(workdir, "ensemble.csv")
    n_total = spec.n_train + spec.n_val + spec.n_test
    write_inputs(seed, n_total, csv_path)

    setup, seq = timed_setups(meter, lambda: load_normalized(csv_path, spec.n_train))
    a, b = spec.n_train, spec.n_train + spec.n_val
    train, val, test = seq.slice(0, a), seq.slice(a, b), seq.slice(b, n_total)

    cfg = bagging.BaggingConfig(b_low=spec.b_low, b_high=spec.b_high,
                                max_epoch=spec.epochs, loss=spec.loss,
                                dropout_p=0.5, seed=TRAIN_SEED)
    consumed = []  # samples each epoch's schedule feeds to training (B x frames)
    marks: list[float] = []  # run start, then the end of every epoch
    make_schedule = bagging.make_schedule

    def observed_schedule(*args, **kwargs):
        schedule = make_schedule(*args, **kwargs)
        consumed.append(schedule.batch_size * schedule.consumed)
        return schedule

    def pipeline():
        marks.append(clock())
        bagging.make_schedule = observed_schedule
        try:
            learners = bagging.run_bagging(train, val, cfg, hidden_dim=spec.hidden,
                                           num_layers=LAYERS,
                                           on_epoch=lambda *_: marks.append(clock()))
        finally:
            bagging.make_schedule = make_schedule
        reference = {lr.epoch: lr.net for lr in learners}
        manifest = bagging.save_learners(learners, os.path.join(workdir, "run"))
        fuse(manifest, reference, spec.m, ens_path, ledger)
        ens = ensembles.load_ensemble(ens_path)
        check_loaded_ensemble(ens, reference, ledger)
        first = inference_pass(meter, ens, test, ledger)
        return learners, reference, manifest, ens, first

    with ticking(meter):
        (learners, reference, manifest, ens, first), run_s, run_refs = meter.timed(pipeline)
        ledger.check(len(learners) == spec.epochs, "run_bagging returned a wrong snapshot count")
        fuse_s, fuse_ref = timed_fuses(meter, manifest, reference, spec.m, ens_path, ledger)
        passes = [first]
        while clock() - marks[0] < seconds:
            passes.append(inference_pass(meter, ens, test, ledger))
            ledger.check(passes[-1]["fused"].tobytes() == first["fused"].tobytes(),
                         "repeated inference pass changed the fused output")
    epoch_s, epoch_refs = np.array([meter.span(t0, t1)
                                    for t0, t1 in zip(marks, marks[1:])]).T

    return {
        "metrics": {
            **setup,
            "run_s": run_s,
            "run_ref": run_refs,
            "epoch_s_p50": float(np.median(epoch_s)),
            "epoch_ref_p50": float(np.median(epoch_refs)),
            "epochs": len(epoch_s),
            "train_samples_per_s": float(sum(consumed) / epoch_s.sum()),
            "train_samples_per_ref": float(sum(consumed) / epoch_refs.sum()),
            **_common_metrics(meter, passes, fuse_s, fuse_ref),
        },
        "fingerprint": {
            "params": sha256(params_bytes(learners[-1].net)),
            "probs": sha256(first["fused"].tobytes()),
        },
        "fuse_kept": spec.m * (FUSE_REPEATS + 1),
    }


def run_stream(seed: int, seconds: float, workdir: str, ledger: Ledger,
               meter: RefMeter) -> dict:
    """stream: fuse random members, load them, stream sessions sample by sample."""
    csv_path = os.path.join(workdir, "stream.csv")
    ens_path = os.path.join(workdir, "ensemble.csv")
    n_total = STREAM_VAL + STREAM_SESSION * STREAM_SESSIONS
    write_inputs(seed, n_total, csv_path)

    # build and save the members, scored on a validation slice (not timed)
    seq = load_normalized(csv_path, None)
    val = seq.slice(0, STREAM_VAL)
    rng = Rng(seed)
    learners = []
    for i in range(STREAM_BUILT):
        net = network.init_network(CHANNELS, STREAM_HIDDEN, CLASSES, LAYERS, rng)
        probe = ensembles.Ensemble([bagging.BaseLearner(net, i + 1, LossKind.CE, 0.0)])
        _, labels = ensembles.ensemble_infer(probe, val.X.T)
        f1 = evaluation.mean_f1(evaluation.confusion(labels, val.z, CLASSES))
        learners.append(bagging.BaseLearner(net, i + 1, LossKind.CE, f1))
    reference = {lr.epoch: lr.net for lr in learners}
    manifest = bagging.save_learners(learners, os.path.join(workdir, "run"))

    def session(i):
        lo = STREAM_VAL + (i % STREAM_SESSIONS) * STREAM_SESSION
        return seq.slice(lo, lo + STREAM_SESSION)

    with ticking(meter):
        fuse_s, fuse_ref = timed_fuses(meter, manifest, reference, STREAM_M, ens_path, ledger)
        setup, (seq, ens) = timed_setups(
            meter, lambda: (load_normalized(csv_path, None), ensembles.load_ensemble(ens_path)))
        check_loaded_ensemble(ens, reference, ledger)
        t_start = clock()
        passes, run_s, run_refs = meter.timed(
            lambda: [inference_pass(meter, ens, session(i), ledger)
                     for i in range(STREAM_PIPELINE_SESSIONS)])
        while clock() - t_start < seconds:
            passes.append(inference_pass(meter, ens, session(len(passes)), ledger))

    return {
        "metrics": {
            **setup,
            "run_s": run_s,
            "run_ref": run_refs,
            **_common_metrics(meter, passes, fuse_s, fuse_ref),
        },
        "fingerprint": {
            "params": sha256(*(params_bytes(m.net) for m in ens.members)),
            "probs": sha256(*(p["fused"].tobytes()
                              for p in passes[:STREAM_PIPELINE_SESSIONS])),
        },
        "fuse_kept": STREAM_M * FUSE_REPEATS,
    }


def run(name: str, seed: int, seconds: float, workdir: str, ledger: Ledger,
        meter: RefMeter) -> dict:
    if name == "desk":
        return run_training(DESK, seed, seconds, workdir, ledger, meter)
    if name == "full":
        return run_training(FULL, seed, seconds, workdir, ledger, meter)
    return run_stream(seed, seconds, workdir, ledger, meter)


# spans and counts each workload must record at least once in the traced run
_COMMON_SPANS = {
    "data.load_csv", "bagging.save_learners", "bagging.load_learners",
    "modelio.save_model", "modelio.load_model", "ensembles.select_top_m",
    "ensembles.save_ensemble", "ensembles.load_ensemble", "ensembles.ensemble_infer",
    "network.infer_stream", "network.step", "evaluation.confusion", "bench.fuse",
}
_TRAINING_SPANS = {
    "bagging.run_bagging", "bagging.make_schedule", "bagging.train_epoch",
    "training.bptt_frame", "training.draw_dropout_masks", "training.forward_frame",
    "training.backward_frame", "training.adam_update", "bagging.validation_f1",
}
EXPECTED_SPANS = {
    "desk": _COMMON_SPANS | _TRAINING_SPANS,
    "full": _COMMON_SPANS | _TRAINING_SPANS,
    "stream": _COMMON_SPANS,
}
EXPECTED_COUNTS = {"network.step_batch", "mathkit.sigmoid", "rng.uniform_block"}
