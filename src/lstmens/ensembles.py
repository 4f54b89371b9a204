"""Model selection, score-level fusion, and the fusion loss-gap verifier.

An ensemble is an ordered set of per-epoch snapshots. Selection keeps the M
snapshots with the best validation F1; fusion averages the members'
per-sample class probability vectors with uniform weights. Inference runs
the members in lockstep: the flats of the members of one shape are stacked
into one (M, P) network and advance together, one kernel call per sample.
Averaging is done in anchored form (see mathkit.anchored_mean) so fusing M
identical members reproduces the member's probabilities bit for bit.

ce_gap quantifies why fusion helps: for any per-sample target probabilities,
the members' average cross entropy minus the fused model's cross entropy is
the expected log of an arithmetic-to-geometric mean ratio, which the AM-GM
inequality keeps nonnegative. The gap is zero exactly when all members agree
on every sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bagging import MANIFEST_FIELDS, load_learners, manifest_rows
from .data import write_csv
from .mathkit import anchored_mean
from .modelio import BaseLearner, load_model  # noqa: F401 -- perfbench/tracer.py patches load_model
from .network import LstmNetwork, infer_stream


@dataclass
class Ensemble:
    members: list[BaseLearner]
    provenance: str = ""

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("an ensemble needs at least one member")
        dims = {(m.net.input_dim, m.net.num_classes) for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"members disagree on (D, K): {sorted(dims)}")
        # one model file is one member; in-memory members (no file) are exempt
        files = [os.path.abspath(m.source_path) for m in self.members if m.source_path]
        for j, path in enumerate(files):
            if path in files[:j]:
                raise ValueError(f"{path}: model file listed twice in the ensemble")

    @property
    def size(self) -> int:
        return len(self.members)


def select_top_m(learners: list[BaseLearner], m: int) -> Ensemble:
    """Keep the m snapshots with the highest validation F1.

    Ties resolve to the earlier epoch, so selection is deterministic.
    """
    if not 1 <= m <= len(learners):
        raise ValueError(f"m={m} outside [1, {len(learners)}]")
    ranked = sorted(learners, key=lambda lr: (-lr.val_f1, lr.epoch))
    return Ensemble(ranked[:m], provenance=f"top-{m} by validation F1")


def mixed_ensemble(runs: list[list[BaseLearner]], m_each: int) -> Ensemble:
    """The top m_each snapshots of each run, in run order, fused with equal
    weight. One run gives select_top_m(run, m_each)."""
    if len(runs) == 1:
        return select_top_m(runs[0], m_each)
    members = [learner for run in runs for learner in select_top_m(run, m_each).members]
    return Ensemble(members, provenance=f"top-{m_each} from each of {len(runs)} runs")


def ensemble_infer(ensemble: Ensemble, xs) -> tuple[np.ndarray, np.ndarray]:
    """Sample-wise ensemble prediction over a stream.

    The members run in lockstep with carried state: members of one shape
    (a mixed ensemble may hold several) are stacked and streamed by one
    `infer_stream` call, which advances all of them per sample in one
    kernel step, each bit-identical to the member run alone. At full scale
    (e.g. two or more 2x256 members) the stack is split by member: the
    helper thread streams the second half while the calling thread streams
    the first (`network.forward_frame`), with the same bytes. The per-sample
    probability vectors are fused by arithmetic mean (fixed member order)
    and labelled by argmax with lowest-index tie-breaking.
    Returns (fused probabilities (T, K), labels (T,)).
    """
    nets = [m.net for m in ensemble.members]
    groups: dict[tuple, list[int]] = {}
    for j, net in enumerate(nets):
        groups.setdefault(net.shape, []).append(j)
    parts = [(idx, infer_stream(LstmNetwork(np.stack([nets[j].flat for j in idx]), shape), xs))
             for shape, idx in groups.items()]
    member_probs = np.empty((len(nets), *parts[0][1].shape[1:]))
    for idx, probs in parts:
        member_probs[idx] = probs
    fused = anchored_mean(member_probs, axis=0)
    labels = fused.argmax(axis=1).astype(np.int64)
    return fused, labels


class CeGap(NamedTuple):
    l_avg: float
    l_fusion: float
    delta: float


def ce_gap(target_probs) -> CeGap:
    """Average-member vs fused cross entropy on per-sample target probabilities.

    target_probs: (M, N) array, entry [m, t] being member m's probability for
    the true class of sample t; all entries must be in (0, 1]. Returns
    (l_avg, l_fusion, delta) with delta = l_avg - l_fusion >= 0 by the AM-GM
    inequality, and delta == 0.0 exactly for identical members.
    """
    p = np.asarray(target_probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise ValueError(f"expected an (M, N) array, got shape {np.shape(target_probs)}")
    if not np.all(np.isfinite(p)) or p.min() <= 0.0 or p.max() > 1.0:
        raise ValueError("target probabilities must lie in (0, 1]")
    avg_log = anchored_mean(np.log(p), axis=0)  # (N,)
    log_avg = np.log(anchored_mean(p, axis=0))  # (N,)
    l_avg = float(-avg_log.mean())
    l_fusion = float(-log_avg.mean())
    return CeGap(l_avg, l_fusion, l_avg - l_fusion)


# ---------------------------------------------------------------------------
# manifest persistence


def save_ensemble(ensemble: Ensemble, manifest_path) -> None:
    """Write an ensemble manifest referencing the members' model files.

    The layout is the learner manifest's (bagging.MANIFEST_FIELDS) after a
    `# provenance=...` comment line for people to read; load_ensemble skips
    it like any '#' line. Every member must know its on-disk
    model file (source_path); paths are stored relative to the manifest so
    the directory can move as a unit.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = []
    for m in ensemble.members:
        if not m.source_path:
            raise ValueError(f"member epoch {m.epoch} has no model file to reference")
        paths.append(os.path.relpath(os.path.abspath(m.source_path), base))
    write_csv(manifest_path, MANIFEST_FIELDS, manifest_rows(ensemble.members, paths),
              comment=f"provenance={ensemble.provenance}")


def load_ensemble(manifest_path) -> Ensemble:
    """The ensemble whose members an ensemble manifest lists (bagging.load_learners)."""
    learners = load_learners(manifest_path)
    try:
        return Ensemble(learners)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
