import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lstmens import (
    BaseLearner,
    LossKind,
    ce_gap,
    ensemble_infer,
    infer_stream,
    init_network,
    load_ensemble,
    mixed_ensemble,
    save_ensemble,
    select_top_m,
)
from lstmens.bagging import save_learners, load_learners
from lstmens.ensembles import Ensemble
from lstmens.mathkit import anchored_mean
from lstmens.network import classify, step
from lstmens.rng import Rng


def make_learners(spec):
    """spec: list of (epoch, val_f1[, loss]) tuples -> BaseLearners."""
    out = []
    for item in spec:
        epoch, val_f1 = item[0], item[1]
        loss = item[2] if len(item) > 2 else LossKind.CE
        net = init_network(3, 4, 2, num_layers=1, rng=Rng(epoch))
        out.append(BaseLearner(net, epoch, loss, val_f1))
    return out


# ---------------------------------------------------------------------------
# selection


def test_select_all():
    learners = make_learners([(1, 0.5), (2, 0.7), (3, 0.6)])
    ens = select_top_m(learners, 3)
    assert [m.epoch for m in ens.members] == [2, 3, 1]


def test_select_single_best():
    learners = make_learners([(1, 0.5), (2, 0.9), (3, 0.6)])
    assert select_top_m(learners, 1).members[0].epoch == 2


def test_select_tie_prefers_lower_epoch():
    learners = make_learners([(3, 0.8), (1, 0.8), (2, 0.8)])
    assert [m.epoch for m in select_top_m(learners, 2).members] == [1, 2]


def test_select_m_out_of_range():
    learners = make_learners([(1, 0.5)])
    with pytest.raises(ValueError):
        select_top_m(learners, 0)
    with pytest.raises(ValueError):
        select_top_m(learners, 2)


def test_mixed_ensemble_sizes():
    ce = make_learners([(e, 0.5 + 0.01 * e) for e in range(1, 6)])
    f1 = make_learners([(e, 0.4 + 0.01 * e, LossKind.F1) for e in range(1, 6)])
    ens = mixed_ensemble([ce, f1], 2)
    assert ens.size == 4
    assert [m.loss for m in ens.members] == [LossKind.CE] * 2 + [LossKind.F1] * 2
    assert ens.provenance == "top-2 from each of 2 runs"
    with pytest.raises(ValueError):
        mixed_ensemble([ce, f1], 0)
    with pytest.raises(ValueError):
        mixed_ensemble([ce, f1], 6)
    one, top = mixed_ensemble([ce], 2), select_top_m(ce, 2)
    assert (one.members, one.provenance) == (top.members, top.provenance)


# ---------------------------------------------------------------------------
# fusion


def test_fuse_identical_vectors_is_identity():
    v = np.array([0.2, 0.5, 0.3])
    net = init_network(2, 3, 3, num_layers=1, rng=Rng(0))
    net.flat[...] = 0.0
    net.output.b[...] = np.log(v)  # every sample scores softmax(log v)
    xs = Rng(1).normal_block(2 * 4).reshape(4, 2)
    member = infer_stream(net, xs)
    assert np.allclose(member, v, atol=1e-15)
    fused, _ = ensemble_infer(Ensemble([BaseLearner(net, 1, LossKind.CE, 0.5)] * 3), xs)
    assert np.array_equal(fused, member)


def test_ensemble_rejects_members_with_different_classes():
    a = init_network(3, 4, 2, num_layers=1, rng=Rng(1))
    b = init_network(3, 4, 3, num_layers=1, rng=Rng(2))
    with pytest.raises(ValueError, match="disagree on"):
        Ensemble([BaseLearner(a, 1, LossKind.CE, 0.5), BaseLearner(b, 2, LossKind.CE, 0.5)])


@given(st.lists(st.sampled_from([3, 4]), min_size=1, max_size=6),
       st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_ensemble_infer_simplex_and_permutation_invariance(hiddens, k, seed):
    rng = Rng(seed)
    members = [BaseLearner(init_network(2, h, k, num_layers=1, rng=rng), j, LossKind.CE, 0.5)
               for j, h in enumerate(hiddens)]
    xs = rng.normal_block(2 * 8).reshape(8, 2) * 3.0
    fused, labels = ensemble_infer(Ensemble(members), xs)
    assert np.all(np.abs(fused.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(fused > 0.0)
    assert np.array_equal(labels, fused.argmax(axis=1))
    reversed_fused, _ = ensemble_infer(Ensemble(members[::-1]), xs)
    assert np.allclose(reversed_fused, fused, atol=1e-15)


def test_ensemble_labels_tie_to_lowest_index():
    net = init_network(2, 3, 4, num_layers=1, rng=Rng(0))
    net.flat[...] = 0.0
    net.output.b[...] = [0.0, 1.0, 1.0, 0.5]  # classes 1 and 2 tie exactly
    xs = Rng(1).normal_block(2 * 5).reshape(5, 2)
    fused, labels = ensemble_infer(Ensemble([BaseLearner(net, 1, LossKind.CE, 0.5)] * 2), xs)
    assert np.all(fused[:, 1] == fused[:, 2])
    assert labels.tolist() == [1] * 5


# ---------------------------------------------------------------------------
# ensemble inference


def test_ensemble_m1_equals_member_bitwise():
    learners = make_learners([(1, 0.5)])
    rng = Rng(3)
    xs = rng.normal_block(3 * 20).reshape(20, 3)
    ens = select_top_m(learners, 1)
    fused, labels = ensemble_infer(ens, xs)
    member = infer_stream(learners[0].net, xs)
    assert np.array_equal(fused, member)
    assert np.array_equal(labels, member.argmax(axis=1))


def test_ensemble_identical_members_equal_single():
    base = make_learners([(1, 0.5)])[0]
    triple = [base, base, base]

    rng = Rng(4)
    xs = rng.normal_block(3 * 15).reshape(15, 3)
    fused_triple, _ = ensemble_infer(Ensemble(triple), xs)
    fused_single, _ = ensemble_infer(Ensemble([base]), xs)
    assert np.array_equal(fused_triple, fused_single)


def test_ensemble_infer_equals_per_member_step_streaming_bitwise():
    # the benchmark's streamed == offline check: each member advanced by
    # `step` on its own carried state, fused sample by sample; K=9 sums each
    # softmax row pairwise
    for k in (4, 9):
        rng = Rng(6)
        nets = [init_network(3, 5, k, num_layers=2, rng=rng) for _ in range(3)]
        xs = rng.normal_block(3 * 40).reshape(40, 3)
        fused, labels = ensemble_infer(
            Ensemble([BaseLearner(net, j, LossKind.CE, 0.5) for j, net in enumerate(nets)]), xs)
        states = [net.zero_state() for net in nets]
        for t in range(40):
            member = np.empty((3, k))
            for j, net in enumerate(nets):
                logits, states[j], _ = step(net, xs[t], states[j])
                member[j] = classify(logits)
            streamed = anchored_mean(member, axis=0)
            assert streamed.tobytes() == fused[t].tobytes()
            assert labels[t] == streamed.argmax()


def test_heterogeneous_ensemble_fuses_in_member_order_bitwise():
    # shapes interleave, so the stacked groups run in another order than the
    # members and must be put back before the mean; the weights are scaled
    # up so the members disagree widely and the mean's rounding depends on
    # the order of its terms
    rng = Rng(7)
    nets = [init_network(4, 8, 3, num_layers=2, rng=rng) if j % 2 == 0
            else init_network(4, 5, 3, num_layers=1, rng=rng) for j in range(5)]
    for net in nets:
        net.flat *= 4.0
    xs = rng.normal_block(4 * 50).reshape(50, 4)
    fused, _ = ensemble_infer(
        Ensemble([BaseLearner(net, j, LossKind.CE, 0.5) for j, net in enumerate(nets)]), xs)
    expected = anchored_mean(np.stack([infer_stream(net, xs) for net in nets]), axis=0)
    assert fused.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# loss gap


def test_ce_gap_identical_members_zero_exactly():
    rng = Rng(5)
    p = rng.uniform_block(50).reshape(1, 50) * 0.9 + 0.05
    stacked = np.vstack([p, p, p])
    gap = ce_gap(stacked)
    assert gap.delta == 0.0
    assert gap.l_avg == gap.l_fusion


def test_ce_gap_hand_case():
    gap = ce_gap(np.array([[0.9], [0.1]]))
    l_avg = -(math.log(0.9) + math.log(0.1)) / 2.0
    l_fusion = -math.log(0.5)
    assert abs(gap.l_avg - l_avg) < 1e-15
    assert abs(gap.l_fusion - l_fusion) < 1e-15
    assert abs(gap.delta - (l_avg - l_fusion)) < 1e-15
    assert gap.delta > 0.5


def test_ce_gap_rejects_out_of_range():
    with pytest.raises(ValueError):
        ce_gap(np.array([[0.0, 0.5]]))
    with pytest.raises(ValueError):
        ce_gap(np.array([[1.5, 0.5]]))


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_ce_gap_nonnegative(m, n, seed):
    rng = Rng(seed)
    p = rng.uniform_block(m * n).reshape(m, n)
    p = np.clip(p, 1e-12, 1.0)
    assert ce_gap(p).delta >= -1e-12


# ---------------------------------------------------------------------------
# manifests


def _saved_manifests(tmp_path):
    """Four saved snapshots: their learners and the paths of their learner
    manifest and of a top-2 ensemble manifest over them."""
    learners = make_learners([(epoch, 0.5 + 0.05 * epoch) for epoch in range(1, 5)])
    manifest = save_learners(learners, tmp_path / "run")
    ens_path = tmp_path / "ens.csv"
    save_ensemble(select_top_m(load_learners(manifest), 2), ens_path)
    return learners, {"learner": manifest, "ensemble": str(ens_path)}


def _edit_manifest(path, edit):
    """Rewrite a manifest's header and rows: edit(header, rows) gets lists of
    cells and returns the new (header, rows); comment lines stay on top."""
    lines = open(path, encoding="utf-8").read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    header, rows = edit(header, rows)
    body = [",".join(cells) for cells in ([header] if header else []) + rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in comments + body))
    return len(comments)  # the header's line number, less one


def _set_cell(name, value):
    """An edit that sets column `name` of the first row to `value`."""
    def edit(header, rows):
        rows[0][header.index(name)] = value
        return header, rows
    return edit


def _drop_column(name):
    def edit(header, rows):
        j = header.index(name)
        return header[:j] + header[j + 1:], [r[:j] + r[j + 1:] for r in rows]
    return edit


def test_ensemble_manifest_round_trip(tmp_path):
    _, paths = _saved_manifests(tmp_path)
    ens = select_top_m(load_learners(paths["learner"]), 2)
    back = load_ensemble(paths["ensemble"])
    assert back.size == 2
    # the provenance line is written for people to read and skipped on load
    assert open(paths["ensemble"]).readline() == f"# provenance={ens.provenance}\n"
    assert [m.epoch for m in back.members] == [m.epoch for m in ens.members]
    for ma, mb in zip(ens.members, back.members):
        for (_, ta), (_, tb) in zip(ma.net.param_items(), mb.net.param_items()):
            assert np.array_equal(ta, tb)


# (edit, line of the error counted from the header line, message)
BAD_MANIFESTS = {
    "missing column": (_drop_column("val_f1"), 0, r"missing column 'val_f1'"),
    "short row": (lambda h, rows: (h, [rows[0][:-1]] + rows[1:]), 1, r"3 cells, line \d+ has 4"),
    "non-integer epoch": (_set_cell("epoch", "2.5"), 1, r"epoch '2\.5' is not an integer"),
    "unknown loss": (_set_cell("loss", "MSE"), 1, r"unknown loss 'MSE', expected one of CE, F1"),
    "NaN val_f1": (_set_cell("val_f1", "nan"), 1, r"val_f1 'nan' is not a finite number"),
    "infinite val_f1": (_set_cell("val_f1", "-inf"), 1, r"val_f1 '-inf' is not a finite number"),
    "no rows": (lambda h, rows: (h, []), 0, r"no rows after the header"),
    "empty": (lambda h, rows: ([], []), 0, r"no rows$"),
}


@pytest.mark.parametrize("kind", ["learner", "ensemble"])
@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_manifest_reader_rejects_bad_row_naming_path_and_line(tmp_path, kind, case):
    # one reader serves both manifests; a NaN val_f1 used to load and then
    # rank by row order in select_top_m
    edit, offset, message = BAD_MANIFESTS[case]
    _, paths = _saved_manifests(tmp_path)
    path = paths[kind]
    lineno = _edit_manifest(path, edit) + 1 + offset
    with pytest.raises(ValueError, match=rf"{re.escape(path)} line {lineno}: {message}"):
        (load_learners if kind == "learner" else load_ensemble)(path)


@pytest.mark.parametrize("kind", ["learner", "ensemble"])
@pytest.mark.parametrize("column,value", [("epoch", "7"), ("loss", "F1"), ("val_f1", "0.25")])
def test_manifest_row_must_match_model_file_header(tmp_path, kind, column, value):
    _, paths = _saved_manifests(tmp_path)
    saved = {}

    def edit(header, rows):
        saved.update(zip(header, rows[0]))
        return _set_cell(column, value)(header, rows)

    _edit_manifest(paths[kind], edit)

    def fields(row):
        return ", ".join(f"{name}={row[name]}" for name in ("epoch", "loss", "val_f1"))

    message = f"row has {fields({**saved, column: value})} but model file {saved['path']} " \
              f"has {fields(saved)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        (load_learners if kind == "learner" else load_ensemble)(paths[kind])


def test_ensemble_manifest_in_old_column_order_loads_bitwise(tmp_path):
    # ensemble manifests written before the layout merge put path first
    learners, paths = _saved_manifests(tmp_path)
    order = ["path", "epoch", "loss", "val_f1"]
    _edit_manifest(paths["ensemble"], lambda h, rows: (
        order, [[r[h.index(name)] for name in order] for r in rows]))
    assert open(paths["ensemble"]).read().splitlines()[1] == "path,epoch,loss,val_f1"
    back = load_ensemble(paths["ensemble"])
    saved = {lr.epoch: lr.net for lr in learners}
    assert [m.epoch for m in back.members] == [4, 3]
    for m in back.members:
        assert m.net.flat.tobytes() == saved[m.epoch].flat.tobytes()
        assert (m.loss, m.val_f1) == (LossKind.CE, 0.5 + 0.05 * m.epoch)


def test_ensemble_manifest_listing_a_model_file_twice_is_rejected(tmp_path):
    # the copied last row would fuse one snapshot at double weight
    _, paths = _saved_manifests(tmp_path)
    _edit_manifest(paths["ensemble"], lambda h, rows: (h, rows + rows[-1:]))
    model = tmp_path / "run" / "learner_e3_CE.lstm"
    with pytest.raises(ValueError,
                       match=re.escape(f"{paths['ensemble']}: {model}: "
                                       "model file listed twice in the ensemble")):
        load_ensemble(paths["ensemble"])
