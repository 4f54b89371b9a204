import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lstmens import (
    AdamState,
    BaggingConfig,
    LossKind,
    epoch_coverage,
    make_schedule,
    run_bagging,
    synth_har,
    train_epoch,
    validation_f1,
)
from lstmens import bagging
from lstmens.bagging import FrameSchedule, load_learners, save_learners
from lstmens.network import LstmNetwork, init_network
from lstmens.rng import Rng


SMALL_CFG = dict(b_low=4, b_high=8, l_low=8, l_high=16, dropout_p=0.0)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_deterministic():
    cfg = BaggingConfig(**SMALL_CFG)
    a = make_schedule(10_000, cfg, Rng(7))
    b = make_schedule(10_000, cfg, Rng(7))
    assert a.batch_size == b.batch_size
    assert np.array_equal(a.starts, b.starts)
    assert a.frame_lengths == b.frame_lengths


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_schedule_invariants(seed):
    cfg = BaggingConfig()  # full-size ranges
    t = 100_000
    s = make_schedule(t, cfg, Rng(seed))
    assert cfg.b_low <= s.batch_size <= cfg.b_high
    bound = (t * (s.batch_size - 1)) // s.batch_size
    assert np.all(s.starts >= 0) and np.all(s.starts <= bound - 1)
    assert all(cfg.l_low <= l <= cfg.l_high for l in s.frame_lengths)
    assert s.budget == t // s.batch_size
    # the while loop runs while the running total is <= budget, so the total
    # exceeds it by at most one frame
    assert s.budget < s.consumed <= s.budget + cfg.l_high
    # max raw index stays under 2T, i.e. one wrap suffices
    assert s.starts.max() + s.consumed < 2 * t


def test_schedule_rejects_short_stream():
    with pytest.raises(ValueError, match="too short"):
        make_schedule(200, BaggingConfig(), Rng(0))


def test_schedule_degenerate_single_stream():
    t = 500
    cfg = BaggingConfig(b_low=1, b_high=1, l_low=t, l_high=t, max_epoch=1)
    s = make_schedule(t, cfg, Rng(1))
    # start bound degenerates to 0 and floors at the first position; the
    # single stream covers the whole sequence
    assert s.batch_size == 1
    assert s.starts.tolist() == [0]
    assert s.consumed >= t
    assert epoch_coverage(s, t) == 0.0


# ---------------------------------------------------------------------------
# coverage


def test_coverage_full_stream_zero_unused():
    s = FrameSchedule(1, np.array([0]), [100], 100)
    assert epoch_coverage(s, 100) == 0.0


def test_coverage_half_stream():
    s = FrameSchedule(1, np.array([10]), [50], 50)
    assert epoch_coverage(s, 100) == 0.5


def test_coverage_wraps_modulo():
    s = FrameSchedule(1, np.array([90]), [20], 20)
    assert epoch_coverage(s, 100) == pytest.approx(0.8)


def test_coverage_in_unit_interval_and_near_one_over_e():
    # mean unused fraction over many epochs sits near 1 - 1/e
    cfg = BaggingConfig()
    rng = Rng(0)
    t = 100_000
    unused = [epoch_coverage(make_schedule(t, cfg, rng), t) for _ in range(30)]
    assert all(0.0 <= u < 1.0 for u in unused)
    assert 0.30 < float(np.mean(unused)) < 0.45


# ---------------------------------------------------------------------------
# training epochs


def _toy_data(t=1200, seed=0):
    return synth_har(3, 2, t, "balanced", snr=6.0, seed=seed)


def test_train_epoch_deterministic_and_counts_updates():
    data = _toy_data()
    cfg = BaggingConfig(**SMALL_CFG, seed=1)

    def run():
        rng = Rng(9)
        net = init_network(3, 6, 2, num_layers=2, rng=rng)
        opt = AdamState()
        schedule = make_schedule(data.num_samples, cfg, rng)
        train_epoch(net, data, schedule, cfg, opt, rng)
        return net, opt, schedule

    net_a, opt_a, sched_a = run()
    net_b, opt_b, _ = run()
    assert opt_a.step == len(sched_a.frame_lengths)
    for (na, ta), (_, tb) in zip(net_a.param_items(), net_b.param_items()):
        assert np.array_equal(ta, tb), na


def test_epoch_loss_decreases_on_learnable_task():
    # median first-5-epoch loss curve decreases monotonically over 10 seeds
    curves = []
    for seed in range(10):
        data = _toy_data(seed=seed)
        cfg = BaggingConfig(**SMALL_CFG, max_epoch=5, seed=seed)
        losses = []
        run_bagging(
            data, data.slice(0, 200), cfg, hidden_dim=8, num_layers=1,
            on_epoch=lambda e, loss, f1: losses.append(loss),
        )
        curves.append(losses)
    median = np.median(np.array(curves), axis=0)
    assert all(median[i + 1] < median[i] for i in range(4)), median


def test_run_bagging_snapshots_and_val_range():
    data = _toy_data(t=1500)
    cfg = BaggingConfig(**SMALL_CFG, max_epoch=3, seed=4)
    learners = run_bagging(data.slice(0, 1200), data.slice(1200, 1500), cfg,
                           hidden_dim=6, num_layers=2)
    assert [lr.epoch for lr in learners] == [1, 2, 3]
    assert all(0.0 <= lr.val_f1 <= 1.0 for lr in learners)
    assert all(lr.loss is LossKind.CE for lr in learners)
    # snapshots are independent copies of a continuously trained model
    w0 = learners[0].net.output.w
    w1 = learners[1].net.output.w
    assert w0 is not w1 and not np.array_equal(w0, w1)
    w0 += 1.0  # mutating one snapshot must not leak into another
    assert not np.array_equal(learners[0].net.output.w, learners[1].net.output.w)


def test_run_bagging_deterministic():
    data = _toy_data(t=1400)
    cfg = BaggingConfig(**SMALL_CFG, max_epoch=2, seed=11)
    a = run_bagging(data.slice(0, 1100), data.slice(1100, 1400), cfg, hidden_dim=5)
    b = run_bagging(data.slice(0, 1100), data.slice(1100, 1400), cfg, hidden_dim=5)
    assert [x.val_f1 for x in a] == [x.val_f1 for x in b]
    for la, lb in zip(a, b):
        for (_, ta), (_, tb) in zip(la.net.param_items(), lb.net.param_items()):
            assert np.array_equal(ta, tb)


def _window_run(monkeypatch, data, cfg, per_window):
    """run_bagging with windows of per_window snapshots. Returns the
    snapshots' flat bytes, their val_f1 bits and the on_epoch calls, then
    the size of each validation pass and the number of passes made before
    each on_epoch call."""
    nbytes = LstmNetwork.zeros(3, 5, 2, 2).flat.nbytes
    monkeypatch.setattr(bagging, "WINDOW_BYTES", per_window * nbytes)
    passes, calls, seen = [], [], []

    def counted(net, val):
        passes.append(net.flat.shape[0])
        return validation_f1(net, val)

    def on_epoch(*args):
        calls.append(args)
        seen.append(len(passes))

    monkeypatch.setattr(bagging, "validation_f1", counted)
    learners = run_bagging(data.slice(0, 1100), data.slice(1100, 1400), cfg, hidden_dim=5,
                           on_epoch=on_epoch)
    run = ([lr.net.flat.tobytes() for lr in learners],
           np.array([lr.val_f1 for lr in learners]).tobytes(), calls)
    return run, passes, seen


@pytest.mark.parametrize("per_window", [1, 3])
def test_windows_of_snapshots_match_one_window(monkeypatch, per_window):
    # 7 epochs in windows of 3 leave a last window of 1
    data = _toy_data(t=1400)
    cfg = BaggingConfig(**SMALL_CFG, max_epoch=7, seed=12)
    whole, passes, _ = _window_run(monkeypatch, data, cfg, cfg.max_epoch)
    assert passes == [7]
    windowed, passes, seen = _window_run(monkeypatch, data, cfg, per_window)
    assert windowed == whole
    assert passes == {1: [1] * 7, 3: [3, 3, 1]}[per_window]
    # each window's on_epoch calls come after that window's one pass
    assert seen == [1 + (epoch - 1) // per_window for epoch in range(1, 8)]


def test_stacked_validation_f1_equals_each_snapshot_alone():
    data = _toy_data(t=1400)
    val = data.slice(1100, 1400)
    cfg = BaggingConfig(**SMALL_CFG, max_epoch=4, seed=13)
    learners = run_bagging(data.slice(0, 1100), val, cfg, hidden_dim=5)
    alone = [f1 for lr in learners for f1 in validation_f1(lr.net, val)]  # one score each
    stacked = validation_f1(LstmNetwork(np.stack([lr.net.flat for lr in learners]),
                                        learners[0].net.shape), val)
    assert all(type(v) is float for v in alone + stacked)
    assert np.array(stacked).tobytes() == np.array(alone).tobytes()
    assert stacked == [lr.val_f1 for lr in learners]
    assert len(set(alone)) > 1  # distinct snapshots, so the order is checked too


def test_save_load_learners_round_trip(tmp_path):
    data = _toy_data(t=1300)
    cfg = BaggingConfig(**SMALL_CFG, max_epoch=2, seed=6)
    learners = run_bagging(data.slice(0, 1000), data.slice(1000, 1300), cfg,
                           hidden_dim=4)
    manifest = save_learners(learners, tmp_path)
    loaded = load_learners(manifest)
    assert [(l.epoch, l.loss, l.val_f1) for l in loaded] == [
        (l.epoch, l.loss, l.val_f1) for l in learners
    ]
    for la, lb in zip(learners, loaded):
        for (_, ta), (_, tb) in zip(la.net.param_items(), lb.net.param_items()):
            assert np.array_equal(ta, tb)
