import re

import numpy as np
import pytest

from lstmens.data import (
    BLEND_MAX,
    CsvSchema,
    LabeledSequence,
    NormStats,
    apply_normalizer,
    fit_normalizer,
    fraction_ranges,
    holdout_split,
    load_csv,
    load_norm_stats,
    save_csv,
    save_norm_stats,
    _lean_cap,
    synth_har,
)
from lstmens.rng import Rng


# ---------------------------------------------------------------------------
# CSV round trips


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


def test_load_csv_three_rows(tmp_path):
    path = write(tmp_path, "0,1.5,2.5\n1,3.5,4.5\n0,5.5,6.5\n")
    seq = load_csv(path, CsvSchema(num_classes=2))
    assert seq.num_samples == 3 and seq.num_channels == 2
    assert seq.z.tolist() == [0, 1, 0]
    assert seq.X[0].tolist() == [1.5, 3.5, 5.5]


def test_load_csv_with_header_names(tmp_path):
    path = write(tmp_path, "label,ax,ay\n0,1.0,2.0\n1,3.0,4.0\n")
    seq = load_csv(path, CsvSchema(num_classes=2))
    assert seq.channel_names == ["ax", "ay"]
    assert seq.num_samples == 2


def test_load_csv_nan_linear_interpolation(tmp_path):
    path = write(tmp_path, "0,1.0\n0,NaN\n0,3.0\n")
    seq = load_csv(path, CsvSchema(num_classes=1))
    assert seq.X[0, 1] == 2.0


def test_load_csv_boundary_nan_copies_nearest(tmp_path):
    path = write(tmp_path, "0,NaN\n0,5.0\n0,NaN\n")
    seq = load_csv(path, CsvSchema(num_classes=1))
    assert seq.X[0].tolist() == [5.0, 5.0, 5.0]


def test_load_csv_all_nan_channel_rejected(tmp_path):
    path = write(tmp_path, "0,NaN,1.0\n0,NaN,2.0\n")
    with pytest.raises(ValueError, match="no valid values"):
        load_csv(path, CsvSchema(num_classes=1))


def test_load_csv_label_out_of_range(tmp_path):
    path = write(tmp_path, "7,1.0\n")
    with pytest.raises(ValueError, match=r"label 7 outside \[0, 4\)"):
        load_csv(path, CsvSchema(num_classes=4))


def test_load_csv_unparseable_row_reports_number(tmp_path):
    path = write(tmp_path, "0,1.0\n0,junk\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))} line 2: "):
        load_csv(path, CsvSchema(num_classes=1))


@pytest.mark.parametrize("row,problem", [
    ("1,3.0,inf", "value 'inf' in column 2 is not finite"),
    ("1,-inf,3.0", "value '-inf' in column 1 is not finite"),
    ("1,3.0,1e999", "value '1e999' in column 2 is not finite"),
    ("inf,3.0,inf", "label 'inf' is not an integer"),  # the label is checked first
], ids=["inf", "-inf", "1e999", "inf label"])
def test_load_csv_infinite_cell_names_line_and_column(tmp_path, row, problem):
    path = write(tmp_path, f"0,1.0,2.0\n# note\n{row}\n0,NaN,2.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 3: {problem}$"):
        load_csv(path, CsvSchema(num_classes=2))


def test_load_csv_ragged_row_reports_number(tmp_path):
    path = write(tmp_path, "0,1.0,2.0\n0,1.0\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))} line 2: "):
        load_csv(path, CsvSchema(num_classes=1))


def test_csv_round_trip_bit_exact(tmp_path):
    seq = synth_har(3, 2, 200, seed=9)
    save_csv(seq, tmp_path / "x.csv")
    back = load_csv(tmp_path / "x.csv", CsvSchema(num_classes=2))
    assert np.array_equal(back.X, seq.X)
    assert np.array_equal(back.z, seq.z)


def test_load_csv_nonzero_label_column(tmp_path):
    path = write(tmp_path, "1.0,0,2.0\n3.0,1,4.0\n")
    seq = load_csv(path, CsvSchema(num_classes=2, label_col=1))
    assert seq.z.tolist() == [0, 1]
    assert seq.X[:, 0].tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# normalization


def test_normalizer_zero_mean_unit_variance():
    seq = synth_har(4, 3, 2000, seed=3)
    stats = fit_normalizer(seq)
    normed = apply_normalizer(stats, seq)
    assert np.abs(normed.X.mean(axis=1)).max() < 1e-10
    assert np.abs(normed.X.std(axis=1) - 1.0).max() < 1e-10


def test_normalizer_no_leakage_to_test():
    seq = synth_har(3, 2, 3000, seed=4)
    train, _, test = holdout_split(seq, (0, 2400), (2400, 2700), (2700, 3000))
    stats = fit_normalizer(train)
    test_norm = apply_normalizer(stats, test)
    # train statistics applied to held-out data leave a nonzero mean
    assert np.abs(test_norm.X.mean(axis=1)).max() > 1e-6


def test_normalizer_inverse_round_trip():
    seq = synth_har(3, 2, 500, seed=5)
    stats = fit_normalizer(seq)
    normed = apply_normalizer(stats, seq)
    back = normed.X * stats.std[:, None] + stats.mean[:, None]
    assert np.abs(back - seq.X).max() < 1e-12
    assert np.array_equal(normed.z, seq.z)


def test_normalizer_floors_constant_channel():
    X = np.vstack([np.full(100, 3.0), np.arange(100.0)])
    seq = LabeledSequence(X, np.zeros(100, dtype=int), 1)
    with pytest.warns(RuntimeWarning, match="near-constant"):
        stats = fit_normalizer(seq)
    assert stats.std[0] == 1e-8


def test_norm_stats_file_round_trip(tmp_path):
    seq = synth_har(3, 2, 300, seed=6)
    stats = fit_normalizer(seq)
    save_norm_stats(stats, tmp_path / "stats.csv")
    back = load_norm_stats(tmp_path / "stats.csv")
    assert back.channels == stats.channels == seq.channel_names
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)


@pytest.mark.parametrize("channels", [1, 2, 5])
def test_normalizer_rejects_wrong_channel_count(channels):
    seq = synth_har(3, 2, 200, seed=7)
    stats = NormStats(np.zeros(channels), np.ones(channels), [f"ch{i}" for i in range(channels)])
    with pytest.raises(ValueError, match=rf"normalizer has {channels} channel\(s\), data has 3"):
        apply_normalizer(stats, seq)


@pytest.mark.parametrize("bad", ["0.2,0.0", "0.2,-1.5", "0.2,nan", "0.2,inf", "nan,1.0"])
def test_load_norm_stats_rejects_bad_row_and_names_it(tmp_path, bad):
    path = tmp_path / "stats.csv"
    path.write_text(f"channel,mean,std\nax,0.1,1.0\nay,{bad}\naz,0.3,0.0\n")
    with pytest.raises(ValueError, match=r"line 3 \(channel 'ay'\): mean .*, std .*; need"):
        load_norm_stats(path)


# ---------------------------------------------------------------------------
# splits


def test_holdout_split_80_10_10():
    seq = synth_har(2, 2, 1000, seed=7)
    ranges = fraction_ranges(1000)
    train, val, test = holdout_split(seq, *ranges)
    assert (train.num_samples, val.num_samples, test.num_samples) == (800, 100, 100)
    assert np.array_equal(train.X, seq.X[:, :800])


def test_holdout_split_rejects_overlap():
    seq = synth_har(2, 2, 100, seed=8)
    with pytest.raises(ValueError, match="overlap"):
        holdout_split(seq, (0, 50), (40, 70), (70, 100))


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_reproducible():
    a = synth_har(4, 3, 1000, "imbalanced", snr=3.0, seed=11)
    b = synth_har(4, 3, 1000, "imbalanced", snr=3.0, seed=11)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.z, b.z)


def test_synth_imbalanced_background_majority():
    for seed in range(20):
        seq = synth_har(3, 4, 5000, "imbalanced", snr=4.0, seed=seed)
        frac0 = float((seq.z == 0).mean())
        assert frac0 >= 0.5, (seed, frac0)


def test_synth_balanced_fractions_concentrate():
    # class totals are sums of ~T/(K*median) lognormal run lengths;
    # with sigma=0.35 the run-length cv is ~0.36, so the fraction's sd is
    # about cv * sqrt(median * K / T) / K ~ 0.0076 for these numbers.
    # allow 3 sigma plus the rounding of partial runs.
    for seed in range(10):
        seq = synth_har(3, 4, 20_000, "balanced", seed=seed)
        fracs = np.bincount(seq.z, minlength=4) / seq.num_samples
        assert np.abs(fracs - 0.25).max() < 0.03, (seed, fracs)


def test_synth_duration_variability():
    seq = synth_har(2, 3, 30_000, "balanced", seed=12)
    runs = {k: [] for k in range(3)}
    start = 0
    for t in range(1, seq.num_samples):
        if seq.z[t] != seq.z[start]:
            runs[int(seq.z[start])].append(t - start)
            start = t
    for k, lengths in runs.items():
        assert len(lengths) > 10
        assert np.std(lengths) > 0.0


def test_synth_noiseless_windows_nearest_neighbor_separable():
    # 1-NN on 16-sample windows of the noiseless signal: class signatures
    # are distinct, so held-out windows match a window of their own class
    seq = synth_har(4, 3, 6000, "balanced", snr=np.inf, seed=13)
    window = 16
    feats, labels = [], []
    for start in range(0, seq.num_samples - window, 37):
        block = seq.z[start : start + window]
        if (block == block[0]).all():
            feats.append(seq.X[:, start : start + window].ravel())
            labels.append(int(block[0]))
    feats = np.array(feats)
    labels = np.array(labels)
    train_idx = np.arange(0, len(feats), 2)
    test_idx = np.arange(1, len(feats), 2)
    d2 = ((feats[test_idx, None, :] - feats[None, train_idx, :]) ** 2).sum(axis=2)
    pred = labels[train_idx][d2.argmin(axis=1)]
    accuracy = float((pred == labels[test_idx]).mean())
    assert accuracy >= 0.99, accuracy


def test_lean_cap_from_offset_geometry():
    # equilateral classes: dmin/dmax = 1, so the cap is 1/4 (below BLEND_MAX)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    assert _lean_cap(tri) == pytest.approx(0.25)
    # two close classes far from a third: dmin/dmax = 0.2
    line = np.array([[0.0], [0.2], [1.0]])
    assert _lean_cap(line) == pytest.approx(0.05)
    # coinciding offsets: a lean moves nothing, so the cap is irrelevant
    assert _lean_cap(np.zeros((3, 4))) == BLEND_MAX


def test_lean_cap_keeps_run_levels_of_classes_apart():
    # every run level (1 - lam) * o_k + lam * o_j with lam below the cap
    # lies nearer to any level of its own class than to any other class's
    rng = Rng(21)
    for _ in range(20):
        offsets = rng.normal_block(4 * 3).reshape(4, 3)
        cap = _lean_cap(offsets)
        levels, owner = [], []
        for k in range(4):
            for j in range(4):
                if j == k:
                    continue
                for lam in (0.0, 0.5 * cap, 0.999 * cap):
                    levels.append((1.0 - lam) * offsets[k] + lam * offsets[j])
                    owner.append(k)
        levels, owner = np.array(levels), np.array(owner)
        dist = np.sqrt(((levels[:, None] - levels[None, :]) ** 2).sum(axis=2))
        same = owner[:, None] == owner[None, :]
        assert dist[same].max() < dist[~same].min(), cap


def test_synth_rejects_bad_args():
    with pytest.raises(ValueError):
        synth_har(1, 3, 100)
    with pytest.raises(ValueError):
        synth_har(3, 1, 100)
    with pytest.raises(ValueError):
        synth_har(3, 3, 100, regime="weird")
