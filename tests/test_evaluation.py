import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lstmens.evaluation import (
    TrialSet,
    confusion,
    mean_f1,
    per_class_f1,
    regularized_incomplete_beta,
    significance_stars,
    t_test,
)
from lstmens.rng import Rng


# ---------------------------------------------------------------------------
# confusion


def test_confusion_perfect_predictions_diagonal():
    labels = np.array([0, 1, 2, 1, 0])
    cm = confusion(labels, labels, 3)
    assert np.array_equal(cm, np.diag([2, 2, 1]))


def test_confusion_single_offdiagonal():
    cm = confusion(preds=[1], labels=[0], num_classes=2)
    assert cm[0, 1] == 1 and cm.sum() == 1


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        confusion([0, 1], [0], 2)


def test_confusion_matches_tally_oracle():
    rng = Rng(3)
    k = 5
    preds = np.array([rng.uniform_int(0, k - 1) for _ in range(500)])
    labels = np.array([rng.uniform_int(0, k - 1) for _ in range(500)])
    cm = confusion(preds, labels, k)
    oracle = np.zeros((k, k), dtype=int)
    for p, l in zip(preds, labels):
        oracle[l, p] += 1
    assert np.array_equal(cm, oracle)
    assert cm.sum() == 500


# ---------------------------------------------------------------------------
# F1


def test_mean_f1_perfect_diagonal():
    assert mean_f1(np.diag([5, 3, 2])) == 1.0


def test_mean_f1_hand_case_exactly_one_third():
    # two classes: TP0=1 with one miss into class 1, class 1 empty
    cm = np.array([[1, 1], [0, 0]])
    assert per_class_f1(cm).tolist() == [2.0 / 3.0, 0.0]
    assert mean_f1(cm) == 1.0 / 3.0


def test_empty_class_scores_zero():
    cm = np.zeros((3, 3), dtype=int)
    cm[0, 0] = 4
    f1 = per_class_f1(cm)
    assert f1[0] == 1.0 and f1[1] == 0.0 and f1[2] == 0.0


def test_mean_is_mean_of_per_class_bitwise():
    rng = Rng(4)
    for _ in range(50):
        k = rng.uniform_int(2, 6)
        cm = np.array(
            [[rng.uniform_int(0, 30) for _ in range(k)] for _ in range(k)]
        )
        assert mean_f1(cm) == per_class_f1(cm).mean()


def _f1_oracle(cm):
    # independent per-class formula evaluation
    k = cm.shape[0]
    total = 0.0
    for i in range(k):
        tp = float(cm[i, i])
        fp = float(cm[:, i].sum() - cm[i, i])
        fn = float(cm[i, :].sum() - cm[i, i])
        total += (2 * tp / (2 * tp + fp + fn)) if (2 * tp + fp + fn) > 0 else 0.0
    return total / k


def test_mean_f1_matches_oracle_on_random_matrices():
    rng = Rng(5)
    for _ in range(200):
        k = rng.uniform_int(1, 8)
        cm = np.array(
            [[rng.uniform_int(0, 50) for _ in range(k)] for _ in range(k)]
        )
        assert abs(mean_f1(cm) - _f1_oracle(cm)) < 1e-12


# ---------------------------------------------------------------------------
# trials


def test_single_trial_is_rejected():
    with pytest.raises(ValueError, match="at least two scores"):
        TrialSet("one", [0.5])


# ---------------------------------------------------------------------------
# t test


def test_t_test_identical_sets():
    a = TrialSet("a", [0.5, 0.5, 0.5])
    res = t_test(a, TrialSet("b", [0.5, 0.5, 0.5]))
    assert res.t == 0.0 and res.p == 1.0 and res.stars == ""


def test_t_test_welch_textbook_case():
    a = TrialSet("a", [1, 2, 3, 4, 5])
    b = TrialSet("b", [2, 3, 4, 5, 6])
    res = t_test(a, b)
    assert abs(res.t - (-1.0)) < 1e-12
    assert abs(res.df - 8.0) < 1e-12
    assert abs(res.p - 0.3466) < 1e-3
    assert res.stars == ""


def test_t_test_well_separated_three_stars():
    rng = Rng(6)
    base = 0.005 * rng.normal_block(30)
    a = TrialSet("a", 0.70 + base)
    b = TrialSet("b", 0.72 + 0.005 * rng.normal_block(30))
    res = t_test(a, b)
    assert res.p <= 0.001 and res.stars == "***"


def test_t_test_zero_variance_distinct_means():
    a = TrialSet("a", [0.4, 0.4])
    b = TrialSet("b", [0.6, 0.6])
    res = t_test(a, b)
    assert math.isinf(res.t) and res.p == 0.0 and res.stars == "***"


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40)
def test_t_test_antisymmetry(seed):
    rng = Rng(seed)
    a = TrialSet("a", rng.uniform_block(8))
    b = TrialSet("b", rng.uniform_block(8))
    ab = t_test(a, b)
    ba = t_test(b, a)
    assert abs(ab.t + ba.t) < 1e-12
    assert abs(ab.p - ba.p) < 1e-12


def test_stars_exact_thresholds():
    assert significance_stars(0.001) == "***"
    assert significance_stars(0.0010000000001) == "**"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.010000000001) == "*"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.0500000001) == ""
    assert significance_stars(0.9) == ""


def test_incomplete_beta_reference_values():
    # I_x(a, b) spot checks: symmetry and analytic cases
    assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)
    # I_x(1, b) = 1 - (1-x)^b
    assert regularized_incomplete_beta(1.0, 4.0, 0.2) == pytest.approx(
        1 - 0.8**4, abs=1e-13
    )
    # complement identity
    a, b, x = 2.5, 3.5, 0.37
    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
        1.0 - regularized_incomplete_beta(b, a, 1.0 - x), abs=1e-13
    )
