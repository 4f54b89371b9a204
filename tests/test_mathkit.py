import math

import numpy as np
from hypothesis import given, settings, strategies as st

from lstmens.mathkit import anchored_mean, log_softmax, sigmoid, softmax, tanh_vec
from lstmens.rng import Rng

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# nonlinearities


def test_sigmoid_symmetry_point():
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_sigmoid_reference_value():
    # 1 / (1 + e^-1) to double precision
    assert sigmoid(np.array([1.0]))[0] == 0.7310585786300049


def test_sigmoid_saturation_no_overflow():
    with np.errstate(over="raise"):
        lo = sigmoid(np.array([-1000.0]))[0]
        hi = sigmoid(np.array([1000.0]))[0]
    assert 0.0 < lo <= 1e-300
    assert 1.0 - 1e-15 < hi < 1.0


def _textbook_sigmoid(v):
    # the branch-stable form: 1/(1+e) for v >= 0, e/(1+e) below, e = exp(-|v|)
    e = np.exp(-np.abs(v))
    tiny, below_one = np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0)
    return np.clip(np.where(v >= 0.0, 1.0, e) / (1.0 + e), tiny, below_one)


def test_sigmoid_is_the_textbook_form_bit_for_bit():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 5e-324,
                      -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308, -708.0,
                      708.0, 36.7, -36.7, 1.0, -1.0])
    v = np.concatenate([edges, Rng(3).normal_block(20000) * 30.0])
    want = _textbook_sigmoid(v)
    with np.errstate(over="raise"):
        got = sigmoid(v)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # in place on a strided view, as a kernel calls it on part of a block
    block = np.stack([v, v, v], axis=1)
    sigmoid(block[:, 1], out=block[:, 1])
    assert np.array_equal(block[:, 1].view(np.uint64), want.view(np.uint64))
    for col in (0, 2):  # the neighbours of the view are untouched
        assert np.array_equal(block[:, col].view(np.uint64), v.view(np.uint64))


def test_nonlinearities_take_scalars_as_one_element_arrays():
    # a Python float, a 0-d array and a one-element list give the textbook
    # value of the one-element array; out may be a 0-d array
    below_one = np.nextafter(1.0, 0.0)
    for x in (0.5, -3.25, 0.0, 800.0):
        tanh = np.clip(np.tanh([x]), -below_one, below_one)
        for f, want in ((sigmoid, _textbook_sigmoid(np.array([x]))), (tanh_vec, tanh)):
            assert np.float64(f(x)).tobytes() == want[0].tobytes()
            assert np.float64(f(np.array(x))).tobytes() == want[0].tobytes()
            assert f([x]).tobytes() == want.tobytes()
            out = np.empty(())
            f(np.array(x), out=out)
            assert out.tobytes() == want[0].tobytes()


@given(st.lists(finite_floats, min_size=1, max_size=20))
def test_sigmoid_open_range(values):
    out = sigmoid(np.array(values))
    assert np.all(np.isfinite(out))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_nonlinearities_take_array_likes_and_return_float64():
    v = Rng(5).normal_block(12) * 4.0
    for f in (sigmoid, tanh_vec):
        want = f(v.copy())
        for like in (v.astype(np.float32), list(v.astype(np.float32))):
            got = f(like)
            assert got.dtype == np.float64
            assert got.tobytes() == f(np.asarray(like, dtype=np.float64)).tobytes()
        got = f(list(v))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_tanh_values():
    assert tanh_vec(np.array([0.0]))[0] == 0.0
    assert abs(tanh_vec(np.array([1000.0]))[0] - 1.0) < 1e-15
    assert tanh_vec(np.array([0.5]))[0] == 0.46211715726000974


@given(st.lists(finite_floats, min_size=1, max_size=20))
def test_tanh_open_range(values):
    out = tanh_vec(np.array(values))
    assert np.all(np.isfinite(out))
    assert np.all(out > -1.0) and np.all(out < 1.0)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    assert np.array_equal(softmax(np.zeros(3)), np.full(3, 1.0 / 3.0))


@given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
def test_softmax_shifted_pair_is_thirds(c):
    # representing c + ln 2 perturbs the gap by ~ulp(c), hence the 1e-12
    p = softmax(np.array([c, c + math.log(2.0)]))
    assert abs(p[0] - 1.0 / 3.0) < 1e-12
    assert abs(p[1] - 2.0 / 3.0) < 1e-12


def test_softmax_large_logits_no_overflow():
    with np.errstate(over="raise"):
        p = softmax(np.array([1000.0, 999.0]))
    e = math.e
    assert abs(p[0] - e / (1 + e)) < 1e-15
    assert abs(p[1] - 1 / (1 + e)) < 1e-15


@given(st.lists(finite_floats, min_size=1, max_size=24))
def test_softmax_simplex(values):
    p = softmax(np.array(values))
    assert np.all(p > 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=2, max_size=12),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_softmax_shift_invariance(values, shift):
    x = np.array(values)
    assert np.max(np.abs(softmax(x + shift) - softmax(x))) < 1e-12


def _textbook_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return np.clip(e / e.sum(axis=axis, keepdims=True), np.finfo(np.float64).tiny, None)


def test_softmax_is_the_textbook_form_bit_for_bit():
    # saturated rows (a logit far above the rest) floor at the tiny normal;
    # a +inf logit gives a NaN row, a -inf logit a tiny entry; a block of
    # rows must match each row alone, also at K >= 8 (pairwise sums)
    rng = Rng(8)
    for k in range(2, 34):
        scale = np.repeat([1.0, 60.0, 900.0], [14, 13, 13])[:, None]
        x = rng.normal_block(40 * k).reshape(40, k) * scale
        x[0, 0], x[1, -1], x[2, :] = np.inf, -np.inf, -np.inf
        x[3, :2] = np.inf, -np.inf
        x[4, 1] = 1e308
        with np.errstate(invalid="ignore"):
            want = _textbook_softmax(x, -1)
            assert softmax(x).tobytes() == want.tobytes()
            rows = np.stack([softmax(row) for row in x])
            assert rows.tobytes() == want.tobytes()
            block = np.stack([x[: 20], x[20:]])  # (2, 20, K), as infer_stream's (M, T, K)
            assert softmax(block).tobytes() == want.reshape(2, 20, k).tobytes()
            col = _textbook_softmax(x.T.copy(), 0)
            assert softmax(x.T.copy(), axis=0).tobytes() == col.tobytes()
    # array-likes: a list, float32, and a scalar (one class, probability 1)
    pair = _textbook_softmax(np.array([0.5, -1.0]), -1)
    assert softmax([0.5, -1.0]).tobytes() == pair.tobytes()
    assert softmax(np.float32([0.5, -1.0])).dtype == np.float64
    assert softmax(0.5) == 1.0


def test_softmax_out_may_be_the_input():
    # in place into the input, or into another array, gives the copying
    # call's bytes and returns out
    x = Rng(9).normal_block(3 * 20 * 9).reshape(3, 20, 9) * 40.0
    for axis in (-1, 0):
        want = softmax(x, axis=axis)
        other = np.empty_like(x)
        assert softmax(x, axis=axis, out=other) is other
        assert other.tobytes() == want.tobytes()
        block = x.copy()
        assert softmax(block, axis=axis, out=block) is block
        assert block.tobytes() == want.tobytes()


def test_log_softmax_matches_log_of_softmax_in_safe_range():
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(log_softmax(x), np.log(softmax(x)), atol=1e-12)


def test_log_softmax_handles_wide_spread():
    out = log_softmax(np.array([0.0, -2000.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[1] - (-2000.0)) < 1e-9


# ---------------------------------------------------------------------------
# anchored mean


def test_anchored_mean_identical_rows_exact():
    row = np.array([0.1, 0.2, 0.7])
    stacked = np.stack([row] * 3)
    assert np.array_equal(anchored_mean(stacked, axis=0), row)


def test_anchored_mean_two_corners():
    corners = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(anchored_mean(corners, axis=0), np.array([0.5, 0.5]))


def test_anchored_mean_matches_plain_mean():
    rng = Rng(4)
    x = rng.normal_block(60).reshape(5, 12)
    assert np.allclose(anchored_mean(x, axis=0), x.mean(axis=0), atol=1e-14)


def test_anchored_mean_is_the_anchored_form_bit_for_bit():
    x = Rng(6).normal_block(7 * 9 * 5).reshape(7, 9, 5) * 0.1 + 0.3
    for axis in (0, 1):
        anchor = np.take(x, [0], axis=axis)
        want = np.squeeze(anchor, axis) + (x - anchor).mean(axis=axis)
        assert anchored_mean(x, axis=axis).tobytes() == want.tobytes()
    row = x[:, 0, 0]
    assert anchored_mean(list(row)) == row[0] + (row - row[0]).mean()
