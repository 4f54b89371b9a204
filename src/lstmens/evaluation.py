"""Sample-wise metrics, per-trial score sets, and significance testing.

The headline metric is macro-averaged F1 over all K classes. A class whose
F1 is 0/0 (absent from both truth and predictions) scores 0, which depresses
the mean -- deliberate, and worth remembering when comparing runs on
imbalanced data.

Two-tailed independent t-tests use Welch's unequal-variance statistic; the
p value comes from the regularized incomplete beta function, implemented
here with the standard continued-fraction expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# confusion + F1


def confusion(preds, labels, num_classes: int) -> np.ndarray:
    """K x K count matrix; rows are true classes, columns predictions."""
    preds = np.asarray(preds, dtype=np.int64).ravel()
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape[0]} preds, {labels.shape[0]} labels")
    flat = labels * num_classes + preds
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )


def per_class_f1(cm: np.ndarray) -> np.ndarray:
    """Per-class F1 = 2TP / (2TP + FP + FN), with empty classes scoring 0."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = 2.0 * tp + fp + fn
    out = np.zeros(cm.shape[0])
    hit = denom > 0
    out[hit] = 2.0 * tp[hit] / denom[hit]
    return out


def mean_f1(cm: np.ndarray) -> float:
    """Macro F1: plain mean of per-class F1 over all K classes."""
    return float(per_class_f1(cm).mean())


# ---------------------------------------------------------------------------
# trial score sets


@dataclass
class TrialSet:
    """Named collection of per-trial scores (one mean F1 per repetition)."""

    name: str
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1 or self.scores.size < 2:
            raise ValueError("TrialSet needs a 1-d list of at least two scores")

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def mean(self) -> float:
        return float(self.scores.mean())

    @property
    def std(self) -> float:
        """Sample standard deviation (n-1 denominator)."""
        return float(self.scores.std(ddof=1))


# ---------------------------------------------------------------------------
# significance


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-14
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def significance_stars(p: float) -> str:
    """The conventional significance markers for p <= .05 / .01 / .001."""
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return ""


@dataclass
class TTestResult:
    t: float
    p: float
    df: float
    stars: str


def t_test(a: TrialSet, b: TrialSet) -> TTestResult:
    """Two-tailed Welch (unequal-variance) t-test between two trial sets.

    When both sets have zero variance: equal means give t=0, p=1, different
    means give an infinite statistic and p=0.
    """
    va, vb = float(a.scores.var(ddof=1)), float(b.scores.var(ddof=1))
    diff = a.mean - b.mean
    sa, sb = va / a.n, vb / b.n
    se2 = sa + sb
    df = (
        se2 * se2 / (sa * sa / (a.n - 1) + sb * sb / (b.n - 1))
        if se2 > 0.0
        else float(a.n + b.n - 2)
    )
    if se2 == 0.0:
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        t = diff / math.sqrt(se2)
    p = student_t_two_tailed_p(t, df)
    return TTestResult(t, p, df, significance_stars(p))
