"""Confidence intervals over repeated seeded runs.

The paper performs "multiple runs with small random perturbations and
different random seeds to plot 95% confidence intervals" (Section 8.1).
We reproduce that methodology with Student-t intervals over per-seed
results.  The Student-t critical value is computed here from the
standard library alone (see :func:`t_critical`), so importing this
module costs no third-party start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

#: Continued-fraction settings: relative convergence tolerance, the
#: Lentz guard against zero denominators, and an iteration cap well
#: above the ~sqrt(df) terms the largest degrees of freedom need.
_CF_EPS = 4e-16
_CF_TINY = 1e-300
_CF_MAX_TERMS = 100_000


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (modified Lentz).

    Converges quickly for ``x < (a + 1) / (a + b + 2)``; callers use
    the symmetry ``I_x(a, b) = 1 - I_{1-x}(b, a)`` to stay there.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})")


def _beta_inc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, with ``y = 1 - x``.

    ``y`` is passed separately so a caller can supply it without the
    cancellation of ``1 - x`` when ``x`` is close to 1.
    """
    if y <= 0.0:  # t * t underflowed: the tail is exactly one half
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, y) / b


def _t_upper_tail(t: float, df: int) -> float:
    """``P(T > t)`` for Student's t with ``df`` degrees of freedom, t >= 0."""
    t2 = t * t
    return 0.5 * _beta_inc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie strictly between 0 and 1 (e.g. 0.95), "
            f"got {confidence!r}")


@lru_cache(maxsize=1024)
def t_critical(df: int, confidence: float) -> float:
    """Two-sided Student-t critical value: the ``(1 + confidence) / 2``
    quantile of the t distribution with ``df`` degrees of freedom.

    Bisects the upper tail ``P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2``
    down to adjacent floats.  Against a reference implementation the
    relative error stays below 1e-10: about 2.5e-11 at df = 10000, where
    the ``lgamma`` difference loses digits, and near 1e-15 for the
    handful of seeds a study runs.  Memoized, because a table asks for
    the same ``(df, confidence)`` once per grid point.
    """
    _check_confidence(confidence)
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df!r}")
    target = (1.0 - confidence) / 2.0
    lo, hi = 0.0, 1.0
    while _t_upper_tail(hi, df) > target:
        lo, hi = hi, hi * 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _t_upper_tail(mid, df) > target:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return (f"{self.mean:.4g} ± {self.half_width:.2g} "
                f"({self.confidence:.0%}, n={self.n})")


def t_interval(samples: Sequence[float],
               confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``samples``."""
    _check_confidence(confidence)
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one sample")
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean, 0.0, confidence, 1)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    return ConfidenceInterval(mean, t_critical(n - 1, confidence) * sem,
                              confidence, n)


def ratio_interval(numerators: Sequence[float],
                   denominator_mean: float,
                   confidence: float = 0.95) -> ConfidenceInterval:
    """CI of per-run values normalized by a fixed baseline mean.

    Used for "normalized runtime" plots where each configuration's runs are
    divided by the baseline configuration's mean runtime.
    """
    if denominator_mean <= 0:
        raise ValueError("denominator_mean must be positive")
    return t_interval([x / denominator_mean for x in numerators], confidence)
