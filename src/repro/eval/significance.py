"""Statistical significance testing (the paper's Sec. 4.3.2 analysis).

The paper runs a one-tailed t-test of H0: mu_EMBA <= mu_JointBERT against
Ha: mu_EMBA > mu_JointBERT over 5 training runs, and annotates Table 2
with significance stars.  The Student-t tail is computed here from
``math`` (a regularized incomplete beta by continued fraction), so the
test needs no statistics library.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_TINY = 1e-300
_MAX_TERMS = 10_000


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with ``y == 1 - x`` given
    exactly by the caller (Lentz's method on the continued fraction)."""
    if x > (a + 1.0) / (a + b + 2.0):     # the fraction converges fast below
        return 1.0 - _betainc(b, a, y, x)
    if x == 0.0:
        return 0.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y)) / a
    # Evaluates 1 / (1 + k1 x / (1 + k2 x / (1 + ...))), starting from the
    # state after its leading level (value 1, D = 1, C = infinity).
    value, c, d = 1.0, math.inf, 1.0
    for n in range(1, _MAX_TERMS):
        m = n // 2
        if n % 2:
            k = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            k = m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + k * x * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + k * x / c
        c = c if abs(c) > _TINY else _TINY
        value *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return front * value
    raise ArithmeticError(f"incomplete beta did not converge: a={a} b={b} "
                          f"x={x}")


def one_tailed_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """p-value for Ha: mean(sample_a) > mean(sample_b) (Welch's t-test)."""
    sample_a = np.asarray(sample_a, dtype=np.float64)
    sample_b = np.asarray(sample_b, dtype=np.float64)
    if sample_a.size < 2 or sample_b.size < 2:
        raise ValueError("each sample needs at least two observations")
    va = float(sample_a.var(ddof=1)) / sample_a.size
    vb = float(sample_b.var(ddof=1)) / sample_b.size
    diff = float(sample_a.mean() - sample_b.mean())
    se2 = va + vb
    if math.isnan(diff + se2):
        return math.nan
    if se2 == 0.0:        # both samples constant: t is +-inf, or 0/0 on a tie
        return math.nan if diff == 0.0 else float(diff < 0)
    t = diff / math.sqrt(se2)
    # Welch-Satterthwaite, written in shares of se2 so nothing underflows.
    df = 1.0 / ((va / se2) ** 2 / (sample_a.size - 1)
                + (vb / se2) ** 2 / (sample_b.size - 1))
    # Student-t upper tail: P(T > |t|) = I_{df/(df+t^2)}(df/2, 1/2) / 2.
    tail = 0.5 * _betainc(df / 2, 0.5, df / (df + t * t), t * t / (df + t * t))
    return tail if t > 0 else 1.0 - tail


def significance_stars(p_value: float) -> str:
    """The paper's star notation: **** p<1e-4 ... * p<0.05, 'ns' otherwise."""
    if not np.isfinite(p_value):
        return "ns"
    if p_value < 1e-4:
        return "****"
    if p_value < 1e-3:
        return "***"
    if p_value < 1e-2:
        return "**"
    if p_value < 5e-2:
        return "*"
    return "ns"
