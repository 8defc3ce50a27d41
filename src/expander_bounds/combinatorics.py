"""Log-space combinatorial primitives and truncated binomial machinery.

Every heavyweight product (factorials, double factorials, binomial weights)
is carried as a natural logarithm so downstream layers never multiply
astronomically large or small numbers directly. Base-2 quantities are a
presentation concern of the certifying layer, not of this module.

All functions are pure; cached rows are read-only, so concurrent callers are
safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "binomial_log_row",
    "binomial_pmf",
    "binomial_tail",
    "log_binomial",
    "log_odd_double_factorial",
    "truncated_log_moments",
]

NEG_INF = float("-inf")

_LN2 = math.log(2.0)

# Up to this many factors, ln C(n, k) is accumulated term by term with fsum,
# which keeps the error at a few ulp. Beyond it the lgamma route takes over;
# there ln C(n, k) > 2e4 for n <= 1e6, so lgamma's absolute error stays below
# 1e-12 in relative terms.
_DIRECT_SUM_MAX = 4096


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k).

    Returns -inf for k outside [0, n] (the log of an empty count). Accurate
    to better than 1e-12 relative error for n up to 1e6 and exactly
    symmetric under k <-> n - k.
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise TypeError("n and k must be integers")
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return NEG_INF
    m = min(k, n - k)
    if m == 0:
        return 0.0
    if m <= _DIRECT_SUM_MAX:
        return math.fsum(math.log((n - m + j) / j) for j in range(1, m + 1))
    return math.lgamma(n + 1) - (math.lgamma(k + 1) + math.lgamma(n - k + 1))


@lru_cache(maxsize=None)
def binomial_log_row(n: int) -> np.ndarray:
    """ln C(n, i) for i = 0..n as a read-only array, cached per n.

    Built as compensated (Neumaier) prefix sums of ln((n-i+1)/i) up to the
    middle, then mirrored, so the row is exactly symmetric and each entry is
    accurate to a few ulp.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    row = np.zeros(n + 1)
    total = 0.0
    comp = 0.0
    for i in range(1, n // 2 + 1):
        term = math.log((n - i + 1) / i)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        row[i] = total + comp
    for i in range(n // 2 + 1, n + 1):
        row[i] = row[n - i]
    row.flags.writeable = False
    return row


def log_odd_double_factorial(m: int) -> float:
    """Natural log of 1 * 3 * 5 * ... * (m - 1) for even m >= 0.

    This is the number of perfect matchings on m points (1 for m in {0, 2}),
    the normalizer of the pairing-model probability space. Odd or negative m
    is rejected.
    """
    if not isinstance(m, int):
        raise TypeError("m must be an integer")
    if m < 0 or m % 2 != 0:
        raise ValueError("m must be an even non-negative integer")
    k = m // 2
    if k <= _DIRECT_SUM_MAX:
        return math.fsum(math.log(2 * j - 1) for j in range(1, k + 1))
    # 1 * 3 * ... * (2k - 1) = (2k)! / (2^k * k!)
    return math.lgamma(2 * k + 1) - k * _LN2 - math.lgamma(k + 1)


def _check_profile(delta: int, cap: int, gamma: float) -> None:
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not isinstance(cap, int) or not 0 <= cap <= delta:
        raise ValueError("cap must be an integer in [0, delta]")
    if not isinstance(gamma, (int, float)) or not math.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be a finite positive real")


def truncated_log_moments(delta: int, cap: int, gamma: float) -> tuple[float, float, float]:
    """(ln S0, ln S1, S1/S0) for S0 = sum gamma^i C(delta,i), S1 = sum i * terms.

    The sums run over i = 0..cap and are evaluated by scaling with the
    largest term, so the mean S1/S0 stays finite and accurate even when S0
    itself would overflow (gamma up to ~1e6, delta up to ~1e4). Inputs are
    checked first: delta >= 1, cap in [0, delta], gamma finite and positive.
    """
    _check_profile(delta, cap, gamma)
    row = binomial_log_row(delta)
    idx = np.arange(cap + 1)
    logterms = row[: cap + 1] + idx * math.log(gamma)
    peak = float(logterms.max())
    scaled = np.exp(logterms - peak)
    w0 = float(scaled.sum())
    w1 = float(np.dot(idx, scaled))
    log_s0 = peak + math.log(w0)
    log_s1 = peak + math.log(w1) if w1 > 0.0 else NEG_INF
    return log_s0, log_s1, w1 / w0


def binomial_pmf(delta: int, p: float, k: int) -> float:
    """P[Binomial(delta, p) = k], by direct evaluation in log space."""
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if not isinstance(k, int) or k < 0 or k > delta:
        raise ValueError("k must be an integer in [0, delta]")
    row = binomial_log_row(delta)
    val = math.exp(row[k] + k * math.log(p) + (delta - k) * math.log1p(-p))
    return min(1.0, val)


def binomial_tail(delta: int, p: float, cap: int) -> float:
    """P[Binomial(delta, p) <= cap], by exact summation of the mass function.

    Terms are evaluated in log space and combined with fsum; the result is
    clamped to [0, 1] against last-ulp overshoot.
    """
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if not isinstance(cap, int) or cap < 0 or cap > delta:
        raise ValueError("cap must be an integer in [0, delta]")
    row = binomial_log_row(delta)
    lp = math.log(p)
    lq = math.log1p(-p)
    total = math.fsum(
        math.exp(row[k] + k * lp + (delta - k) * lq) for k in range(cap + 1)
    )
    return min(1.0, max(0.0, total))
