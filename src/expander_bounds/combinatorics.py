"""Log-space combinatorial primitives and truncated binomial machinery.

Every heavyweight product (factorials, double factorials, binomial weights)
is carried as a natural logarithm so downstream layers never multiply
astronomically large or small numbers directly. Base-2 quantities are a
presentation concern of the certifying layer, not of this module.

All functions are pure; cached rows are read-only, so concurrent callers are
safe. Two arrays are cached per degree: the row ln C(delta, i) and the index
0..delta as float64 (`_index`), which the moment and tail kernels slice
instead of building an arange on every call. The moment kernel and the
side solver's residuals take both slices for a (delta, cap) pair from one
cached view (`_profile_view`), which checks delta and cap once per pair. The
direct sum behind `log_binomial` is cached per (n, min(k, n - k)), so a
caller that needs ln C(delta, delta/2) on every call pays for its sum once.

The sums build their terms in numpy and finish them in Python, and they
return the same bits as a term-by-term Python loop. Each int-to-float
conversion is exact (every integer below 2**53 is a double), and int/int
division, like numpy's elementwise +, -, * and /, is one correctly rounded
IEEE operation; numpy does not fuse a multiply and an add. So an array
expression written in the loop's order yields the loop's doubles. The
transcendental step still goes through `math.exp` / `math.log` term by term,
and `math.fsum` rounds the exact sum once, whatever the order of its input.
Its time does depend on the order: the partials it carries (Shewchuk's
algorithm) pile up when terms arrive smallest first across hundreds of
binades, and stay few when they arrive largest first.
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

# math.exp returns exactly 0.0 at and below this argument: e^-746 is less than
# 0.21 of the smallest subnormal 2^-1074, so an exp whose error stays under
# 0.79 ulp (glibc's is under 0.51) cannot round it up. A sum's terms with a
# log at or below it add nothing, and leaving them out moves no bit. The cut
# sits below ln(2^-1075) = -745.13..., where the true value crosses half the
# smallest subnormal, so a term that rounds to 2^-1074 is always kept.
_EXP_ZERO_LOG = -746.0

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
        return _log_binomial_direct(n, m)
    return math.lgamma(n + 1) - (math.lgamma(k + 1) + math.lgamma(n - k + 1))


@lru_cache(maxsize=None)
def _log_binomial_direct(n: int, m: int) -> float:
    """ln C(n, m) for 1 <= m <= min(n - m, _DIRECT_SUM_MAX), cached per (n, m).

    Only :func:`log_binomial` calls it, after its checks, so the key is
    always a pair of ints and a cached value is the one the sum returns.
    """
    # for n below 2**53, n - m + j is exact as a double, so each ratio
    # is rounded once, as int/int division rounds it
    j = np.arange(1.0, m + 1.0)
    return math.fsum(map(math.log, ((n - m + j) / j).tolist()))


@lru_cache(maxsize=None)
def binomial_log_row(n: int) -> np.ndarray:
    """ln C(n, i) for i = 0..n as a read-only array, cached per n.

    Built as compensated (Neumaier) prefix sums of ln((n-i+1)/i) up to the
    middle, then mirrored, so the row is exactly symmetric and each entry is
    accurate to a few ulp. The ratios come from one numpy division and the
    logs from `math.log`; the compensated loop runs over Python floats, so
    the row is the one a loop computing every term in Python would build.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    i = np.arange(1.0, n // 2 + 1.0)
    prefix = []
    total = 0.0
    comp = 0.0
    for term in map(math.log, ((n + 1.0 - i) / i).tolist()):
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        prefix.append(total + comp)
    row = np.zeros(n + 1)
    row[1 : n // 2 + 1] = prefix
    row[n // 2 + 1 :] = row[: n - n // 2][::-1]
    row.flags.writeable = False
    return row


@lru_cache(maxsize=None)
def _index(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n as a read-only float64 array, cached per n."""
    idx = np.arange(n + 1.0)
    idx.flags.writeable = False
    return idx


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
        return math.fsum(map(math.log, np.arange(1.0, 2.0 * k, 2.0).tolist()))
    # 1 * 3 * ... * (2k - 1) = (2k)! / (2^k * k!)
    return math.lgamma(2 * k + 1) - k * _LN2 - math.lgamma(k + 1)


@lru_cache(maxsize=None, typed=True)
def _profile_view(delta: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(ln C(delta, i), float(i)) for i = 0..cap, read-only slices cached per (delta, cap).

    Checks delta >= 1 and cap in [0, delta] when a view is first built. The
    cache is typed, so a float or numpy-integer argument that hashes equal to
    a cached int key still goes through the checks.
    """
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not isinstance(cap, int) or not 0 <= cap <= delta:
        raise ValueError("cap must be an integer in [0, delta]")
    return binomial_log_row(delta)[: cap + 1], _index(delta)[: cap + 1]


def truncated_log_moments(delta: int, cap: int, gamma: float) -> tuple[float, float, float]:
    """(ln S0, ln S1, S1/S0) for S0 = sum gamma^i C(delta,i), S1 = sum i * terms.

    The sums run over i = 0..cap and are evaluated by scaling with the
    largest term, so the mean S1/S0 stays finite and accurate even when S0
    itself would overflow (gamma up to ~1e6, delta up to ~1e4). Inputs are
    checked first: delta >= 1, cap in [0, delta] (once per pair, by
    `_profile_view`), gamma finite and positive (on every call).
    """
    row, idx = _profile_view(delta, cap)
    if not isinstance(gamma, (int, float)) or not math.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be a finite positive real")
    logterms = row + idx * math.log(gamma)
    # the ufunc reductions that .max() and .sum() run, without the method dispatch
    peak = float(np.maximum.reduce(logterms))
    scaled = np.exp(logterms - peak)
    w0 = float(np.add.reduce(scaled))
    w1 = float(idx.dot(scaled))
    log_s0 = peak + math.log(w0)
    log_s1 = peak + math.log(w1) if w1 > 0.0 else NEG_INF
    return log_s0, log_s1, w1 / w0


def _log_s0_prefix(delta: int, x: float) -> np.ndarray:
    """ln S0 at ``gamma = e^x`` for every cap 0..delta, from one prefix sum.

    Entry ``d`` is ``ln sum_{i <= d} C(delta, i) e^(i x)``: the log terms
    ``L_i = ln C(delta, i) + i x`` are scaled by their largest value ``p``,
    exponentiated, summed by one sequential ``cumsum`` and taken back to logs.

    Error bound, with ``u = 2^-53``, numpy's ``exp``/``log`` within 4 ulp and
    ``eps`` the largest error of a log term ``L_i`` (the same terms
    :func:`truncated_log_moments` builds): at every cap ``d`` at or above the
    row's mode, where the scaled prefix is at least 1,

        |entry - ln S0_d| <= eps + (2 d + 24) u + u |ln S0_d|.

    The prefix of ``d + 1`` positive terms is off by at most ``d u``
    relative; scaling a term ``z = p - L_i`` below the peak costs it ``u z``
    relative, and the weighted mean of ``z`` is at most ``ln(d + 1)``; the
    ``exp``, ``log`` and final ``+ p`` add the rest. At ``gamma`` the mode is
    at most ``ceil(delta gamma / (1 + gamma))``, so every cap above the
    uncapped mean is covered. Below the mode the scaled prefix shrinks with
    the cap and reads ``-inf`` once it underflows, about 745 nats below
    ``p``.
    """
    logterms = binomial_log_row(delta) + _index(delta) * x
    peak = logterms.max()
    with np.errstate(divide="ignore"):
        return peak + np.log(np.cumsum(np.exp(logterms - peak)))


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

    The log terms ln C(delta, k) + k ln p + (delta - k) ln(1 - p) are built
    as one numpy array, added in that order. Those whose `math.exp` is
    exactly 0.0 (log at or below `_EXP_ZERO_LOG`) are left out, the rest are
    sorted largest first, exponentiated with `math.exp` and combined with
    fsum, which then keeps few partials; fsum's single rounding makes the
    result the one an ascending loop over every term returns. The result is
    clamped to [0, 1] against last-ulp overshoot.
    """
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if not isinstance(cap, int) or cap < 0 or cap > delta:
        raise ValueError("cap must be an integer in [0, delta]")
    k = _index(delta)[: cap + 1]
    args = binomial_log_row(delta)[: cap + 1] + k * math.log(p) + (delta - k) * math.log1p(-p)
    largest_first = np.sort(args[args > _EXP_ZERO_LOG])[::-1]
    total = math.fsum(map(math.exp, largest_first.tolist()))
    return min(1.0, max(0.0, total))
