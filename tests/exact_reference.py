"""The tests' exact references, each computed term by term: the binomial
point mass and lower tail at a given p, ln C(n, k), the log of an odd double
factorial, and the pairing-model probability of an out-degree configuration
with a seeded sampler that tallies it. The library reads its P1, P2 and P3
off the root solve (`asymptotics.solve_one_sided`) and every ln C(delta, i)
off `binomial_log_row`, so these live beside the tests that use them."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from expander_bounds.combinatorics import _index, binomial_log_row
from expander_bounds.graphlab import _raw_matching, _seeded

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


def log_config_prob(delta: int, n: int, svec, svec_prime) -> float:
    """Natural log-probability that a fixed |S| = sum(svec) produces the
    out-degree histograms (svec, svec_prime) under a uniform pairing.

    Counts the matchings realizing the configuration: choose which vertices
    get which out-degree on each side, which of each vertex's delta points
    cross, one of c! ways to match the crossing points, and any internal
    matching on each side's remaining points; normalized by the total number
    of matchings (the product of odd integers below delta * n).
    """
    s = list(svec)
    sp = list(svec_prime)
    if len(s) != delta + 1 or len(sp) != delta + 1:
        raise ValueError("histograms must have delta + 1 entries")
    if any(not isinstance(x, int) or x < 0 for x in s + sp):
        raise ValueError("histogram entries must be non-negative integers")
    u = sum(s)
    if u + sum(sp) != n:
        raise ValueError("side sizes must total n")
    c = sum(i * x for i, x in enumerate(s))
    if c != sum(i * x for i, x in enumerate(sp)):
        raise ValueError("both sides must have the same crossing-endpoint total")
    inside = delta * u - c
    outside = delta * (n - u) - c
    if inside < 0 or outside < 0:
        raise ValueError("crossing total exceeds a side's points")
    if inside % 2 != 0 or outside % 2 != 0:
        raise ValueError("each side's internal point count must be even")

    def side_log(count: int, hist: list[int]) -> float:
        terms = [math.lgamma(count + 1)]
        for i, x in enumerate(hist):
            if x:
                terms.append(-math.lgamma(x + 1))
                terms.append(x * log_binomial(delta, i))
        return math.fsum(terms)

    return math.fsum(
        [
            side_log(u, s),
            side_log(n - u, sp),
            math.lgamma(c + 1),
            log_odd_double_factorial(inside),
            log_odd_double_factorial(outside),
            -log_odd_double_factorial(delta * n),
        ]
    )


def sample_out_degree_configurations(
    delta: int, n: int, size_s: int, trials: int, seed: int
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Tally (svec, svec_prime) over seeded pairings with S = {0..size_s-1}.

    A lean Monte-Carlo loop for validating log_config_prob: works on raw
    partner arrays without building graph objects, and reads only the points
    of S, since every crossing pair has exactly one point there. Trials are
    counted by out-degree vector, and each distinct vector is turned into its
    histograms once at the end.
    """
    if not 0 <= size_s <= n:
        raise ValueError("size_s must lie in [0, n]")
    if (delta * n) % 2 != 0:
        raise ValueError("delta * n must be even")
    rng = _seeded(seed)
    boundary = size_s * delta
    num_points = delta * n
    by_out: dict[tuple[int, ...], int] = {}
    for _ in range(trials):
        out = [0] * n
        partner = _raw_matching(rng, num_points)
        for a in range(boundary):
            b = partner[a]
            if b >= boundary:
                out[a // delta] += 1
                out[b // delta] += 1
        key = tuple(out)
        by_out[key] = by_out.get(key, 0) + 1
    tally: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    width = delta + 1
    in_s = width * (np.arange(n) < size_s)  # S's counts land in the upper half
    for out, count in by_out.items():
        hist = np.bincount(np.array(out) + in_s, minlength=2 * width).tolist()
        key = (tuple(hist[width:]), tuple(hist[:width]))
        tally[key] = tally.get(key, 0) + count
    return tally
