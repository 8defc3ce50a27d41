"""The exact binomial references the one-sided probabilities are checked
against: the point mass and the lower tail, each summed term by term at a
given p. The library reads its P1, P2 and P3 off the root solve instead
(`asymptotics.solve_one_sided`), so these live beside the tests that use
them."""

from __future__ import annotations

import math

import numpy as np

from expander_bounds.combinatorics import _index, binomial_log_row

# math.exp returns exactly 0.0 at and below this argument: e^-746 is less than
# 0.21 of the smallest subnormal 2^-1074, so an exp whose error stays under
# 0.79 ulp (glibc's is under 0.51) cannot round it up. A sum's terms with a
# log at or below it add nothing, and leaving them out moves no bit. The cut
# sits below ln(2^-1075) = -745.13..., where the true value crosses half the
# smallest subnormal, so a term that rounds to 2^-1074 is always kept.
_EXP_ZERO_LOG = -746.0


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
