"""Log-space binomial rows and the truncated binomial moment kernel.

Every heavyweight product (binomial weights and their sums) is carried as a
natural logarithm so downstream layers never multiply astronomically large
or small numbers directly. Base-2 quantities are a presentation concern of
the certifying layer, not of this module.

All functions are pure; cached rows are read-only, so concurrent callers are
safe. Two arrays are cached per degree: the row ln C(delta, i) and the index
0..delta as float64 (`_index`), which the prefix kernel uses instead of
building an arange on every call. The row is the library's one source of
ln C(delta, i). The moment kernel (`truncated_log_moments`) evaluates many
caps in one call, each as one segment of a flat layout cached per (delta,
caps) (`_layout`), and a cap's values do not depend on the other caps in the
call.

The row builds its ratios in numpy and finishes them in Python, and it holds
the same bits as a term-by-term Python loop. Each int-to-float conversion is
exact (every integer below 2**53 is a double), and numpy's elementwise +, -,
* and / are each one correctly rounded IEEE operation; numpy does not fuse a
multiply and an add. So an array expression written in the loop's order
yields the loop's doubles. The transcendental step still goes through
`math.log` term by term.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "binomial_log_row",
    "truncated_log_moments",
]

_CAP_RANGE = "cap must be an integer in [0, delta]"

# exp is exactly 0.0 at and below this: e^-746 is under 0.21 of 2^-1074, and
# numpy's exp turns nonzero near -745.133, where e^x crosses half of it.
_EXP_ZERO_LOG = -746.0

# The most terms one kernel or residual pass lays out at once (under 1 MB).
_RUN_TERMS = 1 << 13


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


def _checked_caps(delta: int, caps) -> tuple[int, ...]:
    """``caps`` as a tuple, once delta >= 1 and each cap is an int in [0, delta]
    (a float or numpy integer equal to one is not)."""
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    caps = tuple(caps)
    for cap in caps:
        if not isinstance(cap, int) or not 0 <= cap <= delta:
            raise ValueError(_CAP_RANGE)
    return caps


def _checked_reals(values, count: int, name: str) -> np.ndarray:
    """``values`` as a float array, once numpy holds them as ``count`` real
    numbers (a string or other object among them leaves its dtype not real),
    each finite and positive (a nan, which min and max carry, is not)."""
    array = np.asarray(values)
    real = array.dtype.kind in "biuf" and array.shape == (count,)
    array = array.astype(float, copy=False) if real else array
    if not real or not 0.0 < np.minimum.reduce(array) <= np.maximum.reduce(array) < math.inf:
        raise ValueError(f"{name} must be a finite positive real, one per cap")
    return array


@lru_cache(maxsize=16)
def _layout(delta: int, caps: tuple[int, ...]):
    """The kernel's read-only flat layout of checked ``caps``, the 16 latest
    kept: cap ``k``'s terms ``i <= cap`` form one segment, ``starts`` holds
    each segment's first index, ``seg`` each term's segment (None for one
    cap), ``row`` ``ln C(delta, i)`` and ``weights`` the rows ``i`` (also
    returned as ``idx``), ``cap - i`` and ``i (cap - i)``."""
    lens = np.array(caps, dtype=np.intp) + 1
    starts = np.cumsum(lens) - lens
    seg = np.repeat(np.arange(len(caps), dtype=np.int32), lens)
    i = np.arange(lens.sum()) - starts[seg]
    weights = np.empty((3, i.size))
    weights[0] = i
    weights[1] = lens[seg] - 1 - i
    np.multiply(weights[0], weights[1], out=weights[2])
    row = binomial_log_row(delta)[i]
    for a in (starts, seg, row, weights):
        a.flags.writeable = False
    return starts, (seg if len(caps) > 1 else None), weights[0], row, weights


def truncated_log_moments(delta: int, caps, gammas) -> tuple[np.ndarray, ...]:
    """``(ln S0, mean, gap, variance)`` of each cap's profile, in one pass.

    Entry ``k`` is for ``w_i = gamma_k^i C(delta, i)``, ``i <= caps[k]``: the
    log of their sum ``S0`` (scaled by the largest term, so it may lie past
    the double range), their mean, ``gap = sum (cap - i) w_i / S0`` (accurate
    where the cap pins the mean) and variance ``mean gap - sum i (cap - i) w_i
    / S0``. The one moment kernel, of the root finder, the refine and the
    verifier: its flat layout's segments (:func:`_layout`) are reduced one by
    one and every other step is elementwise, so a cap's values are the same
    bits alone or in any batch. Raises ValueError unless delta >= 1, each cap
    is an int in [0, delta] and each gamma, one per cap, a real number (not a
    string), finite and positive.
    """
    caps = _checked_caps(delta, caps)
    if not caps:
        raise ValueError("need at least one cap")
    return _in_runs(_moments, delta, caps, _checked_reals(gammas, len(caps), "gamma"))


def _in_runs(kernel, delta: int, caps: tuple[int, ...], *per_cap: np.ndarray) -> tuple:
    """``kernel(delta, caps, *per_cap)`` on runs of at most ``_RUN_TERMS`` terms
    (or one cap), joined: a cap's values do not depend on its run."""
    if sum(caps) + len(caps) <= _RUN_TERMS:
        return kernel(delta, caps, *per_cap)
    cuts, terms = [0], 0
    for k, cap in enumerate(caps):
        if terms and terms + cap >= _RUN_TERMS:
            cuts.append(k)
            terms = 0
        terms += cap + 1
    parts = [kernel(delta, caps[i:j], *(v[i:j] for v in per_cap))
             for i, j in zip(cuts, cuts[1:] + [len(caps)])]
    return tuple(np.concatenate(values) for values in zip(*parts))


def _moments(delta: int, caps: tuple[int, ...], gamma: np.ndarray) -> tuple:
    """:func:`truncated_log_moments` on checked inputs, in one flat pass."""
    starts, seg, idx, row, weights = _layout(delta, caps)
    x = np.log(gamma)
    scaled = idx * (x if seg is None else x[seg])
    scaled += row
    peak = np.maximum.reduceat(scaled, starts)
    scaled -= peak if seg is None else peak[seg]
    sums = np.empty((4, idx.size))
    if idx.size <= 256:
        np.exp(scaled, out=sums[0])
    else:
        # exp is 0.0 at and below _EXP_ZERO_LOG but takes a slow path there,
        # so a long layout leaves those terms at 0.0 instead: the same bits
        sums[0] = 0.0
        np.exp(scaled, out=sums[0], where=scaled > _EXP_ZERO_LOG)
    np.multiply(weights, sums[0], out=sums[1:])
    sums = np.add.reduceat(sums, starts, axis=1)
    mean, gap, cross = sums[1:] / sums[0]
    return peak + np.log(sums[0]), mean, gap, mean * gap - cross


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
