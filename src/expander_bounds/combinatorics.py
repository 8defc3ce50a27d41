"""Log-space binomial rows and the truncated binomial moment kernel.

Every heavyweight product (binomial weights and their sums) is carried as a
natural logarithm so downstream layers never multiply astronomically large
or small numbers directly. Base-2 quantities are a presentation concern of
the certifying layer, not of this module.

All functions are pure; cached rows are read-only, so concurrent callers are
safe. The row ln C(delta, i) is cached per degree and is the library's one
source of ln C(delta, i). The moment kernel (`truncated_log_moments`)
evaluates many caps in one call, each as one segment of a flat layout cached
per (degrees, caps) (`_layout`); each cap may have its own degree, so one
call serves the caps of many degrees, and a cap's values do not depend on the
other caps in the call. The prefix kernel (`_log_s0_prefix`) gives every
cap's ln S0 for many (degree, gamma) rows at once.

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
_DELTA = "delta must be a positive integer, or one per cap"

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


def _checked_caps(delta, caps) -> tuple:
    """``(delta, caps)`` with ``caps`` as a tuple and ``delta`` as one int, or
    as a tuple of one int per cap where they differ, once each delta is at
    least 1 and each cap an int in [0, its delta] (a float or numpy integer
    equal to one is not)."""
    caps = tuple(caps)
    if isinstance(delta, int):
        if delta < 1:
            raise ValueError(_DELTA)
        for cap in caps:
            if not isinstance(cap, int) or not 0 <= cap <= delta:
                raise ValueError(_CAP_RANGE)
        return delta, caps
    if not isinstance(delta, (tuple, list)) or len(delta) != len(caps) or not all(
            isinstance(d, int) and d >= 1 for d in delta):
        raise ValueError(_DELTA)
    deltas = tuple(delta)
    if deltas and deltas.count(deltas[0]) == len(deltas):
        return _checked_caps(deltas[0], caps)
    for d, cap in zip(deltas, caps):
        if not isinstance(cap, int) or not 0 <= cap <= d:
            raise ValueError(_CAP_RANGE)
    return deltas, caps


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


def _log_binomials(delta, i, seg=None) -> np.ndarray:
    """``ln C(delta, i)`` at each entry of ``i``, where ``delta`` is one degree,
    or a tuple of degrees of which ``seg`` picks each entry's (entry ``k``'s
    is ``delta[k]`` without ``seg``)."""
    if isinstance(delta, int):
        return binomial_log_row(delta)[i]
    rows, first = _joined_rows(tuple(dict.fromkeys(delta)))
    offsets = np.array([first[d] for d in delta])
    return rows[(offsets if seg is None else offsets[seg]) + i]


@lru_cache(maxsize=4)
def _joined_rows(degrees: tuple[int, ...]) -> tuple[np.ndarray, dict]:
    """The rows ``ln C(delta, i)`` of ``degrees`` end to end, read-only, and
    each degree's first index there; the 4 latest kept."""
    rows = [binomial_log_row(d) for d in degrees]
    sizes = [row.size for row in rows]
    joined = np.concatenate(rows)
    joined.flags.writeable = False
    return joined, dict(zip(degrees, (np.cumsum(sizes) - sizes).tolist()))


@lru_cache(maxsize=4)
def _layout(delta, caps: tuple[int, ...]):
    """The kernel's read-only flat layout of checked ``caps`` (``delta`` one
    degree or one per cap), the 4 latest kept: cap ``k``'s terms ``i <= cap``
    form one segment, ``starts`` holds each segment's first index, ``seg`` each
    term's segment (None for one cap), ``row`` ``ln C(delta, i)`` and
    ``weights`` the rows ``i`` (also returned as ``idx``), ``cap - i`` and ``i
    (cap - i)``."""
    lens = np.array(caps, dtype=np.intp) + 1
    starts = np.cumsum(lens) - lens
    seg = np.repeat(np.arange(len(caps), dtype=np.int32), lens)
    i = np.arange(lens.sum()) - starts[seg]
    weights = np.empty((3, i.size))
    weights[0] = i
    weights[1] = lens[seg] - 1 - i
    np.multiply(weights[0], weights[1], out=weights[2])
    row = _log_binomials(delta, i, seg)
    for a in (starts, seg, row, weights):
        a.flags.writeable = False
    return starts, (seg if len(caps) > 1 else None), weights[0], row, weights


def truncated_log_moments(delta, caps, gammas) -> tuple[np.ndarray, ...]:
    """``(ln S0, mean, gap, variance)`` of each cap's profile, in one pass.

    Entry ``k`` is for ``w_i = gamma_k^i C(delta_k, i)``, ``i <= caps[k]``:
    the log of their sum ``S0`` (scaled by the largest term, so it may lie
    past the double range), their mean, ``gap = sum (cap - i) w_i / S0``
    (accurate where the cap pins the mean) and variance ``mean gap - sum i
    (cap - i) w_i / S0``. ``delta`` is one degree for every cap, or a
    sequence of one per cap. The one moment kernel, of the root finder, the
    search and the verifier: its flat layout's segments (:func:`_layout`) are
    reduced one by one and every other step is elementwise, so a cap's values
    are the same bits alone or in any batch, whatever the degrees beside it.
    Raises ValueError unless each delta >= 1, each cap is an int in [0, its
    delta] and each gamma, one per cap, a real number (not a string), finite
    and positive.
    """
    delta, caps = _checked_caps(delta, caps)
    if not caps:
        raise ValueError("need at least one cap")
    return _in_runs(_moments, delta, caps, _checked_reals(gammas, len(caps), "gamma"))


def _in_runs(kernel, delta, caps: tuple[int, ...], *per_cap: np.ndarray) -> tuple:
    """``kernel(delta, caps, *per_cap)`` on runs of at most ``_RUN_TERMS`` terms
    (or one cap), joined: a cap's values do not depend on its run. With one
    degree per cap (a tuple ``delta``) runs hold whole degrees, and a degree
    too long for one run gets runs of its own, cut as a call of its own cuts
    them and given its ``delta`` as an int, so that its layouts are that
    call's."""
    if sum(caps) + len(caps) <= _RUN_TERMS:
        return kernel(delta, caps, *per_cap)
    deltas = (delta,) * len(caps) if isinstance(delta, int) else delta
    starts = [k for k in range(len(caps)) if k == 0 or deltas[k] != deltas[k - 1]]
    size = {i: sum(caps[i:j]) + j - i for i, j in zip(starts, starts[1:] + [len(caps)])}
    runs, terms, long = [0], 0, False
    for k, cap in enumerate(caps):
        if k in size:  # a degree's first cap: a run holds it whole, or it has its own
            if terms and (long or terms + size[k] > _RUN_TERMS):
                runs.append(k)
                terms = 0
            long = size[k] > _RUN_TERMS
        elif terms and terms + cap >= _RUN_TERMS:
            runs.append(k)
            terms = 0
        terms += cap + 1
    parts = []
    for i, j in zip(runs, runs[1:] + [len(caps)]):
        run = deltas[i:j]
        parts.append(kernel(run[0] if len(set(run)) == 1 else run, caps[i:j],
                            *(v[i:j] for v in per_cap)))
    return tuple(np.concatenate(values) for values in zip(*parts))


def _moments(delta, caps: tuple[int, ...], gamma: np.ndarray) -> tuple:
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


@lru_cache(maxsize=4)
def _padded_rows(deltas: tuple[int, ...]) -> np.ndarray:
    """The rows ``ln C(delta, i)`` of ``deltas``, one per row of a read-only
    matrix, each padded to the longest with ``-inf``; the 4 latest kept."""
    rows = np.full((len(deltas), max(deltas) + 1), -math.inf)
    for k, delta in enumerate(deltas):
        rows[k, : delta + 1] = binomial_log_row(delta)
    rows.flags.writeable = False
    return rows


def _log_s0_prefix(deltas: tuple[int, ...], xs) -> np.ndarray:
    """``ln S0`` at ``gamma = e^x`` for every cap 0..delta, one row per
    ``(delta, x)`` of ``deltas`` and ``xs``, from a prefix sum per row.

    Entry ``[k, d]`` is ``ln sum_{i <= d} C(delta, i) e^(i x)`` for ``delta =
    deltas[k]`` and ``x = xs[k]`` (entries past ``delta`` are not defined):
    the log terms ``L_i = ln C(delta, i) + i x`` are scaled by their largest
    value ``p``, exponentiated, summed by one sequential ``cumsum`` along the
    row and taken back to logs. Every step is elementwise or runs along one
    row, and the padding past a row's degree is ``-inf``, whose terms are
    0.0, so a row holds the same bits alone or beside any others.

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
    degrees = sorted(set(deltas))
    rows = _padded_rows(tuple(degrees))[[degrees.index(delta) for delta in deltas]]
    logterms = rows + _index(rows.shape[1] - 1) * np.array(xs)[:, None]
    peak = logterms.max(axis=1)[:, None]
    with np.errstate(divide="ignore"):
        return peak + np.log(np.cumsum(np.exp(logterms - peak), axis=1))
