"""The pairing model's uniform perfect matching, drawn exactly as a loop of
`rng.randrange` calls draws it: sequentially in lists for small pools, in
numpy blocks for large ones, with the same pairs and the same generator
state afterwards at every size."""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain

import numpy as np

# Pools of at most this many points are matched by the sequential loop over
# lists; larger pools are walked in blocks until this many points are left,
# and the same loop finishes them on their arrays. Just above the switch the
# blocks lose: they build three arrays of the pool's size and widen one of
# them at the end, and the finishing loop reads arrays, slower than lists at
# this size. Time per point, blocked over all-sequential, in the paired
# matching rows of scripts/bench_sampler.py (median of 11 rounds on a 2-core
# host, CPython 3.11, numpy 2.4): 1.17 at 32,770 points, 1.08 at 49,154,
# 0.97 at 65,538, 0.36 at 2^18 + 2 and 0.17 at 10^6. A higher switch only
# moves that window: against the switch at 65,536 this one takes 0.92 of
# the time at 65,538 points, 0.97 at 131,074 and 0.99-1.00 from 2^18 + 2 on.
_LIST_POOL_POINTS = 1 << 15


def _raw_matching(rng: random.Random, num_points: int) -> array:
    """Uniform perfect matching as a partner-of-point array: repeatedly pair
    the lowest unmatched point with a uniformly random other unmatched point.

    It is a shuffle that swaps to the tail. `pool[:m]` holds the m unmatched
    points and `where[p]` the slot of p. Step t swaps the low's slot with
    the tail slot N-1-2t, draws j below m_t = N-1-2t as `rng.randrange(m_t)`
    draws it (`getrandbits(k)` with k = m_t.bit_length(), repeated while the
    result is m_t or more), and swaps slot j with the tail N-2-2t; the point
    that reaches that tail is the low's partner. The calls to `getrandbits`
    are randrange's, so the matching and the generator's state afterwards are
    identical to a randrange loop's, without its argument handling.

    Pools of more than _LIST_POOL_POINTS points are walked in blocks, with
    numpy. Their draws are read as 32-bit words of the generator's own
    MT19937 stream (`getrandbits(32 w)` returns the next w words, first word
    lowest): a word passes for draw t iff its top k bits are below m_t. The
    draw each word serves is the fixed point of "a word serves the draw
    numbered by the count of passing words before it". A word's verdict
    depends only on the words before it, so the fixed point is unique, and
    an iterate that stops changing is the sequential answer. Past 2^32
    points, `getrandbits(k)` reads two words per call, so such pools stay
    on the sequential path.

    A block guesses its lows to be the next unmatched points and commits the
    longest prefix of its steps in which no step touches a slot (the low's
    slot, j or a tail) that an earlier step of the block touched. Those
    steps touch disjoint slots, so each reads the block-start values, they
    commute, and scattered writes apply them exactly. A step whose partner
    is a later guessed low found it in that low's slot, which the later step
    touches too, so a wrong guess is never committed. Blocks have about
    sqrt(m)/2 steps and run until at most _LIST_POOL_POINTS points are left.
    They hold about 14 bytes per point: the draws (uint32, about 2), `pool`
    and `where` (uint32, 4 + 4) and a working partner array (int32 up to
    2^31 points, 4, and int64 above), which also holds the clash codes.
    """
    if _LIST_POOL_POINTS < num_points <= 1 << 32:
        return _blocked_matching(rng, num_points)
    return _list_matching(rng, num_points)


def _list_matching(rng: random.Random, num_points: int) -> array:
    pool = list(range(num_points))
    return _walk(rng, pool, pool[:], array("q", [-1]) * num_points, range(num_points), num_points)


def _walk(rng: random.Random, pool, where, partner: array, lows, m: int) -> array:
    """The sequential loop over the ascending candidate `lows`, which hold
    every unmatched point, with the m unmatched points in `pool[:m]`."""
    getrandbits = rng.getrandbits
    for low in lows:
        if partner[low] >= 0:
            continue
        m -= 1
        last = pool[m]
        if last != low:
            i = where[low]
            pool[i] = last
            where[last] = i
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        p = pool[j]
        m -= 1
        last = pool[m]
        if last != p:
            pool[j] = last
            where[last] = j
        partner[low] = p
        partner[p] = low
    return partner


def _draws(rng: random.Random, num_points: int, count: int) -> np.ndarray:
    """The matching's first `count` draws, leaving `rng` where the sequential
    loop leaves it after them."""
    draws = np.empty(count, dtype=np.uint32)
    t = 0
    while t < count:
        # few enough words that a wrong guess of a word's draw seldom flips
        # its verdict, so the iteration settles in a few rounds
        words = min((num_points - 2 * t) // 32 + 1, 1 << 16)
        c = min(words, count - t)
        m = np.arange(num_points - 1 - 2 * t, num_points - 1 - 2 * (t + c), -2, dtype=np.uint32)
        shift = 32 - np.frexp(m)[1]
        lim = np.zeros(c + 1, dtype=np.int64)  # lim[c] = 0 passes no word past the chunk
        np.left_shift(m, shift, out=lim[:c])  # word w passes for draw d iff w < lim[d]
        start = rng.getstate() if c == count - t else None
        w = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), "<u4")
        acc = np.ones(words, dtype=bool)
        while True:
            d = np.cumsum(acc)
            d -= acc
            np.minimum(d, c, out=d)
            passed = w < lim[d]
            if not np.count_nonzero(passed != acc):
                break
            acc = passed
        used = np.flatnonzero(acc)
        draws[t : t + used.size] = w[used] >> shift[: used.size]
        t += used.size
        if t == count and used[-1] + 1 < words:  # give back the unused words
            rng.setstate(start)
            rng.getrandbits(32 * (int(used[-1]) + 1))
    return draws


def _blocked_matching(rng: random.Random, num_points: int) -> array:
    """`_raw_matching` in blocks until _LIST_POOL_POINTS points are left.

    Four arrays of the pool's size are alive during the blocks: the draws
    (uint32, about 2 bytes per point), `pool` and `where` (uint32, 4 + 4)
    and the working partner array `matched`: about 14 bytes per point in
    all. `matched` is int32 (4) up to 2^31 points, whose ids all fit in it, and
    int64 (8) above. The draws are freed before the finishing walk, and
    `pool` and `where` after it; only then is `matched` widened into the
    graph's `array('q')`, so that copy also peaks at 12 bytes per point.

    A block finds its clashes in the partner entries themselves. Every slot
    it touches is below m, so it holds an unmatched point, whose entry is
    -1. The block writes step s's first-touch code s - cap - 1 into those
    points' entries with `np.minimum.at`, reads each step's smallest code
    back, and resets them to -1 before it commits. The codes are below -1,
    so no code reads as a partner or as unmatched, and none outlives the
    block.
    """
    count = (num_points - _LIST_POOL_POINTS + 1) // 2
    draws = _draws(rng, num_points, count)
    matched = np.full(num_points, -1, dtype=np.int32 if num_points <= 1 << 31 else np.int64)
    pool = np.arange(num_points, dtype=np.uint32)
    where = pool.copy()
    cap = min(math.isqrt(num_points) // 2 + 1, 1 << 14)
    codes = np.arange(-cap - 1, -1, dtype=np.int32)  # step s's first-touch code
    twice = np.arange(0, 2 * cap, 2)
    t = low = 0
    m = num_points
    while t < count:
        size = min(math.isqrt(m) // 2 or 1, cap, count - t)
        span = 2 * size * (num_points - low) // m + 64
        lows = np.flatnonzero(matched[low : low + span] < 0)[:size]
        while not lows.size:  # every point of the window is matched
            low += span
            lows = np.flatnonzero(matched[low : low + span] < 0)[:size]
        lows += low
        size = lows.size
        tail1 = (m - 1) - twice[:size]
        touched = np.concatenate((where[lows], draws[t : t + size], tail1, tail1 - 1),
                                 dtype=np.intp)
        points = pool[touched].astype(np.intp)
        c = codes[:size]
        np.minimum.at(matched, points, np.concatenate((c, c, c, c)))
        clash = np.flatnonzero(matched[points].reshape(4, size).min(axis=0) < c)
        matched[points] = -1
        done = int(clash[0]) if clash.size else size  # step 0 never clashes
        at, j, _, tail2 = touched.reshape(4, size)[:, :done]
        _, picked, end1, end2 = points.reshape(4, size)[:, :done]
        lows = lows[:done]
        # the first swap puts the first tail's point in the low's slot: it is
        # the partner when j is that slot, and the second swap moves it into
        # j when the low sat in the second tail. Slots from a step's second
        # tail on are dead, and where j is the low's slot the later write wins.
        p = np.where(j == at, end1, picked)
        moved = np.where(tail2 == at, end1, end2)
        pool[at] = end1
        where[end1] = at
        pool[j] = moved
        where[moved] = j
        matched[lows] = p
        matched[p] = lows
        t += done
        m -= 2 * done
        low = int(lows[-1]) + 1
    del draws
    # a chunk of ints at a time: tens of thousands alive at once would leave
    # their memory behind in the interpreter's allocator
    rest = np.flatnonzero(matched[low:] < 0) + low
    lows = chain.from_iterable(rest[i : i + 1024].tolist() for i in range(0, rest.size, 1024))
    _walk(rng, memoryview(pool), memoryview(where), memoryview(matched), lows, m)
    del pool, where
    partner = array("q", [0]) * num_points
    np.frombuffer(partner, dtype=np.int64)[:] = matched
    return partner
