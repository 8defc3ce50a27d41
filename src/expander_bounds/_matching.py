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
# blocks lose: they build three arrays of the pool's size, and the finishing
# loop reads arrays, slower than lists at this size. Time per point, blocked
# over all-sequential, in the paired matching rows of scripts/bench_sampler.py
# (median of 11 rounds on a 2-core host, CPython 3.11, numpy 2.4): 1.08 at
# 32,770 points, 0.85 at 49,154, 0.86 at 65,538, 0.51 at 2^18 + 2 and 0.38
# at 10^6. With the switch at 49,152, 49,154 points took 1.13 times as long
# instead. For 10^6 points it matters little where the blocks stop: anywhere
# from 8,192 to 49,152 points left is within 3%, and 65,536 is 4-7% slower.
_LIST_POOL_POINTS = 1 << 15
_FREE = 0x7FFF  # collision marker of a slot that no step of the block touches


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
    """`_raw_matching` in blocks until _LIST_POOL_POINTS points are left."""
    count = (num_points - _LIST_POOL_POINTS + 1) // 2
    draws = _draws(rng, num_points, count)
    partner = array("q", [-1]) * num_points
    matched = np.frombuffer(partner, dtype=np.int64)
    pool = np.arange(num_points, dtype=np.uint32)
    where = pool.copy()
    marker = np.full(num_points, _FREE, dtype=np.int16)  # first step touching a slot
    cap = min(math.isqrt(num_points) // 2 + 1, 1 << 14)
    steps = np.arange(cap, dtype=np.int16)
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
        s = steps[:size]
        np.minimum.at(marker, touched, np.concatenate((s, s, s, s)))
        clash = np.flatnonzero(marker[touched].reshape(4, size).min(axis=0) < s)
        marker[touched] = _FREE
        done = int(clash[0]) if clash.size else size  # step 0 never clashes
        rows = touched.reshape(4, size)[:, :done]
        at, j, _, tail2 = rows
        end1, end2 = pool[rows[2:]].astype(np.intp)
        lows = lows[:done]
        # the first swap puts the first tail's point in the low's slot: it is
        # the partner when j is that slot, and the second swap moves it into
        # j when the low sat in the second tail. Slots from a step's second
        # tail on are dead, and where j is the low's slot the later write wins.
        p = np.where(j == at, end1, pool[j])
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
    # a chunk of ints at a time: tens of thousands alive at once would leave
    # their memory behind in the interpreter's allocator
    rest = np.flatnonzero(matched[low:] < 0) + low
    lows = chain.from_iterable(rest[i : i + 1024].tolist() for i in range(0, rest.size, 1024))
    return _walk(rng, memoryview(pool), memoryview(where), partner, lows, m)
