"""Tests for the pairing-model laboratory.

The uniformity test enumerates every matching on delta*n points and runs a
chi-square goodness-of-fit at the 0.999 level against 1e5 seeded samples;
the critical values are fixed constants so the test needs no stats library.
"""

import copy
import hashlib
import itertools
import math
import operator
import pickle
import random
import re
import tracemalloc
from array import array
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from expander_bounds import _matching, graphlab
from expander_bounds.cli import main
from expander_bounds.graphlab import (
    BEST_IMPROVEMENT,
    FIRST_IMPROVEMENT,
    CutState,
    OutDegreeVector,
    RegularMultigraph,
    brute_force_expansion,
    cut_state,
    derive_seed,
    expansion_experiment,
    local_descent,
    sample_pairing,
)
from exact_reference import log_config_prob, sample_out_degree_configurations

C8_EDGES = [(i, (i + 1) % 8) for i in range(8)]
K4_EDGES = [(u, v) for u in range(4) for v in range(u + 1, 4)]
# 3-regular two-vertex graph with a loop at each end
DUMBBELL_EDGES = [(0, 0), (1, 1), (0, 1)]
CUBE_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
]


def _adjacency(g: RegularMultigraph) -> tuple[tuple[int, ...], ...]:
    """Per-vertex neighbour multiset (loops contribute the vertex twice)."""
    rows = []
    for v in range(g.n):
        row = [v, v] * g.loops(v)
        for w, m in g.neighbor_items(v):
            row.extend([w] * m)
        rows.append(tuple(sorted(row)))
    return tuple(rows)


def _reference_adjacency(delta: int, n: int, pairing):
    """Reference: the dict-and-tuple adjacency graphs were once stored as.

    Returns (canonical pairing, multiplicity dict keyed by (low, high) vertex
    pairs with loops under (v, v), loop counts, per-vertex ascending
    (neighbour, multiplicity) tuples without the vertex itself).
    """
    canon = tuple(sorted((a, b) if a < b else (b, a) for a, b in pairing))
    mult: dict[tuple[int, int], int] = {}
    nloops = [0] * n
    for a, b in canon:
        va, vb = a // delta, b // delta
        if va == vb:
            nloops[va] += 1
        key = (va, vb) if va < vb else (vb, va)
        mult[key] = mult.get(key, 0) + 1
    items: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (va, vb), m in sorted(mult.items()):
        if va != vb:
            items[va].append((vb, m))
            items[vb].append((va, m))
    return canon, mult, tuple(nloops), tuple(tuple(row) for row in items)


def _assert_layout_matches_reference(g: RegularMultigraph, rng: random.Random) -> None:
    canon, mult, nloops, items = _reference_adjacency(g.delta, g.n, g.pairing)
    assert g.pairing == canon
    assert g.num_edges == len(canon)
    assert g.is_simple == (
        not any(nloops) and all(m == 1 for (a, b), m in mult.items() if a != b)
    )
    for v in range(g.n):
        assert g.neighbor_items(v) == items[v]
        assert g.loops(v) == nloops[v]
        assert g.multiplicity(v, v) == mult.get((v, v), 0) == nloops[v]
        for w, m in items[v]:
            assert g.multiplicity(v, w) == g.multiplicity(w, v) == m
        for w in rng.sample(range(g.n), min(g.n, 4)):  # mostly non-adjacent
            key = (v, w) if v <= w else (w, v)
            assert g.multiplicity(v, w) == mult.get(key, 0)
    # the graph equals its rebuild from the pairing, and hashes alike
    again = RegularMultigraph(g.delta, g.n, canon[::-1])
    assert again == g and hash(again) == hash(g)


def swap_delta(state: CutState, u: int, v: int) -> int:
    """Reference: exact cut change if u (inside S) and v (outside) trade sides.

    2*delta - 2*out(u) - 2*out(v) - 2*loops(u) - 2*loops(v) + 2*mult(u, v):
    internal edges of each swapped vertex start crossing, crossing ones stop,
    loops never cross, and each parallel u-v edge crosses both before and
    after (the -2 counted for each endpoint is returned as +2m).
    """
    graph = state.graph
    if not 0 <= u < graph.n or not 0 <= v < graph.n:
        raise ValueError("vertex id out of range")
    if not state.membership[u]:
        raise ValueError(f"vertex {u} is not in S")
    if state.membership[v]:
        raise ValueError(f"vertex {v} is in S")
    return (
        2 * graph.delta
        - 2 * (state.out_degrees[u] + graph.loops(u))
        - 2 * (state.out_degrees[v] + graph.loops(v))
        + 2 * graph.multiplicity(u, v)
    )


def test_derive_seed_pins():
    assert derive_seed(0, 0) == 13787848793156543929
    assert derive_seed(424242, 1) == 8676182475379700876
    seeds = [derive_seed(99, i) for i in range(1000)]
    assert len(set(seeds)) == 1000


def test_out_degree_vector():
    v = OutDegreeVector((2, 0, 3))
    assert v.delta == 2
    assert v.counts == (2, 0, 3)
    assert sum(v.counts) == 5  # vertices counted
    assert sum(i * c for i, c in enumerate(v.counts)) == 6  # crossing endpoints
    assert v.max_out_degree == 2
    assert OutDegreeVector((4,)).max_out_degree == 0
    with pytest.raises(ValueError):
        OutDegreeVector(())
    with pytest.raises(ValueError):
        OutDegreeVector((1, -1))
    with pytest.raises(ValueError):
        OutDegreeVector((1.0, 2))


def test_from_edges_k4():
    g = RegularMultigraph.from_edges(3, 4, K4_EDGES)
    assert g.num_edges == 6
    assert g.is_simple
    assert g.multiplicity(0, 3) == 1
    assert g.multiplicity(3, 0) == 1
    assert g.loops(2) == 0
    assert _adjacency(g) == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    assert sorted((a // 3, b // 3) for a, b in g.pairing) == K4_EDGES
    assert g.neighbor_items(0) == ((1, 1), (2, 1), (3, 1))


def test_from_edges_loops_and_parallels():
    g = RegularMultigraph.from_edges(3, 2, DUMBBELL_EDGES)
    assert g.loops(0) == 1 and g.loops(1) == 1
    assert g.multiplicity(0, 0) == 1
    assert g.multiplicity(0, 1) == 1
    assert not g.is_simple
    assert _adjacency(g) == ((0, 0, 1), (0, 1, 1))
    doubled = RegularMultigraph.from_edges(2, 2, [(0, 1), (0, 1)])
    assert doubled.multiplicity(0, 1) == 2
    assert not doubled.is_simple


def test_construction_validation():
    with pytest.raises(ValueError):
        RegularMultigraph.from_edges(3, 4, K4_EDGES + [(0, 1)])
    with pytest.raises(ValueError):
        RegularMultigraph.from_edges(3, 4, [(0, 5)])
    with pytest.raises(ValueError):
        RegularMultigraph(1, 3, ((0, 1),))
    with pytest.raises(ValueError):
        RegularMultigraph(1, 4, ((0, 1), (2, 5)))
    with pytest.raises(ValueError):
        RegularMultigraph(1, 4, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        RegularMultigraph(1, 4, ((0, 1),))
    with pytest.raises(ValueError):
        RegularMultigraph(0, 4, ())
    # pairing order is canonicalized
    g = RegularMultigraph(1, 4, ((3, 2), (1, 0)))
    assert g.pairing == ((0, 1), (2, 3))


def test_explicit_pairing_messages():
    # an explicit pairing is refused for a point out of range, for a point
    # no pair covers and for a point in two pairs, including extra pairs
    # whose last writes leave a valid partner array
    cover = "pairing must cover every point exactly once"
    cases = [
        (((0, 1), (2, 5)), "pair (2, 5) has a point out of range"),
        (((-1, 0), (1, 2)), "pair (-1, 0) has a point out of range"),
        (((0, 1),), cover),
        (((0, 1), (1, 2)), cover),
        (((0, 0), (1, 2)), cover),
        (((0, 1), (0, 1), (2, 3)), cover),
        (((0, 1), (2, 3), (0, 2), (1, 3)), cover),
    ]
    for pairing, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RegularMultigraph(1, 4, pairing)


def test_layout_matches_reference_on_sampled_graphs():
    rng = random.Random(20261018)
    simple = seen_loops = seen_parallel = 0
    prev = RegularMultigraph(1, 2, ((0, 1),))
    for i in range(240):
        # every third graph is rejection-sampled to simple, at degrees where
        # that takes few attempts
        delta = rng.randint(1, 4 if i % 3 == 0 else 12)
        n = rng.randint(1, 400) if i % 4 else rng.randint(1, 12)
        n += (delta * n) % 2
        simple_only = i % 3 == 0 and delta <= n - 1
        g = sample_pairing(delta, n, seed=rng.randrange(1 << 32), simple_only=simple_only)
        assert g.is_simple or not simple_only
        _assert_layout_matches_reference(g, rng)
        simple += simple_only
        seen_loops += any(g.loops(v) for v in range(n))
        seen_parallel += any(m > 1 for v in range(n) for _, m in g.neighbor_items(v))
        # == agrees with comparing the reference's (delta, n, pairing)
        assert (g == prev) == ((g.delta, g.n, g.pairing) == (prev.delta, prev.n, prev.pairing))
        prev = g
    # the cases cover simple graphs, loops and parallel edges
    assert simple > 60 and seen_loops > 100 and seen_parallel > 100


def test_layout_matches_reference_on_edge_lists(petersen):
    cases = [
        (3, 2, DUMBBELL_EDGES),
        (2, 2, [(0, 1), (0, 1)]),
        (3, 2, [(0, 1)] * 3),  # a triple edge
        (4, 2, [(0, 0), (0, 1), (0, 1), (1, 1)]),
        (4, 2, [(0, 0), (0, 0), (1, 1), (1, 1)]),  # two loops at each vertex
        (4, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]),
        (2, 1, [(0, 0)]),
        (3, 4, K4_EDGES),
        (3, 8, CUBE_EDGES),
        (2, 8, C8_EDGES),
    ]
    rng = random.Random(7)
    for delta, n, edges in cases:
        g = RegularMultigraph.from_edges(delta, n, edges)
        # the pairing realizes exactly the given edge multiset
        merged = sorted(tuple(sorted((a // delta, b // delta))) for a, b in g.pairing)
        assert merged == sorted(tuple(sorted(e)) for e in edges)
        _assert_layout_matches_reference(g, rng)
    _assert_layout_matches_reference(petersen, rng)
    assert RegularMultigraph.from_edges(4, 2, [(0, 0), (0, 0), (1, 1), (1, 1)]).loops(1) == 2
    assert RegularMultigraph.from_edges(3, 2, [(0, 1)] * 3).neighbor_items(1) == ((0, 3),)


def test_from_partner_validation(monkeypatch):
    # validation is eager and does not build the adjacency: every
    # malformed array below raises from _from_partner itself
    def no_index(graph):
        raise AssertionError("built the adjacency")

    monkeypatch.setattr(RegularMultigraph, "_index", no_index)
    good = array("q", [1, 0, 3, 2])
    assert RegularMultigraph._from_partner(1, 4, good).pairing == ((0, 1), (2, 3))
    bad = [
        array("q", [1, 0]),  # too short
        array("q", [1, 0, 3, 4]),  # out of range
        array("q", [1, 0, -1, 2]),  # out of range
        array("q", [1, 0, 2, 3]),  # points matched with themselves
        array("q", [1, 2, 3, 0]),  # not an involution
    ]
    for partner in bad:
        with pytest.raises(ValueError):
            RegularMultigraph._from_partner(1, 4, partner)
    # the first offending point is named, whichever check it fails
    messages = [
        (array("q", [1, 0]), "pairing must cover every point exactly once"),
        (array("q", [1, 0, 3, 4]), "point 2 appears in two pairs"),
        (array("q", [1, 0, -1, 2]), "point 2 has partner -1, out of range"),
        (array("q", [1, 0, 2, 3]), "point 2 appears in two pairs"),
        (array("q", [1, 2, 3, 0]), "point 0 appears in two pairs"),
        (array("q", [4, 0, 3, 2]), "point 0 has partner 4, out of range"),
    ]
    for partner, message in messages:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RegularMultigraph._from_partner(1, 4, partner)
    # bad points past the first chunk of rows (65,536 points) are found too
    delta, n = 10, 14_000
    good = sample_pairing(delta, n, seed=5)._partner
    # a point in the third chunk (rows of 6,553 vertices, so from point
    # 131,060 on) matched with a higher one, so that breaking its entry
    # breaks no lower point
    q = next(q for q in range(131_101, delta * n) if good[q] > q)
    p = good[q]
    for value, message in [
        (delta * n, f"point {q} has partner {delta * n}, out of range"),
        (q, f"point {q} appears in two pairs"),
    ]:
        partner = array("q", good)
        partner[q] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RegularMultigraph._from_partner(delta, n, partner)
    # swapping two partners breaks the involution first at the lower point
    partner = array("q", good)
    partner[q], partner[q + 1] = good[q + 1], p
    first = min(q, q + 1, good[q], good[q + 1])
    with pytest.raises(ValueError, match=f"^point {first} appears in two pairs$"):
        RegularMultigraph._from_partner(delta, n, partner)


@pytest.mark.parametrize("delta,n", [(10, 14_000), (7, 20_000)])
def test_layout_matches_reference_across_chunks(delta, n):
    # 140,000 points: validation works in three chunks of 65,536 points,
    # and the adjacency built in one pass must agree with the reference
    g = sample_pairing(delta, n, seed=derive_seed(65536, delta))
    canon, mult, nloops, items = _reference_adjacency(delta, n, g.pairing)
    assert tuple(g.loops(v) for v in range(n)) == nloops
    assert tuple(g.neighbor_items(v) for v in range(n)) == items
    assert g.pairing == canon


def _clones(g: RegularMultigraph) -> list[RegularMultigraph]:
    return [copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))]


def test_graphs_copy_and_pickle():
    g = sample_pairing(4, 50, seed=3)
    # cut_state, equality, hashing, copying and pickling read only the
    # partner array: none of them builds the adjacency
    state = cut_state(g, set(range(25)))
    early = _clones(g)
    key = (hash(g), g.pairing, g.is_simple, repr(g))
    assert g._rows is None and all(clone._rows is None for clone in early)
    items = [g.neighbor_items(v) for v in range(50)]  # builds it
    assert g._rows is not None
    assert (hash(g), g.pairing, g.is_simple, repr(g)) == key
    # clones taken before and after the build agree with the graph and
    # with each other, whether or not they have built theirs
    for clone in early + _clones(g):
        assert clone == g and hash(clone) == hash(g)
        assert [clone.neighbor_items(v) for v in range(50)] == items
    assert cut_state(g, set(range(25))) == state
    assert copy.deepcopy(state) == state
    assert pickle.loads(pickle.dumps(state)) == state


def test_every_adjacency_reader_builds_the_rows():
    # each reader, called first on a fresh graph, builds the adjacency rows
    # itself and reads the reference adjacency
    built = sample_pairing(3, 12, seed=4)
    canon, mult, nloops, items = _reference_adjacency(3, 12, built.pairing)
    some = {0, 2, 5, 7}
    readers = [
        lambda g: [g.neighbor_items(v) for v in range(12)] == list(items),
        lambda g: [g.loops(v) for v in range(12)] == list(nloops),
        lambda g: g.multiplicity(0, items[0][0][0]) == items[0][0][1],
        lambda g: _assert_matches_reference(cut_state(g, some), BEST_IMPROVEMENT) is not None,
        lambda g: graphlab._no_improving_swap(cut_state(g, some))
        == graphlab._no_improving_swap(cut_state(built, some)),
        lambda g: brute_force_expansion(g) == _reference_brute_force(built),
    ]
    for read in readers:
        g = sample_pairing(3, 12, seed=4)
        assert g._rows is None
        assert read(g)
        assert g._rows is not None


# sha256 of the flattened canonical pairing of
# sample_pairing(delta, n, seed, simple_only), recorded before the graph
# layout became a partner array: the sampler's random stream and every
# sampled graph must stay bit-identical, rejection sampling included, and
# on both sides of the matching's list/array switch (70,000 points is above it).
PAIRING_SHA = {
    (10, 7000, 1, False): "1ed657abee29014171ddc1b3e8e0a5b40b1770fbb2810428867989b298567c31",
    (10, 2000, 1, False): "456bb00528a8839fd8496dc05bfa5bb820fb79af358928ec1906939dbb114199",
    (10, 2000, 2, False): "4ca9958f4ba5280366064a2faa9c8523e00608a4690259f0f10121eca4daff0a",
    (10, 2000, 3, False): "f7f7fa0e59a67b144618d7bf4eae8559746cfa3f71c0f998226f06999f5a17b4",
    (4, 200, 1, True): "48999c6b954fafe75b2d61fbb329121605b828e48e22c3e651e0503a765fb2af",
}


@pytest.mark.parametrize("delta,n,seed,simple_only", sorted(PAIRING_SHA))
def test_sample_pairing_stream_is_pinned(delta, n, seed, simple_only):
    g = sample_pairing(delta, n, seed=seed, simple_only=simple_only)
    flat = array("q", itertools.chain.from_iterable(g.pairing)).tobytes()
    assert hashlib.sha256(flat).hexdigest() == PAIRING_SHA[delta, n, seed, simple_only]


def _reference_raw_matching(rng: random.Random, num_points: int) -> array:
    """Reference: the matching loop with `rng.randrange` draws, in lists at
    every size (the pool's container does not change the pairs drawn)."""
    pool = list(range(num_points))
    where = pool[:]
    partner = array("q", [-1]) * num_points
    for low in range(num_points):
        if partner[low] >= 0:
            continue
        last = pool.pop()
        if last != low:
            i = where[low]
            pool[i] = last
            where[last] = i
        j = rng.randrange(len(pool))
        p = pool[j]
        last = pool.pop()
        if last != p:
            pool[j] = last
            where[last] = j
        partner[low] = p
        partner[p] = low
    return partner


@pytest.mark.parametrize("num_points", [2, 4, 6, 8, 5000, 65_536, 65_538, 200_000])
def test_raw_matching_matches_randrange_reference(num_points):
    # the inlined draws make the same getrandbits calls as randrange, on
    # both sides of the list/array switch and over consecutive calls on one
    # generator, as rejection sampling and criterion 08 make them
    assert 8 <= _matching._LIST_POOL_POINTS < 200_000  # the sizes reach both sides
    seed = derive_seed(20261018, num_points)
    fast, ref = random.Random(seed), random.Random(seed)
    for _ in range(3 if num_points > 10_000 else 50):
        assert graphlab._raw_matching(fast, num_points) == _reference_raw_matching(ref, num_points)
        assert fast.getstate() == ref.getstate()


def test_blocked_matching_matches_reference_to_the_last_step(monkeypatch):
    # With the switch at 0, every pool is walked in blocks down to its last
    # pair. That late phase is where lows have left their home slots and a
    # step's slots coincide (the low's slot is the first tail, j is the
    # second tail or the low's slot); each case comes up over a thousand
    # times in these calls. Three consecutive calls per generator, every
    # even size from 2 to 400.
    monkeypatch.setattr(_matching, "_LIST_POOL_POINTS", 0)
    for seed in range(200):
        fast, ref = random.Random(seed), random.Random(seed)
        for k in (1, 7, 13):
            num_points = 2 + 2 * ((seed + 1) * k % 200)
            assert graphlab._raw_matching(fast, num_points) == _reference_raw_matching(
                ref, num_points)
            assert fast.getstate() == ref.getstate()


def test_matching_interleaves_list_and_blocked_pools(monkeypatch):
    # rejection sampling calls the matching again and again on one
    # generator; here the calls alternate between the two paths, first
    # around a lowered switch, then around the real one
    real = _matching._LIST_POOL_POINTS
    fast, ref = random.Random(8), random.Random(8)
    with monkeypatch.context() as m:
        m.setattr(_matching, "_LIST_POOL_POINTS", 64)
        for num_points in (66, 64, 400, 2, 130, 64, 66, 1000, 8, 66) * 3:
            assert graphlab._raw_matching(fast, num_points) == _reference_raw_matching(
                ref, num_points)
            assert fast.getstate() == ref.getstate()
    for num_points in (real + 2, 10, real, real + 2):
        assert graphlab._raw_matching(fast, num_points) == _reference_raw_matching(
            ref, num_points)
        assert fast.getstate() == ref.getstate()


def test_pools_past_2_32_points_stay_sequential(monkeypatch):
    # getrandbits(k) reads two 32-bit words per call once k > 32, which the
    # blocked draws do not model; the stand-ins keep any pool from being built
    monkeypatch.setattr(_matching, "_blocked_matching", lambda rng, num_points: "blocked")
    monkeypatch.setattr(_matching, "_list_matching", lambda rng, num_points: "list")
    switch = _matching._LIST_POOL_POINTS
    sizes = (switch, switch + 2, 2**32, 2**32 + 2)
    assert [graphlab._raw_matching(None, n) for n in sizes] == [
        "list", "blocked", "blocked", "list"]


def test_blocked_matching_peak_memory():
    # During the blocks the matching holds the draws, `pool`, `where` and an
    # int32 partner array, about 14 bytes per point; an int64 partner array
    # and a separate clash marker took about 20.5. Both paths still return
    # `array('q')`, whose bytes the graph's hash and repr digest read.
    num_points = 1 << 20
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        partner = graphlab._raw_matching(random.Random(derive_seed(20261019, 0)), num_points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 16 * num_points
    small = graphlab._raw_matching(random.Random(1), _matching._LIST_POOL_POINTS)
    assert (partner.typecode, small.typecode) == ("q", "q")


def test_negative_seeds_are_refused():
    # random.Random(-s) seeds exactly as random.Random(s), so seed -1 would
    # silently repeat seed 1's graph
    assert random.Random(-1).random() == random.Random(1).random()
    with pytest.raises(ValueError, match="-1 would repeat seed 1"):
        sample_pairing(3, 4, seed=-1)
    with pytest.raises(ValueError, match="-5 would repeat seed 5"):
        sample_out_degree_configurations(3, 4, 2, 10, seed=-5)
    assert sample_pairing(3, 4, seed=0).n == 4


def test_sample_pairing_memory_per_point():
    # The graph and its construction stay within 64 bytes per point; the
    # tuple-and-dict layout took about 300. The first neighbour access,
    # which builds the adjacency rows, is inside the window.
    delta, n = 10, 20_000
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sample_pairing(delta, n, seed=1).neighbor_items(0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 64 * delta * n


def test_sample_pairing_determinism():
    a = sample_pairing(3, 8, seed=11)
    b = sample_pairing(3, 8, seed=11)
    assert a == b
    assert a != sample_pairing(3, 8, seed=12)
    simple = sample_pairing(3, 8, seed=5, simple_only=True)
    assert simple.is_simple
    with pytest.raises(ValueError):
        sample_pairing(3, 3, seed=0)
    with pytest.raises(ValueError):
        sample_pairing(0, 4, seed=0)
    # no simple delta-regular graph has delta > n - 1: refused up front
    with pytest.raises(ValueError, match="no simple"):
        sample_pairing(2, 1, seed=0, simple_only=True)
    with pytest.raises(ValueError, match="no simple"):
        sample_pairing(4, 4, seed=0, simple_only=True)
    # delta = n - 1 is the complete graph, the densest simple case
    assert sample_pairing(3, 4, seed=0, simple_only=True).is_simple


def test_sample_pairing_attempt_limit(monkeypatch):
    # a feasible request that runs out of attempts still ends in RuntimeError
    monkeypatch.setattr(graphlab, "_SIMPLE_ATTEMPT_LIMIT", 1)
    with pytest.raises(RuntimeError, match="no simple graph found in 1 attempts"):
        sample_pairing(3, 4, seed=0, simple_only=True)


def test_sample_pairing_refuses_hopeless_simple_requests(monkeypatch):
    # exp(-(delta^2 - 1)/4) is 1.4e-7 at delta = 8: refused before sampling
    def no_sampling(rng, num_points):
        raise AssertionError("sampled a pairing")

    with monkeypatch.context() as m:
        m.setattr(graphlab, "_raw_matching", no_sampling)
        with pytest.raises(ValueError, match="too rare for 100000 rejection attempts"):
            sample_pairing(8, 1000, seed=0, simple_only=True)
    # delta = 7 (about 6e-6 per attempt) still goes to rejection sampling,
    # here with every pairing accepted so the test stays fast
    monkeypatch.setattr(graphlab, "_rows_simple", lambda delta, n, partner: True)
    assert sample_pairing(7, 8, seed=0, simple_only=True).delta == 7


def test_graph_and_cut_state_reprs_are_bounded():
    g = sample_pairing(10, 20000, seed=1)
    state = cut_state(g, set(range(10000)))
    assert len(repr(g)) < 300
    assert len(repr(state)) < 300
    assert repr(g) != repr(sample_pairing(10, 20000, seed=2))
    # a digest of the partner array, not the salted hash(): the same in every run
    assert repr(g) == "RegularMultigraph(delta=10, n=20000, partner_sha256=8840550f80739b37)"


def test_cut_state_on_the_cycle():
    g = RegularMultigraph.from_edges(2, 8, C8_EDGES)
    alt = cut_state(g, {0, 2, 4, 6})
    assert alt.cut == 8
    assert alt.size_s == 4
    assert alt.expansion == Fraction(2)
    assert alt.hist_s == OutDegreeVector((0, 0, 4))
    assert alt.hist_comp == OutDegreeVector((0, 0, 4))
    assert alt.d == 2 and alt.d_prime == 2
    arc = cut_state(g, [True, True, True, True, False, False, False, False])
    assert arc.cut == 2
    assert arc.expansion == Fraction(1, 2)
    assert arc.hist_s == OutDegreeVector((2, 2, 0))
    assert arc.d == 1 and arc.d_prime == 1
    # sets and boolean sequences describe the same state
    assert cut_state(g, {0, 1, 2, 3}) == arc
    with pytest.raises(ValueError):
        cut_state(g, [True] * 7)
    with pytest.raises(ValueError):
        cut_state(g, {0, 9})
    with pytest.raises(ValueError):
        cut_state(g, set()).expansion


def _reference_cut_state(graph: RegularMultigraph, membership) -> CutState:
    """Reference: the per-point walk cut_state once was. Every crossing pair
    has one point on each side, so only the points of the smaller side's
    vertices are walked; the histograms are tallied in Python and the state
    goes through the validating public constructors."""
    if isinstance(membership, (set, frozenset)):
        member = [False] * graph.n
        for v in membership:
            member[v] = True
    else:
        member = [bool(x) for x in membership]
    delta, n, partner = graph.delta, graph.n, graph._partner
    size_s = sum(member)
    side = 2 * size_s <= n  # True: walk S; False: walk its complement
    out = [0] * n
    cut = 0
    for v in itertools.compress(range(n), member if side else map(operator.not_, member)):
        k = 0
        for b in partner[v * delta : v * delta + delta]:
            w = b // delta
            if member[w] is not side:
                k += 1
                out[w] += 1
        out[v] = k
        cut += k
    hist = {True: [0] * (delta + 1), False: [0] * (delta + 1)}
    for v in range(n):
        hist[member[v]][out[v]] += 1
    return CutState(
        graph=graph,
        membership=tuple(member),
        size_s=size_s,
        cut=cut,
        hist_s=OutDegreeVector(tuple(hist[True])),
        hist_comp=OutDegreeVector(tuple(hist[False])),
        out_degrees=tuple(out),
    )


def _assert_cut_state_matches_reference(g: RegularMultigraph, s: set) -> None:
    """cut_state equals the reference field by field, with Python ints and
    bools in its tuples, for s given as a set, a bool list and a numpy bool
    array."""
    ref = _reference_cut_state(g, s)
    as_list = [v in s for v in range(g.n)]
    for membership in (s, as_list, np.array(as_list, dtype=bool)):
        got = cut_state(g, membership)
        for field in CutState.__dataclass_fields__:
            assert getattr(got, field) == getattr(ref, field), (g, len(s), field)
        assert {type(x) for x in got.membership} <= {bool}
        values = got.out_degrees + got.hist_s.counts + got.hist_comp.counts
        assert {type(x) for x in values + (got.cut, got.size_s)} == {int}


def test_cut_state_matches_reference_on_multigraphs():
    rng = random.Random(20261019)
    seen_loops = seen_parallel = 0
    for delta in range(1, 7):
        for _ in range(8):
            n = rng.randint(2, 40)
            n += (delta * n) % 2
            g = sample_pairing(delta, n, seed=rng.randrange(1 << 32))
            seen_loops += any(g.loops(v) for v in range(n))
            seen_parallel += any(m > 1 for v in range(n) for _, m in g.neighbor_items(v))
            order = list(range(n))
            rng.shuffle(order)
            # empty, below n/2, n/2 (or just under it), above n/2, everything
            for size in (0, 1, n // 3, n // 2, n // 2 + 1, n - 1, n):
                _assert_cut_state_matches_reference(g, set(order[:size]))
    assert seen_loops > 10 and seen_parallel > 10


def test_cut_state_matches_reference_on_edge_lists(petersen):
    # loops, double and triple edges, and vertices made only of loops
    cases = [
        (3, 2, DUMBBELL_EDGES),
        (2, 2, [(0, 1), (0, 1)]),
        (3, 2, [(0, 1)] * 3),
        (4, 2, [(0, 0), (0, 1), (0, 1), (1, 1)]),
        (4, 2, [(0, 0), (0, 0), (1, 1), (1, 1)]),
        (4, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]),
        (4, 4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3), (1, 3)]),
        (2, 1, [(0, 0)]),
        (3, 8, CUBE_EDGES),
    ]
    graphs = [RegularMultigraph.from_edges(delta, n, edges) for delta, n, edges in cases]
    for g in graphs + [petersen]:
        for size in range(g.n + 1):
            for s in itertools.combinations(range(g.n), size):
                _assert_cut_state_matches_reference(g, set(s))


def test_cut_state_membership_ids():
    g = RegularMultigraph.from_edges(2, 8, C8_EDGES)
    ref = cut_state(g, {0, 1, 2})
    # numpy integers are vertex ids like Python ints
    assert cut_state(g, set(np.arange(3))) == ref
    assert cut_state(g, {np.int32(0), np.uint8(1), 2}) == ref
    assert cut_state(g, frozenset(range(3))) == ref
    # a non-integer is refused with its type named
    for bad, name in [(1.0, "float"), (np.float64(1.0), "float64"), ("1", "str")]:
        message = f"vertex {re.escape(repr(bad))} is a {name}, not an integer"
        with pytest.raises(ValueError, match=f"^{message}$"):
            cut_state(g, {0, bad})
    for ids, v in [({0, 8}, 8), ({-1}, -1), ({np.int64(9)}, 9), ({2**70}, 2**70)]:
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            cut_state(g, ids)
    message = "membership length must equal the number of vertices"
    for membership in ([True] * 7, np.ones(9, dtype=bool), []):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cut_state(g, membership)


def test_swap_delta_known_values():
    k4 = cut_state(RegularMultigraph.from_edges(3, 4, K4_EDGES), {0, 1})
    assert swap_delta(k4, 0, 2) == 0
    cube = cut_state(RegularMultigraph.from_edges(3, 8, CUBE_EDGES), {0, 1, 2, 4})
    assert swap_delta(cube, 2, 5) == -2
    with pytest.raises(ValueError):
        swap_delta(cube, 3, 5)
    with pytest.raises(ValueError):
        swap_delta(cube, 2, 4)
    with pytest.raises(ValueError):
        swap_delta(cube, 2, 9)


def test_swap_delta_matches_recomputation():
    g = sample_pairing(3, 10, seed=3)
    s = set(range(5))
    state = cut_state(g, s)
    for u in sorted(s):
        for v in sorted(set(range(10)) - s):
            swapped = cut_state(g, (s - {u}) | {v})
            assert swap_delta(state, u, v) == swapped.cut - state.cut


def test_local_descent_traces_and_terminates():
    g = sample_pairing(3, 20, seed=7)
    start = cut_state(g, set(range(10)))
    trace: list[int] = []
    final = local_descent(start, trace=trace)
    seq = [start.cut] + trace
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert final.cut == seq[-1]
    assert final.size_s == start.size_s
    # local optimality: no swap improves the final state
    inside = [v for v in range(20) if final.membership[v]]
    outside = [v for v in range(20) if not final.membership[v]]
    assert all(swap_delta(final, u, v) >= 0 for u in inside for v in outside)
    # both rules are deterministic and end locally optimal
    again = local_descent(start, tie_rule=FIRST_IMPROVEMENT)
    assert again == local_descent(start, tie_rule=FIRST_IMPROVEMENT)
    assert local_descent(start) == final
    with pytest.raises(ValueError):
        local_descent(start, tie_rule="steepest")
    with pytest.raises(ValueError):
        local_descent(cut_state(g, set(range(11))))


# Reference selectors: the plain pair scans that local_descent's bucketed
# selection must reproduce swap for swap.
def _reference_select_best(graph, member, out):
    delta = graph.delta
    buckets_s: dict[int, list[int]] = defaultdict(list)
    buckets_o: dict[int, list[int]] = defaultdict(list)
    for w in range(graph.n):
        (buckets_s if member[w] else buckets_o)[out[w] + graph.loops(w)].append(w)
    levels_s = sorted(buckets_s, reverse=True)
    levels_o = sorted(buckets_o, reverse=True)
    best_dc = 0
    best_pair = None
    for a in levels_s:
        if levels_o and 2 * delta - 2 * (a + levels_o[0]) > (
            best_dc if best_pair is not None else -2
        ):
            break
        for b in levels_o:
            base = 2 * delta - 2 * (a + b)
            if base > (best_dc if best_pair is not None else -2):
                break
            for u in buckets_s[a]:
                for v in buckets_o[b]:
                    dc = base + 2 * graph.multiplicity(u, v)
                    if dc >= 0:
                        continue
                    if (
                        best_pair is None
                        or dc < best_dc
                        or (dc == best_dc and (u, v) < best_pair)
                    ):
                        best_dc = dc
                        best_pair = (u, v)
    if best_pair is None:
        return None
    return best_pair[0], best_pair[1], best_dc


def _reference_select_first(graph, member, out):
    delta = graph.delta
    inside = [w for w in range(graph.n) if member[w]]
    outside = [w for w in range(graph.n) if not member[w]]
    for u in inside:
        su = out[u] + graph.loops(u)
        for v in outside:
            dc = 2 * delta - 2 * (su + out[v] + graph.loops(v)) + 2 * graph.multiplicity(u, v)
            if dc < 0:
                return u, v, dc
    return None


def _reference_descent(state: CutState, tie_rule: str) -> tuple[list[int], CutState]:
    graph = state.graph
    select = (
        _reference_select_best if tie_rule == BEST_IMPROVEMENT else _reference_select_first
    )
    member = list(state.membership)
    out = list(state.out_degrees)
    cut = state.cut
    trace = []
    while (found := select(graph, member, out)) is not None:
        u, v, dc = found
        member[u], member[v] = False, True
        out = list(cut_state(graph, member).out_degrees)
        cut += dc
        trace.append(cut)
    final = cut_state(graph, member)
    assert final.cut == cut
    return trace, final


def _assert_matches_reference(start: CutState, tie_rule: str) -> list[int]:
    trace: list[int] = []
    final = local_descent(start, tie_rule=tie_rule, trace=trace)
    ref_trace, ref_final = _reference_descent(start, tie_rule)
    assert trace == ref_trace
    assert final == ref_final
    return trace


def test_descent_matches_pair_scan_reference():
    seen_loops = seen_parallel = 0
    for i in range(300):
        rng = random.Random(derive_seed(8128, i))
        delta = rng.randint(1, 10)
        n = rng.randint(2, 60) if i % 5 else rng.randint(61, 300)
        n += (delta * n) % 2
        g = sample_pairing(delta, n, seed=rng.randrange(1 << 32))
        seen_loops += any(g.loops(v) for v in range(n))
        seen_parallel += any(m > 1 for v in range(n) for _, m in g.neighbor_items(v))
        start = cut_state(g, set(rng.sample(range(n), rng.randint(0, n // 2))))
        for rule in (BEST_IMPROVEMENT, FIRST_IMPROVEMENT):
            _assert_matches_reference(start, rule)
    # the sampled multigraphs exercise loops and parallel edges
    assert seen_loops > 50 and seen_parallel > 50


def test_descent_tie_cases():
    # K4: every swap changes the cut by exactly 0, and a tie is never taken
    k4 = RegularMultigraph.from_edges(3, 4, K4_EDGES)
    for s in [set(), {0}, {3}, {0, 1}, {1, 3}]:
        start = cut_state(k4, s)
        for rule in (BEST_IMPROVEMENT, FIRST_IMPROVEMENT):
            assert _assert_matches_reference(start, rule) == []
            assert local_descent(start, tie_rule=rule) == start
    # cube, S an independent set: non-adjacent swaps drop the cut by 6 and
    # adjacent ones by 4, so the rules pick different first swaps
    cube = RegularMultigraph.from_edges(3, 8, CUBE_EDGES)
    start = cut_state(cube, {0, 2, 5, 7})
    assert start.cut == 12
    assert swap_delta(start, 0, 6) == -6 and swap_delta(start, 0, 1) == -4
    best = _assert_matches_reference(start, BEST_IMPROVEMENT)
    first = _assert_matches_reference(start, FIRST_IMPROVEMENT)
    assert best[0] == 6 and first[0] == 8
    assert best[-1] == first[-1] == 4
    # one lowest swap among many tied ones, on both sides of every bucket
    for s in itertools.combinations(range(8), 4):
        for rule in (BEST_IMPROVEMENT, FIRST_IMPROVEMENT):
            _assert_matches_reference(cut_state(cube, set(s)), rule)


def _assert_locally_optimal(final: CutState) -> None:
    """No improving swap, checked in O(n * delta) without the selectors."""
    g, member = final.graph, final.membership
    score = [final.out_degrees[w] + g.loops(w) for w in range(g.n)]
    outside = sorted((w for w in range(g.n) if not member[w]), key=lambda w: -score[w])
    for u in range(g.n):
        if not member[u]:
            continue
        nbrs = {w for w, _ in g.neighbor_items(u)}
        # the first non-neighbour in score order is at most deg(u) entries in
        top = next((score[v] for v in outside if v not in nbrs), None)
        assert top is None or score[u] + top <= g.delta
        for w, m in g.neighbor_items(u):
            if not member[w]:
                assert score[u] + score[w] - m <= g.delta


@pytest.mark.parametrize("tie_rule", [BEST_IMPROVEMENT, FIRST_IMPROVEMENT])
def test_descent_at_ten_thousand_vertices(tie_rule):
    n, delta = 10_000, 3
    g = sample_pairing(delta, n, seed=31337)
    start = cut_state(g, set(random.Random(5).sample(range(n), n // 2)))
    trace: list[int] = []
    final = local_descent(start, tie_rule=tie_rule, trace=trace)
    seq = [start.cut] + trace
    assert len(trace) > 1000
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert final.cut == seq[-1] == cut_state(g, final.membership).cut
    assert final.size_s == start.size_s
    assert final.d + final.d_prime <= delta + 1
    _assert_locally_optimal(final)


def test_brute_force_known_graphs(petersen):
    cycle = RegularMultigraph.from_edges(2, 8, C8_EDGES)
    assert brute_force_expansion(cycle) == (Fraction(1, 2), (0, 1, 2, 3))
    k4 = RegularMultigraph.from_edges(3, 4, K4_EDGES)
    assert brute_force_expansion(k4) == (Fraction(2), (0, 1))
    dumbbell = RegularMultigraph.from_edges(3, 2, DUMBBELL_EDGES)
    assert brute_force_expansion(dumbbell) == (Fraction(1), (0,))
    assert brute_force_expansion(petersen) == (Fraction(1), (0, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        brute_force_expansion(RegularMultigraph(2, 1, ((0, 1),)))
    with pytest.raises(ValueError):
        brute_force_expansion(sample_pairing(1, 28, seed=0))


def _reference_brute_force(graph: RegularMultigraph) -> tuple[Fraction, tuple[int, ...]]:
    """Reference: the oracle as a Python loop over all subsets in Gray-code
    order, with O(delta) incremental cut updates and ratios compared by
    cross-multiplication; ties go to the lexicographically smallest set."""
    n = graph.n
    rows = [graph.neighbor_items(v) for v in range(n)]
    spans = [graph.delta - 2 * graph.loops(v) for v in range(n)]
    member = [False] * n
    cut = size = 0
    best_cut = best_size = 0
    best_set: tuple[int, ...] | None = None
    for k in range(1, 1 << n):
        w = (k & -k).bit_length() - 1
        side = member[w]
        crossing = sum(m for x, m in rows[w] if member[x] != side)
        cut += spans[w] - 2 * crossing
        member[w] = not member[w]
        size += 1 if member[w] else -1
        if not 1 <= size <= n // 2:
            continue
        cand = tuple(v for v in range(n) if member[v])
        if (
            best_set is None
            or cut * best_size < best_cut * size
            or (cut * best_size == best_cut * size and cand < best_set)
        ):
            best_cut, best_size, best_set = cut, size, cand
    return Fraction(best_cut, best_size), best_set


def test_brute_force_matches_reference_on_multigraphs():
    rng = random.Random(20261018)
    seen_loops = seen_parallel = 0
    for delta in range(1, 7):
        for _ in range(8):
            n = rng.randint(2, 12)
            n += (delta * n) % 2
            g = sample_pairing(delta, n, seed=rng.randrange(1 << 32))
            seen_loops += any(g.loops(v) for v in range(n))
            seen_parallel += any(m > 1 for v in range(n) for _, m in g.neighbor_items(v))
            assert brute_force_expansion(g) == _reference_brute_force(g), (delta, n)
    assert seen_loops > 10 and seen_parallel > 10


def test_brute_force_matches_reference_on_simple_graphs(petersen):
    graphs = [petersen, RegularMultigraph.from_edges(3, 8, CUBE_EDGES)]
    graphs += [sample_pairing(3, n, seed=n, simple_only=True) for n in (6, 10, 14)]
    graphs += [sample_pairing(4, n, seed=n, simple_only=True) for n in (7, 11)]
    for g in graphs:
        assert g.is_simple
        assert brute_force_expansion(g) == _reference_brute_force(g)


def test_brute_force_ties():
    two_k4 = RegularMultigraph.from_edges(
        3, 8, K4_EDGES + [(u + 4, v + 4) for u, v in K4_EDGES]
    )
    # C3 + C4 + C5: every cycle is a component with cut 0
    cycles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    cycles += [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    cycle_union = RegularMultigraph.from_edges(2, 12, cycles)
    all_loops = RegularMultigraph.from_edges(2, 9, [(v, v) for v in range(9)])
    double_loops = RegularMultigraph.from_edges(4, 6, [(v, v) for v in range(6)] * 2)
    for g in (two_k4, cycle_union, all_loops, double_loops):
        assert brute_force_expansion(g) == _reference_brute_force(g)
    assert brute_force_expansion(two_k4) == (Fraction(0), (0, 1, 2, 3))
    assert brute_force_expansion(cycle_union) == (Fraction(0), (0, 1, 2))
    assert brute_force_expansion(all_loops) == (Fraction(0), (0,))


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_brute_force_matches_reference_around_the_block_width(n):
    # the oracle enumerates the low 16 vertices as one block and walks the
    # rest one vertex at a time: n = 15, 16 have no high vertex, 17, 18 do
    delta = 4 if n % 2 else 3
    g = sample_pairing(delta, n, seed=derive_seed(1016, n))
    assert brute_force_expansion(g) == _reference_brute_force(g)


def test_brute_force_at_its_limit():
    n = 26
    g = sample_pairing(3, n, seed=derive_seed(2626, 0))
    value, argmin = brute_force_expansion(g)
    assert 1 <= len(argmin) <= n // 2
    assert cut_state(g, set(argmin)).expansion == value
    # no single-vertex move, in or out, lowers the ratio
    for v in range(n):
        moved = set(argmin) ^ {v}
        if 1 <= len(moved) <= n // 2:
            assert cut_state(g, moved).expansion >= value
    with pytest.raises(ValueError, match="exceeds the exhaustive limit 26"):
        brute_force_expansion(sample_pairing(2, 27, seed=0))


def _descend_all_starts(g: RegularMultigraph) -> Fraction:
    best: Fraction | None = None
    for k in range(1, g.n // 2 + 1):
        for combo in itertools.combinations(range(g.n), k):
            final = local_descent(cut_state(g, set(combo)))
            e = final.expansion
            if best is None or e < best:
                best = e
    return best


def test_descent_from_every_start_matches_brute_force():
    for i in range(3):
        g = sample_pairing(3, 10, seed=derive_seed(55, i))
        assert _descend_all_starts(g) == brute_force_expansion(g)[0]


def test_log_config_prob_exact_small_cases():
    # one edge, one vertex per side: the edge always crosses
    assert log_config_prob(1, 2, [0, 1], [0, 1]) == 0.0
    # delta=2, n=2, S={0}: 3 matchings, 1 internal and 2 fully crossing
    assert log_config_prob(2, 2, [1, 0, 0], [1, 0, 0]) == pytest.approx(
        math.log(1 / 3), abs=1e-14
    )
    assert log_config_prob(2, 2, [0, 0, 1], [0, 0, 1]) == pytest.approx(
        math.log(2 / 3), abs=1e-14
    )


def test_log_config_prob_validation():
    with pytest.raises(ValueError):
        log_config_prob(2, 2, [1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        log_config_prob(2, 2, [1, -1, 1], [1, 0, 0])
    with pytest.raises(ValueError):
        log_config_prob(2, 3, [1, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        log_config_prob(2, 2, [0, 1, 0], [1, 0, 0])
    # odd internal point count
    with pytest.raises(ValueError):
        log_config_prob(1, 4, [1, 1], [1, 1])


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def test_log_config_prob_total_mass_is_one():
    for delta, n, u in [(2, 4, 2), (3, 4, 2)]:
        mass = []
        for svec in _compositions(u, delta + 1):
            c = sum(i * x for i, x in enumerate(svec))
            if (delta * u - c) % 2 != 0 or delta * u - c < 0:
                continue
            for svp in _compositions(n - u, delta + 1):
                if sum(i * x for i, x in enumerate(svp)) != c:
                    continue
                if (delta * (n - u) - c) % 2 != 0 or delta * (n - u) - c < 0:
                    continue
                mass.append(math.exp(log_config_prob(delta, n, list(svec), list(svp))))
        assert math.fsum(mass) == pytest.approx(1.0, abs=1e-12)


def test_sample_out_degree_configurations():
    tally = sample_out_degree_configurations(2, 4, 2, trials=500, seed=42)
    assert tally == sample_out_degree_configurations(2, 4, 2, trials=500, seed=42)
    assert sum(tally.values()) == 500
    for svec, svp in tally:
        assert sum(svec) == 2 and sum(svp) == 2
        assert sum(i * x for i, x in enumerate(svec)) == sum(
            i * x for i, x in enumerate(svp)
        )
    with pytest.raises(ValueError):
        sample_out_degree_configurations(2, 4, 5, trials=1, seed=0)
    with pytest.raises(ValueError):
        sample_out_degree_configurations(3, 3, 1, trials=1, seed=0)


# sha256 of repr(sorted(tally.items())) for criterion 08's three
# (delta, n, seed) cases at 50,000 draws, recorded before the sampler
# returned partner arrays: the same random stream gives the same tallies.
TALLY_SHA = [
    "164064b7ca2d44085266d0a2f8016124b33eacc99b47cb55ed07ce2cbebd51c0",
    "99e4e059704d79961c505281f48225fa6b51eb5982c06e406ea38bd901b1e570",
    "56e49f940739869ac5a307f4ed09307df4efed6bef17866acbee6f1d8646f6a6",
]


@pytest.mark.parametrize("case,delta,n", [(0, 1, 4), (1, 3, 2), (2, 2, 4)])
def test_out_degree_tallies_are_pinned(case, delta, n):
    tally = sample_out_degree_configurations(
        delta, n, n // 2, 50_000, seed=derive_seed(20240801, case)
    )
    digest = hashlib.sha256(repr(sorted(tally.items())).encode()).hexdigest()
    assert digest == TALLY_SHA[case]


def _all_matchings(num_points: int) -> list[tuple[tuple[int, int], ...]]:
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(avail: list[int], acc: list[tuple[int, int]]) -> None:
        if not avail:
            out.append(tuple(sorted(acc)))
            return
        a = avail[0]
        for j in range(1, len(avail)):
            rec(avail[1:j] + avail[j + 1 :], acc + [(a, avail[j])])

    rec(list(range(num_points)), [])
    return out


# chi-square 0.999 critical values keyed by degrees of freedom
_CHI2_CRIT = {2: 13.815510557964274, 14: 36.12327368039814, 104: 154.31407954898626}


@pytest.mark.parametrize("case,delta,n", [(0, 1, 4), (1, 3, 2), (2, 2, 4)])
def test_sampler_is_uniform_over_matchings(case, delta, n):
    support = _all_matchings(delta * n)
    k = len(support)
    base = derive_seed(777, case)
    draws = 100_000
    tally: dict[tuple, int] = {}
    for i in range(draws):
        g = sample_pairing(delta, n, seed=base + i)
        tally[g.pairing] = tally.get(g.pairing, 0) + 1
    assert set(tally) <= set(support)
    assert len(tally) == k
    expected = draws / k
    chi2 = sum((tally.get(m, 0) - expected) ** 2 / expected for m in support)
    assert chi2 < _CHI2_CRIT[k - 1]


SIMULATE_ARGV = ["simulate", "--delta", "3", "--n", "12", "--trials", "4",
                 "--seed", "99", "--restarts", "2"]
SIMULATE_GOLDEN_CSV = (
    "trial,n,delta,best_expansion_num,best_expansion_den,d,d_prime,swaps,restarts\n"
    "0,12,3,2,3,2,2,1,2\n"
    "1,12,3,2,3,2,1,1,2\n"
    "2,12,3,2,3,2,1,2,2\n"
    "3,12,3,1,3,1,1,1,2\n"
)


def _simulate_stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_expansion_experiment_golden_csv(capsys):
    summary = expansion_experiment(3, 12, trials=4, seed=99, restarts=2)
    assert [(r.cut, r.size_s, r.d, r.d_prime, r.swaps) for r in summary.records] == [
        (4, 6, 2, 2, 1), (4, 6, 2, 1, 1), (4, 6, 2, 1, 2), (2, 6, 1, 1, 1),
    ]
    assert summary.min_expansion == Fraction(1, 3)
    assert summary.mean_expansion == 0.5833333333333334
    assert summary.frac_caps_within_delta == 0.75
    assert summary.frac_meeting_bound == 1.0
    assert summary.certified_bound == 0.1875
    assert summary.flagged_trials == ()
    # determinism end to end
    assert expansion_experiment(3, 12, trials=4, seed=99, restarts=2) == summary
    csv_argv = SIMULATE_ARGV + ["--format", "csv"]
    assert _simulate_stdout(capsys, csv_argv) == SIMULATE_GOLDEN_CSV
    assert _simulate_stdout(capsys, csv_argv) == SIMULATE_GOLDEN_CSV
    lines = _simulate_stdout(capsys, SIMULATE_ARGV).splitlines()
    assert lines[0].startswith("# expansion experiment delta=3 n=12 trials=4")
    assert lines[-1] == "summary: certified_bound=0.187500 met_in=1.000 flagged=[]"


def test_expansion_experiment_without_certificate(capsys):
    summary = expansion_experiment(2, 8, trials=1, seed=1)
    assert summary.certified_bound is None
    assert summary.frac_meeting_bound is None
    assert summary.flagged_trials == ()
    argv = ["simulate", "--delta", "2", "--n", "8", "--trials", "1", "--seed", "1"]
    last = _simulate_stdout(capsys, argv).splitlines()[-1]
    assert last == "summary: no certified bound for this degree"


def test_expansion_experiment_accepts_multigraph_local_optima(capsys):
    # Trial 1 ends with d = 4, d' = 3 (delta + 2) at two vertices joined by a
    # double edge, so swapping them gains nothing and the state is a local
    # optimum; a d + d' <= delta + 1 check rejected it.
    summary = expansion_experiment(5, 6, trials=5, seed=5)
    assert (summary.records[1].d, summary.records[1].d_prime) == (4, 3)
    argv = ["simulate", "--delta", "5", "--n", "6", "--trials", "5", "--seed", "5"]
    assert _simulate_stdout(capsys, argv).startswith("# expansion experiment delta=5")


def test_expansion_experiment_raises_on_an_improvable_descent(monkeypatch):
    # A descent that stops early is caught by the exact optimality check.
    monkeypatch.setattr(graphlab, "local_descent", lambda state, **kwargs: state)
    with pytest.raises(RuntimeError, match="not locally optimal"):
        expansion_experiment(3, 12, trials=1, seed=0)


def test_expansion_experiment_validation():
    with pytest.raises(ValueError):
        expansion_experiment(0, 8, trials=1, seed=0)
    with pytest.raises(ValueError):
        expansion_experiment(21, 8, trials=1, seed=0)
    with pytest.raises(ValueError):
        expansion_experiment(3, 1, trials=1, seed=0)
    with pytest.raises(ValueError):
        expansion_experiment(3, 8, trials=0, seed=0)
    with pytest.raises(ValueError):
        expansion_experiment(3, 8, trials=1, seed=0, restarts=0)
