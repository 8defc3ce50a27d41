"""Pairing-model laboratory: sampling, cut bookkeeping, local search, exact oracle.

Graphs are delta-regular multigraphs built from a perfect matching on
delta * n labeled points; point q belongs to vertex q // delta. Loops add 2
to a vertex's degree and never cross a cut; parallel edges cross with their
multiplicity. All sampling is seeded and reproducible: randomized routines
take an explicit integer seed and derive per-trial streams with a fixed
arithmetic mix, never Python's salted hash().
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left, insort
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import zip_longest
from operator import index, mul

import numpy as np

from ._matching import _raw_matching

__all__ = [
    "BEST_IMPROVEMENT",
    "CutState",
    "ExperimentSummary",
    "FIRST_IMPROVEMENT",
    "OutDegreeVector",
    "RegularMultigraph",
    "TrialRecord",
    "brute_force_expansion",
    "cut_state",
    "derive_seed",
    "expansion_experiment",
    "local_descent",
    "sample_pairing",
]

BEST_IMPROVEMENT = "best-improvement"
FIRST_IMPROVEMENT = "first-improvement"

_SEED_MULT = 0x9E3779B97F4A7C15
_SEED_STEP = 0xBF58476D1CE4E5B9
_SEED_MOD = 1 << 64


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-trial seed: (seed * K1 + (index + 1) * K2) mod 2^64."""
    return (seed * _SEED_MULT + (index + 1) * _SEED_STEP) % _SEED_MOD


@dataclass(frozen=True)
class OutDegreeVector:
    """Histogram over out-degrees 0..delta: counts[i] vertices with i crossing edges."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 1:
            raise ValueError("histogram must have at least one entry")
        if any(not isinstance(c, int) or c < 0 for c in self.counts):
            raise ValueError("histogram entries must be non-negative integers")
        object.__setattr__(self, "counts", tuple(self.counts))

    @property
    def delta(self) -> int:
        return len(self.counts) - 1

    @property
    def max_out_degree(self) -> int:
        """Largest out-degree present; 0 for an empty or all-internal side."""
        for i in range(len(self.counts) - 1, -1, -1):
            if self.counts[i] > 0:
                return i
        return 0


class RegularMultigraph:
    """delta-regular multigraph on n vertices realized by a point pairing.

    `_partner[q]` is the point matched with point q (`_points` views it in
    numpy), and point q belongs to vertex q // delta. Construction validates
    it: points in range, none in two pairs, all covered, with the same error
    for the same first offending point at any size. Vertex v owns points
    v*delta .. v*delta + delta - 1, so every degree is delta.

    The first neighbour, loop or multiplicity lookup builds the adjacency
    (`_index`): `_rows[q]` is the vertex of q's partner, so v's row
    `_rows[v*delta:(v + 1)*delta]` lists its delta neighbours in point
    order, a parallel edge once per edge and a loop twice, and `_loops[v]`
    counts v's loops; both are `array('q')`, as descent reads single
    entries. Equality, hashing, copying, `pairing` (the sorted (low, high)
    pairs, rebuilt on each access), `is_simple` and `cut_state` read only
    the partner array. Instances are immutable.
    """

    __slots__ = ("delta", "n", "_partner", "_points", "_rows", "_loops")

    def __init__(self, delta: int, n: int, pairing) -> None:
        """Graph of an explicit pairing, an iterable of (a, b) point pairs."""
        num_points = _num_points(delta, n)
        partner = array("q", [-1]) * num_points
        pairs = 0
        for a, b in pairing:
            if not (0 <= a < num_points and 0 <= b < num_points):
                raise ValueError(f"pair {(a, b)} has a point out of range")
            partner[a], partner[b] = b, a
            pairs += 1
        # num_points / 2 pairs that reach every point cover each exactly once
        if pairs != num_points // 2 or -1 in partner:
            raise ValueError("pairing must cover every point exactly once")
        self._set(delta, n, partner, self._from_partner(delta, n, partner)._points)

    @classmethod
    def _from_partner(cls, delta: int, n: int, partner: array) -> "RegularMultigraph":
        """Graph of a partner-of-point array, validated as a fixed-point-free
        involution on the delta * n points, in chunks of _CHUNK_POINTS."""
        num_points = _num_points(delta, n)
        if len(partner) != num_points:
            raise ValueError("pairing must cover every point exactly once")
        points = np.frombuffer(partner, dtype=np.int64)
        for lo in range(0, num_points, _CHUNK_POINTS):
            _check_involution(points, lo, min(num_points, lo + _CHUNK_POINTS))
        graph = cls.__new__(cls)
        graph._set(delta, n, partner, points)
        return graph

    def _set(self, *values) -> None:
        """Set the slots in __slots__ order (__setattr__ refuses); the
        adjacency ones stay None until `_index` passes them."""
        for name, value in zip_longest(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _index(self) -> None:
        """Build `_rows` and `_loops`, written in place through numpy views.
        A loop puts v twice in v's row, so `_loops[v]` is half the count of
        v in its own row."""
        delta, n, points = self.delta, self.n, self._points
        rows = array("q", [0]) * (delta * n)
        loops = array("q", [0]) * n
        row_view = np.frombuffer(rows, dtype=np.int64)
        np.floor_divide(points, delta, out=row_view)
        own = row_view.reshape(n, delta) == np.arange(n)[:, None]
        np.floor_divide(own.sum(axis=1), 2, out=np.frombuffer(loops, dtype=np.int64))
        self._set(delta, n, self._partner, points, rows, loops)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the graph from its partner array
        return (RegularMultigraph._from_partner, (self.delta, self.n, self._partner))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularMultigraph):
            return NotImplemented
        return (self.delta, self.n, self._partner) == (other.delta, other.n, other._partner)

    def __hash__(self) -> int:
        return hash((self.delta, self.n, self._partner.tobytes()))

    def __repr__(self) -> str:
        # bounded whatever n is: the pairing as a digest, not in full
        digest = hashlib.sha256(self._partner.tobytes()).hexdigest()[:16]
        return f"RegularMultigraph(delta={self.delta}, n={self.n}, partner_sha256={digest})"

    @classmethod
    def from_edges(cls, delta: int, n: int, edges) -> "RegularMultigraph":
        """Build a pairing realization of an edge multiset (loops as (v, v))."""
        next_point = [v * delta for v in range(n)]
        limit = [(v + 1) * delta for v in range(n)]

        def take(v: int) -> int:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if next_point[v] >= limit[v]:
                raise ValueError(f"vertex {v} exceeds degree {delta}")
            q = next_point[v]
            next_point[v] += 1
            return q

        pairing = []
        for u, v in edges:
            pairing.append((take(u), take(v)))
        graph = cls(delta, n, tuple(pairing))
        return graph

    @property
    def pairing(self) -> tuple[tuple[int, int], ...]:
        """The canonical matching, rebuilt from the partner array on each access."""
        return tuple((q, p) for q, p in enumerate(self._partner) if q < p)

    @property
    def num_edges(self) -> int:
        return self.delta * self.n // 2

    def multiplicity(self, u: int, v: int) -> int:
        """Number of u-v edges (loop count when u == v)."""
        if self._rows is None:
            self._index()
        if u == v:
            return self._loops[u]
        return self._rows[u * self.delta : (u + 1) * self.delta].count(v)

    def loops(self, v: int) -> int:
        if self._rows is None:
            self._index()
        return self._loops[v]

    def neighbor_items(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, multiplicity) pairs, neighbors distinct and != v, ascending."""
        if self._rows is None:
            self._index()
        row = self._rows[v * self.delta : (v + 1) * self.delta]
        return tuple((w, row.count(w)) for w in sorted(set(row)) if w != v)

    @property
    def is_simple(self) -> bool:
        return _rows_simple(self.delta, self.n, self._partner)


def _num_points(delta: int, n: int) -> int:
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if (delta * n) % 2 != 0:
        raise ValueError("delta * n must be even")
    return delta * n


# Validation works on at most this many points at a time, so its numpy
# temporaries stay a few MB whatever the graph's size.
_CHUNK_POINTS = 1 << 16


def _check_involution(points: np.ndarray, lo: int, hi: int) -> None:
    """Raise ValueError at the first point q in [lo, hi) whose partner is out
    of range, is q itself, or is not matched back with q."""
    chunk = points[lo:hi]
    q = np.arange(lo, hi)
    bad = points.take(chunk, mode="clip") != q
    bad |= chunk == q
    out_of_range = chunk.view(np.uint64) >= points.size  # negatives wrap high
    bad |= out_of_range
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        if out_of_range[i]:
            raise ValueError(f"point {lo + i} has partner {int(chunk[i])}, out of range")
        raise ValueError(f"point {lo + i} appears in two pairs")


def _rows_simple(delta: int, n: int, partner: array) -> bool:
    """True iff no vertex's row of delta partner vertices holds the vertex
    itself (a loop) or a repeat (a parallel edge). Stops at the first bad
    row."""
    for v in range(n):
        lo = v * delta
        row = {q // delta for q in partner[lo : lo + delta]}
        if len(row) < delta or v in row:
            return False
    return True


def _seeded(seed: int) -> random.Random:
    """`random.Random(seed)` for a seed of 0 or more. A negative seed is
    refused: Random seeds with its absolute value, so -s would repeat s."""
    if seed < 0:
        raise ValueError(f"seed must be 0 or more; {seed} would repeat seed {-seed}")
    return random.Random(seed)


_SIMPLE_ATTEMPT_LIMIT = 100_000


class _NoSimpleGraph(RuntimeError):
    """A simple_only request used up its rejection attempts; the CLI reports
    it as the error its up-front refusals are, not as a crash."""


def sample_pairing(
    delta: int, n: int, seed: int, simple_only: bool = False
) -> RegularMultigraph:
    """Sample a uniform pairing-model graph; optionally rejection-sample to simple.

    Uniform over all (delta*n - 1)!! matchings of the delta*n points; with
    simple_only, uniform over pairings whose merged graph has no loops or
    parallel edges, by rejection. Hopeless simple_only requests raise
    ValueError before sampling: delta > n - 1, where no simple graph exists,
    and delta >= 8, where a pairing is simple with probability about
    exp(-(delta^2 - 1)/4) as n grows (Bender-Canfield 1978; Bollobas 1980),
    less at finite n, so the 100,000 attempts would almost surely run out.
    A negative seed raises ValueError too: it would repeat its absolute value.
    """
    num_points = _num_points(delta, n)
    if simple_only and delta > n - 1:
        raise ValueError(
            f"no simple {delta}-regular graph has {n} vertices (needs delta <= n - 1)"
        )
    if simple_only and (delta * delta - 1) / 4 > math.log(10 * _SIMPLE_ATTEMPT_LIMIT):
        raise ValueError(
            f"a {delta}-regular pairing is simple with probability about "
            f"exp(-(delta^2 - 1)/4) = {math.exp(-(delta * delta - 1) / 4):.1e}, too rare "
            f"for {_SIMPLE_ATTEMPT_LIMIT} rejection attempts"
        )
    rng = _seeded(seed)
    for _ in range(_SIMPLE_ATTEMPT_LIMIT):
        partner = _raw_matching(rng, num_points)
        if not simple_only or _rows_simple(delta, n, partner):
            return RegularMultigraph._from_partner(delta, n, partner)
    raise _NoSimpleGraph(
        f"no simple graph found in {_SIMPLE_ATTEMPT_LIMIT} attempts "
        f"(delta={delta}, n={n})"
    )


@dataclass(frozen=True)
class CutState:
    """A vertex set S with its cut size and per-side out-degree histograms."""

    graph: RegularMultigraph
    membership: tuple[bool, ...]
    size_s: int
    cut: int
    hist_s: OutDegreeVector
    hist_comp: OutDegreeVector
    out_degrees: tuple[int, ...]

    def __repr__(self) -> str:
        # bounded whatever n and delta are: the per-vertex fields are left out
        return (
            f"CutState(graph={self.graph!r}, size_s={self.size_s}, cut={self.cut}, "
            f"d={self.d}, d_prime={self.d_prime})"
        )

    @property
    def d(self) -> int:
        """Largest out-degree inside S."""
        return self.hist_s.max_out_degree

    @property
    def d_prime(self) -> int:
        """Largest out-degree outside S."""
        return self.hist_comp.max_out_degree

    @property
    def expansion(self) -> Fraction:
        if self.size_s == 0:
            raise ValueError("expansion undefined for the empty side")
        return Fraction(self.cut, self.size_s)


def _normalize_membership(graph: RegularMultigraph, membership) -> list[bool]:
    """Whether each vertex is in S, from a set of integer vertex ids (numpy
    integers included) or a length-n sequence of truth values."""
    if isinstance(membership, (set, frozenset)):
        member = [False] * graph.n
        for v in membership:
            try:
                v = index(v)
            except TypeError:
                raise ValueError(f"vertex {v!r} is a {type(v).__name__}, not an integer") from None
            if not 0 <= v < graph.n:
                raise ValueError(f"vertex {v} out of range")
            member[v] = True
        return member
    member = [bool(x) for x in membership]
    if len(member) != graph.n:
        raise ValueError("membership length must equal the number of vertices")
    return member


def _state(graph: RegularMultigraph, membership: tuple, out_degrees: tuple,
           hist_s: tuple, hist_comp: tuple) -> CutState:
    """A CutState of fields the library computed itself, set without the
    dataclass constructors' checks. Every crossing edge has one end in S,
    so the cut is S's out-degree total."""
    new = object.__new__
    s, c, state = new(OutDegreeVector), new(OutDegreeVector), new(CutState)
    vars(s)["counts"], vars(c)["counts"] = hist_s, hist_comp
    vars(state).update(graph=graph, membership=membership, size_s=sum(hist_s),
                       cut=sum(map(mul, range(len(hist_s)), hist_s)), hist_s=s, hist_comp=c,
                       out_degrees=out_degrees)
    return state


def cut_state(graph: RegularMultigraph, membership) -> CutState:
    """Cut size and out-degree histograms for a vertex set.

    membership is a length-n sequence of truth values or a set of integer
    vertex ids. A crossing edge is a pairing pair whose endpoints' vertices
    sit on opposite sides; loops never cross, parallel edges cross with
    their multiplicity. One numpy pass over the partner array, with
    temporaries of one byte per point: a point crosses when its partner's
    side differs from its own, and a vertex's out-degree counts its delta
    points that cross. The adjacency slots are not touched.
    """
    member = _normalize_membership(graph, membership)
    mask = np.array(member, dtype=bool)
    side = mask.repeat(graph.delta)  # the side of each point
    crossing = side[graph._points]
    crossing ^= side
    out = np.add.reduce(crossing.reshape(graph.n, graph.delta), axis=1)
    out_degrees = tuple(out.tolist())
    # both histograms from one bincount: S's out-degrees move up by delta + 1
    width = graph.delta + 1
    np.add(out, width, out=out, where=mask)
    hist = np.bincount(out, minlength=2 * width).tolist()
    return _state(graph, tuple(member), out_degrees, tuple(hist[width:]), tuple(hist[:width]))


_Buckets = tuple[list[list[int]], list[list[int]]]


def _buckets(graph: RegularMultigraph, member: list[bool], out: list[int]) -> _Buckets:
    """Vertices grouped by side and score = out-degree + loop count.

    buckets[member[w]][score(w)] holds w, each group ascending, so index
    True is S and False its complement; scores lie in 0..delta.
    """
    loops = graph._loops
    buckets = tuple([[] for _ in range(graph.delta + 1)] for _ in range(2))
    for w in range(graph.n):
        buckets[member[w]][out[w] + loops[w]].append(w)
    return buckets


def _apply_swap(
    graph: RegularMultigraph,
    member: list[bool],
    out: list[int],
    hist: tuple[list[int], list[int]],
    buckets: _Buckets,
    u: int,
    v: int,
) -> None:
    """Move u out of S and v into it, then update the out-degree, bucket and
    histogram entry (hist[side][out-degree]) of the vertices that change
    (u, v and their neighbours).

    Every u-w and v-w edge with w outside {u, v} flips between crossing and
    internal, so w's out-degree moves by 1 for each of its entries in x's
    row (x = u or v), a parallel edge once per edge. The u-v edges cross
    before and after, and each of u's other non-loop edges flips, so u's
    out-degree becomes delta - 2*loops(u) - out(u) + mult(u, v); likewise
    for v. O(delta) work plus a bisect per moved vertex.
    """
    delta, loops, rows = graph.delta, graph._loops, graph._rows
    m_uv = graph.multiplicity(u, v)
    before = {u: (True, out[u]), v: (False, out[v])}
    for x, was in ((u, True), (v, False)):
        for w in rows[x * delta : (x + 1) * delta]:
            if w == u or w == v:
                continue
            if w not in before:
                before[w] = (member[w], out[w])
            # internal before (w on x's old side) and crossing after, or back
            out[w] += 1 if member[w] == was else -1
        out[x] = delta - 2 * loops[x] - out[x] + m_uv
    member[u] = False
    member[v] = True
    for w, (side, old) in before.items():
        if member[w] != side or out[w] != old:
            group = buckets[side][old + loops[w]]
            del group[bisect_left(group, w)]
            insort(buckets[member[w]][out[w] + loops[w]], w)
            hist[side][old] -= 1
            hist[member[w]][out[w]] += 1


def _first_non_neighbour(graph: RegularMultigraph, u: int, group: list[int]) -> int | None:
    """Smallest vertex of the ascending `group` not adjacent to u, or None.

    Skips at most deg(u) entries, so it examines at most delta + 1."""
    for v in group:
        if not graph.multiplicity(u, v):
            return v
    return None


def _bucket_pair_best(
    graph: RegularMultigraph, us: list[int], vs: list[int], base: int
) -> tuple[int, int, int] | None:
    """Smallest (cut change, u, v) over us x vs if it improves, else None.

    Every pair costs base + 2*mult(u, v), so the answer is the first u with a
    non-neighbour in vs, paired with its first one; reaching it skips at most
    deg(u) entries of vs per u. The u tried before it are adjacent to all of
    vs, hence neighbours of vs[0]: at most delta of them.
    If every pair is adjacent, both groups hold at most delta vertices and
    the cheapest pair decides.
    """
    adjacent = []
    for u in us:
        for v in vs:
            m = graph.multiplicity(u, v)
            if not m:
                return base, u, v
            adjacent.append((base + 2 * m, u, v))
    best = min(adjacent)
    return best if best[0] < 0 else None


def _select_best(
    graph: RegularMultigraph,
    member: list[bool],
    out: list[int],
    buckets: _Buckets,
) -> tuple[int, int, int] | None:
    """Most-improving swap, ties broken by smallest (u, v); None at optimum.

    A pair's cut change is 2*delta - 2*(score_u + score_v) + 2*mult(u, v),
    at least its bucket pair's base. High-score bucket pairs come first, and
    the visit stops once the base alone cannot beat (or tie) the incumbent;
    `_bucket_pair_best` prices each bucket pair. Cost: at most (delta + 1)^2
    bucket pairs with at most (delta + 1)^2 multiplicity lookups each, so
    O(delta^4) per call whatever n is (O(delta) in the common case, where
    the first u of a bucket has a non-neighbour among its first few v).
    """
    delta = graph.delta
    inside, outside = buckets[True], buckets[False]
    levels_o = [b for b in range(delta, -1, -1) if outside[b]]
    best: tuple[int, int, int] | None = None
    for a in range(delta, -1, -1):
        if not inside[a]:
            continue
        # Even the highest outside bucket cannot improve from this level down.
        if not levels_o or 2 * delta - 2 * (a + levels_o[0]) > (
            best[0] if best is not None else -2
        ):
            break
        for b in levels_o:
            base = 2 * delta - 2 * (a + b)
            if base > (best[0] if best is not None else -2):
                break
            cand = _bucket_pair_best(graph, inside[a], outside[b], base)
            if cand is not None and (best is None or cand < best):
                best = cand
    if best is None:
        return None
    dc, u, v = best
    return u, v, dc


def _select_first(
    graph: RegularMultigraph,
    member: list[bool],
    out: list[int],
    buckets: _Buckets,
) -> tuple[int, int, int] | None:
    """First improving swap in ascending (u, v) scan order; None at optimum.

    With t = delta - score(u), the swap (u, v) improves iff
    score(v) - mult(u, v) > t. For u the smallest such v is the lesser of
    the first non-neighbour in the outside buckets above t and the first
    outside neighbour that qualifies. If top is the highest outside score,
    a u with score <= delta - top cannot improve, so u runs in ascending
    order over the inside buckets above that level only. A u tried there
    without success is adjacent to the whole top bucket, so at most delta
    of them precede the answer. Cost: O(delta^3) multiplicity lookups per
    call whatever n is.
    """
    delta = graph.delta
    loops, rows = graph._loops, graph._rows
    inside, outside = buckets[True], buckets[False]
    top = max((b for b in range(delta + 1) if outside[b]), default=0)
    for u in merge(*inside[delta + 1 - top :]):
        t = delta - out[u] - loops[u]
        best: tuple[int, int] | None = None  # (v, cut change)
        for b in range(t + 1, top + 1):
            v = _first_non_neighbour(graph, u, outside[b])
            if v is not None and (best is None or v < best[0]):
                best = (v, 2 * (t - b))
        # u's row in point order: keep the smallest outside neighbour that
        # qualifies (u itself is in S, so its loops are skipped)
        row = rows[u * delta : (u + 1) * delta]
        for w in row:
            if member[w] or (best is not None and w >= best[0]):
                continue
            m = row.count(w)
            if out[w] + loops[w] - m > t:
                best = (w, 2 * (t - out[w] - loops[w] + m))
        if best is not None:
            return u, best[0], best[1]
    return None


def local_descent(
    state: CutState, tie_rule: str = BEST_IMPROVEMENT, trace: list | None = None
) -> CutState:
    """Apply strictly improving swaps until the set is locally optimal.

    |S| is preserved by every step and the cut strictly decreases, so the
    descent terminates after at most cut-many swaps. Deterministic for a
    given (state, tie_rule): best-improvement takes the largest cut drop
    (smallest (u, v) on ties), first-improvement takes the first improving
    pair in ascending vertex order. If `trace` is a list, the cut after each
    accepted swap is appended to it.

    Vertices are bucketed by side and score once, in O(n); each swap then
    costs a selection (O(delta^4) lookups for best-improvement, O(delta^3)
    for first-improvement, independent of n) and a bucket update of at most
    2*delta + 2 vertices by bisection.
    """
    if tie_rule not in (BEST_IMPROVEMENT, FIRST_IMPROVEMENT):
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    graph = state.graph
    if 2 * state.size_s > graph.n:
        raise ValueError("descent expects |S| <= n/2")
    if graph._rows is None:
        graph._index()  # the helpers below read the adjacency slots directly
    select = _select_best if tie_rule == BEST_IMPROVEMENT else _select_first
    member = list(state.membership)
    out = list(state.out_degrees)
    hist = (list(state.hist_comp.counts), list(state.hist_s.counts))
    buckets = _buckets(graph, member, out)
    cut = state.cut
    while True:
        found = select(graph, member, out, buckets)
        if found is None:
            break
        u, v, dc = found
        _apply_swap(graph, member, out, hist, buckets, u, v)
        cut += dc
        if trace is not None:
            trace.append(cut)
    return _state(graph, tuple(member), tuple(out), tuple(hist[True]), tuple(hist[False]))


def _no_improving_swap(state: CutState) -> bool:
    """True iff no swap of u in S with v outside it lowers the cut.

    With score = out-degree + loops, the swap changes the cut by
    2*(delta - score(u) - score(v) + mult(u, v)), so it improves iff
    score(v) - mult(u, v) > t = delta - score(u). A non-neighbour v of u
    improves iff score(v) > t, which the count of outside scores above t
    settles once u's outside neighbours above t are discounted; u's
    neighbours are checked with their multiplicity. O(n * delta) in all,
    and independent of the swap selectors, so it checks the descent rather
    than repeating its stopping rule.
    """
    graph = state.graph
    member = state.membership
    score = [o + graph.loops(w) for w, o in enumerate(state.out_degrees)]
    at_least = [0] * (graph.delta + 2)  # outside vertices with score >= s
    for w in range(graph.n):
        if not member[w]:
            at_least[score[w]] += 1
    for s in range(graph.delta - 1, -1, -1):
        at_least[s] += at_least[s + 1]
    for u in range(graph.n):
        if not member[u]:
            continue
        t = graph.delta - score[u]
        near = 0
        for w, m in graph.neighbor_items(u):
            if member[w]:
                continue
            if score[w] - m > t:
                return False
            if score[w] > t:
                near += 1
        if at_least[t + 1] > near:
            return False
    return True


_BRUTE_FORCE_LIMIT = 26
_BLOCK_VERTICES = 16  # the oracle's low block: 2^16 subsets per vector pass


def _lex_smallest(masks: np.ndarray) -> int:
    """The vertex bitmask whose sorted vertex tuple is lexicographically
    smallest: keep the masks with the smallest next vertex, one vertex at a
    time, until one mask has no vertex left (a shorter prefix sorts first)."""
    chosen = 0
    rest = masks
    while True:
        if not rest.all():
            return chosen
        low = rest & -rest
        pick = low.min()
        chosen |= int(pick)
        rest = rest[low == pick] ^ pick


def brute_force_expansion(graph: RegularMultigraph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact edge expansion min_{0 < |S| <= n/2} cut(S)/|S| with its minimizer.

    Block enumeration: the cut and size of every subset A of the low
    L = min(n, 16) vertices are built by doubling in arrays of length 2^L,
    with `near[v][A]`, the number of edges from v into A. The n - L high
    vertices are walked in Gray-code order; with B the current high set,
    cut(A | B) = cut(A) + cut(B) - 2 * e(A, B), so each flip of a high
    vertex w updates the vector e(., B) by near[w] and the scalar cut(B) by
    w's edges. Ratios are ranked by the exact integer key
    cut * (lcm(1..n//2) // |S|), which fits int64 up to n = 26. Returns the
    lexicographically smallest minimizing set (as a sorted vertex tuple);
    that rule does not depend on the enumeration order. O(n * 2^L) memory
    and 2^(n-L) vector passes.
    """
    n = graph.n
    if n < 2:
        raise ValueError("expansion needs at least two vertices")
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"n={n} exceeds the exhaustive limit {_BRUTE_FORCE_LIMIT}; "
            "use local_descent over sampled starts instead"
        )
    low_n = min(n, _BLOCK_VERTICES)
    half = n // 2
    rows = [graph.neighbor_items(v) for v in range(n)]
    # non-loop edge endpoints of each vertex: crossing + internal
    spans = [graph.delta - 2 * graph.loops(v) for v in range(n)]
    near = np.zeros((n, 1 << low_n), dtype=np.int32)
    cut_low = np.zeros(1 << low_n, dtype=np.int32)
    size_low = np.zeros(1 << low_n, dtype=np.int32)
    into = np.zeros((n, low_n), dtype=np.int32)
    for v, row in enumerate(rows):
        for x, m in row:
            if x < low_n:
                into[v, x] = m
    for i in range(low_n):
        lo, hi = 1 << i, 2 << i
        near[:, lo:hi] = near[:, :lo] + into[:, i : i + 1]
        # adding vertex i to A turns its edges into A internal
        cut_low[lo:hi] = cut_low[:lo] + (spans[i] - 2 * near[i, :lo])
        size_low[lo:hi] = size_low[:lo] + 1
    scale = math.lcm(*range(1, half + 1))
    factor = np.zeros(n + 1, dtype=np.int64)
    factor[1 : half + 1] = [scale // s for s in range(1, half + 1)]
    # per high-set size b: the key factor of every low subset, and which
    # subsets A have 1 <= |A| + b <= n/2
    factors = [factor[size_low + b] for b in range(n - low_n + 1)]
    valid = [f > 0 for f in factors]

    best_key = best_mask = None
    member = [False] * n
    cross = np.zeros(1 << low_n, dtype=np.int32)  # e(A, B) for every A
    cut_high = size_high = high_mask = 0
    for k in range(1 << (n - low_n)):
        if k:
            w = low_n + (k & -k).bit_length() - 1
            side = member[w]
            crossing = sum(m for x, m in rows[w] if member[x] != side)
            cut_high += spans[w] - 2 * crossing
            member[w] = not side
            if side:
                cross -= near[w]
                size_high -= 1
            else:
                cross += near[w]
                size_high += 1
            high_mask ^= 1 << w
        if size_high > half:
            continue
        key = (cut_low - 2 * cross + cut_high) * factors[size_high]
        step_best = int(key.min(where=valid[size_high], initial=np.iinfo(np.int64).max))
        if best_key is not None and step_best > best_key:
            continue
        ties = np.flatnonzero((key == step_best) & valid[size_high]) | high_mask
        if best_key == step_best:
            ties = np.append(ties, best_mask)
        best_key, best_mask = step_best, _lex_smallest(ties)
    best_set = tuple(v for v in range(n) if best_mask >> v & 1)
    size = len(best_set)
    return Fraction(best_key // (scale // size), size), best_set


@dataclass(frozen=True)
class TrialRecord:
    """Best descent outcome for one sampled graph."""

    index: int
    cut: int
    size_s: int
    d: int
    d_prime: int
    swaps: int

    @property
    def expansion(self) -> Fraction:
        return Fraction(self.cut, self.size_s)


@dataclass(frozen=True)
class ExperimentSummary:
    delta: int
    n: int
    trials: int
    restarts: int
    seed: int
    simple_only: bool
    tie_rule: str
    records: tuple[TrialRecord, ...]
    certified_bound: float | None
    min_expansion: Fraction
    mean_expansion: float
    frac_caps_within_delta: float
    frac_meeting_bound: float | None

    @property
    def flagged_trials(self) -> tuple[int, ...]:
        """Trials whose best-found expansion fell below the certified bound."""
        if self.certified_bound is None:
            return ()
        return tuple(
            r.index for r in self.records if r.expansion < self.certified_bound
        )


def expansion_experiment(
    delta: int,
    n: int,
    trials: int,
    seed: int,
    restarts: int = 1,
    simple_only: bool = False,
    tie_rule: str = BEST_IMPROVEMENT,
) -> ExperimentSummary:
    """Sample graphs, descend from random balanced sets, summarize expansions.

    Per trial (seeded with derive_seed(seed, trial)): sample one graph, run
    local_descent from `restarts` random |S| = n//2 starts, and record the
    best final expansion with its (d, d') and swap count. Every final state
    is checked to admit no improving swap; a violation raises, because it
    would mean a descent returned a non-locally-optimal state.

    The summary compares best-found expansions against this degree's
    certified lower bound (None when no certificate exists, e.g. delta < 3);
    the bound holds for random graphs only with high probability, so trials
    below it are flagged and counted, not failed.
    """
    if not 1 <= delta <= 20:
        raise ValueError("delta must lie in [1, 20]")
    if not 2 <= n <= 100_000:
        raise ValueError("n must lie in [2, 100000]")
    if not 1 <= trials <= 10_000:
        raise ValueError("trials must lie in [1, 10000]")
    if restarts < 1:
        raise ValueError("restarts must be positive")

    certified: float | None = None
    if delta >= 3:
        from .certifier import NoBound, min_eta

        try:
            certified = min_eta(delta).expansion_bound
        except NoBound:
            certified = None

    half = n // 2
    records = []
    for t in range(trials):
        rng = random.Random(derive_seed(seed, t))
        graph = sample_pairing(
            delta, n, seed=rng.randrange(_SEED_MOD), simple_only=simple_only
        )
        best: tuple[int, int, int, int] | None = None
        for _ in range(restarts):
            start = cut_state(graph, set(rng.sample(range(n), half)))
            trace: list[int] = []
            final = local_descent(start, tie_rule=tie_rule, trace=trace)
            if not _no_improving_swap(final):
                raise RuntimeError(
                    f"descent returned a cut {final.cut} with an improving "
                    f"swap (delta={delta}): not locally optimal"
                )
            cand = (final.cut, final.d, final.d_prime, len(trace))
            if best is None or cand[0] < best[0]:
                best = cand
        records.append(
            TrialRecord(
                index=t,
                cut=best[0],
                size_s=half,
                d=best[1],
                d_prime=best[2],
                swaps=best[3],
            )
        )

    expansions = [r.expansion for r in records]
    within = sum(1 for r in records if r.d + r.d_prime <= delta)
    meeting: float | None = None
    if certified is not None:
        meeting = sum(1 for e in expansions if e >= certified) / trials
    return ExperimentSummary(
        delta=delta,
        n=n,
        trials=trials,
        restarts=restarts,
        seed=seed,
        simple_only=simple_only,
        tie_rule=tie_rule,
        records=tuple(records),
        certified_bound=certified,
        min_expansion=min(expansions),
        mean_expansion=float(sum(expansions) / trials),
        frac_caps_within_delta=within / trials,
        frac_meeting_bound=meeting,
    )

