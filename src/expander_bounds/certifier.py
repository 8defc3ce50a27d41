"""Bound evaluation, eta minimization, and recheckable expansion certificates.

The central quantity is a base-2 per-vertex growth exponent for the expected
number of locally capped bisections at a given cut level. When that exponent
is negative (with margin) for every realizable cap pair, bisections at that
cut level vanish with high probability and the cut level converts into an
edge-expansion lower bound ``(1 - eta) * delta / 2``.

Certificates carry everything a verifier needs to recheck the claim from
scratch: per-pair side solutions with residuals, vacuity witnesses for the
cap pairs that cannot occur at the certified cut level, and the classical
baseline threshold for comparison.

The ``eta`` search needs only the sign of each pair's exponent at a probe,
and it gets most signs without solving. With ``t = target_mean(delta, eta)``
and ``ln beta = -ln S0(gamma)`` per side, the exponent of caps ``(d, d')`` is

    rhs = 1 + ½·log2 S0_d(gamma) + ½·log2 S0_d'(gamma') - delta
          - ((1 - eta)·delta/4)·(log2 gamma + log2 gamma')
          + (delta/4)·(xlog2(1 + eta) + xlog2(1 - eta)).

Each side's part, ``(ln S0(e^x) - t·x) / (2 ln 2)``, is convex in
``x = ln gamma`` (its second derivative is the tilted profile's variance over
``2 ln 2``) and stationary where the profile's mean is ``t``, which is the
side solver's root. So the solved exponent is the minimum over witnesses,
and ``rhs`` at any ``gamma > 0`` bounds it from above: any witness is sound.
The search (:func:`_satisfied`) therefore screens each feasible pair at the
uncapped binomial root ``gamma0 = t / (delta - t)``, where one prefix sum
gives every cap's ``ln S0`` (:func:`_screen`), and solves only the pairs it
leaves. ``_SLACK`` covers the rounding of the evaluations, and the screen
runs only on pairs whose solves provably cannot underflow, so every verdict
is the full solve's. The searches of many degrees run in lock-step
(:func:`_certificates`, behind :func:`min_eta`, :func:`build_table` and
``asymptotics.alpha_trend``): each round decides one batch of probes, every
live degree's next halvings, with one padded prefix and one root solve per
solve group, and the certificates of all the degrees come from one root
solve and one residual pass (:func:`_pair_bounds`). A cap's bits do not
depend on its batch, so each degree gets the certificate its own search
gives. On the paper's table (degrees 4..60, margin 1e-6) that is 15 rounds
of 755 probes, whose solves take 682 caps in 14 calls of the root finder;
``build_table`` takes about 25 ms, against 63 ms with the degrees one at a
time. Checking a certificate needs no solve:
:func:`verify_certificate` evaluates each pair's exponent at the stored
witnesses (:func:`_pair_exponents`, the builder's ``rhs`` bit for bit), and
a pass there implies a pass at the minimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, get_type_hints

import numpy as np

from .combinatorics import (
    _CAP_RANGE,
    _log_s0_prefix,
    truncated_log_moments,
)
from .side_solver import (
    BetaUnderflow,
    SideSolution,
    _root_x_upper,
    _side_solutions,
    _solve_caps,
    profile_residuals,
    solve_side,
    target_mean,
)

__all__ = [
    "BoundCertificate",
    "CertificateFormatError",
    "CheckResult",
    "DEFAULT_MARGIN",
    "DEFAULT_PRECISION",
    "NoBound",
    "PairBound",
    "VerificationReport",
    "all_pairs",
    "bollobas_eta",
    "bollobas_threshold",
    "build_table",
    "certificate_from_json",
    "certificate_to_dict",
    "certificate_to_json",
    "evaluate_pairs",
    "feasible_pairs",
    "min_eta",
    "verify_certificate",
]

SCHEMA_VERSION = "cert-v1"
DEFAULT_MARGIN = 1e-3
DEFAULT_PRECISION = 3

# Residual tolerances a side solution must satisfy, both at creation and at
# verification time.
MASS_TOL = 1e-10
MEAN_TOL = 1e-8

_LN2 = math.log(2.0)
_GAMMA = "gamma must be a finite positive real"

# A probe passes a pair unsolved when its exponent at the uncapped binomial
# root is at most -margin - _SLACK, and solves it otherwise; _satisfied derives
# why 1e-9 is enough.
_SLACK = 1e-9
# A cap is screened only while the closed-form bound of _screen on ln S0
# at its root, from the root finder's own bracket end
# (side_solver._root_x_upper), stays below this, which keeps every witness
# the screen skips about 45 nats from beta's underflow.
_GUARD_LOG_S0 = 700.0
# A round of the eta searches probes each live degree's next halvings at
# once, as many levels of them (at most _ROUND_LEVELS) as keep the terms of
# the round's feasible pairs within _ROUND_TERMS.
_ROUND_TERMS = 8000
_ROUND_LEVELS = 5


class NoBound(RuntimeError):
    """No eta in [0, 1) satisfies the negativity condition."""


class CertificateFormatError(ValueError):
    """A serialized certificate is structurally malformed."""


def _xlog2(x: float) -> float:
    """x * log2(x) with the continuous-extension convention 0 * log2(0) = 0."""
    if x == 0.0:
        return 0.0
    return x * math.log2(x)


def _rhs(delta: int, eta: float, log_beta: float, gamma: float, log_beta_p: float,
         gamma_p: float) -> float:
    """The pair exponent (bits per vertex) at witnesses ``(ln beta, gamma)``
    and ``(ln beta', gamma')``: the one formula behind the search and the
    certificate."""
    return _exponent(*_exponent_terms(delta, eta), log_beta, log_beta_p,
                     math.log2(gamma) + math.log2(gamma_p))


def _exponent_terms(delta: int, eta: float) -> tuple[float, ...]:
    """The terms of the exponent that depend on ``(delta, eta)`` alone."""
    quarter = delta / 4.0
    return delta, (1.0 - eta) * quarter, quarter * _xlog2(1.0 + eta), quarter * _xlog2(1.0 - eta)


def _exponent(delta, weight, up, down, log_beta, log_beta_p, log2_gammas):
    """:func:`_rhs` from its :func:`_exponent_terms` and ``log2 gamma + log2
    gamma'``, elementwise where its arguments are arrays (the search's, one
    entry per pair), in the same order of operations."""
    return (1.0 - 0.5 * (log_beta / _LN2) - 0.5 * (log_beta_p / _LN2) - weight * log2_gammas
            - delta + up + down)


def all_pairs(delta: int) -> list[tuple[int, int]]:
    """All cap pairs (d, d') with d + d' = delta and 1 <= d <= d', sorted by d descending."""
    return [(d, delta - d) for d in range(delta // 2, 0, -1)]


def feasible_pairs(delta: int, eta: float) -> list[tuple[int, int]]:
    """Cap pairs that are realizable at crossing level eta.

    A side capped at d has mean out-degree strictly below d, so a pair can
    only occur when target_mean(delta, eta) < d for the smaller cap; the
    complementary side inherits feasibility because d' >= d. Sorted by d
    descending, balanced pair first.
    """
    tm = target_mean(delta, eta)
    return [(d, dp) for d, dp in all_pairs(delta) if tm < d]


@dataclass(frozen=True)
class PairBound:
    """Negativity record for one cap pair (d, d_prime).

    Feasible pairs carry both side solutions and the growth exponent `rhs`.
    Infeasible pairs are recorded as vacuous with `target_mean` as witness
    (target_mean >= d), so a verifier can confirm the enumeration over
    d + d' = delta was exhaustive.
    """

    d: int
    d_prime: int
    side: SideSolution | None
    side_prime: SideSolution | None
    rhs: float | None
    target_mean: float

    @property
    def vacuous(self) -> bool:
        return self.side is None


@dataclass(frozen=True)
class BoundCertificate:
    """Everything needed to recheck the bound expansion >= (1 - eta) * delta / 2."""

    delta: int
    eta: float
    expansion_bound: float
    margin: float
    pair_bounds: tuple[PairBound, ...]
    baseline_eta: float
    baseline_bound: float


def _pair_exponents(delta: int, eta: float, witnesses: list[tuple]) -> list[float]:
    """The exponent of each pair ``(d, gamma, d', gamma')`` at its witnesses,
    every side's ``ln S0`` from one kernel pass: the verifier's pair
    evaluation. At a solved side's ``gamma`` that is the root solve's own
    ``ln S0``, which the builder used, as the kernel gives a cap the same
    bits in any batch."""
    if not witnesses:
        return []
    # each side once: a balanced pair's two sides are one
    sides = list(dict.fromkeys(side for d, g, dp, gp in witnesses for side in ((d, g), (dp, gp))))
    caps, gammas = zip(*sides)
    ln_s0 = dict(zip(sides, truncated_log_moments(delta, caps, gammas)[0].tolist()))
    return [_rhs(delta, eta, -ln_s0[d, g], g, -ln_s0[dp, gp], gp) for d, g, dp, gp in witnesses]


def evaluate_pairs(delta: int, eta: float) -> Iterator[PairBound]:
    """Every cap pair's PairBound at crossing level eta, in all_pairs order.

    Feasible pairs come first (largest d first), each with its two side
    solutions and the exponent at their witnesses, from the root solve's own
    ``ln S0``: the value :func:`verify_certificate` recomputes. All feasible
    caps are solved in one :func:`side_solver.solve_side` call. Vacuous
    pairs follow with the target mean as witness. Raises BetaUnderflow when a
    cap pins the mean. :func:`_pair_bounds` does the same for many degrees.
    """
    pairs = feasible_pairs(delta, eta)
    caps = _caps_of(pairs)
    return iter(_bounds(delta, eta, pairs, dict(zip(caps, solve_side(delta, caps, eta)
                                                    if caps else ()))))


def _caps_of(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    return tuple(dict.fromkeys(c for pair in pairs for c in pair))


def _bounds(delta: int, eta: float, pairs, side_of: dict) -> tuple[PairBound, ...]:
    """The PairBounds of the feasible ``pairs`` from their caps' sides, then
    the vacuous ones: the feasible pairs are a prefix of all_pairs."""
    tm = target_mean(delta, eta)
    return tuple(
        PairBound(d, dp, side_of[d], side_of[dp], _rhs(
            delta, eta, -side_of[d].log_s0, side_of[d].gamma,
            -side_of[dp].log_s0, side_of[dp].gamma), tm) for d, dp in pairs
    ) + tuple(PairBound(d, dp, None, None, None, tm) for d, dp in all_pairs(delta)[len(pairs):])


def _pair_bounds(jobs: list[tuple[int, float]]) -> list:
    """:func:`evaluate_pairs` at each ``(delta, eta)`` of ``jobs``, as a tuple,
    or the BetaUnderflow of the job's first cap that pins the mean. The
    feasible caps of every job are solved in one root solve and one residual
    pass (``side_solver._side_solutions``)."""
    feasible = [feasible_pairs(delta, eta) for delta, eta in jobs]
    caps = [_caps_of(pairs) for pairs in feasible]
    flat = [(delta, c, eta) for (delta, eta), cs in zip(jobs, caps) for c in cs]
    sides = iter(_side_solutions(*map(list, zip(*flat))) if flat else ())
    out = []
    for (delta, eta), pairs, cs in zip(jobs, feasible, caps):
        side_of = {c: next(sides) for c in cs}
        underflow = [s for s in side_of.values() if isinstance(s, BetaUnderflow)]
        out.append(underflow[0] if underflow else _bounds(delta, eta, pairs, side_of))
    return out


class _Pairs(NamedTuple):
    """The feasible pairs of a batch of probes, probe after probe and largest
    ``d`` first; ``caps`` holds one row for the caps ``d`` and one for
    ``d'``."""
    probe: np.ndarray
    caps: np.ndarray
    screenable: np.ndarray
    rhs0: np.ndarray


def _screen(probes: list[tuple[int, float]]) -> _Pairs:
    """Every feasible pair of every ``(delta, eta)`` probe, screened at the
    probe's uncapped binomial root ``gamma0 = t / (delta - t)``: the first of
    :func:`_satisfied`'s two steps, whose second solves the pairs this one
    does not pass.

    One padded prefix (:func:`_log_s0_prefix`) gives every cap's ``ln S0``
    at ``gamma0``, one :func:`side_solver._root_x_upper` call every cap's
    root bound, and ``rhs0`` is each pair's exponent there, by
    :func:`_exponent` with each probe's scalar terms from ``math``, the bits
    of :func:`_rhs`. A pair is ``screenable`` when the side solves of both
    its caps provably keep ``ln S0 <= _GUARD_LOG_S0`` at their roots, so
    ``beta`` cannot underflow: ``ln S0(x) - t x`` is convex and least at
    the root ``x*``, and ``x0 <= x* <= x_u``, so ``ln S0(x*) <= ln S0(x0) +
    t max(0, x_u - x0)``.
    """
    values = []
    for delta, eta in probes:
        t = target_mean(delta, eta)
        gamma0 = t / (delta - t)
        lg = math.log2(gamma0)
        values.append((t, math.log(gamma0), lg + lg, *_exponent_terms(delta, eta)))
    values = np.array(values).T
    deltas = np.array([delta for delta, _ in probes])
    count = np.maximum(deltas // 2 - values[0].astype(int), 0)  # the caps d > t
    probe = np.repeat(np.arange(len(probes)), count)
    d = (deltas // 2 + np.cumsum(count) - count)[probe] - np.arange(probe.size)
    caps = np.array((d, deltas[probe] - d))
    log_s0 = _log_s0_prefix(tuple(deltas.tolist()), values[1])[probe, caps]
    t, x0, lg0, *terms = values[:, probe]
    x_u = _root_x_upper(terms[0], caps, t)
    screenable = (log_s0 + t * np.maximum(0.0, x_u - x0) <= _GUARD_LOG_S0).all(axis=0)
    rhs0 = _exponent(*terms, -log_s0[0], -log_s0[1], lg0)
    return _Pairs(probe, caps, screenable, rhs0)


def _satisfied(probes: list[tuple[int, float]], margin: float) -> list[bool]:
    """The search condition at each ``(delta, eta)`` probe, all decided
    together: at least one pair is feasible, and each feasible pair's solved
    exponent is at most ``-margin`` with no cap's ``beta`` underflowing, the
    verdict :func:`_certificates` reads off :func:`_pair_bounds`, building
    no SideSolution.

    Every cap of a probe shares ``t`` and so ``gamma0 = t / (delta - t)``.
    The pairs go through two steps, each one batch over every probe:

    - screen (:func:`_screen`): a screenable pair's exponent at ``gamma0``
      on both sides bounds the solved one from above (module docstring), so
      a value of at most ``-margin - _SLACK`` passes it;
    - solve: every pair the screen leaves, screenable or not, of every probe
      not yet failed, in groups of 1, 2, 4, ... pairs per probe, largest d
      first, each group round one call of the root finder
      (``side_solver._solve_caps``) over the caps of every probe, each pair's
      exponent from its sides' ``ln S0`` there. A ``beta`` that underflows
      fails the probe. A probe below the threshold usually fails at its
      first pair, and no group solves more than twice what the pairs before
      a failure needed.

    A cap's kernel values, prefix row and root are the same bits in any
    batch, so each probe gets the verdict it would get alone.

    Why ``_SLACK = 1e-9`` is enough for a pass. Let ``R`` be the exact
    exponent at a float witness, ``R*`` its minimum, ``r`` the float
    evaluation, ``e`` a bound on ``|r - R|`` and ``g`` the excess of ``R``
    at the solved witness over ``R*``. Then ``r(solved) <= R* + g + e <=
    R(w) + g + e <= r(w) + g + 2e`` at any witness ``w``, so a pass at
    ``gamma0`` implies the solved pass when ``g + 2e <= _SLACK``. With ``u =
    2^-53``, on a screenable pair:

    - ``ln S0 <= 700`` at both witnesses evaluated, ``gamma0`` and the
      solved root (:func:`_screen`). ``gamma0 = (1 - eta) / (1 + eta)`` lies
      in ``[5e-10, 1]`` because the search keeps ``eta <= 1 - 1e-9``, so
      ``x0`` is in ``[-21.5, 0]``; the root has ``x >= x0``, and where ``x >
      0``, ``d x <= ln S0(x) <= 700``.
    - Each log term ``L_i = ln C(delta, i) + i x`` is off by at most ``u (3
      ln C + i + 2 i |x| + |L_i|) <= (68 delta + 2100) u``, as ``ln C <=
      0.7 delta`` and ``i |x| <= max(21.5 delta, 700)``.
    - The prefix adds ``(2 d + 24) u + 700 u`` (its docstring), and
      :func:`truncated_log_moments`, a scaled sum of the same terms, no
      more. So each ``ln S0`` is off by under ``(70 delta + 2824) u``. A
      logaddexp scan would instead round once per step at ``|ln S0|``, up
      to ``700 delta u`` in all.
    - The pair formula has seven terms. ``(1 - eta) |log2 gamma| <= 1.07``
      for ``x`` in ``[x0, 0]`` and ``t x <= 700`` above it, so their
      magnitudes sum to under ``2.2 delta + 2100``; rounding each a few
      times and summing costs under ``(22 delta + 2.1e4) u``. The two ``ln
      S0`` enter halved and over ``ln 2``.

    So ``e < (123 delta + 2.6e4) u``. For ``g``: by convexity each side's
    excess is at most ``(x^ - x*) (mean(x^) - t) / (2 ln 2) <= v (x^ -
    x*)^2 / (2 ln 2)`` at the solved ``x^``, ``v`` the variance: second order
    in the root finder's last error. It stops once ``phi = ln(mean / gap) -
    ln(t / s)``, ``s = d - t``, is within ``8 u (d (1 + |x|) + ln C(delta,
    d))``, and ``phi`` rises with slope ``d v / (mean gap)``, so the excess is
    about ``phi^2 (mean gap)^2 / (2 ln 2 d^2 v)``, tiny also where the cap
    pins the mean and ``v`` is about the gap, which the kernel sums directly.
    Against 60-digit decimal arithmetic, 784 seeded screenable caps (delta
    <= 80, half with ``s`` from 1e-15 to 1e-3) gave ``g <= 4.1e-26``. Hence
    ``g + 2e < _SLACK`` for delta up to 30,000.
    """
    if not probes:
        return []
    pairs = _screen(probes)
    verdict = np.bincount(pairs.probe, minlength=len(probes)) > 0
    unsolved = np.flatnonzero(~(pairs.screenable & (pairs.rhs0 <= -margin - _SLACK)))
    if not unsolved.size:
        return verdict.tolist()
    probe = pairs.probe[unsolved]
    rank = np.arange(unsolved.size) - np.searchsorted(probe, probe)
    group = np.frexp(rank + 1.0)[1] - 1  # ranks 0 | 1, 2 | 3..6 | 7..14 | ...
    for g in range(group.max() + 1):
        chosen = [(p, *pairs.caps[:, j].tolist()) for p, j in
                  zip(probe[group == g].tolist(), unsolved[group == g].tolist()) if verdict[p]]
        sides = list(dict.fromkeys((p, c) for p, d, dp in chosen for c in (d, dp)))
        if not sides:
            continue
        gamma, _, log_s0 = _solve_caps([probes[p][0] for p, _ in sides], [c for _, c in sides],
                                       [probes[p][1] for p, _ in sides])
        # A beta that underflows (a cap pinned against the mean has no
        # representable witness) fails the probe: conservative, and
        # _certificates bumps a rounded eta it hits.
        root = dict(zip(sides, zip((-log_s0).tolist(), gamma.tolist(),
                                   (np.exp(-log_s0) == 0.0).tolist())))
        for p, d, dp in chosen:
            delta, eta = probes[p]
            if root[p, d][2] or root[p, dp][2] or _rhs(
                    delta, eta, *root[p, d][:2], *root[p, dp][:2]) > -margin:
                verdict[p] = False
    return verdict.tolist()


def _grid_scale(precision: int) -> float:
    """``10**precision``, the grid an eta is rounded up onto; ValueError unless
    ``precision`` is an integer from 1 to 308, where the grid is a double."""
    if not isinstance(precision, int) or precision < 1:
        raise ValueError("precision must be a positive integer")
    if precision > 308:
        raise ValueError("precision must be at most 308")
    return 10.0**precision


def min_eta(delta: int, margin: float = DEFAULT_MARGIN,
            precision: int = DEFAULT_PRECISION) -> BoundCertificate:
    """Smallest certified eta for the given degree, rounded up to `precision` decimals.

    Binary search over eta in [0, 1) for the condition "every feasible cap
    pair has growth exponent <= -margin"; the threshold is then rounded up
    (conservative direction: larger eta means a weaker claimed bound), and
    the certificate's pair bounds are evaluated once at the rounded value,
    which certifies when a pair is feasible and the largest feasible exponent
    is at most -margin. This is :func:`_certificates` with one degree, the
    search :func:`build_table` runs over many.

    Each probe is decided by :func:`_satisfied`: one prefix sum at the
    uncapped binomial root gives every cap's ``ln S0`` there and clears the
    pairs with room to spare, and only what is left is solved, with the
    verdict solving every pair would give. On the paper's table (degrees
    4..60, margin 1e-6) the screen leaves 682 caps to solve, over the 15
    rounds of the lock-step search. Only the certificate at the rounded eta
    is built from full side solutions with residuals (:func:`_pair_bounds`).

    The search makes at most 34 float halvings and stops as soon as every
    float in the bracket ``(lo, hi]`` rounds up to the same grid value: the
    halvings left could only move ``hi`` inside that bracket, so the rounded
    result is the one the full search would give. It does not bisect the
    grid itself, because the condition is not monotone there: at delta=400,
    margin=1e-3, probes just above 0.080 fail with a pinned cap
    (BetaUnderflow) and a grid search would certify 0.080 instead of 0.081.

    The rounded eta can still fail the condition, because a pinned cap can
    underflow on a grid point above a passing float probe. It is then bumped
    one grid step at a time, at most three times, and NoBound is raised if
    that does not certify. At margin 1e-6 delta=308 needs one bump (0.091
    underflows, 0.092 certifies and verifies); delta=800 and 830 need two
    at margins 1e-3 and 1e-6, though verify_certificate rejects what they
    return, and delta=920, 950, 960 and 990 use up the bumps and raise
    NoBound.
    """
    (cert,) = _certificates([delta], margin, precision)
    if isinstance(cert, NoBound):
        raise cert
    return cert


def _certificates(degrees, margin: float, precision: int) -> list:
    """:func:`min_eta` of each degree, or the NoBound it raises, with every
    degree's search run in lock-step.

    Each round decides, in one :func:`_satisfied` call, the next halving of
    every degree whose bracket still spans two grid values, and, while the
    round's pairs stay few, the halvings after it too (the midpoints of both
    halves, and so on, up to ``_ROUND_LEVELS``): a degree with few caps gets
    its 13 or so halvings in 3 rounds instead of 13, and the probes its
    verdicts do not lead to are dropped. Each degree keeps its own bracket,
    early stop, bumps and NoBound, and every verdict and every cap's bits are
    independent of the batch, so its certificate is the one a search of its
    own gives. The certificates of every degree come from one
    :func:`_pair_bounds` call, and one more for each round of bumps.
    """
    for delta in degrees:
        if not isinstance(delta, int) or delta < 3:
            raise ValueError("delta must be an integer >= 3")
    if not margin > 0.0:
        raise ValueError("margin must be positive")
    scale = _grid_scale(precision)

    def grid_index(x: float) -> int:
        return math.ceil(x * scale)

    def open_bracket(lo: float, hi: float) -> bool:
        # x -> ceil(x * scale) is monotone, so its ends decide the bracket;
        # the next float above lo covers an lo * scale that is an integer.
        return grid_index(math.nextafter(lo, hi)) != grid_index(hi)

    unique = list(dict.fromkeys(degrees))
    bracket = dict.fromkeys(unique, (0.0, 1.0 - 1e-9))
    halvings = dict.fromkeys(unique, 0)
    found = {}
    live = []
    for delta, ok in zip(unique, _satisfied([(delta, 1.0 - 1e-9) for delta in unique], margin)):
        if ok:
            live.append(delta)
        else:
            found[delta] = NoBound(f"no eta below 1 satisfies the margin for delta={delta}")
    while live:
        # The next halvings of every live degree, probed at once, as many
        # levels of them as keep the terms of the round's feasible pairs within
        # _ROUND_TERMS (and _ROUND_LEVELS): each degree's brackets form a tree, breadth
        # first, where bracket i's children are 2i + 1 (its probe passed, hi =
        # mid) and 2i + 2 (it failed, lo = mid).
        probes, probed, terms = [], {}, 0
        frontier = [(delta, 0, bracket[delta]) for delta in live]
        for level in range(_ROUND_LEVELS):
            nodes = [(delta, i, lo, hi, 0.5 * (lo + hi)) for delta, i, (lo, hi) in frontier
                     if halvings[delta] + level < 34 and open_bracket(lo, hi)]
            terms += sum(max(0, delta // 2 - math.floor(target_mean(delta, mid))) * (delta + 2)
                         for delta, *_, mid in nodes)
            if not nodes or level and terms > _ROUND_TERMS:
                break
            for delta, i, lo, hi, mid in nodes:
                probed[delta, i] = len(probes)
                probes.append((delta, mid))
            frontier = [(delta, 2 * i + 1 + k, half) for delta, i, lo, hi, mid in nodes
                        for k, half in enumerate(((lo, mid), (mid, hi)))]
        verdicts = _satisfied(probes, margin)
        for delta in live:
            i = 0
            while (delta, i) in probed:
                (lo, hi), (_, mid) = bracket[delta], probes[probed[delta, i]]
                ok = verdicts[probed[delta, i]]
                bracket[delta] = (lo, mid) if ok else (mid, hi)
                halvings[delta] += 1
                i = 2 * i + (1 if ok else 2)
        live = [delta for delta in live
                if halvings[delta] < 34 and open_bracket(*bracket[delta])]

    eta = {delta: grid_index(bracket[delta][1]) / scale for delta in unique if delta not in found}
    bumps = dict.fromkeys(eta, 0)
    while eta.keys() - found.keys():
        pending = [delta for delta in eta if delta not in found]
        for delta, pair_bounds in zip(pending, _pair_bounds([(d, eta[d]) for d in pending])):
            if not isinstance(pair_bounds, BetaUnderflow) and max(
                    (pb.rhs for pb in pair_bounds if not pb.vacuous), default=math.inf) <= -margin:
                found[delta] = BoundCertificate(
                    delta=delta,
                    eta=eta[delta],
                    expansion_bound=(1.0 - eta[delta]) * delta / 2.0,
                    margin=margin,
                    pair_bounds=pair_bounds,
                    baseline_eta=(baseline := bollobas_eta(delta, precision))[0],
                    baseline_bound=baseline[1],
                )
                continue
            # The rounded eta lies above a passing probe, but a pinned cap can
            # underflow there (delta=308, margin=1e-6 fails at 0.091), so step up.
            eta[delta] = (round(eta[delta] * scale) + 1) / scale
            bumps[delta] += 1
            if bumps[delta] > 3 or eta[delta] >= 1.0:
                found[delta] = NoBound(f"rounded eta failed re-verification for delta={delta}")
    return [found[delta] for delta in degrees]


def bollobas_threshold(delta: int) -> float:
    """Unrounded root of (1-x)lg(1-x) + (1+x)lg(1+x) = 4/delta on (0, 1).

    The left side is strictly increasing from 0 to 2, so the root exists for
    every delta >= 3 and is found by plain bisection. Above the root the
    classical first-moment count of low-cut bisections dies out.
    """
    if not isinstance(delta, int) or delta < 3:
        raise ValueError("delta must be an integer >= 3")
    goal = 4.0 / delta
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _xlog2(1.0 - mid) + _xlog2(1.0 + mid) > goal:
            hi = mid
        else:
            lo = mid
    return hi


def bollobas_eta(delta: int, precision: int = DEFAULT_PRECISION) -> tuple[float, float]:
    """Classical baseline (eta, expansion bound), eta rounded up to `precision` decimals."""
    scale = _grid_scale(precision)
    eta = math.ceil(bollobas_threshold(delta) * scale) / scale
    return eta, (1.0 - eta) * delta / 2.0


def build_table(
    delta_min: int,
    delta_max: int,
    margin: float = DEFAULT_MARGIN,
    precision: int = DEFAULT_PRECISION,
) -> list[BoundCertificate]:
    """Certificates for every degree in [delta_min, delta_max], in order.

    Each is the one :func:`min_eta` returns for its degree, but the degrees'
    searches run in lock-step (:func:`_certificates`). A degree that has no
    bound raises its NoBound, the lowest such degree's.
    """
    if not isinstance(delta_min, int) or not isinstance(delta_max, int):
        raise ValueError("degree range bounds must be integers")
    if not 3 <= delta_min <= delta_max:
        raise ValueError("need 3 <= delta_min <= delta_max")
    certs = _certificates(range(delta_min, delta_max + 1), margin, precision)
    for cert in certs:
        if isinstance(cert, NoBound):
            raise cert
    return certs


# ---------------------------------------------------------------------------
# Verification


class CheckResult(NamedTuple):
    """A named check, whether it passed, and its detail, formatted only when
    read: ``table``'s own check and text ``certify`` format none that pass."""
    name: str
    passed: bool
    template: str = ""
    args: tuple = ()

    @property
    def detail(self) -> str:
        return self.template.format(*self.args) if self.args else self.template


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _check(checks: list[CheckResult], name: str, ok: bool, template: str = "", *args) -> None:
    checks.append(CheckResult(name, bool(ok), template, args))


def _verify_side(checks: list[CheckResult], label: str, cert: BoundCertificate, cap: int,
                 side: SideSolution, residuals: tuple[float, float] | str | None) -> None:
    """The checks of one side, given its (mass, mean) from the residual pass,
    or why its cap was left out (None: its parameters are out of range)."""
    _check(checks, f"{label}-consistent",
           side.delta == cert.delta and side.cap == cap and side.eta == cert.eta,
           "delta={} cap={} eta={!r}", side.delta, side.cap, side.eta)
    ok = isinstance(residuals, tuple)
    _check(checks, f"{label}-parameters-in-range", ok, "beta={!r} gamma={!r}{}",
           side.beta, side.gamma, f": {residuals}" if isinstance(residuals, str) else "")
    if not ok:
        return
    mass, mean = residuals
    _check(checks, f"{label}-mass-residual", mass <= MASS_TOL, "{:.3e}", mass)
    _check(checks, f"{label}-mean-residual", mean <= MEAN_TOL, "{:.3e}", mean)
    _check(checks, f"{label}-residual-fields-match",
           abs(mass - side.residual_mass) <= 1e-12 and abs(mean - side.residual_mean) <= 1e-12,
           "stored=({:.3e}, {:.3e})", side.residual_mass, side.residual_mean)


def _usable(gamma) -> bool:
    return isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0.0


def verify_certificate(cert: BoundCertificate) -> VerificationReport:
    """Recheck a certificate from scratch, trusting nothing derived.

    Residuals are recomputed by direct summation from the stored (beta,
    gamma), every side in one pass (:func:`profile_residuals`). Each feasible
    pair's exponent is evaluated at its stored witnesses by
    :func:`_pair_exponents`, one kernel pass over every side, and the stored
    ``beta`` is not used. Nothing is solved. That is sound because any
    witness is (module docstring): the exponent at a ``gamma > 0`` bounds the
    pair's solved exponent from above, so a pair that clears the margin at
    its witnesses clears it at the solved ones. For a certificate built by
    :func:`min_eta` every recomputed ``rhs`` and residual is the stored one,
    bit for bit: ``.16e`` round-trips each ``gamma`` and ``beta``, the caps
    are the sides' own, and the kernel and the residual pass give a cap the
    same bits whatever caps share the call. A ``gamma`` that is not finite and
    positive fails ``rhs-recomputable``, and a cap outside ``[0, delta]``
    fails its side's ``parameters-in-range`` and the pair's
    ``rhs-recomputable`` rather than raising. Vacuity witnesses, the expansion
    bound identity, the baseline, and exhaustiveness of the pair enumeration
    are all rechecked. A certificate that does not list ``delta // 2`` pairs
    fails ``pairs-exhaustive`` and is checked no further, so its claimed
    ``delta`` cannot cost more work than its own length; a ``delta`` of
    ``2**53`` or more fails ``delta-valid`` before any float arithmetic.
    Details are formatted only when read (:class:`CheckResult`).
    """
    checks: list[CheckResult] = []
    # the checks below compute with delta as a double, which holds it exactly below 2**53
    _check(checks, "delta-valid", isinstance(cert.delta, int) and 3 <= cert.delta < 2**53,
           "delta={}", cert.delta)
    _check(checks, "eta-in-range", 0.0 <= cert.eta < 1.0, "eta={!r}", cert.eta)
    _check(checks, "margin-positive", cert.margin > 0.0, "margin={!r}", cert.margin)
    if not all(c.passed for c in checks):
        return VerificationReport(tuple(checks))

    expected_bound = (1.0 - cert.eta) * cert.delta / 2.0
    _check(checks, "expansion-bound-consistent",
           abs(cert.expansion_bound - expected_bound) <= 1e-12 * max(1.0, abs(expected_bound)),
           "stored={!r} expected={!r}", cert.expansion_bound, expected_bound)

    listed = [(pb.d, pb.d_prime) for pb in cert.pair_bounds]
    counted = len(listed) == cert.delta // 2
    _check(checks, "pairs-exhaustive",
           counted and sorted(listed) == sorted(all_pairs(cert.delta)), "listed={}", listed)
    if not counted:
        return VerificationReport(tuple(checks))

    tm = target_mean(cert.delta, cert.eta)
    feasible = [pb for pb in cert.pair_bounds if not pb.vacuous]

    def cap_error(cap) -> str:
        return "" if isinstance(cap, int) and 0 <= cap <= cert.delta else _CAP_RANGE

    def rhs_error(pb: PairBound) -> str:
        whys = (cap_error(pb.d), "" if _usable(pb.side.gamma) else _GAMMA,
                cap_error(pb.d_prime), "" if _usable(pb.side_prime.gamma) else _GAMMA)
        return next((why for why in whys if why), "")

    # One residual pass over every side whose parameters and cap are in range.
    sides = [(c, s) for pb in feasible for c, s in ((pb.d, pb.side), (pb.d_prime, pb.side_prime))]
    residuals = [cap_error(c) if 0.0 < s.beta <= 1.0 and _usable(s.gamma) else None
                 for c, s in sides]
    kept = [k for k, why in enumerate(residuals) if why == ""]
    if kept:
        mass, mean = profile_residuals(cert.delta, [sides[k][0] for k in kept], cert.eta,
                                       *([getattr(sides[k][1], f) for k in kept]
                                         for f in ("beta", "gamma")))
        for k, pair in zip(kept, zip(mass.tolist(), mean.tolist())):
            residuals[k] = pair
    residuals = iter(residuals)
    # One kernel pass over both sides of every pair whose caps and gammas are usable.
    errors = [rhs_error(pb) for pb in feasible]
    exponents = iter(_pair_exponents(cert.delta, cert.eta, [
        (pb.d, pb.side.gamma, pb.d_prime, pb.side_prime.gamma)
        for pb, error in zip(feasible, errors) if not error]))
    errors = iter(errors)
    for pb in cert.pair_bounds:
        label = f"pair-{pb.d}-{pb.d_prime}"
        _check(checks, f"{label}-witness-matches", abs(pb.target_mean - tm) <= 1e-12,
               "stored={!r} recomputed={!r}", pb.target_mean, tm)
        if pb.vacuous:
            _check(checks, f"{label}-vacuous-witness", tm >= pb.d,
                   "target_mean={!r} d={}", tm, pb.d)
            continue
        _check(checks, f"{label}-feasible-witness", tm < pb.d, "target_mean={!r} d={}", tm, pb.d)
        _verify_side(checks, f"{label}-side", cert, pb.d, pb.side, next(residuals))
        _verify_side(checks, f"{label}-side-prime", cert, pb.d_prime, pb.side_prime,
                     next(residuals))
        error = next(errors)
        if error:
            _check(checks, f"{label}-rhs-recomputable", False, error)
            continue
        fresh = next(exponents)
        _check(checks, f"{label}-rhs-negative-with-margin", fresh <= -cert.margin,
               "rhs={!r} margin={!r}", fresh, cert.margin)
        _check(checks, f"{label}-rhs-matches", pb.rhs is not None and abs(fresh - pb.rhs) <= 1e-9,
               "stored={!r} recomputed={!r}", pb.rhs, fresh)

    # Baseline: the stored eta must itself satisfy the classical counting
    # condition (validity), the stored bound must match its eta, and the
    # certified bound must dominate.
    base_ok = (
        0.0 < cert.baseline_eta < 1.0
        and _xlog2(1.0 - cert.baseline_eta) + _xlog2(1.0 + cert.baseline_eta)
        >= 4.0 / cert.delta - 1e-12
    )
    _check(checks, "baseline-valid", base_ok, "baseline_eta={!r}", cert.baseline_eta)
    expected_base = (1.0 - cert.baseline_eta) * cert.delta / 2.0
    _check(checks, "baseline-bound-consistent",
           abs(cert.baseline_bound - expected_base) <= 1e-12 * max(1.0, abs(expected_base)),
           "stored={!r} expected={!r}", cert.baseline_bound, expected_base)
    _check(checks, "improves-on-baseline", cert.expansion_bound >= cert.baseline_bound - 1e-12,
           "bound={!r} baseline={!r}", cert.expansion_bound, cert.baseline_bound)
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Serialization: JSON document, schema "cert-v1", reals as 17-significant-digit
# decimal strings so values round-trip bit-exactly.


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


# (name, type) of each field a cert-v1 side stores: SideSolution's compared
# fields, in order (its solver-only ln S0 is not stored).
_SIDE_FIELDS = tuple((f.name, get_type_hints(SideSolution)[f.name])
                     for f in fields(SideSolution) if f.compare)


def _side_to_dict(side: SideSolution) -> dict:
    return {
        name: getattr(side, name) if kind is int else _fmt(getattr(side, name))
        for name, kind in _SIDE_FIELDS
    }


def certificate_to_dict(cert: BoundCertificate) -> dict:
    """The `cert-v1` document of a certificate, before JSON encoding."""
    pairs = []
    for pb in cert.pair_bounds:
        entry: dict = {
            "d": pb.d,
            "d_prime": pb.d_prime,
            "vacuous": pb.vacuous,
            "target_mean": _fmt(pb.target_mean),
        }
        if not pb.vacuous:
            entry["rhs"] = _fmt(pb.rhs)
            entry["side"] = _side_to_dict(pb.side)
            entry["side_prime"] = _side_to_dict(pb.side_prime)
        pairs.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "delta": cert.delta,
        "eta": _fmt(cert.eta),
        "expansion_bound": _fmt(cert.expansion_bound),
        "margin": _fmt(cert.margin),
        "baseline_eta": _fmt(cert.baseline_eta),
        "baseline_bound": _fmt(cert.baseline_bound),
        "pair_bounds": pairs,
    }


def certificate_to_json(cert: BoundCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def _need(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise CertificateFormatError(f"missing field {key!r} in {where}")
    val = doc[key]
    if kind is float:
        if not isinstance(val, str):
            raise CertificateFormatError(
                f"field {key!r} in {where} must be a decimal string, got {type(val).__name__}"
            )
        try:
            return float(val)
        except ValueError as exc:
            raise CertificateFormatError(f"field {key!r} in {where}: {exc}") from exc
    if not isinstance(val, kind) or isinstance(val, bool) and kind is int:
        raise CertificateFormatError(
            f"field {key!r} in {where} must be {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _side_from_dict(doc: dict, where: str) -> SideSolution:
    if not isinstance(doc, dict):
        raise CertificateFormatError(f"{where} must be an object")
    return SideSolution(**{name: _need(doc, name, kind, where) for name, kind in _SIDE_FIELDS})


def certificate_from_json(text: str) -> BoundCertificate:
    """Parse and structurally validate a serialized certificate.

    Raises CertificateFormatError with a parse diagnostic on malformed input;
    semantic validity is the job of verify_certificate.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("top-level document must be an object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise CertificateFormatError(
            f"unsupported schema {schema!r}; expected {SCHEMA_VERSION!r}"
        )
    raw_pairs = _need(doc, "pair_bounds", list, "certificate")
    pairs = []
    for i, entry in enumerate(raw_pairs):
        where = f"pair_bounds[{i}]"
        if not isinstance(entry, dict):
            raise CertificateFormatError(f"{where} must be an object")
        vacuous = _need(entry, "vacuous", bool, where)
        d = _need(entry, "d", int, where)
        dp = _need(entry, "d_prime", int, where)
        tm = _need(entry, "target_mean", float, where)
        if vacuous:
            pairs.append(PairBound(d, dp, None, None, None, tm))
        else:
            pairs.append(
                PairBound(
                    d,
                    dp,
                    _side_from_dict(entry.get("side"), f"{where}.side"),
                    _side_from_dict(entry.get("side_prime"), f"{where}.side_prime"),
                    _need(entry, "rhs", float, where),
                    tm,
                )
            )
    return BoundCertificate(
        delta=_need(doc, "delta", int, "certificate"),
        eta=_need(doc, "eta", float, "certificate"),
        expansion_bound=_need(doc, "expansion_bound", float, "certificate"),
        margin=_need(doc, "margin", float, "certificate"),
        pair_bounds=tuple(pairs),
        baseline_eta=_need(doc, "baseline_eta", float, "certificate"),
        baseline_bound=_need(doc, "baseline_bound", float, "certificate"),
    )
