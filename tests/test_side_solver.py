"""Tests for the per-side (beta, gamma) solver and the profile functional."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_bounds import (
    BetaUnderflow,
    InfeasibleTarget,
    profile_residuals,
    side_solver,
    solve_side,
    target_mean,
)
from expander_bounds.certifier import MASS_TOL, MEAN_TOL
from expander_bounds.combinatorics import truncated_log_moments
from exact_reference import log_binomial
from table_reference import ETA, PAIR_WITNESSES


def test_target_mean():
    assert target_mean(10, 0.5) == 2.5
    assert target_mean(4, 0.0) == 2.0


def test_solution_residuals_verified_exactly():
    """The reported residuals must match an exact rational recomputation."""
    for delta, cap, eta in [(10, 5, 0.507), (8, 2, 0.565), (40, 17, 0.255)]:
        sol = solve_side(delta, cap, eta)
        b, g = Fraction(sol.beta), Fraction(sol.gamma)
        mass = sum(b * g**i * math.comb(delta, i) for i in range(cap + 1))
        mean_num = sum(i * b * g**i * math.comb(delta, i) for i in range(cap + 1))
        assert abs(float(mass - 1)) <= 1.001 * max(sol.residual_mass, 1e-15)
        assert abs(float(mean_num) - target_mean(delta, eta)) <= 1.001 * max(
            sol.residual_mean, 1e-12
        )
        assert sol.residual_mass <= 1e-10
        assert sol.residual_mean <= 1e-8


def test_solution_fields_consistent():
    sol = solve_side(6, 3, 0.648)
    assert sol.delta == 6 and sol.cap == 3 and sol.eta == 0.648
    assert sol.beta == float(np.exp(-truncated_log_moments(6, (3,), [sol.gamma])[0][0]))
    assert 0.0 < sol.beta < 1.0
    assert sol.gamma > 0.0


def test_deterministic():
    a = solve_side(12, 5, 0.43)
    b = solve_side(12, 5, 0.43)
    assert a == b


def test_infeasible_target():
    # target mean (1 - 0.2) * 10 / 2 = 4 sits above cap 2
    with pytest.raises(InfeasibleTarget):
        solve_side(10, 2, 0.2)
    # mean exactly at the cap is infeasible too: the profile mean is < cap
    with pytest.raises(InfeasibleTarget):
        solve_side(10, 4, 0.2)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_side(0, 1, 0.5)
    with pytest.raises(ValueError):
        solve_side(4, 0, 0.5)
    with pytest.raises(ValueError):
        solve_side(4, 5, 0.5)
    with pytest.raises(ValueError):
        solve_side(4, 2, 1.0)
    with pytest.raises(ValueError):
        solve_side(4, 2, -0.1)


def test_beta_underflow_is_diagnosed():
    # Cap one above a target mean of 183.98...: gamma explodes and S0
    # leaves the double range.
    with pytest.raises(BetaUnderflow):
        solve_side(400, 184, 0.08007812491992189)
    assert issubclass(BetaUnderflow, ValueError)


def test_extreme_but_representable_corners():
    high = solve_side(50, 25, 0.999)  # tiny target mean, gamma near zero
    assert high.residual_mean <= 1e-8
    low = solve_side(50, 25, 0.021)  # mean 24.475, close to the cap
    assert low.residual_mean <= 1e-8
    assert low.gamma > 1.0 > high.gamma


# Degrees and cut levels for the root-solve pins below: every feasible cap
# of each degree, from caps far above the target mean to caps pinned at it.
_PIN_DELTAS = (3, 4, 6, 10, 40, 100, 400, 1000)
_PIN_ETAS = (0.02, 0.3, 0.9)


def _pin_grid():
    for delta in _PIN_DELTAS:
        for eta in _PIN_ETAS:
            for cap in range(1, delta + 1):
                if target_mean(delta, eta) < cap:
                    yield delta, cap, eta


def _bisection_gamma(delta: int, cap: int, eta: float) -> float:
    """Reference root: plain bisection on gamma from a doubling bracket."""
    target = target_mean(delta, eta)

    def mean(g: float) -> float:
        return float(truncated_log_moments(delta, (cap,), [g])[1][0])

    lo = hi = 1.0
    while mean(hi) <= target:
        hi *= 2.0
    while mean(lo) >= target:
        lo *= 0.5
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gamma_matches_reference_bisection():
    for delta, cap, eta in _pin_grid():
        ref = _bisection_gamma(delta, cap, eta)
        try:
            sol = solve_side(delta, cap, eta)
        except BetaUnderflow:
            # Pinned cap: beta underflows at the reference root as well.
            assert math.exp(-truncated_log_moments(delta, (cap,), [ref])[0][0]) == 0.0
            continue
        target = target_mean(delta, eta)
        if cap - target <= 4 * math.ulp(cap):
            # The target rounds to within a few ulp of the cap (eta = 0.9 at
            # delta = 40, 100, 400), where the mean is flat in gamma and
            # rounding noise alone picks the root: both solvers must hit the
            # target, but their gammas need not agree.
            for g in (sol.gamma, ref):
                assert truncated_log_moments(delta, (cap,), [g])[1][0] == pytest.approx(
                    target, rel=1e-15
                )
            continue
        assert sol.gamma == pytest.approx(ref, rel=1e-12, abs=0.0), (delta, cap, eta)


# Kernel passes a root solve may take: every cap of every grid in these tests
# converges within 4.
MAX_PASSES = 5


def _counting_kernel(monkeypatch) -> list:
    """Record the caps of every kernel pass the root finder makes."""
    passes = []

    def counted(delta, caps, gammas):
        passes.append(tuple(caps))
        return truncated_log_moments(delta, caps, gammas)

    monkeypatch.setattr(side_solver, "truncated_log_moments", counted)
    return passes


def test_moment_evaluations_per_solve_stay_small(monkeypatch):
    passes = _counting_kernel(monkeypatch)
    solves = 0
    for delta, cap, eta in _pin_grid():
        passes.clear()
        try:
            solve_side(delta, cap, eta)
        except BetaUnderflow:
            pass
        assert 1 <= len(passes) <= MAX_PASSES, (delta, cap, eta, len(passes))
        solves += 1
    assert solves > 1000


def _root_within_the_pass_cap(monkeypatch, delta, cap, eta) -> float:
    """The root finder's gamma for one cap, after checking that it took at
    most MAX_PASSES kernel passes and that the mean there is within MEAN_TOL
    of the target."""
    passes = _counting_kernel(monkeypatch)
    (gamma,), _, _ = side_solver._solve_caps(delta, (cap,), eta)
    monkeypatch.undo()
    assert len(passes) <= MAX_PASSES, (delta, cap, eta, len(passes))
    mean = float(truncated_log_moments(delta, (cap,), [gamma])[1][0])
    assert abs(mean - target_mean(delta, eta)) <= MEAN_TOL, (delta, cap, eta)
    return gamma


def test_pinned_caps_converge_within_the_pass_cap(monkeypatch):
    # cap - t from 1e-15 to 1e-3: the mean is flat in gamma there, and the
    # geometric bound starts the root finder next to the root. Where beta is
    # a normal double, solve_side's residuals meet both tolerances.
    rng = random.Random(20261020)
    solved = 0
    for _ in range(400):
        delta = rng.randint(3, 300)
        cap = rng.randint(1, delta)
        eta = 1.0 - 2.0 * (cap - 10.0 ** rng.uniform(-15.0, -3.0)) / delta
        t = target_mean(delta, eta)
        if not (0.0 <= eta < 1.0 and 0.0 < t < cap):
            continue
        gamma = _root_within_the_pass_cap(monkeypatch, delta, cap, eta)
        mean = float(truncated_log_moments(delta, (cap,), [gamma])[1][0])
        assert mean == pytest.approx(t, rel=1e-13), (delta, cap, eta)
        try:
            sol = solve_side(delta, cap, eta)
        except BetaUnderflow:
            continue
        if sol.beta >= sys.float_info.min:
            assert sol.residual_mass <= MASS_TOL and sol.residual_mean <= MEAN_TOL
            solved += 1
    assert solved > 90


def test_flat_caps_cap_delta_and_the_one_sided_grid_converge(monkeypatch):
    # the <= 4-ulp flat cases of the pin grid, caps at delta (where the
    # uncapped root is the root), and the one-sided grid at delta 6400
    flat = [(delta, cap, eta) for delta, cap, eta in _pin_grid()
            if cap - target_mean(delta, eta) <= 4 * math.ulp(cap)]
    assert len(flat) >= 3
    full = [(delta, delta, eta) for delta in (3, 10, 100, 1000, 6400)
            for eta in (0.001, 0.3, 0.999)]
    hi = 2.0 * math.sqrt(math.log(2.0)) / 80.0
    grid = [(6400, 3200, 1e-3 + k * (hi - 1e-3) / 7) for k in range(8)]
    for delta, cap, eta in flat + full + grid:
        gamma = _root_within_the_pass_cap(monkeypatch, delta, cap, eta)
        if cap == delta:
            assert gamma == pytest.approx((1.0 - eta) / (1.0 + eta), rel=1e-14)


# The cut levels where a cap's underflow band ends, found by bisection with
# Brent's bracketed solve: from the eta at which the cap turns feasible up to
# these, beta underflows (delta = 308 at 0.091, the rounded eta min_eta bumps,
# and the band from delta = 400 on), and above them it does not.
UNDERFLOW_BAND_ENDS = {
    (308, 140): 0.09102813680987946,
    (400, 184): 0.08034764177584212,
    (402, 185): 0.07995621800226631,
    (406, 187): 0.07918529863569118,
    (500, 230): 0.08068684532795826,
    (800, 376): 0.06272179723581377,
    (1000, 470): 0.06656043355662616,
}


@pytest.mark.parametrize("delta,cap", sorted(UNDERFLOW_BAND_ENDS))
def test_beta_underflows_exactly_where_it_did(delta, cap):
    end = UNDERFLOW_BAND_ENDS[delta, cap]
    for eta in (1.0 - 2.0 * cap / delta + 1e-12, 0.5 * (1.0 - 2.0 * cap / delta + end),
                end * (1.0 - 1e-12)):
        with pytest.raises(BetaUnderflow, match=f"cap={cap},"):
            solve_side(delta, cap, eta)
    # past the band beta is a subnormal double, whose residuals fail (a
    # separate open fix), but it is no longer 0.0
    assert solve_side(delta, cap, end * (1.0 + 1e-12)).beta > 0.0
    if delta == 308:
        with pytest.raises(BetaUnderflow):
            solve_side(308, 140, 0.091)
        solve_side(308, 140, 0.092)


@given(
    st.integers(min_value=2, max_value=60),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_solver_hits_target_mean(delta, data):
    cap = data.draw(st.integers(min_value=1, max_value=delta))
    t = data.draw(st.floats(min_value=0.05, max_value=0.95))
    lo = max(1.0 - 2.0 * cap / delta, 0.0)
    eta = lo + t * (1.0 - lo)
    sol = solve_side(delta, cap, eta)
    assert sol.residual_mass <= 1e-10
    assert sol.residual_mean <= 1e-8
    (mass,), (mean,) = profile_residuals(delta, [cap], eta, [sol.beta], [sol.gamma])
    assert mass == sol.residual_mass
    assert mean == sol.residual_mean


@given(
    st.integers(min_value=2, max_value=40),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_residuals_bound_the_exact_ones(delta, data):
    """Stored residuals never understate the exact residuals of the stored
    doubles, whose float sums alone are off by a few ulp of ln beta."""
    cap = data.draw(st.integers(min_value=1, max_value=delta))
    t = data.draw(st.floats(min_value=0.05, max_value=0.95))
    lo = max(1.0 - 2.0 * cap / delta, 0.0)
    eta = lo + t * (1.0 - lo)
    sol = solve_side(delta, cap, eta)
    b, g = Fraction(sol.beta), Fraction(sol.gamma)
    terms = [b * g**i * math.comb(delta, i) for i in range(cap + 1)]
    assert abs(sum(terms) - 1) <= sol.residual_mass
    mean = sum(i * w for i, w in enumerate(terms))
    assert abs(mean - Fraction(target_mean(delta, eta))) <= sol.residual_mean


def test_profile_residuals_validation():
    with pytest.raises(ValueError):
        profile_residuals(4, [2], 0.5, [0.0], [1.0])
    with pytest.raises(ValueError):
        profile_residuals(4, [2, 3], 0.5, [0.5, 0.5], [1.0, -1.0])
    # each beta and gamma is a real number, not a string, one per cap
    for betas, gammas in (([0.5, "0.5"], [1.0, 1.0]), ([0.5, 0.5], ["1.0", 1.0]),
                          ([0.5, 0.5], [1.0, None]), ([0.5], [1.0, 1.0]),
                          ([0.5, 0.5, 0.5], [1.0, 1.0])):
        with pytest.raises(ValueError):
            profile_residuals(4, [2, 3], 0.5, betas, gammas)
    # delta and cap are checked as truncated_log_moments checks them, floats
    # and numpy integers included
    for delta, cap in ((5, -1), (5, 6), (0, 0), (5.0, 2), (5, 2.0), (np.int64(5), 2)):
        with pytest.raises(ValueError):
            profile_residuals(delta, [cap], 0.5, [1.0], [1.0])


def log_F(svec) -> float:
    """Reference: ln of prod_i C(delta, i)^{s_i} / s_i! with delta = len(svec) - 1.

    The per-side factor in the number of point configurations realizing the
    out-degree count vector ``svec``; its maximizers over fixed totals are
    the truncated profiles the solver produces.
    """
    counts = list(svec)
    if not counts:
        raise ValueError("svec must be non-empty")
    delta = len(counts) - 1
    terms = []
    for i, s in enumerate(counts):
        if not isinstance(s, int) or s < 0:
            raise ValueError("svec entries must be non-negative integers")
        if s:
            terms.append(s * log_binomial(delta, i) - math.lgamma(s + 1))
    return math.fsum(terms)


def test_log_F_small_exact():
    # delta = 2, counts (2, 3, 1): 1^2/2! * 2^3/3! * 1^1/1!
    exact = math.log(Fraction(1, 2) * Fraction(8, 6) * 1)
    assert log_F([2, 3, 1]) == pytest.approx(exact, abs=1e-14)


def test_log_F_validation():
    with pytest.raises(ValueError):
        log_F([])
    with pytest.raises(ValueError):
        log_F([1, -1])
    with pytest.raises(ValueError):
        log_F([1.5, 0])


def _largest_remainder_round(weights: list[float], total: int) -> list[int]:
    floors = [math.floor(w) for w in weights]
    leftover = total - sum(floors)
    order = sorted(
        range(len(weights)), key=lambda i: weights[i] - floors[i], reverse=True
    )
    for j in order[:leftover]:
        floors[j] += 1
    return floors


def _adjust_weighted_sum(counts: list[int], cap: int, target: int) -> None:
    # +-1 moves between adjacent coordinates, preserving the total.
    current = sum(i * s for i, s in enumerate(counts))
    while current < target:
        j = max(i for i in range(cap) if counts[i] > 0)
        counts[j] -= 1
        counts[j + 1] += 1
        current += 1
    while current > target:
        j = max(i for i in range(1, cap + 1) if counts[i] > 0)
        counts[j] -= 1
        counts[j - 1] += 1
        current -= 1


def test_profile_is_a_local_maximizer_of_log_F():
    """Integer profiles rounded from the solved shape cannot be improved by
    the canonical two-coordinate exchange perturbations.

    For each feasible cap of each tabulated degree: scale the solved profile
    to u = 1e6 vertices, round (largest remainder, then +-1 adjacent moves to
    restore the weighted sum), and check every perturbation that moves one
    vertex from out-degree 1 to 0 and one from i-1 to i (and its reverse).
    The slack term absorbs the integer rounding.
    """
    u = 10**6
    for delta in range(4, 11):
        eta = ETA[delta]
        caps = sorted({c for pair in PAIR_WITNESSES[delta] for c in pair})
        tol = 10.0 * delta * delta / math.sqrt(u)
        for cap in caps:
            sol = solve_side(delta, cap, eta)
            weights = [
                sol.beta * sol.gamma**i * math.comb(delta, i) * u
                for i in range(cap + 1)
            ]
            counts = _largest_remainder_round(weights, u)
            _adjust_weighted_sum(
                counts, cap, round(sum(i * w for i, w in enumerate(weights)))
            )
            assert sum(counts) == u
            svec = counts + [0] * (delta - cap)
            base = log_F(svec)
            for i in range(2, cap + 1):
                perturb = [0] * (delta + 1)
                perturb[0] += 1
                perturb[i] += 1
                perturb[1] -= 1
                perturb[i - 1] -= 1
                for sign in (1, -1):
                    moved = [s + sign * p for s, p in zip(svec, perturb)]
                    assert min(moved) >= 0, (delta, cap, i, sign)
                    assert log_F(moved) <= base + tol, (delta, cap, i, sign)


def test_solve_caps_over_many_degrees_matches_each_degrees_own_call():
    # One root solve over the caps of many degrees, each at its own eta and
    # in any order, returns each cap's (gamma, x, ln S0) bit for bit as the
    # solve of its degree alone does; 1000's caps span several kernel runs.
    rng = random.Random(29)
    jobs = []
    for delta in (3, 7, 40, 60, 100, 400, 1000):
        eta = rng.uniform(0.05, 0.9)
        t = target_mean(delta, eta)
        caps = [c for c in range(math.floor(t) + 1, delta + 1) if delta < 400 or c % 7 == 0]
        jobs.append((delta, eta, caps))
    own = {}
    for delta, eta, caps in jobs:
        for cap, *values in zip(caps, *(v.tolist() for v in side_solver._solve_caps(
                delta, caps, eta))):
            own[delta, cap] = values
    flat = [(delta, cap, eta) for delta, eta, caps in jobs for cap in caps]
    assert sum(cap + 1 for delta, cap, _ in flat if delta == 1000) > 8192
    for _ in range(3):
        rng.shuffle(flat)
        deltas, caps, etas = zip(*flat)
        for delta, cap, *values in zip(deltas, caps, *(v.tolist() for v in side_solver._solve_caps(
                list(deltas), caps, list(etas)))):
            assert values == own[delta, cap], (delta, cap)
    # a sorted batch keeps each degree together, as the certifier's does
    flat.sort()
    deltas, caps, etas = zip(*flat)
    for delta, cap, *values in zip(deltas, caps, *(v.tolist() for v in side_solver._solve_caps(
            list(deltas), caps, list(etas)))):
        assert values == own[delta, cap], (delta, cap)
