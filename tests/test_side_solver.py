"""Tests for the per-side (beta, gamma) solver and the profile functional."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_bounds import (
    BetaUnderflow,
    InfeasibleTarget,
    log_binomial,
    profile_residuals,
    side_solver,
    solve_side,
    target_mean,
)
from expander_bounds.combinatorics import truncated_log_moments
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
    assert sol.beta == math.exp(-truncated_log_moments(6, 3, sol.gamma)[0])
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
        return truncated_log_moments(delta, cap, g)[2]

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
            assert math.exp(-truncated_log_moments(delta, cap, ref)[0]) == 0.0
            continue
        target = target_mean(delta, eta)
        if cap - target <= 4 * math.ulp(cap):
            # The target rounds to within a few ulp of the cap (eta = 0.9 at
            # delta = 40, 100, 400), where the mean is flat in gamma and
            # rounding noise alone picks the root: both solvers must hit the
            # target, but their gammas need not agree.
            for g in (sol.gamma, ref):
                assert truncated_log_moments(delta, cap, g)[2] == pytest.approx(
                    target, rel=1e-15
                )
            continue
        assert sol.gamma == pytest.approx(ref, rel=1e-12, abs=0.0), (delta, cap, eta)


def test_moment_evaluations_per_solve_stay_small(monkeypatch):
    calls = []

    def counted(delta, cap, gamma):
        calls.append(gamma)
        return truncated_log_moments(delta, cap, gamma)

    monkeypatch.setattr(side_solver, "truncated_log_moments", counted)
    solves = 0
    for delta, cap, eta in _pin_grid():
        calls.clear()
        try:
            solve_side(delta, cap, eta)
        except BetaUnderflow:
            pass
        assert 1 <= len(calls) <= 20, (delta, cap, eta, len(calls))
        solves += 1
    assert solves > 1000


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
    mass, mean = profile_residuals(delta, cap, eta, sol.beta, sol.gamma)
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
        profile_residuals(4, 2, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        profile_residuals(4, 2, 0.5, 0.5, -1.0)
    # delta and cap are checked as truncated_log_moments checks them, floats
    # and numpy integers included
    for delta, cap in ((5, -1), (5, 6), (0, 0), (5.0, 2), (5, 2.0), (np.int64(5), 2)):
        with pytest.raises(ValueError):
            profile_residuals(delta, cap, 0.5, 1.0, 1.0)


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
