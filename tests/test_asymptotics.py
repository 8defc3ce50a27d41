"""Tests for the one-sided-cap system: exact oracles, identity, spot values."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_bounds import (
    TWO_SQRT_LN2,
    InfeasibleTarget,
    alpha_trend,
    solve_one_sided,
)
from expander_bounds import combinatorics
from expander_bounds.side_solver import solve_side
from exact_reference import binomial_pmf, binomial_tail
from p1p3_identity import check_p1p3_identity


def test_reference_constant():
    assert TWO_SQRT_LN2 == 2.0 * math.sqrt(math.log(2.0))
    assert TWO_SQRT_LN2 == pytest.approx(1.6651092223153954, abs=1e-15)


def test_probabilities_match_exact_fractions():
    # gamma = 1/3 means p = 1/4; all three probabilities are dyadic-over-4^k
    # rationals that big-rational arithmetic pins exactly
    g = Fraction(1, 3)
    p = g / (1 + g)
    p1 = sum(math.comb(6, k) * p**k * (1 - p) ** (6 - k) for k in range(3))
    p2 = sum(math.comb(5, k) * p**k * (1 - p) ** (5 - k) for k in range(2))
    p3 = math.comb(6, 2) * p**2 * (1 - p) ** 4
    assert p1 == Fraction(1701, 2048)
    assert p2 == Fraction(81, 128)
    assert p3 == Fraction(1215, 4096)
    # the shifted-cumulative identity holds exactly over the rationals
    assert p1 - p2 - Fraction(6 - 2, 6) * p3 == 0
    assert check_p1p3_identity(6, 2, 1.0 / 3.0) <= 1e-15


def test_identity_residual_small_cases():
    assert check_p1p3_identity(4, 2, 1.0) <= 1e-15
    assert check_p1p3_identity(101, 50, 0.93) <= 1e-12


def test_identity_validation():
    with pytest.raises(ValueError):
        check_p1p3_identity(0, 1, 1.0)
    with pytest.raises(ValueError):
        check_p1p3_identity(5, 0, 1.0)
    with pytest.raises(ValueError):
        check_p1p3_identity(5, 6, 1.0)
    with pytest.raises(ValueError):
        check_p1p3_identity(5, 2, 0.0)
    with pytest.raises(ValueError):
        check_p1p3_identity(5, 2, math.inf)


@given(
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
)
@settings(max_examples=150, deadline=None)
def test_identity_residual_everywhere(delta, t, log_gamma):
    d = 1 + round(t * (delta - 1))
    assert check_p1p3_identity(delta, d, math.exp(log_gamma)) <= 1e-12


def test_solver_spot_values():
    pt = solve_one_sided(10, 0.507, 4)
    assert pt.gamma == pytest.approx(0.39126954184487794, rel=1e-12)
    assert pt.theta == pytest.approx(0.12349951788340562, rel=1e-10)
    half = solve_one_sided(10, 0.507)
    assert half.d == 5
    assert half.gamma == pytest.approx(0.3415015153995483, rel=1e-12)
    assert half.p1 == pytest.approx(0.9784340470911861, rel=1e-12)
    assert half.p2 == pytest.approx(0.9474297389137767, rel=1e-12)
    assert half.p3 == pytest.approx(0.06200861635481787, rel=1e-12)


def test_point_internal_consistency():
    for delta, eta in [(6, 0.648), (10, 0.507), (40, 0.255), (100, 0.165)]:
        pt = solve_one_sided(delta, eta)
        frac = (delta - pt.d) / delta
        assert pt.p == pt.gamma / (pt.gamma + 1.0)
        assert pt.alpha == eta * math.sqrt(delta)
        assert pt.p1 > pt.p2 > 0.0
        assert 0.0 < pt.theta <= frac
        assert pt.theta == pytest.approx(frac * pt.p3 / pt.p1, rel=1e-10)
        # the defining fixed point
        assert pt.gamma == pytest.approx(
            (1.0 - eta) / (1.0 + eta - 2.0 * pt.theta), rel=1e-9
        )


def _large_degree_grid() -> list[tuple[int, float]]:
    """8 evenly spaced eta in [1e-3, 2 sqrt(ln 2)/sqrt(delta)] for delta 1600 and 6400."""
    grid = []
    for delta in (1600, 6400):
        hi = TWO_SQRT_LN2 / math.sqrt(delta)
        step = (hi - 1e-3) / 7
        grid += [(delta, 1e-3 + k * step) for k in range(8)]
    return grid


EXACT_TAIL_CASES = [
    (6, 0.648, None), (10, 0.507, None), (10, 0.507, 4), (40, 0.255, None),
    (100, 0.165, None), (400, 0.03, None), (400, 0.05, None),
] + [(delta, eta, None) for delta, eta in _large_degree_grid()]


@pytest.mark.parametrize("delta,eta,d", EXACT_TAIL_CASES)
def test_probabilities_match_the_exact_sums(delta, eta, d):
    # P1, P2 and P3 come from the root solve's ln S0; the exact tails and the
    # point mass, summed term by term at the solved p, are the reference,
    # with no absolute tolerance: P1 is about 4e-57 at delta 1600, eta 1e-3,
    # where approx's default abs=1e-12 would pass any value
    pt = solve_one_sided(delta, eta, d)
    assert pt.p1 == pytest.approx(binomial_tail(delta, pt.p, pt.d), rel=1e-11, abs=0.0)
    assert pt.p2 == pytest.approx(binomial_tail(delta - 1, pt.p, pt.d - 1), rel=1e-11, abs=0.0)
    assert pt.p3 == pytest.approx(binomial_pmf(delta, pt.p, pt.d), rel=1e-11, abs=0.0)


def test_one_sided_builds_no_shifted_row(monkeypatch):
    # P2 follows from P1 and P3, so no ln C(delta - 1, i) row is built
    built = []

    def recording_row(n):
        built.append(n)
        return real_row(n)

    real_row = combinatorics.binomial_log_row
    monkeypatch.setattr(combinatorics, "binomial_log_row", recording_row)
    for delta, eta in _large_degree_grid():
        solve_one_sided(delta, eta)
    assert 1599 not in built and 6399 not in built


def test_gamma_agrees_with_profile_solver():
    # same constraint in different coordinates: the capped-profile mean
    # equation at cap delta/2 and the binomial fixed point share gamma
    for delta, eta in [(10, 0.507), (40, 0.255), (100, 0.165), (6, 0.648)]:
        a = solve_one_sided(delta, eta).gamma
        b = solve_side(delta, delta // 2, eta).gamma
        assert a == pytest.approx(b, abs=1e-9)


def test_cap_removed_limit_collapses_to_closed_form():
    # d = delta kills the correction term exactly
    pt = solve_one_sided(12, 0.3, 12)
    assert pt.theta == 0.0
    assert pt.gamma == (1.0 - 0.3) / (1.0 + 0.3)


def test_bisection_fallback_region():
    # small eta at large delta pins the binomial mean against the cap, where
    # the fixed-point map contracts slowly; the root solve on the mean
    # constraint must still satisfy the fixed point
    for eta in (0.03, 0.05):
        pt = solve_one_sided(400, eta)
        assert pt.gamma == pytest.approx(
            (1.0 - eta) / (1.0 + eta - 2.0 * pt.theta), rel=1e-9
        )
        assert 0.0 < pt.theta <= (400 - pt.d) / 400


def _reference_fixed_point(delta: int, eta: float) -> float:
    """gamma = (1 - eta)/(1 + eta - 2*theta(gamma)) at cap delta/2, by plain
    bisection, with theta in logs as frac / sum_j C(delta, d-j)/C(delta, d) * gamma^-j.

    The log ratios are summed from the cap down out of small terms, so theta
    stays accurate to a few ulp even where P1 underflows.
    """
    d = delta // 2
    frac = (delta - d) / delta
    log_ratio = np.concatenate(
        ([0.0], np.cumsum([math.log(k / (delta - k + 1)) for k in range(d, 0, -1)]))
    )
    j = np.arange(d + 1)

    def fixed_point_map(g: float) -> float:
        theta = frac / math.fsum(np.exp(log_ratio - j * math.log(g)).tolist())
        return (1.0 - eta) / (1.0 + eta - 2.0 * theta)

    # the map is increasing and crosses the diagonal once: above it at the
    # uncapped closed form (theta > 0 there), below it far out
    lo = (1.0 - eta) / (1.0 + eta)
    hi = 2.0 * lo
    while fixed_point_map(hi) > hi:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if fixed_point_map(mid) > mid:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("delta", [100, 400, 1600, 6400])
def test_pinned_cap_corner(delta):
    # eta = 1e-4 pins the binomial mean against the cap (P1 underflows to 0
    # at delta = 6400); the top of criterion 12b's grid is the other end
    frac = (delta - delta // 2) / delta
    for eta in (1e-4, TWO_SQRT_LN2 / math.sqrt(delta) * (1 - 1e-9)):
        pt = solve_one_sided(delta, eta)
        assert math.isfinite(pt.theta) and 0.0 < pt.theta <= frac
        assert pt.gamma == pytest.approx(
            (1.0 - eta) / (1.0 + eta - 2.0 * pt.theta), rel=1e-9
        )
        assert pt.gamma == pytest.approx(_reference_fixed_point(delta, eta), rel=1e-9)


def test_theta_small_at_certified_eta():
    assert solve_one_sided(100, 0.165).theta == pytest.approx(
        0.01251585489993464, rel=1e-9
    )


def test_solver_validation():
    with pytest.raises(ValueError):
        solve_one_sided(7, 0.5)
    with pytest.raises(ValueError):
        solve_one_sided(0, 0.5)
    with pytest.raises(ValueError):
        solve_one_sided(10, 0.0)
    with pytest.raises(ValueError):
        solve_one_sided(10, 1.0)
    with pytest.raises(ValueError):
        solve_one_sided(10, 0.5, 0)
    with pytest.raises(ValueError):
        solve_one_sided(10, 0.5, 11)
    # cap overrides at or below the target mean (1 - eta) * delta / 2
    with pytest.raises(InfeasibleTarget, match=r"target mean 2\.5 outside \(0, 2\)"):
        solve_one_sided(10, 0.5, 2)
    with pytest.raises(InfeasibleTarget, match=r"target mean 49\.5 outside \(0, 49\)"):
        solve_one_sided(100, 0.01, 49)


def test_alpha_trend_single_degree():
    pts = alpha_trend([40], margin=1e-6)
    assert len(pts) == 1
    assert pts[0].delta == 40
    assert pts[0].eta == 0.255
    assert pts[0].alpha == 0.255 * math.sqrt(40.0)
    assert pts[0].alpha < TWO_SQRT_LN2


def test_alpha_trend_validation():
    with pytest.raises(ValueError):
        alpha_trend([5])
    with pytest.raises(ValueError):
        alpha_trend([2])


# sha256 of repr() of every solved point on the large-degree grid
# (`_large_degree_grid`). Pins p1, p2, p3 and theta to the bit, which checks
# on gamma alone miss.
ONE_SIDED_GRID_SHA256 = "6ac7429b386205f90dea6c0a1161066f3f52ecf42ce3708009babf086ed3fdda"


def test_one_sided_grid_bytes_are_pinned():
    points = [solve_one_sided(delta, eta) for delta, eta in _large_degree_grid()]
    assert hashlib.sha256(repr(points).encode()).hexdigest() == ONE_SIDED_GRID_SHA256


def test_one_sided_sums_the_central_binomial_once_per_degree(monkeypatch):
    """theta's ln C(6400, 3200) is read off the binomial row the root solve
    builds, summed once over the grid's 8 etas, and no other sum or lgamma
    runs for it."""
    hi = TWO_SQRT_LN2 / math.sqrt(6400)

    def no_direct_sum(*args):
        raise AssertionError("a direct sum or lgamma was called")

    combinatorics.binomial_log_row.cache_clear()
    monkeypatch.setattr(math, "fsum", no_direct_sum)
    monkeypatch.setattr(math, "lgamma", no_direct_sum)
    for k in range(8):
        solve_one_sided(6400, 1e-3 + k * (hi - 1e-3) / 7)
    monkeypatch.undo()
    info = combinatorics.binomial_log_row.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


@pytest.mark.parametrize("delta", [8194, 10_000, 20_000])
def test_p3_matches_the_exact_central_binomial_far_out(delta):
    # ln C(delta, delta/2) from exact integer arithmetic: the row keeps P3
    # within 1e-12 of it beyond the degrees the other oracles reach
    log_c = math.log(math.comb(delta, delta // 2))
    for eta in (1e-3, 0.5 * TWO_SQRT_LN2 / math.sqrt(delta), TWO_SQRT_LN2 / math.sqrt(delta)):
        pt = solve_one_sided(delta, eta)
        x = math.log(pt.gamma)
        want = math.exp(log_c + pt.d * x - delta * math.log1p(pt.gamma))
        assert abs(pt.p3 - want) <= 1e-12 * want, (delta, eta)
