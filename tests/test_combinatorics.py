"""Exactness and stability checks for the log-space combinatorial layer."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_bounds import (
    binomial_log_row,
    binomial_pmf,
    binomial_tail,
    log_binomial,
    log_odd_double_factorial,
    truncated_log_moments,
)
from expander_bounds.combinatorics import NEG_INF


def test_log_binomial_matches_exact_counts():
    for n in range(0, 31):
        for k in range(0, n + 1):
            exact = math.log(math.comb(n, k))
            assert log_binomial(n, k) == pytest.approx(exact, abs=1e-12)


def test_log_binomial_out_of_range_is_neg_inf():
    assert log_binomial(5, -1) == NEG_INF
    assert log_binomial(5, 6) == NEG_INF


def test_log_binomial_rejects_bad_input():
    with pytest.raises(TypeError):
        log_binomial(5.0, 2)
    with pytest.raises(TypeError):
        log_binomial(5, 2.0)
    with pytest.raises(ValueError):
        log_binomial(-1, 0)


@given(st.integers(min_value=0, max_value=3000), st.data())
def test_log_binomial_symmetry(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert log_binomial(n, k) == log_binomial(n, n - k)


def test_log_binomial_large_n_against_lgamma():
    # Both evaluation routes must agree where they meet.
    n, k = 10_000, 4097
    via_lgamma = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    assert log_binomial(n, k) == pytest.approx(via_lgamma, rel=1e-12)


def test_binomial_log_row_matches_scalar():
    for n in (0, 1, 2, 7, 40, 400):
        row = binomial_log_row(n)
        assert len(row) == n + 1
        for i in range(n + 1):
            assert row[i] == pytest.approx(log_binomial(n, i), abs=1e-11)


def test_binomial_log_row_cached_and_readonly():
    row = binomial_log_row(64)
    assert row is binomial_log_row(64)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        binomial_log_row(-1)


def test_log_odd_double_factorial_small():
    # 1, 1, 3, 15, 105 matchings on 0, 2, 4, 6, 8 points.
    assert log_odd_double_factorial(0) == 0.0
    assert log_odd_double_factorial(2) == 0.0
    assert log_odd_double_factorial(4) == pytest.approx(math.log(3), abs=1e-14)
    assert log_odd_double_factorial(6) == pytest.approx(math.log(15), abs=1e-14)
    assert log_odd_double_factorial(8) == pytest.approx(math.log(105), abs=1e-14)


def test_log_odd_double_factorial_recurrence_across_formula_switch():
    # f(m) = f(m - 2) + log(m - 1) must hold across the direct-sum/lgamma
    # boundary near m = 8192.
    for m in (8190, 8192, 8194, 8196):
        assert log_odd_double_factorial(m) == pytest.approx(
            log_odd_double_factorial(m - 2) + math.log(m - 1), rel=1e-12
        )


def test_log_odd_double_factorial_rejects_bad_input():
    with pytest.raises(ValueError):
        log_odd_double_factorial(3)
    with pytest.raises(ValueError):
        log_odd_double_factorial(-2)
    with pytest.raises(TypeError):
        log_odd_double_factorial(4.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        truncated_log_moments(0, 0, 1.0)
    with pytest.raises(ValueError):
        truncated_log_moments(4, 5, 1.0)
    with pytest.raises(ValueError):
        truncated_log_moments(4, -1, 1.0)
    with pytest.raises(ValueError):
        truncated_log_moments(4, 2, 0.0)
    with pytest.raises(ValueError):
        truncated_log_moments(4, 2, math.inf)


def test_truncated_moments_exact_rational_oracle():
    # S0 and S1 for delta=6, cap=4 at gamma=37/100, computed exactly.
    delta, cap = 6, 4
    g = Fraction(37, 100)
    s0 = sum(g**i * math.comb(delta, i) for i in range(cap + 1))
    s1 = sum(i * g**i * math.comb(delta, i) for i in range(cap + 1))
    log_s0, log_s1, mean = truncated_log_moments(delta, cap, float(g))
    assert log_s0 == pytest.approx(math.log(s0), rel=1e-13)
    assert log_s1 == pytest.approx(math.log(s1), rel=1e-13)
    assert mean == pytest.approx(float(s1 / s0), rel=1e-13)
    assert math.exp(log_s0) == pytest.approx(float(s0), rel=1e-12)
    assert math.exp(log_s1) == pytest.approx(float(s1), rel=1e-12)


def test_truncated_moments_cap_zero():
    log_s0, log_s1, mean = truncated_log_moments(5, 0, 2.5)
    assert log_s0 == 0.0
    assert log_s1 == NEG_INF
    assert mean == 0.0


def test_truncated_moments_survive_overflow():
    # S0 and S1 overflow a double here, but their logs and the mean must stay
    # finite, with the mean nearly pinned at the cap.
    log_s0, log_s1, mean = truncated_log_moments(200, 150, 1e6)
    for log_s in (log_s0, log_s1):
        assert math.isfinite(log_s)
        with pytest.raises(OverflowError):
            math.exp(log_s)
    assert 149.9 < mean < 150.0


@given(
    st.integers(min_value=1, max_value=120),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_truncated_mean_monotone_in_gamma(delta, data):
    cap = data.draw(st.integers(min_value=1, max_value=delta))
    g = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    mean_lo = truncated_log_moments(delta, cap, g)[2]
    mean_hi = truncated_log_moments(delta, cap, g * 1.25)[2]
    assert 0.0 < mean_lo < cap
    assert mean_lo < mean_hi


def test_binomial_pmf_exact_rational_oracle():
    delta, p = 10, Fraction(3, 10)
    for k in range(delta + 1):
        exact = math.comb(delta, k) * p**k * (1 - p) ** (delta - k)
        assert binomial_pmf(delta, 0.3, k) == pytest.approx(float(exact), rel=1e-13)


def test_binomial_pmf_sums_to_one():
    total = math.fsum(binomial_pmf(17, 0.42, k) for k in range(18))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_binomial_tail_exact_rational_oracle():
    delta, p = 9, Fraction(2, 5)
    running = Fraction(0)
    for cap in range(delta + 1):
        running += math.comb(delta, cap) * p**cap * (1 - p) ** (delta - cap)
        assert binomial_tail(delta, 0.4, cap) == pytest.approx(
            float(running), rel=1e-13
        )
    assert binomial_tail(delta, 0.4, delta) == 1.0


def test_binomial_input_validation():
    with pytest.raises(ValueError):
        binomial_pmf(0, 0.5, 0)
    with pytest.raises(ValueError):
        binomial_pmf(4, 0.0, 2)
    with pytest.raises(ValueError):
        binomial_pmf(4, 1.0, 2)
    with pytest.raises(ValueError):
        binomial_pmf(4, 0.5, 5)
    with pytest.raises(ValueError):
        binomial_tail(4, 0.5, -1)


@given(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_binomial_tail_bounds_and_monotonicity(delta, p, data):
    cap = data.draw(st.integers(min_value=0, max_value=delta))
    t = binomial_tail(delta, p, cap)
    assert 0.0 <= t <= 1.0
    if cap < delta:
        assert t <= binomial_tail(delta, p, cap + 1)
