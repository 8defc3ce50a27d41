"""Exactness and stability checks for the log-space combinatorial layer."""

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
    binomial_log_row,
    profile_residuals,
    solve_one_sided,
    truncated_log_moments,
)
from expander_bounds.combinatorics import _layout, _log_s0_prefix
from exact_reference import (
    _EXP_ZERO_LOG,
    NEG_INF,
    _log_binomial_direct,
    binomial_pmf,
    binomial_tail,
    log_binomial,
    log_odd_double_factorial,
)

U = 2.0**-53


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
    # the kernel's layouts are cached per (delta, caps) and read-only, and
    # arguments that hash equal to the cached (6, 3) are still checked
    truncated_log_moments(6, (3,), [1.0])
    starts, seg, idx, row, weights = _layout(6, (3,))
    assert seg is None
    assert not any(a.flags.writeable for a in (starts, idx, row, weights))
    for delta, cap in ((6.0, 3), (6, 3.0), (np.int64(6), 3), (6, np.int64(3))):
        with pytest.raises(ValueError):
            truncated_log_moments(delta, (cap,), [1.0])
    with pytest.raises(ValueError):
        truncated_log_moments(0, (0,), [1.0])
    with pytest.raises(ValueError):
        truncated_log_moments(4, (5,), [1.0])
    with pytest.raises(ValueError):
        truncated_log_moments(4, (2, -1), [1.0, 1.0])
    # each gamma is a real number: not a string, nor an object numpy cannot
    # hold as one
    for gamma in (0.0, -1.0, math.inf, math.nan, "2.0", Fraction(2), None, 1j):
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            truncated_log_moments(4, (2, 3), [1.0, gamma])
    with pytest.raises(ValueError, match="gamma must be a finite positive real"):
        truncated_log_moments(4, (2, 3), np.array(["1.0", "2.0"]))
    # ints and floats, numpy's among them, in a list or an array
    for gammas in ([1, 2.0], [np.float64(1.0), np.float32(2.0)], np.array([1, 2])):
        assert truncated_log_moments(4, (2, 3), gammas)[0].shape == (2,)
    # one gamma per cap, and at least one cap
    with pytest.raises(ValueError):
        truncated_log_moments(4, (2, 3), [1.0])
    with pytest.raises(ValueError):
        truncated_log_moments(4, (), [])


def _exact_moments(delta, cap, g):
    """(S0, mean, gap, variance) of gamma^i C(delta, i), i <= cap, in rationals."""
    w = [g**i * math.comb(delta, i) for i in range(cap + 1)]
    s0 = sum(w)
    mean = sum(i * wi for i, wi in enumerate(w)) / s0
    var = sum((i - mean) ** 2 * wi for i, wi in enumerate(w)) / s0
    return s0, mean, cap - mean, var


def test_truncated_moments_exact_rational_oracle():
    # delta=6, cap=4 at gamma=37/100, computed exactly
    delta, cap = 6, 4
    g = Fraction(37, 100)
    s0, mean, gap, var = _exact_moments(delta, cap, g)
    got = [float(v[0]) for v in truncated_log_moments(delta, (cap,), [float(g)])]
    assert got[0] == pytest.approx(math.log(s0), rel=1e-13)
    assert math.exp(got[0]) == pytest.approx(float(s0), rel=1e-12)
    for value, exact in zip(got[1:], (mean, gap, var)):
        assert value == pytest.approx(float(exact), rel=1e-13)


def test_gap_and_variance_keep_their_accuracy_where_the_cap_pins_the_mean():
    # At large gamma the profile piles up at the cap: the mean is the cap less
    # a gap of 1e-10 or less, which cap - mean could not resolve, and the
    # variance is about the gap. Both come out to a few hundred ulp.
    for delta, cap, g in ((40, 17, Fraction(10**12)), (100, 30, Fraction(3 * 10**14)),
                          (12, 12, Fraction(10**12)), (60, 5, Fraction(10**16))):
        _, mean, gap, var = _exact_moments(delta, cap, g)
        assert gap < Fraction(1, 10**10)
        _, got_mean, got_gap, got_var = truncated_log_moments(delta, (cap,), [float(g)])
        assert got_mean[0] == pytest.approx(float(mean), rel=1e-15)
        assert got_gap[0] == pytest.approx(float(gap), rel=1e-13)
        assert got_var[0] == pytest.approx(float(var), rel=1e-13)


def test_truncated_moments_cap_zero():
    log_s0, mean, gap, var = (float(v[0]) for v in truncated_log_moments(5, (0,), [2.5]))
    assert (log_s0, mean, gap, var) == (0.0, 0.0, 0.0, 0.0)


def test_truncated_moments_survive_overflow():
    # S0 overflows a double here, but its log and the moments must stay
    # finite, with the mean nearly pinned at the cap.
    log_s0, mean, gap, var = (float(v[0]) for v in truncated_log_moments(200, (150,), [1e6]))
    assert math.isfinite(log_s0)
    with pytest.raises(OverflowError):
        math.exp(log_s0)
    assert 149.9 < mean < 150.0
    assert gap == pytest.approx(150.0 - mean, rel=1e-9)
    assert 0.0 < var < 1.0


def test_a_cap_gets_the_same_bits_in_any_batch():
    # Segments are reduced one by one and everything else is elementwise, so
    # a cap's four values do not depend on the caps beside it, their order or
    # its place in the call; nor do its residuals.
    rng = random.Random(27)
    checked = 0
    sides, residuals = [], []
    for delta in (3, 7, 40, 60, 400, 1000, 6400):
        caps = [rng.randint(0, delta) for _ in range(12)] + [delta, delta // 2, 1]
        gammas = [math.exp(rng.uniform(-12.0, 12.0)) for _ in caps]
        alone = [[float(v[0]) for v in truncated_log_moments(delta, (c,), [g])]
                 for c, g in zip(caps, gammas)]
        sides += [(delta, c, g, a) for c, g, a in zip(caps, gammas, alone)]
        for _ in range(4):
            order = list(range(len(caps)))
            rng.shuffle(order)
            order = order[: rng.randint(1, len(order))]
            batch = truncated_log_moments(
                delta, [caps[k] for k in order], [gammas[k] for k in order])
            for j, k in enumerate(order):
                assert [float(v[j]) for v in batch] == alone[k], (delta, caps[k])
                checked += 1
        caps = [c for c in caps if c > 0]
        betas = [math.exp(rng.uniform(-30.0, 0.0)) for _ in caps]
        gammas = gammas[: len(caps)]
        eta = rng.random()
        both = profile_residuals(delta, caps, eta, betas, gammas)
        for j, (c, b, g) in enumerate(zip(caps, betas, gammas)):
            alone = [float(v[0]) for v in profile_residuals(delta, [c], eta, [b], [g])]
            assert alone == [float(v[j]) for v in both]
            residuals.append((delta, c, eta, b, g, alone))
    assert checked > 150
    # Batches that mix degrees, one degree (and eta) per cap, keep every
    # cap's kernel values and residuals to the bit as well.
    mixed = 0
    for _ in range(6):
        rng.shuffle(sides)
        rng.shuffle(residuals)
        some = sides[: rng.randint(2, len(sides))]
        batch = truncated_log_moments(*zip(*((d, c, g) for d, c, g, _ in some)))
        for j, (delta, cap, _, alone) in enumerate(some):
            assert [float(v[j]) for v in batch] == alone, (delta, cap)
            mixed += 1
        some = residuals[: rng.randint(2, len(residuals))]
        batch = profile_residuals(*zip(*(r[:5] for r in some)))
        for j, (delta, cap, *_, alone) in enumerate(some):
            assert [float(v[j]) for v in batch] == alone, (delta, cap)
            mixed += 1
        assert len({d for d, *_ in some}) > 1
    assert mixed > 300


def test_prefix_rows_get_the_same_bits_in_any_batch():
    # Each row of the prefix kernel runs along its own degree, padded with
    # -inf, so a (delta, x) row's ln S0 is the same bits alone or beside rows
    # of other degrees, in any order and with repeats.
    rng = random.Random(29)
    rows = [(delta, math.log(rng.uniform(1e-9, 3.0))) for delta in (3, 4, 7, 10, 60, 60, 400)]
    alone = {row: _log_s0_prefix((row[0],), [row[1]])[0].tobytes() for row in rows}
    for _ in range(5):
        rng.shuffle(rows)
        some = rows[: rng.randint(2, len(rows))]
        batch = _log_s0_prefix(tuple(delta for delta, _ in some), [x for _, x in some])
        for k, row in enumerate(some):
            assert batch[k, : row[0] + 1].tobytes() == alone[row], row


def log_term_error(delta: int, cap: int, x: float) -> float:
    """The largest error of a log term ln C(delta, i) + i x, i <= cap, as the
    prefix kernel's docstring counts it: u (3 ln C + i) for the row, u i |x|
    twice (the product and x's own rounding) and u |L_i| for the sum."""
    i = np.arange(cap + 1)
    row = binomial_log_row(delta)[: cap + 1]
    return float(np.max(U * (3.0 * row + i + 2.0 * i * abs(x) + np.abs(row + i * x))))


@pytest.mark.parametrize("delta", [3, 4, 10, 60, 400, 1010])
@pytest.mark.parametrize("gamma", [1e-9, 0.01, 0.3, 1.0, 7.0])
def test_log_s0_prefix_matches_the_moment_kernel(delta, gamma):
    # At every cap from the uncapped mean up, each of the two evaluations is
    # within eps + (2d + 24) u + u |ln S0| of the exact value, so they are
    # within twice that of each other.
    x = math.log(gamma)
    prefix = _log_s0_prefix((delta,), [x])[0]
    assert prefix.shape == (delta + 1,)
    t = delta * gamma / (1.0 + gamma)
    caps = range(math.ceil(t), delta + 1)
    kernel = truncated_log_moments(delta, caps, [gamma] * len(caps))[0].tolist()
    for cap, log_s0 in zip(caps, kernel):
        bound = log_term_error(delta, cap, x) + (2 * cap + 24) * U + U * abs(log_s0)
        assert abs(prefix[cap] - log_s0) <= 2.0 * bound, (cap, prefix[cap], log_s0)


@given(
    st.integers(min_value=1, max_value=120),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_truncated_mean_monotone_in_gamma(delta, data):
    cap = data.draw(st.integers(min_value=1, max_value=delta))
    g = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    mean_lo, mean_hi = truncated_log_moments(delta, (cap, cap), [g, g * 1.25])[1]
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


# ---------------------------------------------------------------------------
# Bit identity with term-by-term Python loops. The library builds its terms
# in numpy; these references compute every term in Python, as the library
# once did, and each pair must agree to the last bit. The moment kernel's
# sums are numpy's segment reductions, which no Python loop reproduces, so
# its term-by-term reference is held to an error bound instead.


def _ref_log_binomial(n, k):
    if k < 0 or k > n:
        return NEG_INF
    m = min(k, n - k)
    if m == 0:
        return 0.0
    if m <= 4096:
        return math.fsum(math.log((n - m + j) / j) for j in range(1, m + 1))
    return math.lgamma(n + 1) - (math.lgamma(k + 1) + math.lgamma(n - k + 1))


def _ref_binomial_log_row(n):
    row = np.zeros(n + 1)
    total = 0.0
    comp = 0.0
    for i in range(1, n // 2 + 1):
        term = math.log((n - i + 1) / i)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        row[i] = total + comp
    for i in range(n // 2 + 1, n + 1):
        row[i] = row[n - i]
    return row


def _ref_log_odd_double_factorial(m):
    k = m // 2
    if k <= 4096:
        return math.fsum(math.log(2 * j - 1) for j in range(1, k + 1))
    return math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def _ref_truncated_log_moments(delta, cap, gamma):
    """(ln S0, mean, gap, variance, cross) of gamma^i C(delta, i), i <= cap,
    term by term in Python: ``math.exp`` of each scaled log term, every sum
    by ``math.fsum`` and the variance from the deviations about the mean.
    ``cross`` is sum i (cap - i) w_i / S0, which the kernel subtracts from
    mean * gap to get the variance."""
    row = binomial_log_row(delta)
    x = math.log(gamma)
    logterms = [float(row[i]) + i * x for i in range(cap + 1)]
    peak = max(logterms)
    w = [math.exp(t - peak) for t in logterms]
    s0 = math.fsum(w)
    mean = math.fsum(i * wi for i, wi in enumerate(w)) / s0
    gap = math.fsum((cap - i) * wi for i, wi in enumerate(w)) / s0
    var = math.fsum((i - mean) ** 2 * wi for i, wi in enumerate(w)) / s0
    cross = math.fsum(i * (cap - i) * wi for i, wi in enumerate(w)) / s0
    return peak + math.log(s0), mean, gap, var, cross


def _ref_binomial_tail(delta, p, cap):
    row = binomial_log_row(delta)
    lp = math.log(p)
    lq = math.log1p(-p)
    total = math.fsum(
        math.exp(row[k] + k * lp + (delta - k) * lq) for k in range(cap + 1)
    )
    return min(1.0, max(0.0, total))


def _seeded_degrees(rng, count):
    return [rng.choice([rng.randrange(1, 80), rng.randrange(1, 7001)]) for _ in range(count)]


def test_binomial_log_row_is_bit_identical_to_the_loop():
    rng = random.Random(11)
    for n in [0, 1, 2, 3, 4, 5, 8191, 8192] + _seeded_degrees(rng, 30):
        assert binomial_log_row(n).tobytes() == _ref_binomial_log_row(n).tobytes(), n


def test_log_binomial_is_bit_identical_to_the_loop():
    rng = random.Random(12)
    cases = [(n, k) for n in (0, 1, 2) for k in range(-1, n + 2)]
    # m = min(k, n - k) on both sides of the switch to lgamma at 4096
    cases += [(n, k) for n in (8192, 8193, 10_000) for k in (4095, 4096, 4097, n - 4096, n - 4097)]
    for _ in range(1500):
        n = rng.randrange(0, 10_001)
        cases.append((n, rng.randrange(0, n + 1)))
    for n, k in cases:
        assert log_binomial(n, k) == _ref_log_binomial(n, k), (n, k)


def test_log_binomial_memo_keeps_the_checks_and_the_bits():
    """The direct sum is cached per (n, min(k, n - k)); the checks still run on every call."""
    assert log_binomial(10, 5) == _ref_log_binomial(10, 5)
    # these keys hash equal to the cached (10, 5), so only the checks can reject them
    for n, k in ((10.0, 5), (np.int64(10), 5), (10, 5.0), (10, np.int64(5))):
        with pytest.raises(TypeError):
            log_binomial(n, k)
    # the direct sum (m <= 4096) and lgamma (m > 4096), at k and n - k, twice
    # each: the second call of a direct-sum case is a cache hit
    cases = [(10, 5), (11, 3), (6400, 3200), (6400, 17), (8192, 4096), (9000, 4096)]
    cases += [(8193, 4096), (8194, 4097), (10_000, 4500), (20_000, 9000)]
    for n, m in cases:
        for k in (m, n - m):
            want = _ref_log_binomial(n, k).hex()
            assert log_binomial(n, k).hex() == want, (n, k)
            hits = _log_binomial_direct.cache_info().hits
            assert log_binomial(n, k).hex() == want, (n, k)
            assert _log_binomial_direct.cache_info().hits - hits == (min(k, n - k) <= 4096)


def test_log_odd_double_factorial_is_bit_identical_to_the_loop():
    rng = random.Random(13)
    ms = [0, 2, 4, 8190, 8192, 8194] + [2 * rng.randrange(0, 5000) for _ in range(200)]
    for m in ms:
        assert log_odd_double_factorial(m) == _ref_log_odd_double_factorial(m), m


def _sum_cases():
    """(delta, cap, p, gamma) over degrees 1..7000, caps 0, delta and one
    drawn, p at both ends and inside (0, 1), gamma from e^-14 to e^14."""
    rng = random.Random(14)
    cases = []
    for delta in [1, 2, 60, 6400] + _seeded_degrees(rng, 60):
        for cap in (0, delta, rng.randrange(0, delta + 1)):
            for p in (1e-12, 1.0 - 1e-12, rng.uniform(1e-300, 1e-10), rng.random()):
                cases.append((delta, cap, p, math.exp(rng.uniform(-14.0, 14.0))))
    return cases


def test_sums_are_bit_identical_to_the_loops():
    for delta, cap, p, _ in _sum_cases():
        assert binomial_tail(delta, p, cap) == _ref_binomial_tail(delta, p, cap)


def test_moments_match_the_term_by_term_sums():
    # Both sides build the same log terms. Against the reference, a kernel
    # term differs by at most 4 ulp (numpy's exp) + 1 ulp (math.exp) + 1 ulp
    # (its weight i, cap - i or i (cap - i)), and each of its sums of
    # cap + 1 positive terms rounds by at most cap ulp of the total, while
    # fsum rounds once. So the sums agree to (cap + 7) u relative, ln S0 to
    # that plus 2 u |ln S0| (each side rounds peak + log), the mean and the gap
    # (ratios) to 2 (cap + 8) u, and the variance, mean * gap - cross, to
    # 3 (cap + 8) u (mean * gap + cross): the cancellation where the cap or
    # gamma ~ 0 pins the profile is what the bound charges for. Terms that
    # underflow (the kernel sets those below e^-746 to 0) add 1e-300 at most.
    tiny = 1e-300
    for delta, cap, _, gamma in _sum_cases():
        log_s0, mean, gap, var, cross = _ref_truncated_log_moments(delta, cap, gamma)
        got = [float(v[0]) for v in truncated_log_moments(delta, (cap,), [gamma])]
        ratio = 2.0 * (cap + 8) * U
        bounds = ((cap + 7) * U + 2.0 * U * abs(log_s0), ratio * mean + tiny, ratio * gap + tiny,
                  3.0 * (cap + 8) * U * (mean * gap + cross) + tiny)
        for name, value, want, bound in zip(("ln S0", "mean", "gap", "var"), got,
                                            (log_s0, mean, gap, var), bounds):
            assert abs(value - want) <= bound, (name, delta, cap, gamma, value, want)


def _ref_log_terms(delta, p, cap):
    row = binomial_log_row(delta)
    lp = math.log(p)
    lq = math.log1p(-p)
    return [row[k] + k * lp + (delta - k) * lq for k in range(cap + 1)]


def _p_with_log(target):
    """A double p with math.log(p) == target exactly."""
    p = math.exp(target)
    for direction in (0.0, 1.0):
        q = p
        for _ in range(1000):
            if math.log(q) == target:
                return q
            q = math.nextafter(q, direction)
    raise AssertionError(f"no double p has log {target!r}")


def test_largest_first_tails_are_bit_identical_to_the_loop():
    """binomial_tail sorts its terms and drops exact zeros; the loop adds all in order."""
    cases = []
    # perfbench's one-sided grid: p from the solved gamma, caps delta/2 and delta/2 - 1
    for delta in (1600, 6400):
        hi = 2.0 * math.sqrt(math.log(2.0)) / math.sqrt(delta)
        for j in range(8):
            p = solve_one_sided(delta, 1e-3 + j * (hi - 1e-3) / 7).p
            caps = (delta // 2 - 1, delta // 2)
            cases += [(n, p, cap) for n in (delta - 1, delta) for cap in caps]
    # caps above the mode, where the terms rise and then fall
    for delta in (50, 777, 6400):
        for p in (0.2, 0.5, 0.73):
            mode = int((delta + 1) * p)
            sd = math.isqrt(int(delta * p * (1 - p)))
            cases += [(delta, p, cap) for cap in (mode + 1, mode + 3 * sd, delta - 1, delta)]
    for delta, p, cap in cases:
        assert binomial_tail(delta, p, cap) == _ref_binomial_tail(delta, p, cap), (delta, p, cap)

    # every term underflows
    assert max(_ref_log_terms(1000, 0.9, 10)) < _EXP_ZERO_LOG
    assert binomial_tail(1000, 0.9, 10) == _ref_binomial_tail(1000, 0.9, 10) == 0.0

    # the k = 2 term, 2 ln p, sits exactly at the cut, then one double above it
    assert math.exp(_EXP_ZERO_LOG) == 0.0
    for target in (_EXP_ZERO_LOG, math.nextafter(_EXP_ZERO_LOG, 0.0)):
        p = _p_with_log(target / 2)
        assert _ref_log_terms(2, p, 2)[2] == target
        assert binomial_tail(2, p, 2) == _ref_binomial_tail(2, p, 2)

    # a subnormal sum, so every term shows in it: one term has log -745.094, just
    # above ln(2^-1075), and exps to 2^-1074; it must be kept and the terms at or
    # below the cut dropped
    delta, p, cap = 21500, 0.5, 7963
    total = binomial_tail(delta, p, cap)
    assert total == _ref_binomial_tail(delta, p, cap)
    assert 0.0 < total < sys.float_info.min
    logs = _ref_log_terms(delta, p, cap)
    assert min(logs) <= _EXP_ZERO_LOG
    assert any(-745.14 < x < -745.0 and math.exp(x) == 2.0**-1074 for x in logs)
