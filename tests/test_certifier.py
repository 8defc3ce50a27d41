"""Certification, verification, and serialization tests."""

from __future__ import annotations

import copy
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expander_bounds import (
    BetaUnderflow,
    BoundCertificate,
    CertificateFormatError,
    NoBound,
    all_pairs,
    alpha_trend,
    bollobas_eta,
    bollobas_threshold,
    build_table,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    certifier,
    feasible_pairs,
    min_eta,
    profile_residuals,
    side_solver,
    solve_one_sided,
    target_mean,
    truncated_log_moments,
    verify_certificate,
)

from expander_bounds.combinatorics import _log_s0_prefix
from solved_reference import bound_rhs, certifies, solved_witness
from test_combinatorics import U, log_term_error

TIGHT = 1e-6  # search margin used throughout the regression tests


def test_pair_enumeration():
    # balanced pair first, then increasingly lopsided
    assert all_pairs(6) == [(3, 3), (2, 4), (1, 5)]
    assert all_pairs(7) == [(3, 4), (2, 5), (1, 6)]
    # target mean at eta=0.648 is 1.056, so d=1 is infeasible
    assert feasible_pairs(6, 0.648) == [(3, 3), (2, 4)]
    assert feasible_pairs(6, 0.0) == []


def test_min_eta_small_degree_pins():
    cert = min_eta(3)
    assert cert.eta == 0.875
    assert cert.expansion_bound == 0.1875
    assert min_eta(6, margin=TIGHT).eta == 0.648
    # the default margin is deliberately conservative: one step coarser at
    # delta = 10 than the tight setting
    assert min_eta(10).eta == 0.508
    assert min_eta(10, margin=TIGHT).eta == 0.507


def satisfied(delta: int, eta: float, margin: float) -> bool:
    """The search condition at one probe, a batch of one."""
    (verdict,) = certifier._satisfied([(delta, eta)], margin)
    return verdict


def _full_search_eta(delta: int, margin: float, precision: int = 3) -> float:
    """Reference search: all 34 float halvings, then the threshold rounded up."""
    lo, hi = 0.0, 1.0 - 1e-9
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        if satisfied(delta, mid, margin):
            hi = mid
        else:
            lo = mid
    scale = 10.0**precision
    return math.ceil(hi * scale) / scale


@pytest.mark.parametrize("margin", [1e-3, TIGHT])
def test_early_stop_matches_full_search(margin):
    for delta in [*range(3, 21), 400]:
        assert min_eta(delta, margin=margin).eta == _full_search_eta(delta, margin), delta


def _counting_solve(solves: list):
    """The root finder, recording every cap it is asked to solve."""
    def counted(delta, caps, eta):
        solves.extend((delta, cap, eta) for cap in caps)
        return side_solver._solve_caps(delta, caps, eta)
    return counted


def _unscreened_satisfied(delta: int, eta: float, margin: float) -> bool:
    """Reference search condition: every feasible pair solved in full."""
    try:
        return certifies(certifier.evaluate_pairs(delta, eta), margin)
    except BetaUnderflow:
        return False


# Degrees past the paper's table: 308 needs the bump, 400-406 cross the
# underflow band, and 800, 850, 920, 1009 and 1010 lie in the band where a
# gamma = 1 guard (condition (a), which the screen no longer has) would pass
# caps that the root bound leaves to the solve, so there the probes' solves
# are checked. At 850 and 920 the geometric root bound screens caps the
# looser q/(1 - q)^2 bound left to the solve (min_eta(850) solves 398 caps,
# not 682).
AGREEMENT_DEGREES = [
    *((delta, margin) for margin in (1e-3, TIGHT) for delta in range(3, 61)),
    *((delta, 1e-3) for delta in (100, 400, 402, 406, 800, 850, 920, 1009, 1010)),
    (308, TIGHT),
]


def test_screened_probes_agree_with_the_unscreened_condition(monkeypatch):
    # Every eta min_eta probes, plus seeded random ones, gets the verdict
    # that solving every pair gives.
    probes = []
    screened = certifier._satisfied

    def record(batch, margin):
        verdicts = screened(batch, margin)
        probes.extend((delta, eta, margin, v) for (delta, eta), v in zip(batch, verdicts))
        return verdicts

    monkeypatch.setattr(certifier, "_satisfied", record)
    for delta, margin in AGREEMENT_DEGREES:
        try:
            min_eta(delta, margin=margin)
        except NoBound:  # delta = 920 and 1009 use up their bumps
            pass
    monkeypatch.undo()
    searched = list(probes)
    rng = random.Random(20261018)
    for _ in range(200):
        delta = rng.randint(3, 80)
        eta, margin = rng.uniform(0.0, 1.0 - 1e-9), 10.0 ** rng.uniform(-9.0, -2.0)
        probes.append((delta, eta, margin, satisfied(delta, eta, margin)))
    # Margins a hair either side of the worst solved exponent, at eta where
    # the caps barely bind and the screen's value is close to the solved one.
    # At -worst + 1e-9 the worst pair fails by less than the screen's slack,
    # so the probe must reach the full solve. At -worst - 1e-9 the screen may
    # pass it, gamma0 being as good a witness as the solved one.
    solves = []
    monkeypatch.setattr(certifier, "_solve_caps", _counting_solve(solves))
    for delta in (4, 9, 30, 60, 400):
        for eta in (0.9, 0.99, 1.0 - 1e-6):
            worst = max(pb.rhs for pb in certifier.evaluate_pairs(delta, eta) if not pb.vacuous)
            for margin in (-worst - 1e-9, -worst + 1e-9):
                solves.clear()
                probes.append((delta, eta, margin, satisfied(delta, eta, margin)))
                assert solves or margin < -worst, (delta, eta)
    monkeypatch.undo()
    assert len(probes) > 1500
    assert any(verdict for *_, verdict in probes)
    assert any(not verdict for *_, verdict in probes)
    for delta, eta, margin, verdict in probes:
        assert verdict == _unscreened_satisfied(delta, eta, margin), (delta, eta, margin)
    # The searches' probes again, shuffled into batches that mix degrees:
    # each gets the verdict it got in its own search.
    rng.shuffle(searched)
    for margin in (1e-3, TIGHT):
        batch = [probe for probe in searched if probe[2] == margin]
        for start in range(0, len(batch), 100):
            chunk = batch[start:start + 100]
            assert len({delta for delta, *_ in chunk}) > 1
            verdicts = certifier._satisfied([(delta, eta) for delta, eta, *_ in chunk], margin)
            assert verdicts == [verdict for *_, verdict in chunk]


def test_root_bound_screen_agrees_with_the_unscreened_condition(monkeypatch):
    # Where the root bound screens: at delta = 1200 and 2000 at high eta it
    # screens most pairs; at small degrees, eta just above 1 - 2d/delta leaves
    # cap d feasible with the target mean pinned a hair below it.
    rng = random.Random(20261019)
    probes = [(delta, rng.uniform(0.9, 1.0 - 1e-9)) for delta in (1200, 2000)]
    probes.append((2000, 0.97))
    for _ in range(60):
        delta = rng.randint(3, 60)
        d = rng.randint(1, delta // 2)
        probes.append((delta, 1.0 - 2.0 * d / delta + rng.choice((1e-12, 1e-10, 1e-7))))
    solves = []
    monkeypatch.setattr(certifier, "_solve_caps", _counting_solve(solves))
    screened = 0
    verdicts = set()
    for delta, eta in probes:
        try:
            pair_bounds = list(certifier.evaluate_pairs(delta, eta))
        except BetaUnderflow:
            pair_bounds = None
        margins = [1e-3, TIGHT]
        if pair_bounds:
            worst = max(pb.rhs for pb in pair_bounds if not pb.vacuous)
            margins += [-worst - 1e-9, -worst + 1e-9]
        for margin in margins:
            expected = pair_bounds is not None and certifies(pair_bounds, margin)
            solves.clear()
            verdict = satisfied(delta, eta, margin)
            assert verdict == expected, (delta, eta, margin)
            verdicts.add(verdict)
            if delta > 1010 and margin == 1e-3:
                assert verdict
                screened += len(feasible_pairs(delta, eta)) - len(set(solves)) // 2
    assert verdicts == {True, False}
    assert screened > 500


def test_root_bound_holds_at_the_solved_root():
    # x_u bounds the root x* of mean(x) = t from above, and the screen's bound
    # ln S0(x0) + t max(0, x_u - x0) bounds ln S0 there. Targets within 1e-9
    # of the cap pin the float mean, whose root then moves by the mean's
    # rounding over the variance; there the mean at x_u is checked instead,
    # and ln S0 is allowed to grow by cap (its slope's bound) times the
    # distance the float root lies past x_u.
    rng = random.Random(20261019)
    checked = pinned = 0
    for k in range(600):
        delta = rng.randint(3, 1010)
        cap = rng.randint(1, delta)
        t = cap - rng.choice((1e-9, 1e-10)) if k % 3 == 0 else rng.uniform(0.0, cap)
        eta = 1.0 - 2.0 * t / delta
        t = target_mean(delta, eta)
        if not (0.0 <= eta < 1.0 and 0.0 < t < cap):
            continue
        _, (x,), (log_s0,) = side_solver._solve_caps(delta, (cap,), eta)
        x0 = math.log(t / (delta - t))
        x_u = float(side_solver._root_x_upper(delta, cap, t))
        # the mean w1/w0 is off by at most twice the relative error of each sum
        mean_err = 4.0 * cap * (log_term_error(delta, cap, x_u) + (2 * cap + 24) * U)
        mean_u = truncated_log_moments(delta, (cap,), [math.exp(x_u)])[1][0]
        assert mean_u >= t - mean_err, (delta, cap, t)
        if mean_u > t + 2.0 * mean_err:
            assert x <= x_u + 1e-12, (delta, cap, t)
        else:
            pinned += 1
        bound = _log_s0_prefix((delta,), [x0])[0, cap] + t * max(0.0, x_u - x0)
        assert log_s0 <= bound + cap * max(0.0, x - x_u) + 1e-9, (delta, cap, t)
        checked += 1
    assert checked > 400 and pinned > 50

    # The screen's exponent at gamma0 on a screenable pair bounds the one at
    # the fully solved witnesses from above. The tolerance is far inside the
    # 1e-9 the search allows each side. Half the pairs pin their smaller cap
    # against the mean. The pairs are screened as one batch of many degrees.
    probes, solved, pinned = [], [], 0
    for k in range(400):
        delta = rng.randint(3, 80)
        d = rng.randint(1, delta // 2)
        s = 10.0 ** rng.uniform(-15.0, -3.0) if k % 2 else rng.uniform(0.0, d)
        eta = 1.0 - 2.0 * (d - s) / delta
        t = target_mean(delta, eta)
        if not (0.0 <= eta < 1.0 and 0.0 < t < d):
            continue
        probes.append((delta, eta, d, s < 1e-3))
    pairs = certifier._screen([(delta, eta) for delta, eta, *_ in probes])
    chosen = np.zeros(pairs.probe.size, dtype=bool)
    for j, (delta, eta, d, pins) in enumerate(probes):
        (i,) = np.flatnonzero((pairs.probe == j) & (pairs.caps[0] == d))
        if not pairs.screenable[i]:
            continue
        side = solved_witness(delta, d, eta)
        solved.append(certifier._rhs(delta, eta, *side, *solved_witness(delta, delta - d, eta)))
        chosen[i] = True
        pinned += pins
    solved = dict(zip(np.flatnonzero(chosen).tolist(), solved))
    bounds = 0
    for i, value in solved.items():
        assert pairs.rhs0[i] >= value - 1e-12, i
        bounds += 1
    assert bounds >= 387 and pinned > 100


@settings(max_examples=300, deadline=None)
@given(
    delta=st.integers(3, 120),
    data=st.data(),
    log_gammas=st.tuples(*[st.one_of(st.none(), st.floats(-25.0, 25.0))] * 2),
)
def test_any_witness_bounds_the_solved_exponent(delta, data, log_gammas):
    # The exponent at any gamma > 0 (None stands for the uncapped binomial
    # root the search screens at) is at least the solved one: the witnesses
    # minimise it, so a screened pass can never hide a failing pair.
    d = data.draw(st.integers(1, delta // 2), label="d")
    dp = delta - d
    eta = data.draw(
        st.floats(max(0.0, 1.0 - 2.0 * d / delta), 1.0 - 1e-9, exclude_min=True), label="eta"
    )
    t = target_mean(delta, eta)
    assume(t < d)  # eta rounds onto the boundary of feasibility
    try:
        solved = bound_rhs(delta, d, dp, eta)
    except BetaUnderflow:  # cap pinned at the mean: no solved value to compare
        assume(False)
    gamma0 = t / (delta - t)
    g, gp = (gamma0 if x is None else math.exp(x) for x in log_gammas)
    log_s0, log_s0_p = truncated_log_moments(delta, (d, dp), [g, gp])[0].tolist()
    assert certifier._rhs(delta, eta, -log_s0, g, -log_s0_p, gp) >= solved - 1e-12


def test_min_eta_400_crosses_the_underflow_band():
    # The search condition is not monotone just above eta = 0.080 at delta =
    # 400: there cap 184 becomes feasible with the target mean pinned a hair
    # below it, its side solve raises BetaUnderflow, and the probe fails,
    # while 0.080 itself passes. A bisection on the 1e-3 grid would stop at
    # 0.080; the float search certifies 0.081.
    assert satisfied(400, 0.080, 1e-3)
    assert not satisfied(400, 0.0801, 1e-3)
    assert min_eta(400).eta == 0.081


def test_min_eta_308_needs_the_bump():
    # The float search's threshold rounds up to 0.091, where cap 140 is
    # pinned at the mean and its side solve raises BetaUnderflow; min_eta
    # steps one grid point up to 0.092, which certifies and still beats the
    # baseline of 0.095.
    assert not satisfied(308, 0.091, TIGHT)
    assert satisfied(308, 0.092, TIGHT)
    cert = min_eta(308, margin=TIGHT)
    assert cert.eta == 0.092
    assert verify_certificate(cert).passed


def test_min_eta_monotone_in_margin():
    loose = min_eta(8, margin=0.05)
    tight = min_eta(8, margin=TIGHT)
    assert loose.eta >= tight.eta


def test_min_eta_rejects_bad_input():
    with pytest.raises(ValueError):
        min_eta(2)
    with pytest.raises(ValueError):
        min_eta(6.0)
    with pytest.raises(ValueError):
        min_eta(6, margin=0.0)
    with pytest.raises(ValueError):
        min_eta(6, precision=0)
    # 10**309 is not a double, so the rounding grid stops at 308 decimals
    with pytest.raises(ValueError):
        min_eta(6, precision=309)
    with pytest.raises(ValueError):
        bollobas_eta(6, 309)
    assert 0.0 < bollobas_eta(6, 308)[0] < 1.0


def test_min_eta_no_bound_for_unreachable_margin():
    # the exponent cannot drop below ~1 - delta/2 even as eta -> 1
    with pytest.raises(NoBound):
        min_eta(6, margin=10.0)


def test_certified_eta_fails_one_step_lower():
    cert = min_eta(6, margin=TIGHT)
    eta_below = cert.eta - 10.0**-3
    worst = max(
        bound_rhs(6, d, dp, eta_below) for d, dp in feasible_pairs(6, eta_below)
    )
    assert worst > -TIGHT


def test_certificate_structure():
    cert = min_eta(9, margin=TIGHT)
    assert [(pb.d, pb.d_prime) for pb in cert.pair_bounds] == all_pairs(9)
    for pb in cert.pair_bounds:
        if pb.vacuous:
            assert pb.side is None and pb.rhs is None
            assert pb.target_mean >= pb.d
        else:
            assert pb.rhs < -TIGHT
            assert pb.side.cap == pb.d
            assert pb.side_prime.cap == pb.d_prime
    assert cert.expansion_bound == (1.0 - cert.eta) * 9 / 2.0
    assert cert.expansion_bound > cert.baseline_bound


def test_bollobas_eta_pins():
    assert bollobas_eta(3) == (0.878, pytest.approx(0.183, abs=1e-12))
    eta9, bound9 = bollobas_eta(9)
    assert eta9 == 0.541
    assert bound9 == pytest.approx(2.0655, abs=1e-12)
    eta40, bound40 = bollobas_eta(40)
    assert eta40 == 0.262
    assert bound40 == pytest.approx(14.76, abs=1e-12)


def test_bollobas_threshold_solves_the_counting_equation():
    for delta in (3, 9, 40, 1000):
        root = bollobas_threshold(delta)
        lhs = (1 + root) * math.log2(1 + root) + (1 - root) * math.log2(1 - root)
        assert lhs == pytest.approx(4.0 / delta, abs=1e-12)


def test_build_table():
    certs = build_table(4, 6, margin=TIGHT)
    assert [c.delta for c in certs] == [4, 5, 6]
    with pytest.raises(ValueError):
        build_table(2, 6)
    with pytest.raises(ValueError):
        build_table(6, 4)


def _own_search(delta: int, margin: float) -> str:
    """min_eta of one degree, as JSON, or the message of its NoBound."""
    try:
        return certificate_to_json(min_eta(delta, margin=margin))
    except NoBound as exc:
        return f"NoBound: {exc}"


@pytest.mark.parametrize("margin", [1e-3, TIGHT])
def test_lockstep_searches_equal_each_degrees_own(margin):
    # build_table and alpha_trend search their degrees in lock-step and return,
    # byte for byte, what each degree's own search returns.
    certs = build_table(3, 120, margin=margin)
    assert [cert.delta for cert in certs] == list(range(3, 121))
    for cert in certs:
        assert certificate_to_json(cert) == _own_search(cert.delta, margin), cert.delta
    degrees = list(range(4, 121, 2))
    assert alpha_trend(degrees, margin=margin) == [
        solve_one_sided(delta, min_eta(delta, margin=margin).eta) for delta in degrees]


def test_lockstep_bumps_and_no_bounds_equal_each_degrees_own():
    # The degrees whose rounded eta is bumped (308 at 1e-6, 800 and 830) or
    # that cross the underflow band (400-406), and 920, which has no bound,
    # searched together.
    for degrees, margin in (([308, 60], TIGHT), ([400, 402, 406, 800, 830, 920], 1e-3)):
        got = certifier._certificates(degrees, margin, 3)
        assert [certificate_to_json(c) if isinstance(c, BoundCertificate) else f"NoBound: {c}"
                for c in got] == [_own_search(delta, margin) for delta in degrees]
    # the trend checks its degrees in order: 400 verifies, 402's certificate
    # does not (nor does 406's, ROADMAP item 1), and 402 stops it as it
    # stopped the loop
    assert alpha_trend([400]) == [solve_one_sided(400, min_eta(400).eta)]
    failures = ", ".join(f.name for f in verify_certificate(min_eta(402)).failures())
    with pytest.raises(NoBound, match=f"^certificate for delta=402 fails {failures}$"):
        alpha_trend([400, 402, 406])


def test_a_range_with_no_bound_raises_its_lowest_degrees():
    # The per-degree loop stopped at the first degree without a bound, so the
    # lock-step table raises that degree's NoBound.
    for low, high, margin in ((5, 7, 10.0), (918, 921, 1e-3)):
        own = [_own_search(delta, margin) for delta in range(low, high + 1)]
        first = next(text for text in own if text.startswith("NoBound"))
        with pytest.raises(NoBound) as raised:
            build_table(low, high, margin=margin)
        assert f"NoBound: {raised.value}" == first


def test_bound_rhs_closed_form_at_full_cap():
    # with both caps at delta the exponent collapses to the entropy form
    for delta, eta in [(4, 0.7), (9, 0.55), (30, 0.3)]:
        closed = 1.0 - delta * (
            (1 + eta) * math.log2(1 + eta) + (1 - eta) * math.log2(1 - eta)
        ) / 4.0
        assert bound_rhs(delta, delta, delta, eta) == pytest.approx(closed, abs=1e-10)


def test_bound_rhs_not_monotone_in_eta():
    # The exponent of the balanced pair is not monotone in eta.  Near eta=0
    # the caps pin the profile to an entropy-starved corner and the exponent
    # dips negative, then it rises well above zero before falling through
    # the real threshold.  The search is a bisection from the top, so this
    # low-eta dip is never reached: the first midpoint, 0.5, is rejected for
    # every degree whose threshold lies above it.
    assert bound_rhs(4, 2, 2, 0.02) < 0.0
    assert bound_rhs(4, 2, 2, 0.30) > 0.5
    assert bound_rhs(4, 2, 2, 0.98) < -0.8
    assert bound_rhs(4, 2, 2, 0.5) > 0.0


def test_rhs_stays_negative_above_certified_eta():
    # what the certificate actually promises: every feasible pair keeps a
    # negative exponent from the certified eta all the way up (the limit at
    # eta -> 1 is 1 - delta/2)
    for delta in (3, 4, 6, 9, 10, 12):
        cert = min_eta(delta, margin=TIGHT)
        for k in range(41):
            eta = cert.eta + (0.999 - cert.eta) * k / 40.0
            pairs = feasible_pairs(delta, eta)
            assert pairs, f"no feasible pair at delta={delta}, eta={eta}"
            for d, dp in pairs:
                assert bound_rhs(delta, d, dp, eta) < 0.0


def test_worst_pair_is_the_balanced_one():
    # observed pattern at the certified eta; the search never assumes it
    for delta in range(4, 11):
        cert = min_eta(delta, margin=TIGHT)
        live = [pb for pb in cert.pair_bounds if not pb.vacuous]
        worst = max(live, key=lambda pb: pb.rhs)
        assert worst.d == delta // 2


def test_verify_accepts_fresh_certificates():
    for delta in (5, 8):
        report = verify_certificate(min_eta(delta, margin=TIGHT))
        assert report.passed
        assert report.failures() == []
        names = [c.name for c in report.checks]
        assert "pairs-exhaustive" in names
        assert "improves-on-baseline" in names


# The paper's table at its margin and the trend's degrees at the default.
VERIFIED_CASES = [(delta, TIGHT) for delta in range(4, 61)] + [
    (delta, 1e-3) for delta in (100, 200, 400)
]


@pytest.fixture(scope="module")
def loaded_certs(cert_cache):
    """The VERIFIED_CASES certificates, as read back from JSON."""
    return [
        certificate_from_json(certificate_to_json(cert_cache.get(delta, margin)))
        for delta, margin in VERIFIED_CASES
    ]


def _no_solver(*args, **kwargs):
    raise AssertionError("the verifier called the side solver")


def test_verifier_makes_no_solver_call(loaded_certs, monkeypatch):
    monkeypatch.setattr(certifier, "solve_side", _no_solver)
    monkeypatch.setattr(certifier, "_side_solutions", _no_solver)
    monkeypatch.setattr(certifier, "_solve_caps", _no_solver)
    monkeypatch.setattr(side_solver, "_solve_caps", _no_solver)
    for cert in loaded_certs:
        report = verify_certificate(cert)
        assert report.passed, (cert.delta, [c.name for c in report.failures()])


def test_verifier_exponents_are_the_solved_ones_bit_for_bit(loaded_certs):
    # Evaluated at the stored witnesses, each exponent is the one re-solving
    # both sides gives, so every detail string reads as it did.
    for cert in loaded_certs:
        details = {c.name: c.detail for c in verify_certificate(cert).checks}
        for pb in cert.pair_bounds:
            if pb.vacuous:
                continue
            label = f"pair-{pb.d}-{pb.d_prime}"
            fresh = bound_rhs(cert.delta, pb.d, pb.d_prime, cert.eta)
            assert details[f"{label}-rhs-negative-with-margin"] == (
                f"rhs={fresh!r} margin={cert.margin!r}"
            )
            assert details[f"{label}-rhs-matches"] == f"stored={pb.rhs!r} recomputed={fresh!r}"


def test_verifier_recomputes_every_stored_rhs_and_residual_bit_for_bit(loaded_certs, monkeypatch):
    # The builder solves a degree's caps together and the verifier evaluates
    # every side of a certificate in one residual pass and one kernel pass;
    # both kernels give a cap the same bits in any batch, so the verifier's
    # numbers are the stored ones, to the last bit.
    passes = []

    def recording(*args):
        passes.append(profile_residuals(*args))
        return passes[-1]

    monkeypatch.setattr(certifier, "profile_residuals", recording)
    for cert in loaded_certs:
        passes.clear()
        details = {c.name: c.detail for c in verify_certificate(cert).checks}
        feasible = [pb for pb in cert.pair_bounds if not pb.vacuous]
        sides = [side for pb in feasible for side in (pb.side, pb.side_prime)]
        ((mass, mean),) = passes
        assert mass.tolist() == [side.residual_mass for side in sides], cert.delta
        assert mean.tolist() == [side.residual_mean for side in sides], cert.delta
        for pb in feasible:
            assert details[f"pair-{pb.d}-{pb.d_prime}-rhs-matches"] == (
                f"stored={pb.rhs!r} recomputed={pb.rhs!r}")


# Failing checks of certificates min_eta returns at margin 1e-3 and its own
# verifier rejects, as they read while the verifier re-solved every pair:
# beta goes subnormal on one side at 402 and 1000, and 406 and 1000 certify
# above the baseline.
REJECTED = {
    402: ["pair-185-217-side-mass-residual", "pair-185-217-side-mean-residual"],
    406: ["improves-on-baseline"],
    1000: [
        "pair-376-624-side-mass-residual",
        "pair-376-624-side-mean-residual",
        "improves-on-baseline",
    ],
}


@pytest.mark.parametrize("delta", sorted(REJECTED))
def test_rejected_certificates_keep_their_failures(delta, cert_cache):
    report = verify_certificate(cert_cache.get(delta, 1e-3))
    assert [c.name for c in report.failures()] == REJECTED[delta]


def test_json_round_trip_is_byte_identical():
    cert = min_eta(8, margin=TIGHT)
    text = certificate_to_json(cert)
    again = certificate_to_json(certificate_from_json(text))
    assert text == again
    assert text.endswith("\n")
    assert verify_certificate(certificate_from_json(text)).passed


def test_certificate_dict_is_the_json_document():
    # the CLI renders the dict directly; it must be what the JSON text parses to
    for delta in (4, 8):
        cert = min_eta(delta, margin=TIGHT)
        doc = certificate_to_dict(cert)
        assert doc == json.loads(certificate_to_json(cert))
        assert json.dumps(doc, indent=2) + "\n" == certificate_to_json(cert)


def test_round_trip_preserves_every_numeric_field(cert_cache):
    # the parsed certificate equals the built one field for field, sides
    # included, so nothing a side carries is rebuilt from the stored digits
    for margin in (1e-3, TIGHT):
        for delta in range(3, 61):
            cert = cert_cache.get(delta, margin)
            assert certificate_from_json(certificate_to_json(cert)) == cert, (delta, margin)


def _doc(cert) -> dict:
    return json.loads(certificate_to_json(cert))


def _reverify(doc: dict):
    return verify_certificate(certificate_from_json(json.dumps(doc)))


def _bump(doc: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


TAMPERS = [
    ("eta-down", ("eta",), "6.4700000000000000e-01", "side-consistent"),
    ("eta-up", ("eta",), "6.4900000000000000e-01", "side-consistent"),
    ("bound-up", ("expansion_bound",), "1.2000000000000000e+00", "expansion-bound-consistent"),
    ("margin-impossible", ("margin",), "1.0000000000000000e+00", "rhs-negative-with-margin"),
    ("baseline-eta-low", ("baseline_eta",), "5.0000000000000000e-01", "baseline-valid"),
    ("baseline-bound-up", ("baseline_bound",), "2.0000000000000000e+00", "improves-on-baseline"),
    ("pair-d", ("pair_bounds", 1, "d"), 3, "pairs-exhaustive"),
    ("vacuous-flip", ("pair_bounds", 1, "vacuous"), True, "vacuous-witness"),
    ("target-mean", ("pair_bounds", 1, "target_mean"), "9.9000000000000000e-01", "witness-matches"),
    ("rhs-shift", ("pair_bounds", 1, "rhs"), "-1.0000000000000000e-02", "rhs-matches"),
    ("beta-off", ("pair_bounds", 1, "side", "beta"), "2.5461000000000000e-01", "mass-residual"),
    ("gamma-off", ("pair_bounds", 1, "side", "gamma"), "2.8550000000000000e-01", "mean-residual"),
    ("beta-negative", ("pair_bounds", 1, "side", "beta"), "-5.0000000000000000e-01", "parameters-in-range"),
    ("side-cap", ("pair_bounds", 1, "side", "cap"), 3, "side-consistent"),
    ("side-delta", ("pair_bounds", 1, "side_prime", "delta"), 7, "side-prime-consistent"),
    ("side-eta", ("pair_bounds", 1, "side", "eta"), "6.0000000000000000e-01", "side-consistent"),
    ("residual-forged", ("pair_bounds", 1, "side", "residual_mass"), "1.0000000000000000e+00", "residual-fields-match"),
    ("delta-huge", ("delta",), 10**400, "delta-valid"),
]


@pytest.mark.parametrize("name,path,value,expect", TAMPERS, ids=[t[0] for t in TAMPERS])
def test_single_field_tamper_is_caught(name, path, value, expect):
    # delta=6: pair_bounds order is (3,3), (2,4), (1,5); index 1 is the
    # feasible lopsided pair, index 2 the vacuous one
    doc = _doc(min_eta(6, margin=TIGHT))
    report = _reverify(_bump(doc, path, value))
    assert not report.passed
    assert any(expect in c.name for c in report.failures()), [
        c.name for c in report.failures()
    ]


def test_weakened_margin_still_verifies():
    # lowering the claimed margin weakens the statement but keeps it true;
    # the verifier accepts it (contrast with the tamper cases above)
    doc = _doc(min_eta(6, margin=TIGHT))
    doc["margin"] = "1.0000000000000000e-09"
    assert _reverify(doc).passed


def test_a_delta_the_pairs_do_not_cover_fails_fast():
    # One listed pair claiming delta = 10**12: the verifier stops at the pair
    # count instead of doing O(delta) work on a number it cannot trust.
    doc = _doc(min_eta(6, margin=TIGHT))
    doc["delta"] = 10**12
    doc["pair_bounds"] = doc["pair_bounds"][:1]
    start = time.perf_counter()
    report = _reverify(doc)
    assert time.perf_counter() - start < 1.0
    # the stored bound was for delta = 6; nothing after the pair count runs
    assert [c.name for c in report.failures()] == [
        "expansion-bound-consistent", "pairs-exhaustive"]
    assert report.checks[-1].name == "pairs-exhaustive"


def test_dropping_a_pair_is_caught():
    doc = _doc(min_eta(6, margin=TIGHT))
    doc["pair_bounds"] = doc["pair_bounds"][1:]
    report = _reverify(doc)
    assert not report.passed
    assert any("pairs-exhaustive" == c.name for c in report.failures())


@pytest.mark.parametrize("gamma", ["0.0000000000000000e+00", "-2.0000000000000000e-01", "inf", "nan"])
def test_unusable_witness_fails_rhs_recomputable(gamma):
    doc = _doc(min_eta(6, margin=TIGHT))
    report = _reverify(_bump(doc, ("pair_bounds", 1, "side_prime", "gamma"), gamma))
    failed = {c.name: c.detail for c in report.failures()}
    assert "pair-2-4-side-prime-parameters-in-range" in failed
    assert failed["pair-2-4-rhs-recomputable"] == "gamma must be a finite positive real"


@pytest.mark.parametrize("cap", [9, -1])
def test_cap_outside_the_degree_fails_instead_of_raising(cap):
    # the pair's d and its side's cap moved together, so side-consistent holds
    # and only the range of the cap is wrong
    doc = _bump(_bump(_doc(min_eta(6)), ("pair_bounds", 0, "d"), cap),
                ("pair_bounds", 0, "side", "cap"), cap)
    report = _reverify(doc)
    failed = {c.name: c.detail for c in report.failures()}
    label = f"pair-{cap}-3"
    assert failed[f"{label}-side-parameters-in-range"].endswith(
        "cap must be an integer in [0, delta]")
    assert failed[f"{label}-rhs-recomputable"] == "cap must be an integer in [0, delta]"
    assert f"{label}-side-consistent" not in failed
    assert not any(c.name.startswith(f"{label}-side-mass") for c in report.checks)


MALFORMED = [
    ("not-json", "{"),
    ("top-level-list", "[]"),
    ("wrong-schema", json.dumps({"schema": "cert-v0"})),
    ("missing-eta", None),
    ("numeric-eta", None),
    ("bool-delta", None),
    ("pairs-not-list", None),
    ("pair-not-object", None),
    ("missing-rhs", None),
    ("side-missing-gamma", None),
]


def _malformed_text(kind: str, doc: dict) -> str:
    if kind == "missing-eta":
        del doc["eta"]
    elif kind == "numeric-eta":
        doc["eta"] = 0.648
    elif kind == "bool-delta":
        doc["delta"] = True
    elif kind == "pairs-not-list":
        doc["pair_bounds"] = {}
    elif kind == "pair-not-object":
        doc["pair_bounds"][0] = 7
    elif kind == "missing-rhs":
        del doc["pair_bounds"][1]["rhs"]
    elif kind == "side-missing-gamma":
        del doc["pair_bounds"][1]["side"]["gamma"]
    return json.dumps(doc)


@pytest.mark.parametrize("kind,text", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_documents_are_rejected(kind, text):
    if text is None:
        text = _malformed_text(kind, _doc(min_eta(6, margin=TIGHT)))
    with pytest.raises(CertificateFormatError):
        certificate_from_json(text)


def test_verify_rejects_nonsense_header_fields():
    cert = min_eta(5, margin=TIGHT)
    broken = type(cert)(
        delta=cert.delta,
        eta=cert.eta,
        expansion_bound=cert.expansion_bound,
        margin=-1.0,
        pair_bounds=cert.pair_bounds,
        baseline_eta=cert.baseline_eta,
        baseline_bound=cert.baseline_bound,
    )
    report = verify_certificate(broken)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["margin-positive"]
