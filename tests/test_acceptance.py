"""Acceptance gate: twelve criteria, one verdict line each.

Each test recomputes its claim from scratch and ends with record_verdict,
which prints a single pass/fail line in the terminal summary and asserts.

* criterion 03 (baseline-column) checks the baseline against the printed
  table, whose delta=40 cell is corrected from 14.74 to 14.76: the printed
  eta 0.262 gives (1 - 0.262) * 20 = 14.76, and the test shows in exact
  arithmetic that 0.262 is the threshold rounded up (see table_reference).
* criterion 12b (p1-bound) is red on purpose and left failing rather than
  weakened. The 0.84 ceiling on P1 fails under the normal approximation as
  well as under exact binomial sums: at the top of the grid,
  alpha = eta * sqrt(delta) = 2 * sqrt(ln 2), exact P1 is 0.953 / 0.945 /
  0.941 / 0.939 for delta = 100 / 400 / 1600 / 6400, and the normal
  approximation gives 0.943 / 0.940 / 0.938 / 0.938. P1 exceeds 0.84 from
  alpha ~ 1.2-1.3 on, and at every certified point (0.956 / 0.946 / 0.939
  for delta = 40 / 100 / 400). Since 0.84 ~ Phi(1), the ceiling reads like a
  statement for alpha <~ 1; which range the paper meant is open. The
  companion theta bound (12a), which is what the downstream argument
  consumes, holds with a wide margin.
"""

import itertools
import json
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from conftest import record_verdict
from exact_reference import log_config_prob, sample_out_degree_configurations
from p1p3_identity import check_p1p3_identity
from solved_reference import bound_rhs
from table_reference import BASELINE_BOUND, BOUND, ETA, PAIR_WITNESSES, VACUOUS_PAIRS

from expander_bounds import (
    TWO_SQRT_LN2,
    alpha_trend,
    bollobas_eta,
    bollobas_threshold,
    brute_force_expansion,
    certificate_from_json,
    certificate_to_json,
    cut_state,
    derive_seed,
    local_descent,
    min_eta,
    sample_pairing,
    solve_one_sided,
    verify_certificate,
)
from expander_bounds.certifier import CertificateFormatError


def test_criterion_01_table_left_block(cert_cache):
    worst_dt = 0.0
    worst_eta = 0.0
    worst_wit = 0.0
    vacuous_ok = True
    for delta in range(4, 11):
        t0 = time.perf_counter()
        cert = min_eta(delta, margin=1e-6)
        worst_dt = max(worst_dt, time.perf_counter() - t0)
        cert_cache.put(cert, 1e-6)
        worst_eta = max(worst_eta, abs(cert.eta - ETA[delta]))
        vac = {(pb.d, pb.d_prime) for pb in cert.pair_bounds if pb.vacuous}
        vacuous_ok = vacuous_ok and vac == set(VACUOUS_PAIRS[delta])
        for pb in cert.pair_bounds:
            if pb.vacuous:
                continue
            wb, wg, wbp, wgp = PAIR_WITNESSES[delta][(pb.d, pb.d_prime)]
            for got, want in [
                (pb.side.beta, wb),
                (pb.side.gamma, wg),
                (pb.side_prime.beta, wbp),
                (pb.side_prime.gamma, wgp),
            ]:
                worst_wit = max(worst_wit, abs(got - want))
    ok = worst_eta <= 1e-3 and worst_wit <= 5e-5 and vacuous_ok and worst_dt < 1.0
    record_verdict(
        1,
        "table-left-block",
        ok,
        f"max eta err {worst_eta:.1e}, max witness err {worst_wit:.2e}, "
        f"slowest solve {worst_dt:.2f}s",
    )


def test_criterion_02_table_right_block(cert_cache):
    worst_eta = 0.0
    worst_bound = 0.0
    for delta in list(range(11, 21)) + [30, 40]:
        cert = cert_cache.get(delta)
        worst_eta = max(worst_eta, abs(cert.eta - ETA[delta]))
        worst_bound = max(worst_bound, abs(cert.expansion_bound - BOUND[delta]))
    ok = worst_eta <= 1e-3 and worst_bound <= 5e-3
    record_verdict(
        2,
        "table-right-block",
        ok,
        f"max eta err {worst_eta:.1e}, max bound err {worst_bound:.1e}",
    )


def _counting_excess(delta: int, x: str) -> Decimal:
    """delta * ((1-x)ln(1-x) + (1+x)ln(1+x)) - 4 ln 2 at the decimal x, to 50 digits.

    Its sign tells on which side of the counting threshold for delta the
    point lies: (1-x)lg(1-x) + (1+x)lg(1+x) rises strictly on (0, 1), and the
    threshold is where it equals 4/delta.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = 1 - Decimal(x), 1 + Decimal(x)
        return delta * (lo * lo.ln() + hi * hi.ln()) - 4 * Decimal(2).ln()


def test_criterion_03_baseline_column():
    off = {}
    for delta in sorted(ETA):
        got = bollobas_eta(delta)[1]
        if abs(got - BASELINE_BOUND[delta]) > 1e-3:
            off[delta] = (got, BASELINE_BOUND[delta])
    # The delta=40 cell was printed as 14.74. Without the program: the
    # threshold lies in (0.261, 0.262], so the baseline eta is 0.262 and the
    # bound is (1 - 0.262) * 20 = 14.76 exactly. The excesses are ~1e-2, far
    # above the ~1e-47 error of 50-digit logarithms, so their signs are sure.
    below, above = _counting_excess(40, "0.261"), _counting_excess(40, "0.262")
    bracket_ok = below < 0 < above and min(-below, above) > Decimal("1e-30")
    cell = (1 - Fraction("0.262")) * 20
    cell_ok = cell == Fraction("14.76") == Fraction(repr(BASELINE_BOUND[40]))
    detail = (
        (f"cells off by > 1e-3: {off}" if off else f"all {len(ETA)} cells reproduced")
        + f"; delta=40 cell {BASELINE_BOUND[40]} (printed 14.74): excess at "
        f"0.261 / 0.262 = {float(below):.2e} / {float(above):.2e}, "
        f"(1 - 0.262) * 20 = {float(cell)}"
    )
    record_verdict(3, "baseline-column", not off and bracket_ok and cell_ok, detail)


def test_criterion_04_strict_improvement(cert_cache):
    slack = min(
        cert_cache.get(d).expansion_bound - bollobas_eta(d)[1] for d in range(4, 41)
    )
    record_verdict(
        4,
        "strict-improvement",
        slack > 0.0,
        f"min improvement over delta=4..40 is {slack:.4f}",
    )


def test_criterion_05_closed_form_reduction():
    worst = 0.0
    for delta in range(3, 51):
        for eta in np.linspace(0.001, 0.999, 100):
            e = float(eta)
            closed = 1.0 - delta * (
                (1 + e) * math.log2(1 + e) + (1 - e) * math.log2(1 - e)
            ) / 4.0
            worst = max(worst, abs(bound_rhs(delta, delta, delta, e) - closed))
    record_verdict(
        5, "closed-form-reduction", worst <= 1e-9, f"max deviation {worst:.2e}"
    )


def test_criterion_06_tail_point_identity():
    rng = random.Random(20250814)
    worst = 0.0
    for _ in range(10_000):
        delta = rng.randint(2, 200)
        d = rng.randint(1, delta)
        gamma = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        worst = max(worst, check_p1p3_identity(delta, d, gamma))
    record_verdict(
        6, "tail-point-identity", worst <= 1e-12, f"max residual {worst:.2e}"
    )


def _tamper_value(key, value):
    """Replacement that makes the field inconsistent with the rest."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    try:
        x = float(value)
    except ValueError:
        return value + "x"
    if key in ("residual_mass", "residual_mean", "margin"):
        return format(1.0, ".16e")
    if x == 0.0:
        return format(0.1, ".16e")
    return format(x * 1.001, ".16e")


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path, node


def test_criterion_07_certificate_round_trip(cert_cache):
    verified = 0
    roundtrips_ok = True
    fields = 0
    uncaught = []
    for delta in range(4, 11):
        cert = cert_cache.get(delta)
        if verify_certificate(cert).passed:
            verified += 1
        text = certificate_to_json(cert)
        roundtrips_ok = roundtrips_ok and (
            certificate_to_json(certificate_from_json(text)) == text
        )
        doc = json.loads(text)
        for path, value in _leaf_paths(doc):
            fields += 1
            bad = json.loads(text)
            node = bad
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = _tamper_value(path[-1], value)
            try:
                report = verify_certificate(certificate_from_json(json.dumps(bad)))
            except CertificateFormatError:
                continue
            if report.passed:
                uncaught.append((delta, path))
    ok = verified == 7 and roundtrips_ok and fields > 200 and not uncaught
    record_verdict(
        7,
        "certificate-round-trip",
        ok,
        f"{verified}/7 verified, byte round-trip {'ok' if roundtrips_ok else 'BROKEN'}, "
        f"{fields} single-field tampers, uncaught={uncaught or 'none'}",
    )


def _consistent_configs(delta, n, u):
    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for s in comps(u, delta + 1):
        c = sum(i * x for i, x in enumerate(s))
        if delta * u - c < 0 or (delta * u - c) % 2:
            continue
        for sp in comps(n - u, delta + 1):
            if sum(i * x for i, x in enumerate(sp)) != c:
                continue
            if delta * (n - u) - c < 0 or (delta * (n - u) - c) % 2:
                continue
            out.append((s, sp))
    return out


def test_criterion_08_pairing_model_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    mass_ok = True
    support_ok = True
    draws = 10**6
    for ci, (delta, n) in enumerate([(1, 4), (3, 2), (2, 4)]):
        u = n // 2
        tally = sample_out_degree_configurations(
            delta, n, u, draws, seed=derive_seed(20240801, ci)
        )
        configs = _consistent_configs(delta, n, u)
        ps = [math.exp(log_config_prob(delta, n, s, sp)) for s, sp in configs]
        mass_ok = mass_ok and abs(math.fsum(ps) - 1.0) <= 1e-12
        support_ok = support_ok and set(tally) <= set(configs)
        for (s, sp), p in zip(configs, ps):
            obs = tally.get((s, sp), 0)
            se = math.sqrt(p * (1 - p) / draws)
            if se > 0:
                worst = max(worst, abs(obs / draws - p) / se)
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and mass_ok and support_ok and elapsed < 60.0
    record_verdict(
        8,
        "pairing-model-exactness",
        ok,
        f"worst deviation {worst:.2f} SE over 3 cases x {draws} draws, {elapsed:.0f}s",
    )


def test_criterion_09_local_optimality():
    mix = [(20, 50), (40, 40), (60, 30), (100, 25), (150, 12), (200, 10)]
    idx = 0
    violations = 0
    for delta in range(3, 9):
        for n, reps in mix:
            for _ in range(reps):
                rng = random.Random(derive_seed(991, idx))
                g = sample_pairing(delta, n, seed=rng.randrange(2**64))
                st = cut_state(g, set(rng.sample(range(n), n // 2)))
                trace: list[int] = []
                fin = local_descent(st, trace=trace)
                seq = [st.cut] + trace
                if any(b >= a for a, b in zip(seq, seq[1:])):
                    violations += 1
                if fin.d + fin.d_prime > delta + 1:
                    violations += 1
                idx += 1
    record_verdict(
        9,
        "local-optimality",
        idx == 1002 and violations == 0,
        f"{idx} descents, {violations} violations",
    )


def _best_over_all_starts(g):
    # A descent preserves |S| and the global ratio minimizer need not be
    # balanced, so exhaustive restarts must cover every size up to n/2.
    best = None
    for k in range(1, g.n // 2 + 1):
        for combo in itertools.combinations(range(g.n), k):
            e = local_descent(cut_state(g, set(combo))).expansion
            if best is None or e < best:
                best = e
    return best


def test_criterion_10_oracle_agreement(petersen):
    mismatches = 0
    idx = 0
    for n, reps in [(10, 20), (12, 20), (14, 10)]:
        for _ in range(reps):
            g = sample_pairing(3, n, seed=derive_seed(424242, idx), simple_only=True)
            if _best_over_all_starts(g) != brute_force_expansion(g)[0]:
                mismatches += 1
            idx += 1
    petersen_ok = brute_force_expansion(petersen) == (Fraction(1), (0, 1, 2, 3, 4))
    record_verdict(
        10,
        "oracle-agreement",
        mismatches == 0 and idx == 50 and petersen_ok,
        f"{mismatches}/{idx} disagreements, petersen i(G)=1 {'ok' if petersen_ok else 'WRONG'}",
    )


def test_criterion_11_asymptotic_trend():
    pts = alpha_trend([40, 60, 100, 200, 400], margin=1e-6)
    alphas = {p.delta: p.alpha for p in pts}
    gap = TWO_SQRT_LN2 - bollobas_threshold(10**4) * 100.0
    ok = (
        alphas[40] <= 1.615
        and max(alphas.values()) < 1.66511
        and 0.0 < gap <= 0.01
    )
    record_verdict(
        11,
        "asymptotic-trend",
        ok,
        f"alpha(40)={alphas[40]:.4f}, max alpha={max(alphas.values()):.4f}, "
        f"baseline gap at 1e4 = {gap:.1e}",
    )


_THETA_GRIDS = [(100, 240), (400, 240), (1600, 120), (6400, 80)]


def test_criterion_12a_theta_bound():
    worst = -1.0
    for delta, npts in _THETA_GRIDS:
        rt = math.sqrt(delta)
        for eta in np.linspace(0.001, 0.999, npts):
            pt = solve_one_sided(delta, float(eta))
            if pt.eta > pt.theta + 1.0 / (2.0 * rt):
                worst = max(worst, pt.theta * rt)
    record_verdict(
        12,
        "theta-bound",
        worst <= 0.52,
        f"max theta*sqrt(delta) = {worst:.5f} (limit 0.52)",
    )


def test_criterion_12b_p1_bound():
    worst = -1.0
    for delta, _ in _THETA_GRIDS:
        rt = math.sqrt(delta)
        hi = TWO_SQRT_LN2 / rt
        for eta in np.linspace(1e-4, hi * (1 - 1e-9), 50):
            worst = max(worst, solve_one_sided(delta, float(eta)).p1)
    record_verdict(
        12,
        "p1-bound",
        worst <= 0.84,
        f"max P1 = {worst:.5f} under exact binomial sums (claimed limit 0.84)",
    )
