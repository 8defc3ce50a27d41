"""One-sided-cap analysis: binomial reformulation, theta correction, alpha trend.

Capping the out-degree profile on one side only (at d = delta/2, leaving the
other side uncapped) turns the two profile constraints into statements about
binomial probabilities at parameter p = gamma / (gamma + 1):

    beta * (gamma + 1)^delta * P1          = 1
    beta * gamma * (gamma + 1)^(delta-1) * P2 = (1 - eta) / 2

with P1 = Pr[B(delta, p) <= d] and P2 = Pr[B(delta - 1, p) <= d - 1]. The
exact identity P1 = P2 + ((delta - d)/delta) * P3, where P3 is the point mass
at d, eliminates P2 and yields a scalar fixed point for gamma. Because the
capped mean is delta * p * (1 - theta), that fixed point is the per-side mean
constraint at cap d, so gamma is found by the side solver's root finder in
ln gamma; this module runs no iteration of its own.

With beta = 1/S0, the solve's own normaliser, the first equation reads
P1 = S0(gamma) / (1 + gamma)^delta, and P3 = C(delta, d) gamma^d /
(1 + gamma)^delta, so P1 and P3 come from the solve's ln S0 and ln C(delta,
d), read off the binomial row the solve has built, and the identity gives
P2. No tail is summed and no normal approximation is made; the tests hold
these against exact tails and point masses summed term by term
(`tests/exact_reference.py`). The headline quantity is alpha = eta *
sqrt(delta), compared against the classical constant 2*sqrt(ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

from .certifier import (
    DEFAULT_MARGIN,
    DEFAULT_PRECISION,
    NoBound,
    _certificates,
    verify_certificate,
)
from .combinatorics import binomial_log_row
from .side_solver import _solve_caps

__all__ = [
    "AsymptoticPoint",
    "TWO_SQRT_LN2",
    "alpha_trend",
    "solve_one_sided",
]

TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))


@dataclass(frozen=True)
class AsymptoticPoint:
    """Solved one-sided-cap state at (delta, eta) with cap d.

    p is the binomial parameter gamma / (gamma + 1); p1, p2, p3 are the
    cumulative, shifted-cumulative, and point binomial probabilities at the
    cap, read off the root solve (see :func:`solve_one_sided`); theta =
    ((delta - d)/delta) * p3 / p1, evaluated in logs, is the correction that
    separates the capped system from the closed-form uncapped one; alpha is
    eta * sqrt(delta).
    """

    delta: int
    d: int
    eta: float
    gamma: float
    p: float
    p1: float
    p2: float
    p3: float
    theta: float
    alpha: float


def solve_one_sided(
    delta: int, eta: float, d: int | None = None
) -> AsymptoticPoint:
    """Solve the one-sided-cap fixed point gamma = (1 - eta)/(1 + eta - 2*theta).

    The cap is d = delta/2 (delta must be even); d is overridable for
    diagnostics such as the cap-removed limit d = delta, where theta carries
    the factor (delta - d)/delta = 0 and gamma collapses to the closed form
    (1 - eta)/(1 + eta).

    Since the capped mean is delta * p * (1 - theta), the fixed point is the
    per-side mean constraint mean(gamma) = (1 - eta) * delta / 2 at cap d, so
    gamma comes from the side solver's root finder in ln gamma, one cap in
    one call.
    theta = ((delta - d)/delta) * C(delta, d) * gamma^d / S0(gamma) is then
    evaluated in logs, which stays finite where P1 underflows.

    The probabilities take no further sum. With L = delta ln(1 + gamma),
    P1 = exp(ln S0 - L) and P3 = exp(ln C(delta, d) + d ln gamma - L), each
    clamped to at most 1, and P2 = P1 - ((delta - d)/delta) * P3, clamped to
    at least 0. ln C(delta, d) is entry d of ``binomial_log_row(delta)``,
    the row the root solve reads, accurate to a few ulp at every delta, so
    they agree with the exact tails and point mass to about 1e-12 relative.

    Raises InfeasibleTarget (a ValueError) when the target mean is not below
    the cap d.
    """
    if not isinstance(delta, int) or delta < 2 or delta % 2 != 0:
        raise ValueError("delta must be a positive even integer >= 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if d is None:
        d = delta // 2
    if not isinstance(d, int) or not 1 <= d <= delta:
        raise ValueError("need 1 <= d <= delta")

    if d == delta:
        # nothing is cut off, so S0 is the whole binomial sum (1 + gamma)^delta
        gamma = (1.0 - eta) / (1.0 + eta)
        x, log_s0 = math.log(gamma), delta * math.log1p(gamma)
    else:
        (gamma,), (x,), (log_s0,) = (v.tolist() for v in _solve_caps(delta, (d,), eta))
    frac = (delta - d) / delta
    log_top = float(binomial_log_row(delta)[d]) + d * x
    theta = frac * math.exp(log_top - log_s0)
    log_all = delta * math.log1p(gamma)
    p1 = min(1.0, math.exp(log_s0 - log_all))
    p3 = min(1.0, math.exp(log_top - log_all))
    return AsymptoticPoint(
        delta=delta,
        d=d,
        eta=eta,
        gamma=gamma,
        p=gamma / (gamma + 1.0),
        p1=p1,
        p2=max(0.0, p1 - frac * p3),
        p3=p3,
        theta=theta,
        alpha=eta * math.sqrt(delta),
    )


def alpha_trend(
    delta_list: list[int],
    margin: float = DEFAULT_MARGIN,
    precision: int = DEFAULT_PRECISION,
) -> list[AsymptoticPoint]:
    """Certified eta and alpha = eta * sqrt(delta) for each even degree given.

    Each entry runs the full certification search and then solves the
    one-sided system at the certified eta, so the returned points carry the
    binomial diagnostics alongside alpha. Compare alpha against TWO_SQRT_LN2.
    The searches of all the degrees run in lock-step
    (``certifier._certificates``), each giving what ``min_eta`` gives.
    Raises NoBound when a degree has no bound or the verifier rejects its
    certificate, naming the degree and the failed checks; the degrees are
    checked in order, and the first that fails raises.
    """
    def even(delta) -> bool:
        return isinstance(delta, int) and delta >= 4 and delta % 2 == 0

    certs = iter(_certificates(list(takewhile(even, delta_list)), margin, precision))
    points = []
    for delta in delta_list:
        if not even(delta):
            raise ValueError("alpha_trend requires even degrees >= 4")
        cert = next(certs)
        if isinstance(cert, NoBound):
            raise cert
        failures = verify_certificate(cert).failures()
        if failures:
            names = ", ".join(f.name for f in failures)
            raise NoBound(f"certificate for delta={delta} fails {names}")
        points.append(solve_one_sided(delta, cert.eta))
    return points
