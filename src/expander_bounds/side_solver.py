"""Per-side constraint solver for truncated out-degree profiles.

One side of a bisection with out-degree cap ``cap`` carries the weight family
``beta * gamma^i * C(delta, i)`` on out-degrees ``i in [0, cap]``. Two
constraints pin the two parameters: the weights must sum to 1 (mass) and
their mean must hit the per-vertex crossing budget ``(1 - eta) * delta / 2``.
The map ``x = ln gamma -> mean`` is strictly increasing, so one bracketed
root solve in ``x`` finds gamma, after which ``beta = 1 / S0(gamma)``
normalizes the mass. The uncapped binomial root is always a lower bracket,
because truncation only lowers the mean; an upper bracket is grown from it by
doubling steps and the bracket is then closed by Brent's method. The same
root solve serves the one-sided system in ``asymptotics``, whose fixed point
is this mean constraint at cap ``delta / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import _profile_view, truncated_log_moments

__all__ = [
    "BetaUnderflow",
    "InfeasibleTarget",
    "SideSolution",
    "profile_residuals",
    "solve_side",
    "target_mean",
]

# The root solve stops when the bracket in x = ln gamma has shrunk to this
# width, i.e. when the gamma bracket is this narrow relative to its upper end.
_REL_WIDTH = 1e-13
# Doubling steps of 1, 2, 4, ... in x: nine of them reach 511 past the
# uncapped root, far beyond any gamma a pinned double mean can need and still
# inside exp's range.
_MAX_BRACKET_STEPS = 9
_UNIT_ROUNDOFF = 2.0**-53


class InfeasibleTarget(ValueError):
    """No profile supported on {0..cap} can average the requested mean."""


class BetaUnderflow(ValueError):
    """The normalizer 1/S0 is too small for a double.

    Happens when the cap pins the mean (target mean a hair below the cap at
    large delta), which drives gamma and log S0 past what a double can carry
    as a plain beta.  The pair's growth exponent is still finite there, but
    no witness can be reported, so certifier probes treat the eta as failed.
    That is conservative: it can only push the certified eta upward. The
    rounded eta can land on such a cap too (delta = 308 at margin 1e-6
    rounds to 0.091, which underflows); `certifier.min_eta` then bumps it
    up the grid, as its docstring describes.
    """


def target_mean(delta: int, eta: float) -> float:
    """Required mean out-degree per side, (1 - eta) * delta / 2."""
    return (1.0 - eta) * delta / 2.0


@dataclass(frozen=True)
class SideSolution:
    """Solved (beta, gamma) for one side, with independently recheckable residuals.

    The fields are exactly those a ``cert-v1`` side stores. The residuals are
    produced by the same direct summation an external verifier runs, so they
    measure the artifact numbers, not internal solver state.
    """

    delta: int
    cap: int
    eta: float
    beta: float
    gamma: float
    residual_mass: float
    residual_mean: float


def profile_residuals(
    delta: int, cap: int, eta: float, beta: float, gamma: float
) -> tuple[float, float]:
    """Residuals of the two side constraints at the given (beta, gamma).

    Returns ``(|sum_i w_i - 1|, |sum_i i * w_i - target|)`` for
    ``w_i = beta * gamma^i * C(delta, i)``, summed directly over i = 0..cap,
    each plus an allowance for the rounding error of that float summation.
    So the residuals bound those of the exact sums at the given doubles
    instead of understating them by a few ulp of ``ln beta``. Raises
    ValueError unless beta and gamma are finite and positive, delta >= 1 and
    cap lies in [0, delta].
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be a finite positive real")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("gamma must be a finite positive real")
    row, idx = _profile_view(delta, cap)
    log_beta, log_gamma = math.log(beta), math.log(gamma)
    # A huge gamma overflows weights to inf, which the residuals then report.
    with np.errstate(over="ignore"):
        weights = np.exp(log_beta + idx * log_gamma + row)
    mass = float(np.add.reduce(weights))
    weighted = float(idx.dot(weights))
    # Relative error of each float weight plus its share of the summation
    # error, with log and exp within one ulp, ln C(delta, i) within
    # u * (i + 4 ln C(delta, i)) (i rounded terms, compensated sum), and each
    # sum within (cap + 1) * u of its total.
    rel = 5.0 * _UNIT_ROUNDOFF * (
        abs(log_beta) + idx * (abs(log_gamma) + 1.0) + row + (cap + 1)
    )
    slack = weights * rel
    return (
        abs(mass - 1.0) + float(np.add.reduce(slack)),
        abs(weighted - target_mean(delta, eta)) + float(idx.dot(slack)),
    )


def _bracket(delta: int, cap: int, target: float, probe):
    """Bracket the root of ``probe`` starting at the uncapped binomial root.

    Returns ``(lo, f_lo, hi, f_hi)`` with ``f_lo <= 0 <= f_hi``.
    """
    x0 = math.log(target / (delta - target))
    f0 = probe(x0)
    # Truncation only lowers the mean, so f0 <= 0 unless cap = delta, where
    # x0 is the root itself and rounding may put f0 a hair above zero.
    sign = 1.0 if f0 <= 0.0 else -1.0
    near, f_near, step = x0, f0, 1.0
    for _ in range(_MAX_BRACKET_STEPS):
        far = near + sign * step
        f_far = probe(far)
        if sign * f_far >= 0.0:
            if sign > 0.0:
                return near, f_near, far, f_far
            return far, f_far, near, f_near
        near, f_near, step = far, f_far, 2.0 * step
    raise RuntimeError(
        f"gamma bracket failed to reach the target mean for delta={delta}, cap={cap}"
    )


def _brent(probe, a: float, fa: float, b: float, fb: float) -> float:
    """Brent's root finder on a sign-changing bracket [a, b] of ``probe``.

    Inverse quadratic or secant steps while they stay inside the bracket and
    shrink it fast enough, bisection otherwise (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4). Stops once the bracket
    is ``_REL_WIDTH`` wide and returns its end with the smaller residual.
    """
    c, fc = b, fb
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 4.0 * _UNIT_ROUNDOFF * abs(b) + 0.5 * _REL_WIDTH
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = probe(b)


def _solve_log_gamma(delta: int, cap: int, eta: float) -> tuple[float, float]:
    """Root ``x = ln gamma`` of ``mean(gamma) = target_mean(delta, eta)`` at cap ``cap``.

    Returns ``(x, ln S0(e^x))``. The uncapped binomial root
    ``ln(t / (delta - t))`` is a lower bracket, an upper one is grown by
    doubling steps in ``x``, and Brent's method closes the bracket to width
    1e-13. Every evaluation goes through :func:`truncated_log_moments`.

    Raises InfeasibleTarget when the target mean falls outside (0, cap).
    """
    target = target_mean(delta, eta)
    if not 0.0 < target < cap:
        raise InfeasibleTarget(
            f"target mean {target!r} outside (0, {cap}) for delta={delta}, eta={eta!r}"
        )

    log_s0_at: dict[float, float] = {}

    def probe(x: float) -> float:
        log_s0, _, mean = truncated_log_moments(delta, cap, math.exp(x))
        log_s0_at[x] = log_s0
        return mean - target

    x = _brent(probe, *_bracket(delta, cap, target, probe))
    return x, log_s0_at[x]


def _solve_witness(delta: int, cap: int, eta: float) -> tuple[float, float]:
    """``(ln beta, gamma)`` for one side: :func:`_solve_log_gamma` and the
    underflow test of :func:`solve_side`, without residuals or validation.

    Raises BetaUnderflow when ``beta = 1 / S0`` underflows a double.
    """
    x, log_s0 = _solve_log_gamma(delta, cap, eta)
    log_beta = -log_s0
    if math.exp(log_beta) == 0.0:
        # S0 past the double range: the caller gets a diagnosis instead of a
        # zero-beta witness.
        raise BetaUnderflow(
            f"beta underflows for delta={delta}, cap={cap}, eta={eta}: "
            f"log beta = {log_beta:.1f}"
        )
    return log_beta, math.exp(x)


def solve_side(delta: int, cap: int, eta: float) -> SideSolution:
    """Solve the mass and mean constraints for one side at out-degree cap ``cap``.

    Solves ``mean(gamma) = target_mean(delta, eta)`` in ``x = ln gamma`` with
    :func:`_solve_log_gamma`, and takes ``beta`` from the evaluation at the
    returned gamma (:func:`_solve_witness`). That is about eight moment
    evaluations per call: 7.8 on the paper's table (3,867 over 495 calls)
    and 8.5 on the large-degree trend (621 over 73). The ``eta`` search
    itself solves almost no cap: ``certifier._satisfied`` decides nearly
    every pair from bounds. The whole procedure is deterministic: identical
    inputs give bit-identical outputs.

    Raises
    ------
    InfeasibleTarget
        When the target mean falls outside (0, cap). A profile supported on
        {0..cap} has mean strictly below cap and strictly above 0, so both
        boundary values are rejected.
    BetaUnderflow
        When ``beta = 1 / S0`` underflows a double (cap pinned at the mean).
    """
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not isinstance(cap, int) or not 1 <= cap <= delta:
        raise ValueError("cap must be an integer in [1, delta]")
    if not isinstance(eta, (int, float)) or not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    log_beta, gamma = _solve_witness(delta, cap, eta)
    beta = math.exp(log_beta)
    residual_mass, residual_mean = profile_residuals(delta, cap, eta, beta, gamma)
    return SideSolution(
        delta=delta,
        cap=cap,
        eta=float(eta),
        beta=beta,
        gamma=gamma,
        residual_mass=residual_mass,
        residual_mean=residual_mean,
    )

