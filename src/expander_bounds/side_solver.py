"""Per-side constraint solver for truncated out-degree profiles.

One side of a bisection with out-degree cap ``cap`` carries the weight family
``beta * gamma^i * C(delta, i)`` on out-degrees ``i in [0, cap]``. Two
constraints pin the two parameters: the weights must sum to 1 (mass) and
their mean must hit the per-vertex crossing budget ``t = (1 - eta) * delta /
2``. The map ``x = ln gamma -> mean`` is strictly increasing, so one root
solve in ``x`` finds gamma, after which ``beta = 1 / S0(gamma)`` normalizes
the mass.

One root finder (:func:`_solve_caps`) serves every caller. It solves many
caps together, of one degree or of many, each at its own ``eta`` (the
certifier's lock-step search solves the 495 certificate caps of the paper's
table in one call of 8 kernel passes, against 228 one degree at a time),
each pass one call of the moment kernel
(``combinatorics.truncated_log_moments``), by a safeguarded
Newton iteration on the log-odds of the mean, ``phi(x) = ln(mean / gap) -
ln(t / (cap - t))`` with ``gap = cap - mean``. ``phi`` is linear in ``x``
without a cap and close to linear at both ends with one (where the cap pins
the mean, the gap falls like ``e^-x``), and the kernel sums the gap
directly, so ``phi`` stays accurate where ``cap - t`` is a few ulp of
``cap``. Every cap of the test grids, the paper's table, the trend and the
one-sided grid converges within 4 passes. The one-sided system in
``asymptotics`` is this mean constraint at cap ``delta / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import (
    _EXP_ZERO_LOG,
    _checked_caps,
    _checked_reals,
    _in_runs,
    _layout,
    _log_binomials,
    truncated_log_moments,
)

__all__ = [
    "BetaUnderflow",
    "InfeasibleTarget",
    "SideSolution",
    "profile_residuals",
    "solve_side",
    "target_mean",
]

_UNIT_ROUNDOFF = 2.0**-53
# A cap's iteration stops once |phi| is below this many ulp of the magnitude
# of its largest log term, ``cap (1 + |x|) + ln C(delta, cap)``: there the
# rounding of the kernel's terms, not the distance to the root, decides phi's
# value.
_PHI_NOISE = 8.0 * _UNIT_ROUNDOFF
# Every cap of every test grid converges within 4 passes; a solve that has
# not after this many raises RuntimeError.
_MAX_PASSES = 40


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

    The fields but ``log_s0`` are exactly those a ``cert-v1`` side stores. The
    residuals are produced by the same direct summation an external verifier
    runs, so they measure the artifact numbers, not internal solver state.
    ``log_s0``, the root solve's ``ln S0`` at ``gamma`` (``beta = e^-ln S0``),
    gives the builder's exponent; it is None on a side read from a file.
    """

    delta: int
    cap: int
    eta: float
    beta: float
    gamma: float
    residual_mass: float
    residual_mean: float
    log_s0: float | None = field(default=None, compare=False, repr=False)


def profile_residuals(delta, caps, eta, betas,
                      gammas) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two side constraints of each cap at its (beta, gamma).

    Entry ``k`` is ``(|sum_i w_i - 1|, |sum_i i * w_i - target|)`` for ``w_i =
    betas[k] * gammas[k]^i * C(delta, i)``, i = 0..caps[k], each plus an
    allowance for the rounding of that float sum, so they bound the residuals
    of the exact sums at the given doubles. ``delta`` and ``eta`` are one
    value for every cap or sequences of one per cap. One pass over the
    kernel's flat layout, reduced per segment: a cap's residuals do not
    depend on the other caps. Raises ValueError unless there is one beta and
    one gamma per cap, each a real number (not a string), finite and
    positive, each delta >= 1 and every cap lies in [0, its delta].
    """
    delta, caps = _checked_caps(delta, caps)
    beta = _checked_reals(betas, len(caps), "beta")
    gamma = _checked_reals(gammas, len(caps), "gamma")
    t = target_mean(*(v if isinstance(v, (int, float)) else np.array(v, dtype=float)
                      for v in (delta, eta)))
    return _in_runs(_residuals, delta, caps, beta, gamma, np.full(len(caps), t))


def _residuals(delta, caps: tuple[int, ...], beta, gamma, t) -> tuple:
    """:func:`profile_residuals` on checked inputs, in one flat pass."""
    starts, seg, idx, row, weights = _layout(delta, caps)
    log_beta, log_gamma = np.log(beta), np.log(gamma)
    if seg is not None:
        log_beta, log_gamma = log_beta[seg], log_gamma[seg]
    # A huge gamma overflows weights to inf, which the residuals then report.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.zeros((4, idx.size))
        w = sums[0]
        log_w = log_beta + idx * log_gamma + row
        np.exp(log_w, out=w, where=log_w > _EXP_ZERO_LOG)
        np.multiply(idx, w, out=sums[1])
        # Relative error of each float weight plus its share of the summation
        # error, with log and exp within one ulp, ln C(delta, i) within
        # u * (i + 4 ln C(delta, i)) (i rounded terms, compensated sum), and
        # each sum within (cap + 1) * u of its total; cap = i + j.
        rel = 5.0 * _UNIT_ROUNDOFF * (np.abs(log_beta) + idx * (np.abs(log_gamma) + 1.0)
                                      + row + (weights[0] + weights[1] + 1.0))
        np.multiply(w, rel, out=sums[2])
        np.multiply(idx, sums[2], out=sums[3])
        mass, weighted, slack, slack_i = np.add.reduceat(sums, starts, axis=1)
        return np.abs(mass - 1.0) + slack, np.abs(weighted - t) + slack_i


def _root_x_upper(delta, cap, t):
    """``xg = ln(cap / (delta - cap + 1)) - ln(s / (1 + s))``, ``s = cap - t``:
    an upper bound on the root ``x* = ln gamma`` of ``mean = t`` at a cap
    above ``t``, elementwise over float arrays of caps (and of their degrees
    and targets), the one root bound of the root finder and the certifier's
    screen.

    Going down from the cap, the profile's term ratios ``w_{i-1} / w_i = i
    e^-x / (delta - i + 1)`` start at ``r = cap e^-x / (delta - cap + 1)``
    and fall. So ``cap - i`` is below, in likelihood ratio, the geometric law
    with ratio ``r``, and ``gap = cap - mean`` is at most that law's mean
    ``r / (1 - r)``, which is ``s`` at ``xg``. The mean rises with ``x``, so
    it is at least ``t`` at ``xg``, and ``x* <= xg``. Callers take the larger
    of ``xg`` and the uncapped root ``x0 = ln(t / (delta - t))``, which is
    below ``x*`` as the cap only lowers the mean, against rounding.
    """
    s = cap - t
    return np.log(cap / (delta - cap + 1.0)) - (np.log(s) - np.log1p(s))


def _solve_caps(delta, caps, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gamma, x, ln S0)`` per cap: the witness at the root of ``mean =
    target_mean(delta, eta)``, numpy's ``ln gamma`` and the kernel's ``ln S0``
    there, which a verifier recomputes from the stored ``gamma`` bit for bit.
    ``delta`` and ``eta`` are one value for every cap, or sequences of one
    per cap, so one call solves the caps of many degrees.

    Each cap's bracket ``[a, b]`` starts at the uncapped root ``x0 = ln(t /
    (delta - t))`` and at the bound ``xg`` of :func:`_root_x_upper`. ``x0``
    is close to the root where the cap binds little, ``xg`` where it pins
    the mean (within about ``s = cap - t``); the first pass
    evaluates both where the cap can bind, and the first step goes to the
    root of the cubic that matches ``x`` as a function of ``phi``, and its
    slope, at both ends (inverse Hermite interpolation), which saves the
    paper's table one pass of five per degree. Later passes take the Newton
    step, or bisect where it leaves the bracket, and move an end of the
    bracket by the sign of ``phi``. A cap stops once ``|phi|`` is within
    ``_PHI_NOISE`` of its largest log term or its bracket is a few ulp wide,
    and then keeps its ``x``, so its result does not depend on the other
    caps, nor on their degrees: each degree's scalars come from ``math`` as
    in a call of its own. Raises InfeasibleTarget, naming the first cap,
    when a target mean is not in (0, cap).
    """
    delta, caps = _checked_caps(delta, caps)
    n = len(caps)
    deltas = (delta,) * n if isinstance(delta, int) else delta
    etas = (eta,) * n if isinstance(eta, (int, float)) else tuple(eta)
    ts = [target_mean(d, e) for d, e in zip(deltas, etas)]
    for cap, d, e, t in zip(caps, deltas, etas, ts):
        if not 0.0 < t < cap:
            raise InfeasibleTarget(
                f"target mean {t!r} outside (0, {cap}) for delta={d}, eta={e!r}")
    # a long list goes through in runs, each solved to the end before the next
    return _in_runs(_solve_run, delta, caps, np.array(ts))


def _solve_run(delta, caps: tuple[int, ...], t: np.ndarray) -> tuple:
    """:func:`_solve_caps` on checked, feasible caps, ``t`` the target of each."""
    n, c = len(caps), np.array(caps, dtype=float)
    one = isinstance(delta, int)
    # ln t, x0 and the uncapped standard deviation, from math per (delta, t)
    keys = list(zip((delta,) * n if one else delta, t.tolist()))
    scalars = {(d, tk): (math.log(tk), math.log(tk / (d - tk)), math.sqrt(tk * (d - tk) / d))
               for d, tk in set(keys)}
    log_t, x0, sd = (scalars[keys[0]] if len(scalars) == 1 else
                     np.array([scalars[key] for key in keys]).T)
    s = c - t
    log_odds = log_t - np.log(s)
    xg = np.maximum(_root_x_upper(delta if one else np.array(delta, dtype=float), c, t), x0)
    scale = np.maximum(np.abs(x0), np.abs(xg))
    noise = _PHI_NOISE * (c * (1.0 + scale) + _log_binomials(delta, list(caps)))
    width = 8.0 * _UNIT_ROUNDOFF * scale
    # First pass: x0 for every cap, and xg where the cap can bind; more than
    # ten standard deviations above the target, x0 is the root to rounding.
    near = np.flatnonzero(s <= 10.0 * sd + 1.0)
    ends = np.concatenate((np.arange(n), near))
    gamma = np.exp(np.concatenate((np.full(n, x0), xg[near])))
    log_s0, mean, gap, var = truncated_log_moments(
        delta if one else [delta[k] for k in ends], [caps[k] for k in ends], gamma)
    x = np.log(gamma)
    phi = np.log(mean / gap) - log_odds[ends]
    slope = var * c[ends] / (mean * gap)
    xa, xb, pa, pb, sa, sb = x[:n], x[n:], phi[:n], phi[n:], slope[:n], slope[n:]
    a, b, nxt, done = xa.copy(), xg, xa - pa / sa, np.abs(pa) <= noise
    xa, pa, sa = xa[near], pa[near], sa[near]
    span = pb - pa  # the inverse Hermite step
    u = -pa / span
    nxt[near] = xa + (xb - xa) * u * u * (3.0 - 2.0 * u) + span * u * (1.0 - u) * (
        (1.0 - u) / sa - u / sb)
    # phi(xg) < 0 only by rounding: then xg is the root, and the bracket closes
    at_b = (pb < 0.0) | (np.abs(pb) <= noise[near])
    a[near], b[near] = np.where(pb < 0.0, xb, xa), xb
    done[near] |= at_b
    for v in (gamma, x, log_s0):
        v[near[at_b]] = v[n:][at_b]
    gamma, x, log_s0 = gamma[:n], x[:n], log_s0[:n]
    passes = 1
    while not done.all():
        if passes == _MAX_PASSES:
            raise RuntimeError(f"no root after {passes} passes: delta={delta}, caps={caps}")
        nxt = np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b))
        gamma = np.where(done, gamma, np.exp(nxt))
        log_s0, mean, gap, var = truncated_log_moments(delta, caps, gamma)
        passes += 1
        x = np.log(gamma)
        phi = np.log(mean / gap) - log_odds
        a = np.where(phi < 0.0, x, a)
        b = np.where(phi > 0.0, x, b)
        done |= (np.abs(phi) <= noise) | (b - a <= width)
        nxt = x - phi * (mean * gap) / (var * c)
    return gamma, x, log_s0


def solve_side(delta: int, cap, eta: float):
    """Solve the mass and mean constraints for one side at out-degree cap ``cap``.

    Solves ``mean(gamma) = target_mean(delta, eta)`` with the root finder
    :func:`_solve_caps`, takes ``beta = 1 / S0`` from its ``ln S0`` and the
    residuals from :func:`profile_residuals`. ``cap`` may also be a sequence
    of caps, all solved in one call and one residual pass, for a list of
    SideSolutions in their order, each the one its cap gets alone
    (:func:`_side_solutions`, which the certifier calls with the caps of
    many degrees). Identical inputs give bit-identical outputs.

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
    caps = (cap,) if isinstance(cap, int) else tuple(cap)
    if not caps or not all(isinstance(c, int) and 1 <= c <= delta for c in caps):
        raise ValueError("cap must be an integer in [1, delta]")
    if not isinstance(eta, (int, float)) or not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    sides = _side_solutions(delta, caps, eta)
    for side in sides:
        if isinstance(side, BetaUnderflow):
            raise side
    return sides[0] if isinstance(cap, int) else sides


def _side_solutions(delta, caps, eta) -> list:
    """Each cap's SideSolution, or the BetaUnderflow its ``beta`` raises, from
    one :func:`_solve_caps` call and one residual pass over the caps whose
    ``beta`` is a double; ``delta`` and ``eta`` as :func:`_solve_caps` takes
    them, one value or one per cap."""
    gamma, _, log_s0 = _solve_caps(delta, caps, eta)
    n = len(caps)
    beta = np.exp(-log_s0)
    kept = np.flatnonzero(beta)
    mass, mean = np.zeros((2, n))
    if kept.size:
        mass[kept], mean[kept] = profile_residuals(
            *((delta, caps, eta) if kept.size == n else (
                v if isinstance(v, (int, float)) else [v[k] for k in kept]
                for v in (delta, caps, eta))), beta[kept], gamma[kept])
    values = zip((delta,) * n if isinstance(delta, int) else delta, caps,
                 (eta,) * n if isinstance(eta, (int, float)) else eta,
                 *(v.tolist() for v in (beta, gamma, mass, mean, log_s0)))
    return [SideSolution(d, c, float(e), *rest) if rest[0] > 0.0 else
            BetaUnderflow(f"beta underflows for delta={d}, cap={c}, eta={e}: "
                          f"log beta = {-rest[-1]:.1f}")
            for d, c, e, *rest in values]
