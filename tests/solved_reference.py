"""The solved reference the search and the verifier are checked against:
a pair's exponent from two full side solves, and the search condition read
off every pair solved in full."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from expander_bounds import BetaUnderflow, PairBound, certifier, side_solver, solve_side


def bound_rhs(delta: int, d: int, d_prime: int, eta: float) -> float:
    """Growth exponent for out-degree caps (d, d_prime) at crossing level eta.

    Solves both sides from scratch; raises InfeasibleTarget when the target
    mean is not attainable under either cap.
    """
    side = solve_side(delta, d, eta)
    side_prime = side if d_prime == d else solve_side(delta, d_prime, eta)
    (rhs,) = certifier._pair_exponents(delta, eta, [(d, side.gamma, d_prime, side_prime.gamma)])
    return rhs


def certifies(pair_bounds: Iterable[PairBound], margin: float) -> bool:
    """True when at least one pair is feasible and every feasible pair's
    growth exponent is at most -margin; stops at the first failing pair."""
    any_feasible = False
    for pb in pair_bounds:
        if pb.vacuous:
            break
        if pb.rhs > -margin:
            return False
        any_feasible = True
    return any_feasible


def solved_witness(delta: int, cap: int, eta: float) -> tuple[float, float]:
    """``(ln beta, gamma)`` of one side from the root finder, raising
    BetaUnderflow where ``beta`` underflows, as a search probe reads it."""
    (gamma,), _, (log_s0,) = side_solver._solve_caps(delta, (cap,), eta)
    if np.exp(-log_s0) == 0.0:
        raise BetaUnderflow(f"beta underflows for delta={delta}, cap={cap}, eta={eta}")
    return -float(log_s0), float(gamma)
