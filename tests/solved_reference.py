"""The solved reference the search and the verifier are checked against:
a pair's exponent from two full side solves, and the search condition read
off every pair solved in full."""

from __future__ import annotations

from typing import Iterable

from expander_bounds import PairBound, certifier, solve_side


def bound_rhs(delta: int, d: int, d_prime: int, eta: float) -> float:
    """Growth exponent for out-degree caps (d, d_prime) at crossing level eta.

    Solves both sides from scratch; raises InfeasibleTarget when the target
    mean is not attainable under either cap.
    """
    side = solve_side(delta, d, eta)
    side_prime = side if d_prime == d else solve_side(delta, d_prime, eta)
    return certifier._pair_rhs(delta, eta, d, side.gamma, d_prime, side_prime.gamma)


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
