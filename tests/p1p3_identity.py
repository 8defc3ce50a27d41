"""The shifted-cumulative identity behind the one-sided reduction in
`asymptotics`, checked term by term: the tests' oracle for it."""

from __future__ import annotations

import math

from expander_bounds import binomial_log_row


def check_p1p3_identity(delta: int, d: int, gamma: float) -> float:
    """Absolute residual of P1 = P2 + ((delta - d)/delta) * P3.

    The three probabilities are expanded into their binomial terms and the
    whole signed collection is added in one exactly-rounded summation, so the
    returned residual measures only the per-term evaluation error (well below
    1e-12), not cancellation noise.
    """
    if not isinstance(delta, int) or delta < 1:
        raise ValueError("delta must be a positive integer")
    if not isinstance(d, int) or not 1 <= d <= delta:
        raise ValueError("need 1 <= d <= delta")
    if not gamma > 0.0 or not math.isfinite(gamma):
        raise ValueError("gamma must be a positive finite real")
    log_p = math.log(gamma) - math.log1p(gamma)
    log_q = -math.log1p(gamma)

    def term(n: int, k: int) -> float:
        log_c = float(binomial_log_row(n)[k])
        return math.exp(log_c + k * log_p + (n - k) * log_q)

    signed = [term(delta, i) for i in range(d + 1)]
    signed.extend(-term(delta - 1, i) for i in range(d))
    signed.append(-((delta - d) / delta) * term(delta, d))
    return abs(math.fsum(signed))
