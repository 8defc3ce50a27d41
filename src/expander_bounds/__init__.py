"""Certified lower bounds on the edge expansion of random regular multigraphs.

The library has two halves. The analytic half (combinatorics, side_solver,
certifier, asymptotics) computes, for each degree, the smallest cut
deficiency eta at which the expected number of locally capped bisections
decays exponentially, turning it into the bound expansion >= (1-eta)*delta/2
together with a recheckable certificate. The empirical half (graphlab) is a
pairing-model laboratory: seeded samplers, exact cut bookkeeping, swap-based
local improvement, and a brute-force expansion oracle for small graphs.

Each module's `__all__` is its public surface; the package re-exports their
union.
"""

from . import asymptotics, certifier, combinatorics, graphlab, side_solver
from .asymptotics import *
from .certifier import *
from .combinatorics import *
from .graphlab import *
from .side_solver import *

__version__ = "0.1.0"

__all__ = sorted(
    asymptotics.__all__
    + certifier.__all__
    + combinatorics.__all__
    + graphlab.__all__
    + side_solver.__all__
)
