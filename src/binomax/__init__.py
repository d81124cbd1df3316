"""binomax: exact and stochastic cross-checking of a family of binomial
identities tied to maxima of exponential random variables.

Four independent evaluation routes are provided for the same quantities:
exact rational arithmetic, exact jet (truncated Taylor) differentiation,
adaptive numerical quadrature, and seeded Monte Carlo simulation.  The
library's value is the cross-checks between them.

The package namespace holds the names of the README's quick tour; every
other name lives in its submodule (``binomax.exact``, ``binomax.jets``,
``binomax.identities``, ``binomax.quadrature``, ``binomax.montecarlo``,
``binomax.errors``).
"""

from .identities import (
    IdentityId,
    IdentityParams,
    VerificationReport,
    eval_basic_lhs,
    eval_basic_rhs,
    eval_f_jet,
    sweep,
    tail_prob_exact,
    verify,
)
from .montecarlo import RngConfig, estimate_tail_prob
from .quadrature import laplace_via_density_quadrature

__version__ = "0.1.0"

__all__ = [
    "IdentityId", "IdentityParams", "VerificationReport", "sweep", "verify",
    "eval_basic_lhs", "eval_basic_rhs", "eval_f_jet", "tail_prob_exact",
    "laplace_via_density_quadrature", "RngConfig", "estimate_tail_prob",
]
