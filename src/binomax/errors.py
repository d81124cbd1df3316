"""Exception types shared across the package.

Most are thin ValueError subclasses so callers can catch broadly or match
the precise failure, and each failure has one class; the two Runtime-ish
ones (InternalRouteMismatch, ToleranceNotMet) signal that a computation
could not be trusted or completed, not that the caller passed bad input.
"""


class MixedJets(ValueError):
    """Jet operands disagree on expansion point or truncation order."""


class DivisionByZeroJet(ZeroDivisionError):
    """Jet divisor has a zero value coefficient."""


class OrderExceeded(ValueError):
    """Requested derivative order is beyond the jet's truncation order."""


class NonPositiveS(ValueError):
    """The transform variable s must be strictly positive."""


class NRequired(ValueError):
    """Operation is undefined for n = 0."""


class InternalRouteMismatch(ArithmeticError):
    """Two independent evaluation routes disagreed: implementation bug."""


class EmptySequence(ValueError):
    """A non-empty sequence is required."""


class UnknownIdentity(ValueError):
    """No evaluator pair is registered for the requested identity."""


class ToleranceNotMet(RuntimeError):
    """Quadrature refinement budget exhausted before reaching tolerance."""


class InsufficientSamples(ValueError):
    """Too few samples for a Monte Carlo estimate or for a two-sample test."""
