"""Exception types raised across the package.

Every failure mode that callers are expected to catch has its own class so
that CLI exit-code mapping and tests can match on type rather than message.
"""

from __future__ import annotations


class ExitRateError(Exception):
    """Base class for all package-specific failures."""


class EllipticityViolation(ExitRateError):
    """Sampled diffusion matrix fell below the declared ellipticity floor."""


class NonFiniteCoefficient(ExitRateError):
    """A drift or diffusion coefficient evaluated to NaN or infinity."""


class NonconformingSpacing(ExitRateError):
    """Requested grid spacing does not divide a side of the box."""


class NoConvergence(ExitRateError):
    """An iteration hit its cap before reaching the requested tolerance."""


class NonPositiveEigenvector(ExitRateError):
    """Principal eigenvector failed the positivity (irreducibility) check."""


class TooLarge(ExitRateError):
    """Problem size exceeds a configured safety cap."""


class TooLargeForDense(ExitRateError):
    """Dense linear-algebra path requested beyond its size cap."""


class IllConditioned(ExitRateError):
    """A conditioning guard tripped (for example max/min eigenvector ratio)."""


class NullVectorNotUnique(ExitRateError):
    """Stationary vector is not unique; the chain is reducible."""


class NoCertificate(ExitRateError):
    """No Lyapunov certificate found by the constructive search."""


class TooFewSurvivors(ExitRateError):
    """Not enough surviving Monte Carlo paths to fit an exit rate."""


class Infeasible(ExitRateError):
    """Linear program has no feasible point."""
