"""Exception types shared across the package.

The hierarchy distinguishes configuration problems (bad user input that a
front end should report as such) from numeric precondition violations
(requests that are well formed but outside the regime an operation supports).
"""


class CatlabError(Exception):
    """Base class for all package errors."""


class ConfigError(CatlabError, ValueError):
    """Malformed or out-of-range configuration, file, or command-line input.

    A ValueError too, so callers that catch bad values as ValueError catch it."""


class NotUnimodular(ConfigError):
    """Integer matrix with determinant != 1."""


class NotHyperbolic(ConfigError):
    """Integer matrix with |trace| <= 2, or with trace < -2 (unsupported)."""


class PreconditionError(CatlabError):
    """A numeric precondition of an operation is violated."""


class EnumerationTooLarge(PreconditionError):
    """Periodic-point lattice exceeds the enumeration guard."""


class NoInvariantTheta(PreconditionError):
    """No Bloch angle satisfying the propagator compatibility equation."""


class UnsupportedMatrix(PreconditionError):
    """Propagator kernel construction failed for this matrix."""


class TruncationFailure(PreconditionError):
    """Gaussian periodization would need too many lattice translates."""


class ResolutionTooCoarse(PreconditionError):
    """Grid resolution insufficient for the requested quadrature."""


class RadiusOutOfRange(PreconditionError):
    """Ball or interval radius outside the admissible interval."""

    def __init__(self, msg, admissible=None):
        super().__init__(msg)
        self.admissible = admissible


class NTooLarge(PreconditionError):
    """Computed Hilbert-space dimension exceeds the configured cap."""


class BallsOverlap(PreconditionError):
    """Husimi ball decomposition precondition failed."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair
