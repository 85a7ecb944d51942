"""Typed error taxonomy shared by all modules.

Library code raises these instead of bare ``ValueError`` so that callers
(and the CLI exit-code mapping) can branch on the failure mode.  A verdict
on a map has one of three types, one per way to miss the invertible
preserver form: NotPreserverError, NotInvertibleError or NotKroneckerError.
The type names the verdict, and the message's ``stage ...:`` prefix names
the step that reached it.
"""


class MESKitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MESKitError, ValueError):
    """Shapes or block counts are inconsistent with the requested operation."""


class ZeroOperatorError(MESKitError, ValueError):
    """An operator that must be nonzero was (numerically) zero."""


class NotHermitianError(MESKitError, ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotUnitaryError(MESKitError, ValueError):
    """A matrix required to be unitary deviates beyond tolerance."""


class NotMESError(MESKitError, ValueError):
    """An operator is not a maximally entangled state within tolerance."""


class NotOrthogonalError(MESKitError, ValueError):
    """Two coisometries required to satisfy A B* = 0 do not."""


class NotPreserverError(MESKitError):
    """The map is not an MES preserver.  Raised by ``decompose`` at stages
    input, recovery and certificate, and by :mod:`meskit.choi` at stages
    restricted map, discriminant and alignment."""


class NotInvertibleError(MESKitError):
    """The map is singular on the span of the maximally entangled states."""


class NotKroneckerError(MESKitError):
    """The recovered conjugation unitary is not a Kronecker product within tolerance."""
