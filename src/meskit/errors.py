"""Typed error taxonomy shared by all modules.

Library code raises these instead of bare ``ValueError`` so that callers
(and the CLI exit-code mapping) can branch on the failure mode.
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


class NotCoisometryError(MESKitError, ValueError):
    """A matrix A with A A* = I was expected and not supplied."""


class NotMESError(MESKitError, ValueError):
    """An operator is not a maximally entangled state within tolerance."""


class NotOrthogonalError(MESKitError, ValueError):
    """Two coisometries required to satisfy A B* = 0 do not."""


class SubspaceViolationError(MESKitError):
    """A map image left the two-dimensional cross-term subspace it must stay in."""


class InconsistentChoiError(MESKitError):
    """det of the restricted 4x4 Choi matrix is near neither 0 nor -1."""


class PhaseAlignmentError(MESKitError):
    """No coherent phase assignment exists for a family of image coisometries."""


class NoSolutionError(MESKitError):
    """No conjugation unitary fits the map: the recovered columns are not unitary."""


class NotPreserverError(MESKitError):
    """The map is not an MES preserver: no conjugation form fits it, or its
    span certificate, or a sampled MES image, fails."""


class NotInvertibleError(MESKitError):
    """The map is singular on the span of the maximally entangled states."""


class NotKroneckerError(MESKitError):
    """The recovered conjugation unitary is not a Kronecker product within tolerance."""
