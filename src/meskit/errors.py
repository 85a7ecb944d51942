"""Typed error taxonomy shared by all modules.

Library code raises these instead of bare ``ValueError`` so that callers can
branch on the failure mode.  Each type carries the CLI's exit code for it as
the class attribute ``exit_code``: 2 for a DimensionError (a usage error),
1 for the base class and every other type without a code of its own.  A
refusal of a map has one of two types, one per way to miss the invertible
preserver form: NotPreserverError (3) or NotInvertibleError (4).  The type
names the verdict, and the message's ``stage ...:`` prefix names the step
that reached it; :func:`_refusal` builds every such refusal and sets that
step as its ``stage``.  A file that is not a superoperator object (a
missing or mistyped key, or a count such as 1e999) is refused with a plain
``ValueError`` that names the key.
"""


class MESKitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DimensionError(MESKitError, ValueError):
    """Shapes or block counts are inconsistent with the requested operation."""

    exit_code = 2


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
    restricted map and alignment."""

    exit_code = 3


class NotInvertibleError(MESKitError):
    """The map is singular on the span of the maximally entangled states."""

    exit_code = 4


def _refusal(error_type: type, stage: str, detail: str, **attributes) -> MESKitError:
    """``error_type("stage <stage>: <detail>")``, with ``stage`` and ``attributes`` set on it."""
    refusal = error_type(f"stage {stage}: {detail}")
    vars(refusal).update(stage=stage, **attributes)
    return refusal
