"""meskit: constructive toolkit for maps preserving maximally entangled states.

Builds maximally entangled states from coisometries, constructs the canonical
preserver forms (unitary conjugation with an optional transpose, the square-
space switch form, and the trace form), extends preservers blockwise to the
square space, and decomposes an arbitrary preserver back into its
(sigma, U, V) data.  ``decompose`` picks sigma by certifying
Ad_(U (x) V) o sigma on all of span(MES), and draws no sample.  The paper's
identity-vs-transpose discriminant, the determinant of the 4x4 Choi matrix
J(G), is one of the identities ``meskit check-lemmas`` verifies.
"""

from types import ModuleType as _ModuleType

from .choi import (
    align_images,
    choi_matrix,
    phi_on_cross_term,
    restricted_g,
)
from .classify import (
    Decomposition,
    decompose,
    recover_unitary,
    verify_theorem_form,
)
from .errors import (
    DimensionError,
    MESKitError,
    NotHermitianError,
    NotInvertibleError,
    NotMESError,
    NotOrthogonalError,
    NotPreserverError,
    NotUnitaryError,
    ZeroOperatorError,
)
from .extension import (
    ExtendedSuperoperator,
    ad_commutation_residual,
    p_operator,
    q_operator,
    structural_unitaries,
)
from .states import (
    are_orthogonal,
    is_coisometry,
    is_mes,
    orthogonal_family,
    pi,
    random_coisometry,
    representative,
)
from .superop import (
    Conjugation,
    SigmaFlag,
    Superoperator,
    apply,
    is_invertible_on_span,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
)
from .tensor import (
    DEFAULT_TOL,
    Dims,
    fix_global_phase,
    haar_unitary,
    kron,
    nearest_kron_factor,
    partial_trace_y,
    rank_one_factor,
    unvec,
    vec,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
