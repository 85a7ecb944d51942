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

from .choi import (
    align_images,
    choi_matrix,
    detect_sigma,
    flag_from_determinant,
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
    NotKroneckerError,
    NotMESError,
    NotOrthogonalError,
    NotPreserverError,
    NotUnitaryError,
    ZeroOperatorError,
)
from .extension import (
    ExtendedSuperoperator,
    ad_commutation_residual,
    block_join,
    block_split,
    extend,
    off_block_rotation,
    p_operator,
    q_operator,
    structural_unitaries,
    switch_commutation_witness,
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
    SigmaFlag,
    Superoperator,
    apply,
    is_invertible_on_span,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
    preserves_mes,
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

__all__ = [
    "DEFAULT_TOL",
    "Decomposition",
    "DimensionError",
    "Dims",
    "ExtendedSuperoperator",
    "MESKitError",
    "NotHermitianError",
    "NotInvertibleError",
    "NotKroneckerError",
    "NotMESError",
    "NotOrthogonalError",
    "NotPreserverError",
    "NotUnitaryError",
    "SigmaFlag",
    "Superoperator",
    "ZeroOperatorError",
    "ad_commutation_residual",
    "align_images",
    "apply",
    "are_orthogonal",
    "block_join",
    "block_split",
    "choi_matrix",
    "decompose",
    "detect_sigma",
    "extend",
    "fix_global_phase",
    "flag_from_determinant",
    "haar_unitary",
    "is_coisometry",
    "is_invertible_on_span",
    "is_mes",
    "kron",
    "make_adjoint_preserver",
    "make_swap_preserver",
    "make_trace_preserver",
    "nearest_kron_factor",
    "off_block_rotation",
    "orthogonal_family",
    "p_operator",
    "partial_trace_y",
    "phi_on_cross_term",
    "pi",
    "preserves_mes",
    "q_operator",
    "random_coisometry",
    "rank_one_factor",
    "recover_unitary",
    "representative",
    "restricted_g",
    "structural_unitaries",
    "switch_commutation_witness",
    "unvec",
    "vec",
    "verify_theorem_form",
]
