"""The sigma discriminant: restricted two-by-two map, its Choi matrix, and
phase-coherent image families.

An invertible MES preserver induces a map on projective classes of
coisometries.  Restricted to the span of two orthogonal coisometries it is
captured by a map G on 2 x 2 matrices whose Choi matrix J(G) has determinant
0 when the preserver is a plain conjugation and -1 when it composes with the
transpose.  Everything here is computed only from values of the preserver on
MES elements (cross terms come from the polarization identity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InconsistentChoiError,
    NotInvertibleError,
    NotOrthogonalError,
    PhaseAlignmentError,
    SubspaceViolationError,
)
from .states import Coisometry, are_orthogonal, orthogonal_family, pi, representative
from .superop import SigmaFlag, Superoperator, apply
from .tensor import frobenius, kron, scaled_tol, unvec, vec

# Relative threshold of the sin^2 check between image representatives and of
# the subspace and phase-coherence residuals; images are tested for MES
# membership by :func:`representative`, at the same 1e-8.
_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class RestrictedMapG:
    """Map G: C^{2x2} -> C^{2x2} induced on an orthogonal coisometry pair.

    ``matrix`` acts on row-vectorized 2 x 2 matrices.  The construction
    normalizes G(E11) = E11 and G(E22) = E22.  ``basis_a`` is the orthogonal
    input pair, ``basis_b`` the image representatives.
    """

    matrix: np.ndarray
    basis_a: tuple[Coisometry, Coisometry]
    basis_b: tuple[Coisometry, Coisometry]

    def evaluate(self, X) -> np.ndarray:
        return unvec(self.matrix @ vec(X), 2, 2)


def zeta_image(phi: Superoperator, A: Coisometry) -> Coisometry:
    """Canonical coisometry B with pi(B) = phi(pi(A)).

    Raises NotMESError when the image is not an MES (phi is not a preserver).
    """
    image = apply(phi, pi(A).matrix)
    return representative(image, phi.dims)


def phi_on_cross_term(phi: Superoperator, A1: Coisometry, A2: Coisometry) -> np.ndarray:
    """phi(vec(A1) vec(A2)*) reconstructed from four MES evaluations.

    By polarization, vec(A1)vec(A2)* = (1/4) sum_l i^l vec(C_l)vec(C_l)* with
    C_l = A1 + i^l A2, and each (A1 + i^l A2)/sqrt(2) is a coisometry exactly
    when A1 and A2 are orthogonal, so every term is 2m times an MES element.
    """
    if not are_orthogonal(A1, A2):
        raise NotOrthogonalError("cross terms need an orthogonal coisometry pair")
    dims = A1.dims
    total = np.zeros((dims.mn, dims.mn), dtype=complex)
    for ell in range(4):
        comb = (A1.matrix + (1j**ell) * A2.matrix) / np.sqrt(2.0)
        total += (1j**ell) * 2.0 * dims.m * apply(phi, pi(comb, dims).matrix)
    return total / 4.0


def _expand_in_image_basis(T: np.ndarray, b: tuple[np.ndarray, np.ndarray], gram4: np.ndarray):
    """Least-squares coefficients of T in {b_p b_q*} via the Gram system.

    The basis need not be orthogonal (its orthogonality is a conclusion, not a
    premise), hence the explicit 4 x 4 Gram solve with ``gram4``, the Gram
    matrix of {b_p b_q*}.
    """
    rhs = np.array([np.vdot(bp, T @ bq) for bp in b for bq in b])
    coeffs = np.linalg.solve(gram4, rhs)
    recon = sum(
        coeffs[2 * p + q] * np.outer(b[p], b[q].conj()) for p in range(2) for q in range(2)
    )
    return coeffs.reshape(2, 2), frobenius(T - recon)


def restricted_g(phi: Superoperator, A1: Coisometry, A2: Coisometry) -> RestrictedMapG:
    """Coefficient map G of phi on the cross-term subspace of (A1, A2).

    phi(vec(A_i) vec(A_j)*) is expanded in {vec(B_p) vec(B_q)*} for the image
    representatives B_p; the 2 x 2 coefficient matrix is G(E_ij).  A large
    expansion residual means phi moved the subspace, which no MES preserver
    can do, hence SubspaceViolationError.  Image representatives that are
    (nearly) parallel mean phi sends pi(A1) - pi(A2) to zero, so phi is not
    injective on span(MES), hence NotInvertibleError.
    """
    if not are_orthogonal(A1, A2):
        raise NotOrthogonalError("restricted map needs an orthogonal coisometry pair")
    dims = phi.dims
    images = [apply(phi, pi(a).matrix) for a in (A1, A2)]
    B1, B2 = (representative(image, dims) for image in images)
    b = (vec(B1.matrix), vec(B2.matrix))
    gram2 = np.array([[np.vdot(bp, bq) for bq in b] for bp in b])
    # det / (product of the diagonal) is sin^2 of the angle between B1 and B2
    sin2 = float(np.linalg.det(gram2).real / (gram2[0, 0].real * gram2[1, 1].real))
    if sin2 < _TOL:
        raise NotInvertibleError(
            f"orthogonal coisometries share one image class (sin^2 {sin2:.3e}): "
            "map is singular on span(MES)"
        )
    gram4 = kron(gram2, gram2.conj())
    gmat = np.zeros((4, 4), dtype=complex)
    for i, Ai in enumerate((A1, A2)):
        for j, Aj in enumerate((A1, A2)):
            if i == j:
                target = dims.m * images[i]
            else:
                target = phi_on_cross_term(phi, Ai, Aj)
            coeffs, residual = _expand_in_image_basis(target, b, gram4)
            if residual >= scaled_tol(_TOL, frobenius(target)):
                raise SubspaceViolationError(
                    f"cross-term image left its subspace (residual {residual:.3e})"
                )
            gmat[:, 2 * i + j] = coeffs.reshape(-1)
    return RestrictedMapG(matrix=gmat, basis_a=(A1, A2), basis_b=(B1, B2))


def choi_matrix(G: RestrictedMapG) -> np.ndarray:
    """J(G) = sum_ij E_ij (x) G(E_ij), the 4 x 4 block matrix of the G(E_ij)."""
    eye2 = np.eye(2)
    J = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(eye2[i], eye2[j])
            J += np.kron(e_ij, G.evaluate(e_ij))
    return J


def flag_from_determinant(det: complex) -> SigmaFlag:
    """Map det J(G) to a branch flag.

    Acceptance balls of radius 0.5 around 0 (identity) and -1 (transpose):
    the two theoretical values are distance 1 apart, so 0.5 is the maximal
    symmetric margin.  Anything outside both balls is not a preserver.
    """
    det = complex(det)
    if abs(det) < 0.5:
        return SigmaFlag.IDENTITY
    if abs(det + 1.0) < 0.5:
        return SigmaFlag.TRANSPOSE
    raise InconsistentChoiError(f"det J(G) = {det:.6f} is near neither 0 nor -1")


def detect_sigma(phi: Superoperator, seed=0) -> SigmaFlag:
    """Identity/transpose discriminant via det J(G).

    A preserver gives det 0 (identity branch) or -1 (transpose branch)
    regardless of the orthogonal pair used to build G.
    """
    if phi.dims.k < 2:
        raise DimensionError("sigma detection needs an orthogonal pair, so k >= 2")
    family = orthogonal_family(phi.dims, np.random.SeedSequence([int(seed), 13]))
    G = restricted_g(phi, family[0], family[1])
    return flag_from_determinant(np.linalg.det(choi_matrix(G)))


def align_images(phi: Superoperator, family: list[Coisometry]) -> list[Coisometry]:
    """Phase-coherent image family B_1..B_k of a mutually orthogonal family.

    B_1 is the canonical image representative; the phase of each later B_j is
    read off the (1, j) cross term, so that phi(vec(A_p)vec(A_q)*) equals
    vec(B_p)vec(B_q)* in the identity branch or vec(B_q)vec(B_p)* in the
    transpose branch.  Both branch readings are tried; if neither is coherent
    within a relative 1e-8 the map is not a preserver and PhaseAlignmentError is
    raised.
    """
    dims = phi.dims
    k = len(family)
    for p in range(k):
        for q in range(p + 1, k):
            if not are_orthogonal(family[p], family[q]):
                raise NotOrthogonalError("alignment needs a mutually orthogonal family")
    images = [apply(phi, pi(a).matrix) for a in family]
    b1 = vec(representative(images[0], dims).matrix)
    # table[p][q] = phi(vec(A_p) vec(A_q)*), each value computed once; the
    # transpose branch expects vec(B_q) vec(B_p)* there
    table = [
        [
            dims.m * images[p] if p == q else phi_on_cross_term(phi, family[p], family[q])
            for q in range(k)
        ]
        for p in range(k)
    ]
    readings = []
    for swap in (False, True):
        vecs = [b1] + [(t @ b1 if swap else t.conj().T @ b1) / dims.m for t in table[0][1:]]
        residual = max(
            frobenius((table[q][p] if swap else table[p][q]) - np.outer(vecs[p], vecs[q].conj()))
            for p in range(k)
            for q in range(k)
        )
        readings.append((residual, vecs))
    residual, vecs = min(readings, key=lambda r: r[0])  # a tie goes to the identity reading
    if residual >= scaled_tol(_TOL, float(dims.m)):
        raise PhaseAlignmentError(f"no coherent phase assignment (best residual {residual:.3e})")
    return [Coisometry(matrix=unvec(v, dims.m, dims.n), dims=dims) for v in vecs]
