"""The sigma discriminant: restricted two-by-two map, its Choi matrix, and
phase-coherent image families.

An invertible MES preserver induces a map on projective classes of
coisometries.  Restricted to the span of two orthogonal coisometries it is
captured by a map G on 2 x 2 matrices whose Choi matrix J(G) has determinant
0 when the preserver is a plain conjugation and -1 when it composes with the
transpose.  Everything here is computed only from values of the preserver on
MES elements (cross terms come from the polarization identity), so ``phi``
may be any map with ``dims`` and ``apply_to``: a dense
:class:`~meskit.superop.Superoperator`, or a
:class:`~meskit.superop.Conjugation`, applied as W M^sigma W*.
"""

from __future__ import annotations

import numpy as np

from .errors import NotInvertibleError, NotOrthogonalError, NotPreserverError, _refusal
from .states import _VALIDATION_TOL, are_orthogonal, is_coisometry, pi, representative
from .superop import apply
from .tensor import frobenius, scaled_tol, unvec, vec


def phi_on_cross_term(phi, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """phi(vec(A1) vec(A2)*) reconstructed from four MES evaluations.

    By polarization, vec(A1)vec(A2)* = (1/4) sum_l i^l vec(C_l)vec(C_l)* with
    C_l = A1 + i^l A2, and each (A1 + i^l A2)/sqrt(2) is a coisometry exactly
    when A1 and A2 are orthogonal, so every term is 2m times an MES element.
    """
    if not are_orthogonal(A1, A2):
        raise NotOrthogonalError("cross terms need an orthogonal coisometry pair")
    dims = phi.dims
    total = np.zeros((dims.mn, dims.mn), dtype=complex)
    for ell in range(4):
        comb = (A1 + (1j**ell) * A2) / np.sqrt(2.0)
        total += (1j**ell) * 2.0 * dims.m * apply(phi, pi(comb))
    return total / 4.0


def _image_table(phi, family) -> tuple[list[np.ndarray], list[list[np.ndarray]]]:
    """The images phi(pi(A_p)) of a mutually orthogonal family and the table
    phi(vec(A_p) vec(A_q)*), each value computed once: m times the image on
    the diagonal (vec(A) vec(A)* = m pi(A)), :func:`phi_on_cross_term` off it,
    which raises NotOrthogonalError for a non-orthogonal pair."""
    images = [apply(phi, pi(a)) for a in family]
    k = len(family)
    table = [
        [
            phi.dims.m * images[p] if p == q else phi_on_cross_term(phi, family[p], family[q])
            for q in range(k)
        ]
        for p in range(k)
    ]
    return images, table


def restricted_g(phi, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """The 4 x 4 matrix G of phi on the cross-term subspace of the orthogonal
    coisometries A1, A2, each its (m, n) array.

    G acts on row-vectorized 2 x 2 matrices: its column 2i + j is vec(C_ij),
    the coefficients of T_ij = phi(vec(A_i) vec(A_j)*) in {vec(B_p) vec(B_q)*}
    for the image representatives B_p, so G(E11) = E11 and G(E22) = E22.
    With B = [vec(B_1) vec(B_2)], which need not be orthonormal, the
    least-squares coefficients separate: C_ij = B+ T_ij (B+)* for
    B+ = (B*B)^-1 B*.  A large residual ||T_ij - B C_ij B*||_F means phi
    moved the subspace, which no MES preserver can do, hence
    NotPreserverError.  Image representatives that are (nearly) parallel mean
    phi sends pi(A1) - pi(A2) to zero, so phi is not injective on span(MES),
    hence NotInvertibleError.  Both messages start with "stage restricted
    map: ".  An image that is not an MES raises NotMESError from
    :func:`representative`.
    """
    images, table = _image_table(phi, [A1, A2])
    b = np.column_stack([vec(representative(image, phi.dims)) for image in images])
    gram = b.conj().T @ b
    # det / (product of the diagonal) is sin^2 of the angle between B1 and B2
    sin2 = float(np.linalg.det(gram).real / (gram[0, 0].real * gram[1, 1].real))
    if sin2 < _VALIDATION_TOL:
        detail = (
            f"orthogonal coisometries share one image class (sin^2 {sin2:.3e}): "
            "map is singular on span(MES)"
        )
        raise _refusal(NotInvertibleError, "restricted map", detail)
    pinv = np.linalg.solve(gram, b.conj().T)
    gmat = np.zeros((4, 4), dtype=complex)
    for col, target in enumerate(t for row in table for t in row):  # col = 2i + j
        coeffs = pinv @ target @ pinv.conj().T
        residual = frobenius(target - b @ coeffs @ b.conj().T)
        if residual >= scaled_tol(_VALIDATION_TOL, frobenius(target)):
            detail = f"cross-term image left its subspace (residual {residual:.3e})"
            raise _refusal(NotPreserverError, "restricted map", detail)
        gmat[:, col] = coeffs.reshape(-1)
    return gmat


def choi_matrix(G: np.ndarray) -> np.ndarray:
    """J(G) = sum_ij E_ij (x) G(E_ij) for the matrix G of :func:`restricted_g`.

    Entry (2i + a, 2j + b) of J is entry (a, b) of G(E_ij), which is
    G[2a + b, 2i + j], so J is a realignment of G's entries.
    """
    return G.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def align_images(phi, family) -> list[np.ndarray]:
    """Phase-coherent image family B_1..B_k, each its (m, n) array, of a
    mutually orthogonal family of coisometries (a list or a (k, m, n) stack).

    B_1 is the canonical image representative; the phase of each later B_j is
    read off the (1, j) cross term, so that phi(vec(A_p)vec(A_q)*) equals
    vec(B_p)vec(B_q)* in the identity branch or vec(B_q)vec(B_p)* in the
    transpose branch.  Both branch readings are tried; if neither is coherent
    within a relative 1e-8 the map is not a preserver and NotPreserverError is
    raised, its message starting with "stage alignment: ".  So is an aligned
    B_j, j >= 2, that is not a coisometry within a relative 1e-8, as under
    conjugation by a unitary that fixes vec(A_1) but is no Kronecker product.
    :func:`representative` checks B_1 and raises NotMESError if it fails.
    """
    dims = phi.dims
    k = len(family)
    images, table = _image_table(phi, family)
    b1 = vec(representative(images[0], dims))
    # the transpose branch expects vec(B_q) vec(B_p)* at table[p][q]
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
    if residual >= scaled_tol(_VALIDATION_TOL, float(dims.m)):
        detail = f"no coherent phase assignment (best residual {residual:.3e})"
        raise _refusal(NotPreserverError, "alignment", detail)
    aligned = [unvec(v, dims.m, dims.n) for v in vecs]
    for j, b in enumerate(aligned[1:], 2):
        if not is_coisometry(b, _VALIDATION_TOL):
            raise _refusal(NotPreserverError, "alignment", f"image {j} is not a coisometry")
    return aligned
