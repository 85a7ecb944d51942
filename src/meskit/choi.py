"""The sigma discriminant: restricted two-by-two map, its Choi matrix, and
phase-coherent image families.

An invertible MES preserver induces a map on projective classes of
coisometries.  Restricted to the span of two orthogonal coisometries it is
captured by a map G on 2 x 2 matrices whose Choi matrix J(G) has determinant
0 when the preserver is a plain conjugation and -1 when it composes with the
transpose.  Everything here is computed only from values of the preserver on
MES elements (cross terms come from the polarization identity), so ``phi``
may be any map with ``dims`` that :func:`~meskit.superop.apply` evaluates: a
dense :class:`~meskit.superop.Superoperator`, or a map with its own
``apply_to``, as the lemma suite's preservers are.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotInvertibleError, NotOrthogonalError, NotPreserverError
from .states import are_orthogonal, is_coisometry, orthogonal_family, pi, representative
from .superop import SigmaFlag, _as_int, apply
from .tensor import frobenius, kron, scaled_tol, unvec, vec

# Relative threshold of the sin^2 check between image representatives, the
# subspace and phase-coherence residuals and the aligned images' coisometry
# test; :func:`representative` tests images for MES at the same 1e-8.
_TOL = 1e-8


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


def _expand_in_image_basis(T: np.ndarray, b: tuple[np.ndarray, np.ndarray], gram4: np.ndarray):
    """Least-squares coefficients of T in {b_p b_q*} (index 2p + q) via the
    Gram system, and the residual of the expansion.

    The basis need not be orthogonal (its orthogonality is a conclusion, not a
    premise), hence the explicit 4 x 4 Gram solve with ``gram4``, the Gram
    matrix of {b_p b_q*}.
    """
    rhs = np.array([np.vdot(bp, T @ bq) for bp in b for bq in b])
    coeffs = np.linalg.solve(gram4, rhs)
    recon = sum(
        coeffs[2 * p + q] * np.outer(b[p], b[q].conj()) for p in range(2) for q in range(2)
    )
    return coeffs, frobenius(T - recon)


def restricted_g(phi, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """The 4 x 4 matrix G of phi on the cross-term subspace of the orthogonal
    coisometries A1, A2, each its (m, n) array.

    G acts on row-vectorized 2 x 2 matrices: its column 2i + j is vec(G(E_ij)),
    the coefficients of phi(vec(A_i) vec(A_j)*) in {vec(B_p) vec(B_q)*} for
    the image representatives B_p, so G(E11) = E11 and G(E22) = E22.  A large
    expansion residual means phi moved the subspace, which no MES preserver
    can do, hence NotPreserverError.  Image representatives that are
    (nearly) parallel mean phi sends pi(A1) - pi(A2) to zero, so phi is not
    injective on span(MES), hence NotInvertibleError.  Both messages start
    with "stage restricted map: ".  An image that is not an MES raises
    NotMESError from :func:`representative`.
    """
    images, table = _image_table(phi, [A1, A2])
    b = tuple(vec(representative(image, phi.dims)) for image in images)
    gram2 = np.array([[np.vdot(bp, bq) for bq in b] for bp in b])
    # det / (product of the diagonal) is sin^2 of the angle between B1 and B2
    sin2 = float(np.linalg.det(gram2).real / (gram2[0, 0].real * gram2[1, 1].real))
    if sin2 < _TOL:
        raise NotInvertibleError(
            "stage restricted map: orthogonal coisometries share one image class "
            f"(sin^2 {sin2:.3e}): map is singular on span(MES)"
        )
    gram4 = kron(gram2, gram2.conj())
    gmat = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            target = table[i][j]
            coeffs, residual = _expand_in_image_basis(target, b, gram4)
            if residual >= scaled_tol(_TOL, frobenius(target)):
                raise NotPreserverError(
                    "stage restricted map: cross-term image left its subspace "
                    f"(residual {residual:.3e})"
                )
            gmat[:, 2 * i + j] = coeffs
    return gmat


def choi_matrix(G: np.ndarray) -> np.ndarray:
    """J(G) = sum_ij E_ij (x) G(E_ij) for the matrix G of :func:`restricted_g`.

    Entry (2i + a, 2j + b) of J is entry (a, b) of G(E_ij), which is
    G[2a + b, 2i + j], so J is a realignment of G's entries.
    """
    return G.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def flag_from_determinant(det: complex) -> SigmaFlag:
    """Map det J(G) to a branch flag.

    Acceptance balls of radius 0.5 around 0 (identity) and -1 (transpose):
    the two theoretical values are distance 1 apart, so 0.5 is the maximal
    symmetric margin.  Anything outside both balls is not a preserver:
    NotPreserverError, its message starting with "stage discriminant: ".
    """
    det = complex(det)
    if abs(det) < 0.5:
        return SigmaFlag.IDENTITY
    if abs(det + 1.0) < 0.5:
        return SigmaFlag.TRANSPOSE
    raise NotPreserverError(f"stage discriminant: det J(G) = {det:.6f} is near neither 0 nor -1")


def detect_sigma(phi, seed=0) -> SigmaFlag:
    """Identity/transpose discriminant via det J(G).

    A preserver gives det 0 (identity branch) or -1 (transpose branch)
    regardless of the orthogonal pair used to build G.  ``seed`` must be an
    integer (TypeError otherwise); it picks that pair.
    """
    if phi.dims.k < 2:
        raise DimensionError("sigma detection needs an orthogonal pair, so k >= 2")
    family = orthogonal_family(phi.dims, np.random.SeedSequence([_as_int(seed), 13]))
    G = restricted_g(phi, family[0], family[1])
    return flag_from_determinant(np.linalg.det(choi_matrix(G)))


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
    if residual >= scaled_tol(_TOL, float(dims.m)):
        raise NotPreserverError(
            f"stage alignment: no coherent phase assignment (best residual {residual:.3e})"
        )
    aligned = [unvec(v, dims.m, dims.n) for v in vecs]
    for j, b in enumerate(aligned[1:], 2):
        if not is_coisometry(b, _TOL):
            raise NotPreserverError(f"stage alignment: image {j} is not a coisometry")
    return aligned
