import functools

import numpy as np
import pytest

from meskit import (
    Conjugation,
    DimensionError,
    Dims,
    Superoperator,
    kron,
    pi,
    random_coisometry,
    representative,
    unvec,
    vec,
)
from meskit.choi import _image_table
from meskit.extension import ad_commutation_residual
from meskit.lemmas import _as_int
from meskit.tensor import frobenius, perturb


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b after removing one global phase."""
    overlap = np.vdot(a.reshape(-1), b.reshape(-1))
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def identity_superop(dims: Dims) -> Superoperator:
    """The identity map on L(X (x) Y)."""
    side = dims.mn * dims.mn
    return Superoperator(matrix=np.eye(side, dtype=complex), dims=dims)


def nonkron_conjugation(u, v, sigma, eps: float, rng: np.random.Generator) -> Conjugation:
    """Ad_W o sigma with W the unitary nearest to ``perturb(U (x) V, eps, rng)``:
    a conjugation that is no Kronecker product once eps > 0 (and mn >= 4)."""
    a, _, b = np.linalg.svd(perturb(kron(u, v), eps, rng))
    return Conjugation(a @ b, sigma, Dims(len(u), len(v)))


def canonical_family(dims: Dims) -> np.ndarray:
    """The coordinate family [I|0|...|0], [0|I|0|...], ..., stacked (k, m, n)."""
    return np.eye(dims.n, dtype=complex).reshape(dims.k, dims.m, dims.n)


# Reference implementations the closed forms in meskit are checked against:
# the permutation matrix of the transpose, a dense basis of span(MES), a
# sampled commutation test with its switch-form witness, and the Gram-system
# expansion of the restricted map G.
def transpose_matrix(d: int) -> np.ndarray:
    """Permutation matrix T with T @ vec(M) = vec(M^T) for d x d matrices."""
    t = np.zeros((d * d, d * d))
    idx = np.arange(d * d)
    rows, cols = divmod(idx, d)
    t[idx, cols * d + rows] = 1.0
    return t


@functools.lru_cache(maxsize=32)
def span_mes_basis(dims: Dims) -> tuple[np.ndarray, ...]:
    """Orthonormal basis of span(MES) in the Frobenius inner product.

    Every MES satisfies tr_Y rho = I/m, so span(MES) is the kernel of
    M -> tr_Y(M) - (tr M / m) I_m; in the square case (k = 1) coisometries
    are unitary and tr_X(M) - (tr M / n) I_n must vanish as well.  The basis
    is the right-singular vectors of that constraint map past its rank, so
    the elements are generally not MES themselves.
    """
    m, n = dims.m, dims.n
    eye_m, eye_n = np.eye(m), np.eye(n)
    trace = np.eye(dims.mn).reshape(1, -1)  # tr M = <vec(I), vec(M)>
    # vec(M) is indexed (i, p, j, q): i, j on X and p, q on Y
    tr_y = np.einsum("ik,jl,pq->ijkplq", eye_m, eye_m, eye_n).reshape(m * m, -1)
    rows = [tr_y - eye_m.reshape(-1, 1) * trace / m]
    if dims.k == 1:
        tr_x = np.einsum("ik,pr,qs->pqirks", eye_m, eye_n, eye_n).reshape(n * n, -1)
        rows.append(tr_x - eye_n.reshape(-1, 1) * trace / n)
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > 1e-9 * s[0]))
    basis = []
    for row in vh[rank:]:
        e = unvec(row.conj(), dims.mn, dims.mn)
        e.flags.writeable = False
        basis.append(e)
    return tuple(basis)


def dense_extension(ext) -> np.ndarray:
    """The dense n^4 x n^4 matrix of an ExtendedSuperoperator: its row slabs,
    stacked top to bottom."""
    return np.vstack(tuple(ext.row_slabs()))


def _yy_sampling_dims(phi_like) -> Dims:
    if phi_like.dims.m != phi_like.dims.n:
        raise DimensionError("commutation sampling needs a map on a square space")
    return phi_like.dims


def commutes_with_ad(phi_tilde, W, seed=0) -> bool:
    """True iff phi_tilde commutes with M -> W M W* within 1e-9 on 20 sampled
    MES of Y (x) Y."""
    dims = _yy_sampling_dims(phi_tilde)
    for i in range(20):
        A = random_coisometry(dims, np.random.SeedSequence([_as_int(seed), 17, i]))
        if ad_commutation_residual(phi_tilde, W, pi(A)) >= 1e-9:
            return False
    return True


def switch_commutation_witness(dims: Dims, u) -> np.ndarray:
    """Unitary A on Y with u A^T the rotation (1/sqrt2) [[I, I], [I, -I]] on
    the first two X-blocks of Y (identity elsewhere): an MES direction along
    which switch-form maps fail to commute with the first sign conjugation."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rotation = np.eye(dims.n, dtype=complex)
    rotation[: 2 * dims.m, : 2 * dims.m] = kron(h, np.eye(dims.m))
    return (u.conj().T @ rotation).T


def expand_in_image_basis(T: np.ndarray, b, gram4: np.ndarray):
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


def gram_solve_g(phi, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """The matrix G of meskit.restricted_g built column by column from
    :func:`expand_in_image_basis`, with its refusals left out."""
    images, table = _image_table(phi, [A1, A2])
    b = [vec(representative(image, phi.dims)) for image in images]
    gram2 = np.array([[np.vdot(bp, bq) for bq in b] for bp in b])
    gram4 = kron(gram2, gram2.conj())
    g = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            g[:, 2 * i + j] = expand_in_image_basis(table[i][j], b, gram4)[0]
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
