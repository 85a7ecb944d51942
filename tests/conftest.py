import functools

import numpy as np
import pytest

from meskit import (
    DimensionError,
    Dims,
    ExtendedSuperoperator,
    Superoperator,
    haar_unitary,
    pi,
    random_coisometry,
    unvec,
)
from meskit.extension import ad_commutation_residual
from meskit.superop import _as_int


def complex_gaussian(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b after removing one global phase."""
    overlap = np.vdot(a.reshape(-1), b.reshape(-1))
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def unitary_pair(dims: Dims, seed: int):
    u = haar_unitary(dims.m, np.random.SeedSequence([seed, 0]))
    v = haar_unitary(dims.n, np.random.SeedSequence([seed, 1]))
    return u, v


def identity_superop(dims: Dims) -> Superoperator:
    """The identity map on L(X (x) Y)."""
    side = dims.mn * dims.mn
    return Superoperator(matrix=np.eye(side, dtype=complex), dims=dims)


def canonical_family(dims: Dims) -> np.ndarray:
    """The coordinate family [I|0|...|0], [0|I|0|...], ..., stacked (k, m, n)."""
    return np.eye(dims.n, dtype=complex).reshape(dims.k, dims.m, dims.n)


# Reference implementations the closed forms in meskit are checked against:
# the permutation matrix of the transpose, a dense basis of span(MES), and a
# sampled commutation test.
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


def _yy_sampling_dims(phi_like) -> Dims:
    if isinstance(phi_like, ExtendedSuperoperator):
        return phi_like.yy_dims
    if isinstance(phi_like, Superoperator):
        if phi_like.dims.m != phi_like.dims.n:
            raise DimensionError("commutation sampling needs a map on a square space")
        return phi_like.dims
    raise TypeError("expected an ExtendedSuperoperator or a square-space Superoperator")


def commutes_with_ad(phi_tilde, W, seed=0) -> bool:
    """True iff phi_tilde commutes with M -> W M W* within 1e-9 on 20 sampled
    MES of Y (x) Y."""
    dims = _yy_sampling_dims(phi_tilde)
    for i in range(20):
        A = random_coisometry(dims, np.random.SeedSequence([_as_int(seed), 17, i]))
        if ad_commutation_residual(phi_tilde, W, pi(A)) >= 1e-9:
            return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
