"""Full decomposition pipeline: certify a superoperator as an invertible MES
preserver and recover its (sigma, U, V) conjugation form.

Pipeline stages, each with a typed failure:

1. sampled preserver check            -> NotPreserverError
2. invertibility on span(MES)         -> NotInvertibleError
3. sigma discriminant (det J(G))      -> InconsistentChoiError
4. conjugation-unitary recovery       -> NoSolutionError
5. nearest Kronecker factorization    -> NotKroneckerError

Stage 4 reads the unitary W off the sigma-corrected matrix itself.  For basis
vectors x_a, x_b with different Y indices, x_a x_b* lies in span(MES) (its
trace and partial trace vanish), so column ``a*mn + b`` of the matrix is
vec(w_a w_b*), with w_a the columns of W.  One rank-one column fixes w_r and
w_s up to a common phase, and every other w_a follows by one matrix-vector
product.  The returned ``verification_residual`` is the spectral norm of
``phi - Ad_W o sigma`` on an orthonormal basis of span(MES), which bounds the
residual of every MES, since each has unit Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .choi import detect_sigma
from .errors import (
    DimensionError,
    InconsistentChoiError,
    NoSolutionError,
    NotInvertibleError,
    NotKroneckerError,
    NotPreserverError,
)
from .superop import (
    SigmaFlag,
    Superoperator,
    _span_orthobasis,
    is_invertible_on_span,
    preserves_mes,
    transpose_matrix,
)
from .tensor import (
    Dims,
    as_complex,
    fix_global_phase,
    frobenius,
    kron,
    nearest_kron_factor,
)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of a successful decomposition: phi = ad_{U (x) V} o sigma."""

    sigma: SigmaFlag
    U: np.ndarray
    V: np.ndarray
    kron_residual: float
    verification_residual: float


def recover_unitary(phi_corrected, dims: Dims) -> np.ndarray:
    """Conjugation unitary W with phi(M) = W M W* on span(MES), for k >= 2.

    With r = 0 (Y index 0) and s = 1 (Y index 1), Z = phi(x_r x_s*) =
    w_r w_s*, so w_r is Z's leading left singular vector and w_s = Z* w_r.
    Then w_a = phi(x_a x_r*) w_r when a's Y index is nonzero, and
    w_a = phi(x_a x_s*) w_s otherwise; all columns share one phase.  The
    result is corrected to the nearest unitary and phase-gauged.  Raises
    NoSolutionError when the columns read off are not unitary within a
    relative 1e-6 (the trace form gives Z = 0).
    """
    mat = phi_corrected.matrix if hasattr(phi_corrected, "matrix") else as_complex(phi_corrected)
    d = dims.mn
    r, s = 0, 1
    images = mat.reshape(d, d, d, d)  # images[:, :, a, b] = phi(x_a x_b*)
    Z = images[:, :, r, s]
    w_r = np.linalg.svd(Z)[0][:, 0]
    w_s = Z.conj().T @ w_r
    nonzero_y = (np.arange(d) % dims.n != 0)[None, :]
    W0 = np.where(
        nonzero_y,
        np.einsum("ija,j->ia", images[:, :, :, r], w_r),
        np.einsum("ija,j->ia", images[:, :, :, s], w_s),
    )
    u, svals, vh = np.linalg.svd(W0)
    top = float(svals[0])
    if top <= 0.0 or float(svals[-1]) < (1.0 - 1e-6) * top:
        raise NoSolutionError(
            f"no conjugation form: singular ratio {svals[-1] / max(top, 1e-300):.3e} "
            "of the recovered columns"
        )
    return fix_global_phase(u @ vh)


def decompose(phi: Superoperator, tol: float = 1e-9, seed=0) -> Decomposition:
    """Classify an invertible MES preserver as (sigma, U, V).

    ``tol`` gates the Kronecker residual of the recovered unitary; ``seed``
    drives the sampled preserver check and the sigma discriminant.  Raises
    the typed error of the first failing pipeline stage; on success the
    returned record carries the Kronecker residual and the span certificate
    of :func:`verify_theorem_form`.
    """
    dims = phi.dims
    if dims.k < 2:
        raise DimensionError(
            "classification applies to block counts k >= 2; square-space (k = 1) "
            "maps are out of scope"
        )
    if not preserves_mes(phi, seed=seed):
        raise NotPreserverError("stage preserves-mes: a sampled MES image is not an MES")
    if not is_invertible_on_span(phi):
        raise NotInvertibleError("stage invertibility: map is singular on span(MES)")
    try:
        sigma = detect_sigma(phi, seed=seed)
    except InconsistentChoiError as exc:
        raise InconsistentChoiError(f"stage discriminant: {exc}") from exc
    mat = phi.matrix
    if sigma is SigmaFlag.TRANSPOSE:
        mat = mat @ transpose_matrix(dims.mn)
    try:
        W = recover_unitary(mat, dims)
    except NoSolutionError as exc:
        raise NoSolutionError(f"stage recovery: {exc}") from exc
    U, V, kron_residual = nearest_kron_factor(W, dims)
    if kron_residual >= tol:
        raise NotKroneckerError(
            f"stage factorization: Kronecker residual {kron_residual:.3e} >= {tol:.1e}"
        )
    unitary_dev = max(
        frobenius(U @ U.conj().T - np.eye(dims.m)),
        frobenius(V @ V.conj().T - np.eye(dims.n)),
    )
    if unitary_dev >= 1e-8:
        raise NotKroneckerError(
            f"stage factorization: factors deviate from unitarity by {unitary_dev:.3e}"
        )
    dec = Decomposition(
        sigma=sigma, U=U, V=V, kron_residual=kron_residual, verification_residual=0.0
    )
    return replace(dec, verification_residual=verify_theorem_form(phi, dec))


def verify_theorem_form(phi: Superoperator, dec: Decomposition) -> float:
    """Certificate residual ``|| (phi - Ad_{U (x) V} o sigma) Q ||_2`` over an
    orthonormal basis Q of span(MES).

    Every MES M has unit Frobenius norm, so this bounds
    ``|| phi(M) - (U (x) V) M^sigma (U (x) V)* ||_F`` for all of them.  It is
    deterministic and never raises on a large residual.
    """
    d = phi.dims.mn
    q = _span_orthobasis(phi.dims)
    W = kron(dec.U, dec.V)
    basis = q.T.reshape(-1, d, d)
    if dec.sigma is SigmaFlag.TRANSPOSE:
        basis = basis.transpose(0, 2, 1)
    expected = (W @ basis @ W.conj().T).reshape(-1, d * d).T
    return float(np.linalg.norm(phi.matrix @ q - expected, 2))
