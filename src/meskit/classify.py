"""Full decomposition pipeline: certify a superoperator as an invertible MES
preserver and recover its (sigma, U, V) conjugation form.

Pipeline stages, each with a typed failure and a fixed threshold; only the
Kronecker residual's ``tol`` is an argument of :func:`decompose`:

1. sampled preserver check            -> NotPreserverError
   (20 seeded MES, each image an MES within a relative 1e-8)
2. invertibility on span(MES)         -> NotInvertibleError
   (smallest singular value on the span > 1e-9, read off
   (I - PP*) phi (I - PP*) + PP*, where P is the closed-form basis of the
   span's complement {A (x) I_n : tr A = 0}; no basis of the span is built)
3. sigma discriminant (det J(G))      -> InconsistentChoiError, or
   NotMESError when an image there is not an MES
   (balls of radius 0.5 around det 0 and det -1)
4. conjugation-unitary recovery       -> NoSolutionError
   (smallest/largest singular value of the columns read off >= 1 - 1e-6)
5. nearest Kronecker factorization    -> NotKroneckerError
   (Kronecker residual < ``tol``; factors unitary within 1e-8)

Stage 4 reads the unitary W off the sigma-corrected matrix itself.  For basis
vectors x_a, x_b with different Y indices, x_a x_b* lies in span(MES) (its
trace and partial trace vanish), so column ``a*mn + b`` of the matrix is
vec(w_a w_b*), with w_a the columns of W.  One rank-one column fixes w_r and
w_s up to a common phase, and every other w_a follows by one matrix-vector
product.  The returned ``verification_residual`` is the spectral norm of
``phi - Ad_W o sigma`` on span(MES), taken with the same P projected out, which
bounds the residual of every MES, since each has unit Frobenius norm.
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
    NotMESError,
    NotPreserverError,
)
from .superop import (
    SigmaFlag,
    Superoperator,
    _add_product,
    _conjugation_matrix,
    _span_complement,
    _transpose_columns,
    is_invertible_on_span,
    preserves_mes,
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
    except (InconsistentChoiError, NotMESError) as exc:
        raise type(exc)(f"stage discriminant: {exc}") from exc
    try:
        # the sigma-corrected copy lives only for this call
        W = recover_unitary(
            _transpose_columns(phi.matrix, dims.mn) if sigma is SigmaFlag.TRANSPOSE else phi.matrix,
            dims,
        )
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
    computed as ``|| X (I - PP*) ||_2`` with X = phi - Ad_{U (x) V} o sigma
    and P the closed-form basis of the span's complement, since
    QQ* = I - PP*: X is formed once and P projected out of it in place, so
    phi, X and the norm's own copy are the only matrices of that size.  It is
    deterministic and never raises on a large residual.
    """
    x = _conjugation_matrix(kron(dec.U, dec.V), dec.sigma)
    np.subtract(phi.matrix, x, out=x)
    p = _span_complement(phi.dims)
    _add_product(x, -(x @ p), p.conj().T)
    return float(np.linalg.norm(x, 2))
