"""Full decomposition pipeline: certify a superoperator as an invertible MES
preserver and recover its (sigma, U, V) conjugation form.

:func:`decompose` draws no random number.  It tries sigma = identity, then,
only when that attempt is refused, sigma = transpose; each attempt runs three
stages, each with a typed failure and a fixed threshold (only ``tol`` is an
argument):

1. recovery of the conjugation unitary W
   -> NotInvertibleError when phi(x_r x_s*) is (relatively) zero,
      NotPreserverError when the columns read off are not unitary
2. span certificate of Ad_{U (x) V} o sigma, with U (x) V the nearest
   Kronecker product to W (``verification_residual`` < min(5 ``tol``, 1e-6))
   -> NotPreserverError
3. factorization: Kronecker residual < ``tol``, factors unitary within 1e-8
   -> NotKroneckerError

Verdict rule: phi is accepted, with the first sigma whose attempt passes all
three stages, exactly when its certificate is below min(5 ``tol``, 1e-6) and
its Kronecker residual below ``tol``.  When both attempts are refused, the
refusal of the attempt that got further is raised (recovery < certificate <
factorization); when both stopped at the certificate (only seen at (m,k) =
(1,2)) the one with the smaller residual, and otherwise the identity's.  The
message names the stage.  The certificate is checked before the Kronecker
residual because noise on phi moves both: a map certified near 1e-6 is not
a preserver, and refusing it for its Kronecker residual would call it a
non-Kronecker conjugation.

Stage 1 reads the unitary W off phi's images.  For basis vectors x_a, x_b
with different Y indices, x_a x_b* lies in span(MES) (its trace and partial
trace vanish), so column ``a*mn + b`` of phi o sigma's matrix is
vec(w_a w_b*), with w_a the columns of W.  One rank-one column fixes w_r and
w_s up to a common phase, and every other w_a follows by one matrix-vector
product.  x_r x_s* is a unit element of span(MES), so a map that sends it to
(relatively) zero is singular on the span: the trace form gives exactly 0.

A wrong sigma cannot accept: under it phi(x_a x_b*) is w_b w_a*, so stage 1
reads off w_1 and w_0 as columns 0 and 1 and zeros elsewhere.  For mn >= 3
that is rank 2 and stage 1 refuses; at (m,k) = (1,2) the two columns form a
unitary and stage 2 refuses (residual 2 on exact maps).

Stage 2 decides success.  ``verification_residual`` is the spectral norm eps
of ``phi - Ad_W o sigma`` on span(MES), with the closed-form basis P of the
span's complement {A (x) I_n : tr A = 0} projected out; it bounds the
residual of every MES (each has unit Frobenius norm).  Ad_W o sigma is a
Frobenius isometry of span(MES) onto itself, so eps < 1 puts phi's smallest
singular value on the span at or above 1 - eps: no separate invertibility
check is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    MESKitError,
    NotInvertibleError,
    NotKroneckerError,
    NotPreserverError,
)
from .superop import SigmaFlag, Superoperator, _add_product, _conjugation_matrix, _span_complement
from .tensor import (
    Dims,
    fix_global_phase,
    frobenius,
    kron,
    nearest_kron_factor,
)

_STAGES = ("stage recovery", "stage certificate", "stage factorization")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of a successful decomposition: phi = ad_{U (x) V} o sigma."""

    sigma: SigmaFlag
    U: np.ndarray
    V: np.ndarray
    kron_residual: float
    verification_residual: float


def recover_unitary(images: np.ndarray, dims: Dims) -> np.ndarray:
    """Conjugation unitary W with phi(M) = W M W* on span(MES), for k >= 2.

    With r = 0 (Y index 0) and s = 1 (Y index 1), Z = phi(x_r x_s*) =
    w_r w_s*, so w_r is Z's leading left singular vector and w_s = Z* w_r.
    Then w_a = phi(x_a x_r*) w_r when a's Y index is nonzero, and
    w_a = phi(x_a x_s*) w_s otherwise; all columns share one phase.  The
    result is corrected to the nearest unitary and phase-gauged.  Raises
    NotInvertibleError when ``||Z||_F <= 1e-6 ||phi||_F / mn`` (phi is
    singular on span(MES); the trace form gives Z = 0) and NotPreserverError
    when the columns read off are not unitary within a relative 1e-6, each
    with the prefix "stage recovery: ".
    ``images`` is the sigma-corrected map's (d, d, d, d) image array
    ``images[:, :, a, b] = phi(x_a x_b*)``, which may be a view.
    """
    d = dims.mn
    r, s = 0, 1
    Z = images[:, :, r, s]
    z_norm = frobenius(Z)
    if z_norm <= 1e-6 * frobenius(images) / d:
        raise NotInvertibleError(
            f"stage recovery: singular on span(MES): |phi(x_r x_s*)|_F = {z_norm:.3e} "
            "for a unit element"
        )
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
        raise NotPreserverError(
            "stage recovery: no conjugation form: singular ratio "
            f"{svals[-1] / max(top, 1e-300):.3e} of the recovered columns"
        )
    return fix_global_phase(u @ vh)


def _certify(phi: Superoperator, sigma: SigmaFlag, tol: float) -> Decomposition:
    """Stages 1-3 under ``sigma``: recovery, span certificate, factorization.

    Raises the typed error of the first failing stage, its message prefixed
    with the stage's name (:func:`recover_unitary` raises stage recovery's
    itself); a certificate failure carries its ``residual``.
    """
    dims = phi.dims
    images = phi.matrix.reshape((dims.mn,) * 4)  # images[:, :, a, b] = phi(x_a x_b*)
    # under the transpose, phi o sigma's images are a view: no copy of phi
    W = recover_unitary(images.swapaxes(2, 3) if sigma is SigmaFlag.TRANSPOSE else images, dims)
    U, V, kron_residual = nearest_kron_factor(W, dims)
    dec = Decomposition(sigma, U, V, kron_residual, verification_residual=0.0)
    residual = verify_theorem_form(phi, dec)
    bound = min(5 * tol, 1e-6)
    if residual >= bound:
        refusal = NotPreserverError(f"stage certificate: span residual {residual:.3e} >= {bound:.1e}")
        refusal.residual = residual
        raise refusal
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
    return replace(dec, verification_residual=residual)


def _progress(refusal: MESKitError) -> tuple:
    """How far a refused attempt got: its stage, then the smaller residual."""
    stage = str(refusal).partition(":")[0]
    return _STAGES.index(stage), -getattr(refusal, "residual", 0.0)


def decompose(phi: Superoperator, tol: float = 1e-9) -> Decomposition:
    """Classify an invertible MES preserver as (sigma, U, V).

    Runs :func:`_certify` under the identity, then under the transpose if
    that is refused, and returns the first record: its certificate is below
    min(5 ``tol``, 1e-6) and its Kronecker residual below ``tol``.  When both
    are refused, raises the refusal of the attempt that got further (see the
    module docstring).  A non-finite entry is refused first
    (NotPreserverError, "stage input").  No random number is drawn.
    """
    if not np.isfinite(phi.matrix).all():
        raise NotPreserverError("stage input: the matrix has a non-finite entry")
    if phi.dims.k < 2:
        raise DimensionError(
            "classification applies to block counts k >= 2; square-space (k = 1) "
            "maps are out of scope"
        )
    refusals = []
    for sigma in SigmaFlag:  # the identity first; the transpose only if it is refused
        try:
            return _certify(phi, sigma, tol)
        except (NotInvertibleError, NotKroneckerError, NotPreserverError) as exc:
            refusals.append(exc)
    raise max(refusals, key=_progress)  # max keeps the first of equals: the identity's


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
