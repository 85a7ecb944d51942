"""Full decomposition pipeline: certify a superoperator as an invertible MES
preserver and recover its (sigma, U, V) conjugation form.

:func:`decompose` draws no random number.  It tries sigma = identity, then,
only when that attempt is refused, sigma = transpose; each attempt runs two
stages, each refusing with NotPreserverError at a fixed threshold (only
``tol`` is an argument):

1. recovery of the conjugation unitary W, screened: refused when the
   columns read off are not finite or have singular ratio at most 1/2 (no
   conjugation form)
2. span certificate of Ad_{U (x) V} o sigma, with U (x) V the nearest
   Kronecker product to W (``verification_residual`` < min(5 ``tol``, 1e-6))

Verdict rule: phi is accepted, with the first sigma whose attempt passes
both stages, exactly when its certificate is below min(5 ``tol``, 1e-6);
the Kronecker residual ||W - U (x) V||_F is reported, not gated, as the
certificate already compares phi with Ad_{U (x) V} o sigma.  When both
attempts are refused, singularity is decided once (see :func:`decompose`),
and otherwise the refusal with the smaller certificate residual is raised, a
screened attempt's counting as infinite; of equals, the identity's.

Stage 1 reads the unitary W off phi's images.  For basis vectors x_a, x_b
with different Y indices, x_a x_b* lies in span(MES) (its trace and partial
trace vanish), so column ``a*mn + b`` of phi o sigma's matrix is
vec(w_a w_b*), with w_a the columns of W.  One rank-one column fixes w_r and
w_s up to a common phase, and every other w_a follows by one matrix-vector
product.  The transpose attempt reads x_s x_r* in place of x_r x_s*.  The
screen is structural: an attempt whose certificate eps is below the 1e-6 cap
reads columns within O(sqrt(mn) eps) of orthonormal, with a ratio far above
1/2, so it never refuses what the certificate would accept.  A map that
kills x_r x_s* (the trace form does) gives zero columns, which it refuses.

A wrong sigma cannot accept: under it phi(x_a x_b*) is w_b w_a*, so stage 1
reads off w_1 and w_0 as columns 0 and 1 and zeros elsewhere.  For mn >= 3
that is rank 2 (ratio about 1e-19) and the screen refuses; at (m,k) = (1,2)
the two columns form a unitary and stage 2 refuses (residual 2 on exact maps).

Stage 2's ``verification_residual`` is the spectral norm eps of
``phi - Ad_{U (x) V} o sigma`` on span(MES), with the span's complement
{A (x) I_n : tr A = 0} projected out in closed form; it bounds the residual
of every MES (each has unit Frobenius norm).  Ad_{U (x) V} o sigma is a
Frobenius isometry of span(MES) onto itself (U and V are unitary to second
order, see :func:`_certify`), so by Weyl's inequality eps < 1 puts phi's
smallest singular value on the span at or above 1 - eps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NotInvertibleError, NotPreserverError, _refusal
from .superop import Conjugation, SigmaFlag, Superoperator, _span_sigma_min, _span_singular_values
from .tensor import (
    DEFAULT_TOL,
    Dims,
    check_tol,
    fix_global_phase,
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


def recover_unitary(images: np.ndarray, dims: Dims) -> np.ndarray:
    """Conjugation unitary W with phi(M) = W M W* on span(MES), for k >= 2.

    With r = 0 (Y index 0) and s = 1 (Y index 1), Z = phi(x_r x_s*) =
    w_r w_s*, so w_r is Z's leading left singular vector and w_s = Z* w_r.
    Then w_a = phi(x_a x_r*) w_r when a's Y index is nonzero, and
    w_a = phi(x_a x_s*) w_s otherwise; all columns share one phase.  The
    result is corrected to the nearest unitary and phase-gauged.  Raises
    NotPreserverError, "stage recovery: ", when a column is not finite (the
    columns read through w_s carry c^2 for c phi, so overflow from about
    c = 1.34e154), or when the columns' smallest singular value is at most
    half their largest: a screen, not a gate, since a map within eps < 1e-6
    of Ad_W on span(MES) reads columns within O(sqrt(mn) eps) of
    orthonormal.  A zero Z gives zero columns.
    ``images`` is the sigma-corrected map's (d, d, d, d) image array
    ``images[:, :, a, b] = phi(x_a x_b*)``, which may be a view.
    """
    d = dims.mn
    r, s = 0, 1
    Z = images[:, :, r, s]
    w_r = np.linalg.svd(Z)[0][:, 0]
    w_s = Z.conj().T @ w_r
    nonzero_y = (np.arange(d) % dims.n != 0)[None, :]
    W0 = np.where(
        nonzero_y,
        np.einsum("ija,j->ia", images[:, :, :, r], w_r),
        np.einsum("ija,j->ia", images[:, :, :, s], w_s),
    )
    if not np.isfinite(W0).all():
        raise _refusal(NotPreserverError, "recovery", "no conjugation form: the recovered columns are not finite")
    u, svals, vh = np.linalg.svd(W0)
    ratio = svals[-1] / max(svals[0], 1e-300)
    if ratio <= 0.5:
        detail = f"no conjugation form: singular ratio {ratio:.3e} of the recovered columns"
        raise _refusal(NotPreserverError, "recovery", detail)
    return fix_global_phase(u @ vh)


def _certify(phi: Superoperator, sigma: SigmaFlag, tol: float) -> Decomposition:
    """Stages 1-2 under ``sigma``: recovery, then the span certificate.

    Raises the first failing stage's NotPreserverError, with the stage's name
    as ``stage`` and, at the certificate, its ``residual``.  U and V need no
    unitarity gate.  Write W = (U0 (x) V0) exp(iH), with U0 (x) V0 the
    nearest Kronecker unitary and H Hermitian: to first order in ||H|| the
    nearest Kronecker product is U0 exp(iA) (x) V0 exp(iB), A and B
    Hermitian (H's partial traces, scaled), so each factor misses unitarity
    only at order ||H||^2.  ||H|| is about the Kronecker residual, which an
    accept keeps near its certificate (< 1e-6).
    """
    dims = phi.dims
    images = phi.matrix.reshape((dims.mn,) * 4)  # images[:, :, a, b] = phi(x_a x_b*)
    # under the transpose, phi o sigma's images are a view: no copy of phi
    W = recover_unitary(images.swapaxes(2, 3) if sigma is SigmaFlag.TRANSPOSE else images, dims)
    dec = Decomposition(sigma, *nearest_kron_factor(W, dims), verification_residual=0.0)
    residual = verify_theorem_form(phi, dec)
    bound = min(5 * tol, 1e-6)
    if residual >= bound:
        detail = f"span residual {residual:.3e} >= {bound:.1e}"
        raise _refusal(NotPreserverError, "certificate", detail, residual=residual)
    return replace(dec, verification_residual=residual)


def decompose(phi: Superoperator, tol: float = DEFAULT_TOL) -> Decomposition:
    """Classify an invertible MES preserver as (sigma, U, V).

    Runs :func:`_certify` under the identity, then under the transpose if
    that is refused, and returns the first record: its certificate is below
    min(5 ``tol``, 1e-6).  One rule decides singularity: when both are
    refused and neither certificate is below 1/2, phi's smallest singular
    value on span(MES) is computed once, and at or below 1e-6 times phi's
    RMS singular value there raises NotInvertibleError, "stage recovery: "
    (a certificate eps < 1/2 puts it at or above 1 - eps).  Otherwise the
    refusal with the smaller residual is raised (see the module docstring).
    A ``tol`` that is not finite and positive is refused first (ValueError),
    then a map with k < 2 (DimensionError), before its matrix is read, and
    then a non-finite entry (NotPreserverError, "stage input").
    ``phi.matrix`` is read once per call, and every stage reads that one
    dense array; nothing built here outlives the call or the refusal it
    raises.  No random number is drawn.
    """
    check_tol(tol)
    if phi.dims.k < 2:
        raise DimensionError(
            "classification applies to block counts k >= 2; square-space (k = 1) "
            "maps are out of scope"
        )
    phi = Superoperator(phi.matrix, phi.dims)  # the one dense read; a Superoperator's is not copied
    if not np.isfinite(phi.matrix).all():
        raise _refusal(NotPreserverError, "input", "the matrix has a non-finite entry")
    refusals = []
    try:
        for sigma in SigmaFlag:  # the identity first; the transpose only if it is refused
            try:
                return _certify(phi, sigma, tol)
            except NotPreserverError as exc:
                refusals.append(exc)
        refusals.sort(key=lambda refusal: getattr(refusal, "residual", np.inf))  # stable
        if getattr(refusals[0], "residual", np.inf) >= 0.5:  # else invertible on the span
            smallest, threshold = _span_sigma_min(phi)
            if smallest <= threshold:
                detail = f"singular on span(MES): smallest singular value {smallest:.3e} <= {threshold:.3e}"
                raise _refusal(NotInvertibleError, "recovery", detail)
        raise refusals[0]
    finally:  # each refusal's traceback holds this frame: break the cycle for refcounting
        refusals.clear()


def verify_theorem_form(phi: Superoperator, dec: Decomposition) -> float:
    """Certificate residual ``|| (phi - Ad_{U (x) V} o sigma) Q ||_2`` over an
    orthonormal basis Q of span(MES).

    Every MES M has unit Frobenius norm, so this bounds
    ``|| phi(M) - (U (x) V) M^sigma (U (x) V)* ||_F`` for all of them.  It is
    computed as ``|| X (I - Pi) ||_2`` with X = phi - Ad_{U (x) V} o sigma
    and Pi the real, symmetric projector onto the span's complement, since
    QQ* = I - Pi: X is formed once and its rows projected onto the span in
    place, by partial traces, so phi, X and the SVD's own copy are the only
    matrices of that size.  It is deterministic and never raises on a large
    residual.
    """
    x = Conjugation(kron(dec.U, dec.V), dec.sigma, phi.dims).matrix
    np.subtract(phi.matrix, x, out=x)
    return float(_span_singular_values(x, phi.dims)[0])
