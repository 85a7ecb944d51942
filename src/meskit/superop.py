"""Superoperators on L(X (x) Y) and the canonical entanglement-preserver forms.

A superoperator is stored as an (mn)^2 x (mn)^2 matrix acting on row-vectorized
operators: ``vec(Phi(M)) = Phi.matrix @ vec(M)``.  Under the row-stacking
convention, conjugation ``M -> W M W*`` has matrix ``kron(W, conj(W))``;
composing it with the transpose ``M -> M^T`` moves column (j, i) to column
(i, j), so each matrix is written once as an outer product of W and conj(W)
in the permuted index order, with no permutation matrix.

The constructors cover the three canonical preserver families:

* ``make_adjoint_preserver``: ``M -> (U (x) V) M^sigma (U (x) V)*``
* ``make_swap_preserver`` (square case only): the same composed with the
  switch ``A (x) B -> B (x) A``, which is conjugation by the flip unitary F,
  so the map is the adjoint form of ``(U (x) V) F``
* ``make_trace_preserver``: ``M -> tr(M) rho`` for a fixed MES ``rho``

span(MES) has a closed-form orthogonal complement, {A (x) I_n : tr A = 0}
(plus {I_m (x) B : tr B = 0} when k = 1), so the checks on the span work with
its small orthonormal basis P and the projector I - PP*; no basis of the
span itself is built.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotMESError, NotUnitaryError
from .states import is_mes
from .tensor import Dims, as_complex, frobenius, kron, scaled_tol, vec


class SigmaFlag(enum.Enum):
    """Whether a preserver composes unitary conjugation with the identity or
    the transpose in the fixed product basis."""

    IDENTITY = "identity"
    TRANSPOSE = "transpose"


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on L(X (x) Y) as a matrix on row-vectorized operators.

    The matrix is defined on all of L(X (x) Y) even though the classification
    results only constrain behavior on span(MES); every certificate and
    recovery in this package reads the map on MES elements or on span(MES)
    with its complement projected out, so the off-span action is a
    representation detail.
    """

    matrix: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", as_complex(self.matrix))
        side = self.dims.mn * self.dims.mn
        if self.matrix.shape != (side, side):
            raise DimensionError(
                f"superoperator for dims {self.dims} must be {side}x{side}, "
                f"got {self.matrix.shape}"
            )


def _transpose_columns(a: np.ndarray, d: int) -> np.ndarray:
    """The d^2 columns of ``a`` permuted by the transpose of d x d matrices:
    column (i, j) of the result is column (j, i) of ``a``."""
    rows = a.shape[0]
    return a.reshape(rows, d, d).transpose(0, 2, 1).reshape(rows, d * d)


def apply(phi, M) -> np.ndarray:
    """Evaluate a superoperator on an operator: unvec(matrix @ vec(M)).

    A map that evaluates itself without a dense matrix (the blockwise
    extension, the lemma suite's W M^sigma W*) provides ``apply_to(M)``,
    which is called instead.
    """
    M = as_complex(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square operator, got shape {M.shape}")
    if hasattr(phi, "apply_to"):
        return phi.apply_to(M)
    mat, d = phi.matrix, M.shape[0]
    if mat.shape != (d * d, d * d):
        raise DimensionError(f"superoperator side {mat.shape} does not match operator {M.shape}")
    return (mat @ M.reshape(-1)).reshape(d, d)


def _require_unitary(U: np.ndarray, name: str) -> np.ndarray:
    U = as_complex(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise NotUnitaryError(f"{name} must be square, got shape {U.shape}")
    dev = frobenius(U @ U.conj().T - np.eye(U.shape[0]))
    if dev >= scaled_tol(1e-10, frobenius(U)):
        raise NotUnitaryError(f"{name} deviates from unitarity by {dev:.3e}")
    return U


def _conjugation_matrix(w: np.ndarray, sigma: SigmaFlag) -> np.ndarray:
    """Matrix of M -> w M^sigma w*: ``kron(w, conj(w))``, with its columns
    permuted by the transpose when sigma is the transpose flag."""
    d = w.shape[0]
    if sigma is SigmaFlag.TRANSPOSE:
        blocks = np.multiply(w[:, None, None, :], w.conj()[None, :, :, None])
    else:
        blocks = np.multiply(w[:, None, :, None], w.conj()[None, :, None, :])
    return blocks.reshape(d * d, d * d)


def make_adjoint_preserver(U, V, sigma: SigmaFlag) -> Superoperator:
    """Superoperator M -> (U (x) V) M^sigma (U (x) V)* for unitary U (m x m) and
    V (n x n); m must divide n."""
    U = _require_unitary(U, "U")
    V = _require_unitary(V, "V")
    dims = Dims(U.shape[0], V.shape[0])
    return Superoperator(matrix=_conjugation_matrix(kron(U, V), sigma), dims=dims)


def make_swap_preserver(U, V, sigma: SigmaFlag) -> Superoperator:
    """Square-case preserver M -> (U (x) V) (S(M))^sigma (U (x) V)* where S is
    the switch A (x) B -> B (x) A; requires U and V of equal size.

    S is conjugation by the real, symmetric flip F, so (S(M))^T = S(M^T) and
    the map is M -> W M^sigma W* with W = (U (x) V) F, whose column (a, b) is
    column (b, a) of U (x) V.
    """
    U = _require_unitary(U, "U")
    V = _require_unitary(V, "V")
    if U.shape != V.shape:
        raise DimensionError(f"switch form needs equal factor dimensions, got {U.shape} and {V.shape}")
    m = U.shape[0]
    dims = Dims(m, m)
    w = _transpose_columns(kron(U, V), m)
    return Superoperator(matrix=_conjugation_matrix(w, sigma), dims=dims)


def make_trace_preserver(rho: np.ndarray, dims: Dims) -> Superoperator:
    """Non-invertible preserver M -> tr(M) rho for a fixed MES rho on X (x) Y."""
    if not is_mes(rho, dims):
        raise NotMESError("trace-form preserver requires an MES target state")
    mat = np.outer(vec(rho), vec(np.eye(dims.mn)))
    return Superoperator(matrix=mat, dims=dims)


def _traceless_basis(m: int) -> list[np.ndarray]:
    """Orthonormal real basis of the traceless m x m matrices: the m(m - 1)
    matrix units off the diagonal, then the m - 1 diagonal matrices
    diag(1, ..., 1, -j, 0, ..., 0) / sqrt(j (j + 1)) with j ones."""
    eye = np.eye(m)
    basis = [np.outer(eye[i], eye[j]) for i in range(m) for j in range(m) if i != j]
    for j in range(1, m):
        diagonal = np.r_[np.ones(j), -j, np.zeros(m - j - 1)]
        basis.append(np.diag(diagonal) / np.sqrt(j * (j + 1)))
    return basis


@functools.lru_cache(maxsize=32)
def _span_complement(dims: Dims) -> np.ndarray:
    """Orthonormal column basis P of the orthogonal complement of span(MES)
    inside C^{(mn)^2}, in closed form.

    span(MES) is the kernel of M -> tr_Y(M) - (tr M / m) I_m, so its
    complement is the range of the adjoint map A -> A (x) I_n - (tr A / m) I,
    that is {A (x) I_n : tr A = 0}: the columns are vec(A_j (x) I_n) / sqrt(n)
    over the traceless basis A_j, m^2 - 1 of them.  For k = 1 the tr_X
    constraint adds vec(I_m (x) B_j) / sqrt(m), orthogonal to the first
    family, for 2m^2 - 2 columns.
    """
    m, n = dims.m, dims.n
    cols = [kron(a, np.eye(n)) / np.sqrt(n) for a in _traceless_basis(m)]
    if dims.k == 1:
        cols += [kron(np.eye(m), b) / np.sqrt(m) for b in _traceless_basis(n)]
    p = np.array(cols, dtype=complex).reshape(len(cols), dims.mn**2).T
    p.flags.writeable = False
    return p


# Bytes of the temporary of one row slab in :func:`_add_product`.
_SLAB_BYTES = 1 << 20


def _add_product(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``x += a @ b`` in place, one slab of rows at a time, so no temporary
    the size of x is made; a has few columns."""
    step = max(1, _SLAB_BYTES // (x.itemsize * x.shape[1]))
    for i in range(0, x.shape[0], step):
        x[i : i + step] += a[i : i + step] @ b


def is_invertible_on_span(phi: Superoperator) -> bool:
    """True iff the restriction of phi to span(MES) has smallest singular
    value above 1e-9 (in orthonormal coordinates of the span).

    With P the closed-form complement basis and Q any orthonormal basis of
    the span, QQ* = I - PP*, so ``(I - PP*) phi (I - PP*) + PP*`` has the
    singular values of Q* phi Q plus a 1 per column of P, and 1 is above the
    threshold.  The matrix is formed in one copy of phi.

    Not on :func:`meskit.classify.decompose`'s path (its span certificate
    implies invertibility).  Its only caller outside the tests is
    ``perfbench``, whose set-up warms P's cache with it; that is why it stays.
    """
    p = _span_complement(phi.dims)
    ph = p.conj().T
    r = phi.matrix.copy()
    _add_product(r, -(phi.matrix @ p), ph)  # phi (I - PP*)
    _add_product(r, p, ph - ph @ r)  # (I - PP*) r + PP*
    s = np.linalg.svd(r, compute_uv=False)
    return float(s[-1]) > 1e-9


def _as_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
