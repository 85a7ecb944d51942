"""Superoperators on L(X (x) Y) and the canonical entanglement-preserver forms.

A map is anything with ``dims`` and ``apply_to``; :func:`apply` checks the
operator's shape once and calls ``apply_to``.  A :class:`Superoperator`
stores an (mn)^2 x (mn)^2 matrix acting on row-vectorized operators:
``vec(Phi(M)) = Phi.matrix @ vec(M)``.  A :class:`Conjugation` is
``M -> W M^sigma W*``, the form of every invertible MES preserver, held as W
and applied as that product.  Its matrix, built on each read and never kept,
is ``kron(W, conj(W))``, with column (j, i) moved to column (i, j) under the
transpose, written once as an outer product of W and conj(W) in the permuted
index order.

The constructors cover the three canonical preserver families:

* ``make_adjoint_preserver``: ``M -> (U (x) V) M^sigma (U (x) V)*``
* ``make_swap_preserver`` (square case only): the same composed with the
  switch ``A (x) B -> B (x) A``, which is conjugation by the flip unitary F,
  so it is the :class:`Conjugation` by ``(U (x) V) F``
* ``make_trace_preserver``: the :class:`Superoperator` ``M -> tr(M) rho``
  for a fixed MES ``rho``

span(MES) has a closed-form orthogonal complement, {A (x) I_n : tr A = 0}
(plus {I_m (x) B : tr B = 0} when k = 1), so the checks on the span project
onto it with partial traces alone and read one SVD; no basis of the span or
of its complement is built.
"""

from __future__ import annotations

import enum
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
    with its complement projected out, so the off-span action reaches them
    only as rounding, of order 1e-16 of its norm.
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

    def apply_to(self, M: np.ndarray) -> np.ndarray:
        """unvec(matrix @ vec(M)) for an mn x mn operator M."""
        return (self.matrix @ M.reshape(-1)).reshape(M.shape)


def apply(phi, M) -> np.ndarray:
    """``phi.apply_to(M)`` for any map with ``dims`` and ``apply_to``, after
    the one check that M is an operator on the space of ``phi.dims``."""
    M = as_complex(M)
    mn = phi.dims.mn
    if M.shape != (mn, mn):
        raise DimensionError(f"expected {mn}x{mn} operator, got {M.shape}")
    return phi.apply_to(M)


def _require_unitary(U: np.ndarray, name: str) -> np.ndarray:
    U = as_complex(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise NotUnitaryError(f"{name} must be square, got shape {U.shape}")
    dev = frobenius(U @ U.conj().T - np.eye(U.shape[0]))
    if dev >= scaled_tol(1e-10, frobenius(U)):
        raise NotUnitaryError(f"{name} deviates from unitarity by {dev:.3e}")
    return U


@dataclass(frozen=True, eq=False)
class Conjugation:
    """The map M -> w M^sigma w* on L(X (x) Y), for an mn x mn matrix w.

    :func:`apply` evaluates it as that product, O((mn)^3) per operator; the
    dense :attr:`matrix` is built on each read, and only w is kept.  w need
    not be unitary: the constructors check their factors, and a near-unitary
    w makes a noisy preserver.
    """

    w: np.ndarray
    sigma: SigmaFlag
    dims: Dims

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", as_complex(self.w))
        object.__setattr__(self, "sigma", SigmaFlag(self.sigma))  # "transpose" too; "bogus" raises
        side = self.dims.mn
        if self.w.shape != (side, side):
            raise DimensionError(f"w for dims {self.dims} must be {side}x{side}, got {self.w.shape}")

    def apply_to(self, M: np.ndarray) -> np.ndarray:
        """w M^sigma w* for an mn x mn operator M."""
        if self.sigma is SigmaFlag.TRANSPOSE:
            M = M.T
        return self.w @ M @ self.w.conj().T

    @property
    def matrix(self) -> np.ndarray:
        """``kron(w, conj(w))``, its columns permuted under the transpose."""
        w, d = self.w, self.dims.mn
        if self.sigma is SigmaFlag.TRANSPOSE:
            blocks = np.multiply(w[:, None, None, :], w.conj()[None, :, :, None])
        else:
            blocks = np.multiply(w[:, None, :, None], w.conj()[None, :, None, :])
        return blocks.reshape(d * d, d * d)


def make_adjoint_preserver(U, V, sigma: SigmaFlag) -> Conjugation:
    """Conjugation M -> (U (x) V) M^sigma (U (x) V)* for unitary U (m x m) and
    V (n x n); m must divide n."""
    U = _require_unitary(U, "U")
    V = _require_unitary(V, "V")
    return Conjugation(kron(U, V), sigma, Dims(U.shape[0], V.shape[0]))


def make_swap_preserver(U, V, sigma: SigmaFlag) -> Conjugation:
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
    w = kron(U, V).reshape(m * m, m, m).transpose(0, 2, 1).reshape(m * m, m * m)
    return Conjugation(w, sigma, Dims(m, m))


def make_trace_preserver(rho: np.ndarray, dims: Dims) -> Superoperator:
    """Non-invertible preserver M -> tr(M) rho for a fixed MES rho on X (x) Y."""
    if not is_mes(rho, dims):
        raise NotMESError("trace-form preserver requires an MES target state")
    mat = np.outer(vec(rho), vec(np.eye(dims.mn)))
    return Superoperator(matrix=mat, dims=dims)


def _project_out_complement(a: np.ndarray, dims: Dims) -> None:
    """Project, in place, each operator M vectorized as a row of ``a`` onto
    span(MES), so that ``a`` becomes ``a (I - Pi)``, Pi the real, symmetric
    projector onto the complement.

    span(MES) is the kernel of M -> tr_Y(M) - (tr M / m) I_m, plus that of
    M -> tr_X(M) - (tr M / n) I_n when k = 1, so the part removed is
    (tr_Y M - (tr M / m) I_m) (x) I_n / n, plus
    I_m (x) (tr_X M - (tr M / n) I_n) / m when k = 1; the two parts are
    orthogonal and each traceless.  ``a`` must be C-contiguous, so that the
    operators are a view of it.
    """
    m, n = dims.m, dims.n
    ops = a.reshape(-1, m, n, m, n)
    tr_y = np.einsum("jxyzy->jxz", ops)
    trace = np.einsum("jxx->j", tr_y)[:, None, None]
    part = (tr_y - trace * np.eye(m) / m) / n
    for y in range(n):
        ops[:, :, y, :, y] -= part
    if dims.k == 1:  # the part removed above has tr_X = 0
        part = (np.einsum("jxyxw->jyw", ops) - trace * np.eye(n) / n) / m
        for x in range(m):
            ops[:, x, :, x, :] -= part


def _span_singular_values(a: np.ndarray, dims: Dims) -> np.ndarray:
    """Singular values, largest first, of a (I - Pi) = a Q Q*, Q an orthonormal
    basis of span(MES): a Q's, then zeros.  Projects ``a``'s rows in place."""
    _project_out_complement(a, dims)
    return np.linalg.svd(a, compute_uv=False)


def _span_sigma_min(phi: Superoperator) -> tuple[float, float]:
    """phi Q's smallest singular value, and the threshold at or below which phi is singular
    on span(MES): 1e-6 times the RMS of phi Q's D singular values (1e-6 on a unitary preserver),
    taken of the values scaled by 2^-e, s[0] < 2^e, and scaled back: exact, and no square overflows."""
    span = phi.dims.mn**2 - (phi.dims.m**2 - 1) * (2 if phi.dims.k == 1 else 1)
    s = _span_singular_values(phi.matrix.copy(), phi.dims)
    e = int(np.frexp(s[0])[1])
    return float(s[span - 1]), float(np.ldexp(1e-6 * np.linalg.norm(np.ldexp(s, -e)) / span**0.5, e))


def is_invertible_on_span(phi: Superoperator) -> bool:
    """True iff phi restricted to span(MES) is injective by :func:`_span_sigma_min`'s
    rule, the one singularity test of :func:`meskit.classify.decompose`."""
    smallest, threshold = _span_sigma_min(phi)
    return smallest > threshold
