"""Coisometries, maximally entangled states, and the map between them.

A coisometry is an m x n matrix A with A A* = I_m.  Maximally entangled
states (MES) on X (x) Y are exactly the rank-1 projections
``pi(A) = vec(A) vec(A)* / tr(A A*)`` of coisometries, and their partial
trace over Y is I_m / m.  Membership tests below use that partial-trace
criterion together with a rank-1 check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotCoisometryError,
    NotDensityError,
    NotHermitianError,
    NotMESError,
    ZeroOperatorError,
)
from .tensor import (
    DEFAULT_TOL,
    Dims,
    as_complex,
    fix_global_phase,
    frobenius,
    haar_unitary,
    partial_trace_y,
    rank_one_factor,
    scaled_tol,
    unvec,
    vec,
)

_VALIDATION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Coisometry:
    """An m x n matrix A with A A* = I_m, tagged with its block dimensions."""

    matrix: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", as_complex(self.matrix))
        if self.matrix.shape != (self.dims.m, self.dims.n):
            raise DimensionError(
                f"coisometry must be {self.dims.m}x{self.dims.n}, got {self.matrix.shape}"
            )
        dev = frobenius(self.matrix @ self.matrix.conj().T - np.eye(self.dims.m))
        if dev >= scaled_tol(_VALIDATION_TOL, frobenius(self.matrix)):
            raise NotCoisometryError(f"A A* deviates from identity by {dev:.3e}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, trace-1 operator on X (x) Y."""

    matrix: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", as_complex(self.matrix))
        mn = self.dims.mn
        if self.matrix.shape != (mn, mn):
            raise DimensionError(f"density operator must be {mn}x{mn}, got {self.matrix.shape}")
        if frobenius(self.matrix - self.matrix.conj().T) >= _VALIDATION_TOL:
            raise NotHermitianError("density operator is not Hermitian")
        if abs(np.trace(self.matrix) - 1.0) >= _VALIDATION_TOL:
            raise NotDensityError("density operator trace differs from 1")
        if float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)[0]) < -_VALIDATION_TOL:
            raise NotDensityError("density operator has a negative eigenvalue")


def _matrix_of(a) -> np.ndarray:
    return a.matrix if isinstance(a, (Coisometry, DensityOperator)) else as_complex(a)


def _dims_of(a, dims: Dims | None) -> Dims:
    if isinstance(a, (Coisometry, DensityOperator)):
        return a.dims
    if dims is not None:
        return dims
    raise DimensionError("dims required when passing a bare array")


def pi(A, dims: Dims | None = None) -> DensityOperator:
    """Normalized projection onto vec(A): vec(A) vec(A)* / tr(A A*).

    Invariant under nonzero rescaling of A; lands in MES exactly when A is a
    (multiple of a) coisometry.
    """
    mat = _matrix_of(A)
    if isinstance(A, Coisometry):
        d = A.dims
    elif dims is not None:
        d = dims
    else:
        m, n = mat.shape
        d = Dims(m, n)
    w = vec(mat)
    norm2 = float(np.vdot(w, w).real)
    if norm2 <= 0.0:
        raise ZeroOperatorError("pi is undefined for the zero operator")
    return DensityOperator(matrix=np.outer(w, w.conj()) / norm2, dims=d)


def is_coisometry(A, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||A A* - I||_F < tol (relative to ||A||_F)."""
    mat = _matrix_of(A)
    if mat.ndim != 2:
        return False
    dev = frobenius(mat @ mat.conj().T - np.eye(mat.shape[0]))
    return dev < scaled_tol(tol, frobenius(mat))


def is_mes(M, dims: Dims | None = None, tol: float = DEFAULT_TOL) -> bool:
    """True iff M is rank-1 within tol and tr_Y(M) = I/m within tol.

    Non-Hermitian input is simply not an MES, so it returns False rather
    than raising.
    """
    d = _dims_of(M, dims)
    mat = _matrix_of(M)
    if mat.shape != (d.mn, d.mn):
        return False
    try:
        _, residual = rank_one_factor(mat, tol)
    except NotHermitianError:
        return False
    if residual >= scaled_tol(tol, frobenius(mat)):
        return False
    ptrace_dev = frobenius(partial_trace_y(mat, d) - np.eye(d.m) / d.m)
    return ptrace_dev < scaled_tol(tol, frobenius(mat))


def random_coisometry(dims: Dims, seed=0) -> Coisometry:
    """First m rows of a Haar n x n unitary."""
    u = haar_unitary(dims.n, seed)
    return Coisometry(matrix=u[: dims.m, :], dims=dims)


def orthogonal_family(dims: Dims, seed=0) -> list[Coisometry]:
    """The k mutually orthogonal coisometries given by the m-row blocks of a
    Haar n x n unitary; stacking them back reproduces that unitary."""
    u = haar_unitary(dims.n, seed)
    return [
        Coisometry(matrix=u[j * dims.m : (j + 1) * dims.m, :], dims=dims)
        for j in range(dims.k)
    ]


def are_orthogonal(A, B, tol: float = DEFAULT_TOL) -> bool:
    """True iff A B* = 0 within tol.  B A* is checked too; the two agree."""
    a, b = _matrix_of(A), _matrix_of(B)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    scale = max(frobenius(a), frobenius(b))
    forward = frobenius(a @ b.conj().T) < scaled_tol(tol, scale)
    backward = frobenius(b @ a.conj().T) < scaled_tol(tol, scale)
    return forward and backward


def representative(M, dims: Dims | None = None) -> Coisometry:
    """Canonical coisometry A with pi(A) = M, for M in MES.

    The rank-1 factor is rescaled by sqrt(m) and then corrected to put
    A A* = I to working precision (division by the square root of the mean
    diagonal of A A*); the phase follows the global gauge.  Raises
    NotMESError when M fails :func:`is_mes` at 1e-8, or passes it but the
    rescaled factor is still not a coisometry within 1e-8.
    """
    d = _dims_of(M, dims)
    mat = _matrix_of(M)
    if not is_mes(mat, d, _VALIDATION_TOL):
        raise NotMESError("operator is not a maximally entangled state within tolerance")
    v, _ = rank_one_factor(mat, _VALIDATION_TOL)
    A = np.sqrt(d.m) * unvec(v, d.m, d.n)
    gram = A @ A.conj().T
    mean_diag = float(np.trace(gram).real) / d.m
    if mean_diag > 0:
        A = A / np.sqrt(mean_diag)
    if not is_coisometry(A, _VALIDATION_TOL):
        raise NotMESError("operator's rank-one factor is not a coisometry within tolerance")
    return Coisometry(matrix=fix_global_phase(A), dims=d)
