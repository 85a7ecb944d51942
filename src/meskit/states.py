"""Coisometries, maximally entangled states, and the map between them.

A coisometry is an m x n matrix A with A A* = I_m.  Maximally entangled
states (MES) on X (x) Y are exactly the rank-1 projections
``pi(A) = vec(A) vec(A)* / tr(A A*)`` of coisometries, and their partial
trace over Y is I_m / m.  A state is its (mn, mn) matrix: :func:`pi` returns
the projector as a plain array, and the functions here take arrays (a
:class:`Coisometry` caller passes ``.matrix``), with the dimensions passed
where the shape does not fix them.  Membership tests use the partial-trace
criterion together with a rank-1 check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotCoisometryError,
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


def pi(A) -> np.ndarray:
    """The (mn, mn) projector vec(A) vec(A)* / tr(A A*) onto vec(A).

    Invariant under nonzero rescaling of A; lands in MES exactly when A is a
    (multiple of a) coisometry.
    """
    w = vec(A)
    norm2 = float(np.vdot(w, w).real)
    if norm2 <= 0.0:
        raise ZeroOperatorError("pi is undefined for the zero operator")
    return np.outer(w, w.conj()) / norm2


def is_coisometry(A, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||A A* - I||_F < tol (relative to ||A||_F)."""
    A = as_complex(A)
    dev = frobenius(A @ A.conj().T - np.eye(A.shape[0]))
    return dev < scaled_tol(tol, frobenius(A))


def _mes_factor(M: np.ndarray, dims: Dims, tol: float) -> np.ndarray | None:
    """The rank-1 factor v of M (M = v v* within tol) when M is an MES within
    tol, else None; non-Hermitian input is simply not an MES."""
    if M.shape != (dims.mn, dims.mn):
        return None
    try:
        v, residual = rank_one_factor(M, tol)
    except NotHermitianError:
        return None
    bound = scaled_tol(tol, frobenius(M))
    if residual >= bound:
        return None
    ptrace_dev = frobenius(partial_trace_y(M, dims) - np.eye(dims.m) / dims.m)
    return v if ptrace_dev < bound else None


def is_mes(M, dims: Dims, tol: float = DEFAULT_TOL) -> bool:
    """True iff M is rank-1 within tol and tr_Y(M) = I/m within tol.

    Non-Hermitian input is simply not an MES, so it returns False rather
    than raising.
    """
    return _mes_factor(as_complex(M), dims, tol) is not None


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


def are_orthogonal(A, B) -> bool:
    """True iff A B* = 0 within DEFAULT_TOL.  B A* is checked too; the two agree."""
    a, b = as_complex(A), as_complex(B)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    bound = scaled_tol(DEFAULT_TOL, max(frobenius(a), frobenius(b)))
    return frobenius(a @ b.conj().T) < bound and frobenius(b @ a.conj().T) < bound


def representative(M, dims: Dims) -> Coisometry:
    """Canonical coisometry A with pi(A) = M, for M in MES.

    The rank-1 factor is rescaled by sqrt(m) and then corrected to put
    A A* = I to working precision (division by the square root of the mean
    diagonal of A A*); the phase follows the global gauge.  Raises
    NotMESError when M fails :func:`is_mes` at 1e-8, or passes it but the
    rescaled factor is still not a coisometry within 1e-8.  M is factored
    once: the MES test and the factor share one eigendecomposition.
    """
    v = _mes_factor(as_complex(M), dims, _VALIDATION_TOL)
    if v is None:
        raise NotMESError("operator is not a maximally entangled state within tolerance")
    A = np.sqrt(dims.m) * unvec(v, dims.m, dims.n)
    gram = A @ A.conj().T
    mean_diag = float(np.trace(gram).real) / dims.m
    if mean_diag > 0:
        A = A / np.sqrt(mean_diag)
    if not is_coisometry(A, _VALIDATION_TOL):
        raise NotMESError("operator's rank-one factor is not a coisometry within tolerance")
    return Coisometry(matrix=fix_global_phase(A), dims=dims)
