"""Coisometries, maximally entangled states, and the map between them.

A coisometry is an m x n matrix A with A A* = I_m.  Maximally entangled
states (MES) on X (x) Y are exactly the rank-1 projections
``pi(A) = vec(A) vec(A)* / tr(A A*)`` of coisometries, and their partial
trace over Y is I_m / m.  A state is its (mn, mn) matrix: :func:`pi` returns
the projector as a plain array.  A coisometry is likewise its (m, n) array,
and no type wraps it: the producers here build one by construction or check
it.  The functions take arrays, with the dimensions passed where the shape
does not fix them.  Membership tests use the partial-trace criterion
together with a rank-1 check.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
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


def random_coisometry(dims: Dims, seed=0) -> np.ndarray:
    """First m rows of a Haar n x n unitary."""
    return haar_unitary(dims.n, seed)[: dims.m]


def orthogonal_family(dims: Dims, seed=0) -> np.ndarray:
    """The k mutually orthogonal coisometries, stacked (k, m, n), given by the
    m-row blocks of a Haar n x n unitary; reshaping to (n, n) reproduces
    that unitary."""
    return haar_unitary(dims.n, seed).reshape(dims.k, dims.m, dims.n)


def are_orthogonal(A, B) -> bool:
    """True iff A B* = 0 within DEFAULT_TOL."""
    a, b = as_complex(A), as_complex(B)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    bound = scaled_tol(DEFAULT_TOL, max(frobenius(a), frobenius(b)))
    return frobenius(a @ b.conj().T) < bound


def representative(M, dims: Dims) -> np.ndarray:
    """Canonical coisometry A, an (m, n) array, with pi(A) = M, for M in MES.

    The rank-1 factor is rescaled by sqrt(m) and then corrected to put
    A A* = I to working precision (division by the square root of the mean
    diagonal of A A*); the phase follows the global gauge.  Raises
    NotMESError when M fails :func:`is_mes` at 1e-8, or passes it but the
    rescaled factor is still not a coisometry within 1e-8.  M is factored
    once (the MES test and the factor share one eigendecomposition), and the
    factor's coisometry deviation is formed once.
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
    return fix_global_phase(A)
