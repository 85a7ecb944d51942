"""Dense complex linear algebra on bipartite operator spaces.

Conventions used by every module in this package:

* Matrices are 2-D ``numpy`` arrays with ``complex128`` entries.
* ``vec`` stacks matrix *rows* (C order).  Under this convention
  ``vec(x @ y.T) == kron(x, y)`` and ``vec(A @ X @ B) == kron(A, B.T) @ vec(X)``.
* Global phase gauge: the entry of largest magnitude is rotated onto the
  positive real axis, ties broken by the lowest row-major index.
* Structural tolerances are relative: a deviation ``d`` passes at ``tol``
  when ``d < tol * max(1, scale)`` with ``scale`` the Frobenius norm of the
  operand being tested.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotHermitianError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Dims:
    """Dimensions of X (x) Y: m must divide n, and the block count k = n / m is derived."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not all(isinstance(side, numbers.Integral) and not isinstance(side, bool) for side in (self.m, self.n)):
            raise DimensionError(f"dimensions must be integers, got {self}")
        if self.m < 1 or self.n < 1:
            raise DimensionError(f"dimensions must be positive, got {self}")
        if self.n % self.m != 0:
            raise DimensionError(f"block constraint: m must divide n, got {self}")

    @classmethod
    def from_mk(cls, m: int, k: int) -> "Dims":
        return cls(m, k * m)

    @property
    def k(self) -> int:
        """Block count n / m."""
        return self.n // self.m

    @property
    def mn(self) -> int:
        """Dimension of X (x) Y."""
        return self.m * self.n


def check_tol(tol: float) -> None:
    """Raises ValueError unless ``tol`` is finite, positive and not a bool (a NaN passes every gate)."""
    if isinstance(tol, bool) or not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def scaled_tol(tol: float, scale: float) -> float:
    """Absolute threshold for a structural predicate at relative tolerance ``tol``."""
    return tol * max(1.0, float(scale))


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def vec(a) -> np.ndarray:
    """Row-stacking vectorization: entry (i, j) of an m x n matrix lands at index i*n + j."""
    return as_complex(a).reshape(-1).copy()


def unvec(v, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec`.  Raises DimensionError if ``v`` has length != m*n."""
    v = as_complex(v).reshape(-1)
    if v.size != m * n:
        raise DimensionError(f"cannot reshape length-{v.size} vector to {m}x{n}")
    return v.reshape(m, n).copy()


def kron(a, b) -> np.ndarray:
    """Kronecker product, consistent with the row-stacking ``vec``."""
    return np.kron(as_complex(a), as_complex(b))


def partial_trace_y(M, dims: Dims) -> np.ndarray:
    """Trace out the Y factor: the unique linear map with A (x) B -> tr(B) A."""
    m, n = dims.m, dims.n
    M = as_complex(M)
    if M.shape != (m * n, m * n):
        raise DimensionError(f"expected {m * n}x{m * n} operator, got {M.shape}")
    return np.einsum("ipjp->ij", M.reshape(m, n, m, n))


def _pivot(a) -> complex:
    """The largest-magnitude entry of ``a``.

    Entries within a relative 1e-9 of the largest count as ties, which go to
    the lowest row-major index, so rounding noise cannot move the pivot
    between exactly tied entries (|U_00| = |U_11| for every 2 x 2 unitary).
    """
    mags = np.abs(a.reshape(-1))
    return a.reshape(-1)[int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))]


def fix_global_phase(a) -> np.ndarray:
    """Rotate the largest-magnitude entry onto the positive real axis.

    Ties pick the lowest row-major index; the zero array is returned unchanged.
    """
    a = as_complex(a)
    pivot = _pivot(a)
    if abs(pivot) == 0.0:
        return a.copy()
    return a * (abs(pivot) / pivot)


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard normal real part, then i times a standard normal imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(d: int, seed=0) -> np.ndarray:
    """Haar-distributed d x d unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase correction.  Deterministic given ``seed``."""
    if d < 1:
        raise DimensionError(f"unitary dimension must be >= 1, got {d}")
    z = complex_gaussian(np.random.default_rng(seed), d, d) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    safe = np.where(np.abs(diag) > 0, diag, 1.0)
    return q * (safe / np.abs(safe))[np.newaxis, :]


def unitary_pair(dims: Dims, *path: int) -> tuple[np.ndarray, np.ndarray]:
    """Haar U on X from ``SeedSequence([*path, 0])`` and V on Y from ``[*path, 1]``."""
    u = haar_unitary(dims.m, np.random.SeedSequence([*path, 0]))
    v = haar_unitary(dims.n, np.random.SeedSequence([*path, 1]))
    return u, v


def perturb(a, eps: float, rng: np.random.Generator) -> np.ndarray:
    """``a + eps ||a||_F G / ||G||_F`` with G drawn by :func:`complex_gaussian`."""
    g = complex_gaussian(rng, *a.shape)
    return a + eps * np.linalg.norm(a) * g / np.linalg.norm(g)


def rank_one_factor(M, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Best rank-1 PSD factor of a Hermitian matrix.

    Returns ``(v, residual)`` where ``v v*`` is the closest rank-1 PSD matrix
    in Frobenius norm (``v`` carries the square root of the clamped leading
    eigenvalue) and ``residual = ||M - v v*||_F``.  The phase of ``v`` follows
    the global gauge.
    """
    M = as_complex(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    herm_dev = frobenius(M - M.conj().T)
    if herm_dev >= scaled_tol(tol, frobenius(M)):
        raise NotHermitianError(f"Hermitian deviation {herm_dev:.3e} exceeds tolerance")
    H = (M + M.conj().T) / 2.0
    w, Q = np.linalg.eigh(H)
    lam = max(float(w[-1]), 0.0)
    v = np.sqrt(lam) * fix_global_phase(Q[:, -1])
    residual = frobenius(M - np.outer(v, v.conj()))
    return v, residual


def nearest_kron_factor(W, dims: Dims) -> tuple[np.ndarray, np.ndarray, float]:
    """Closest Kronecker product ``U (x) V`` to an mn x mn matrix ``W``.

    Uses the rearrangement-to-rank-1 reduction: reshaping ``W`` into an
    m^2 x n^2 matrix R turns ``||W - U (x) V||_F`` into a best rank-1
    approximation problem, solved by SVD truncation.  The scale split is fixed
    by ``||U||_F = sqrt(m)`` and the phase of ``U`` by the global gauge.  ``V``
    is then the least-squares solution for that ``U``,
    ``vec(V)^T = vec(U)* R / ||U||_F^2``: the SVD's optimum is its fixed point,
    and it carries about a tenth of the rounding of the SVD's leading pair.
    The sum is numpy's own reduction, not a BLAS call, so its digits do not
    depend on the BLAS thread count.
    """
    m, n = dims.m, dims.n
    W = as_complex(W)
    if W.shape != (m * n, m * n):
        raise DimensionError(f"expected {m * n}x{m * n} matrix, got {W.shape}")
    R = W.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    U = np.sqrt(m) * unvec(np.linalg.svd(R)[0][:, 0], m, m)
    pivot = _pivot(U)  # nonzero: ||U||_F = sqrt(m)
    U = U / (pivot / abs(pivot))
    u_star = vec(U).conj()
    V = unvec((u_star[:, None] * R).sum(axis=0) / (u_star.real**2 + u_star.imag**2).sum(), n, n)
    residual = frobenius(W - kron(U, V))
    return U, V, residual
