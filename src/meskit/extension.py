"""Blockwise extension of a preserver from L(X (x) Y) to L(Y (x) Y).

Index convention (fixed, and exercised by the test suite): Y (x) Y is
identified with (C^k (x) X) (x) Y, so a basis index of Y (x) Y decomposes as
``(block, x_index, y_index)`` and an operator M on Y (x) Y is a k x k array
of blocks ``M_pq`` in L(X (x) Y) occupying contiguous mn x mn slices.

The extension applies the base map blockwise -- ``[Phi(M_pq)]`` in the
identity branch, ``[Phi(M_qp)]`` (block transpose first) in the transpose
branch -- and commutes with conjugation by the structural sign and block-swap
unitaries built below.  It is a map with ``dims`` (Y (x) Y) and ``apply_to``,
stored as the base map and the flag and evaluated block by block through
the base's own ``apply_to``, so the base may be any such map: a
:class:`~meskit.superop.Superoperator` or a
:class:`~meskit.superop.Conjugation`, as the lemma suite's are.
Only the dense n^4 x n^4 matrix, which comes in row slabs
(:meth:`ExtendedSuperoperator.row_slabs`, written one at a time by
``meskit extend``), reads the base's dense ``matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionError
from .superop import Conjugation, SigmaFlag, apply
from .tensor import Dims, frobenius, kron


@dataclass(frozen=True, eq=False)
class ExtendedSuperoperator:
    """Map on L(Y (x) Y) obtained by blockwise extension of ``base``.

    ``base`` is any map on L(X (x) Y) with ``dims`` and ``apply_to``;
    :meth:`apply_to` calls the base's block by block, and only
    :meth:`row_slabs` reads ``base.matrix``.  ``sigma`` is a flag or its
    value; the extension preserves MES when it is the sigma that
    :func:`~meskit.classify.decompose` certifies for ``base``.  A base with
    k < 2 is refused (DimensionError).
    """

    base: Any
    sigma: SigmaFlag

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", SigmaFlag(self.sigma))
        if self.base.dims.k < 2:
            raise DimensionError("extension is defined for block counts k >= 2")

    @property
    def dims(self) -> Dims:
        """Dims of the square space Y (x) Y the extension acts on."""
        n = self.base.dims.n
        return Dims(n, n)

    def apply_to(self, M: np.ndarray) -> np.ndarray:
        """The image [phi(M_pq)] (identity) or [phi(M_qp)] (transpose) of an
        n^2 x n^2 operator M, without the dense matrix; block (p, q) of M is
        ``M.reshape(k, mn, k, mn)[p, :, q, :]``, an mn x mn operator by that
        reshape, so each goes straight to the base's ``apply_to``."""
        n, mn, k = self.base.dims.n, self.base.dims.mn, self.base.dims.k
        blocks = M.reshape(k, mn, k, mn)
        image = np.empty((k, mn, k, mn), dtype=complex)
        for p in range(k):
            for q in range(k):
                a, b = (q, p) if self.sigma is SigmaFlag.TRANSPOSE else (p, q)
                image[p, :, q, :] = self.base.apply_to(blocks[a, :, b, :])
        return image.reshape(n * n, n * n)

    def row_slabs(self):
        """Yield the dense n^4 x n^4 matrix as n^2 fresh row slabs of shape
        (n^2, n^4), top to bottom, without ever holding the whole matrix.

        Indexed as ``[p, r, q, s, p', r', q', s']`` (vec index ``(p, r, q, s)``
        of block ``(p, q)``, entry ``(r, s)``), the slab of block row ``p`` and
        base row ``r`` holds row ``r`` of phi's matrix, as an (mn,)*3 array, in
        the slot ``(p, q) <- (p, q)`` (identity) or ``(p, q) <- (q, p)``
        (transpose) of every block column ``q``; every other entry is +0.
        """
        dims = self.base.dims
        k, mn = dims.k, dims.mn
        block = self.base.matrix.reshape((mn,) * 4)
        for p in range(k):
            for r in range(mn):
                slab = np.zeros((k, mn) * 3, dtype=complex)
                for q in range(k):
                    a, b = (q, p) if self.sigma is SigmaFlag.TRANSPOSE else (p, q)
                    slab[q, :, a, :, b, :] = block[r]
                yield slab.reshape(dims.n**2, dims.n**4)


def p_operator(j: int, dims: Dims) -> np.ndarray:
    """Sign unitary on Y flipping the j-th block (1-based): (I_k - 2 E_jj) (x) I_m.

    Hermitian, involutive, and unitary by construction.
    """
    if not 1 <= j <= dims.k:
        raise IndexError(f"block index {j} out of range 1..{dims.k}")
    sign = np.eye(dims.k)
    sign[j - 1, j - 1] = -1.0
    return kron(sign, np.eye(dims.m))


def q_operator(p: int, q: int, dims: Dims) -> np.ndarray:
    """Block-transposition unitary on Y (x) Y: (T_pq (x) I_m) (x) I_n for the
    permutation T_pq of the p-th and q-th coordinates of C^k (1-based)."""
    if not 1 <= p < q <= dims.k:
        raise IndexError(f"need 1 <= p < q <= {dims.k}, got ({p}, {q})")
    t = np.eye(dims.k)
    t[[p - 1, q - 1]] = t[[q - 1, p - 1]]
    return kron(kron(t, np.eye(dims.m)), np.eye(dims.n))


def structural_unitaries(dims: Dims) -> list[tuple[str, np.ndarray]]:
    """The unitaries on Y (x) Y the extension commutes with, as ``(name, W)``:
    ``P{j}xI`` = P_j (x) I_n for j = 1..k, then ``Q{p}{q}`` for p < q."""
    eye_n = np.eye(dims.n)
    pairs = [(f"P{j}xI", kron(p_operator(j, dims), eye_n)) for j in range(1, dims.k + 1)]
    pairs += [
        (f"Q{p}{q}", q_operator(p, q, dims))
        for p in range(1, dims.k + 1)
        for q in range(p + 1, dims.k + 1)
    ]
    return pairs


def ad_commutation_residual(phi_like, W, M) -> float:
    """|| phi(W M W*) - W phi(M) W* ||_F at a single operator M."""
    ad = Conjugation(W, SigmaFlag.IDENTITY, phi_like.dims)
    return frobenius(apply(phi_like, apply(ad, M)) - apply(ad, apply(phi_like, M)))
