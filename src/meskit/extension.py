"""Blockwise extension of a preserver from L(X (x) Y) to L(Y (x) Y).

Index convention (fixed, and exercised by the test suite): Y (x) Y is
identified with (C^k (x) X) (x) Y, so a basis index of Y (x) Y decomposes as
``(block, x_index, y_index)`` and an operator M on Y (x) Y is a k x k array
of blocks ``M_pq`` in L(X (x) Y) occupying contiguous mn x mn slices.

The extension applies the base map blockwise -- ``[Phi(M_pq)]`` in the
identity branch, ``[Phi(M_qp)]`` (block transpose first) in the transpose
branch -- and commutes with conjugation by the structural sign and block-swap
unitaries built below.  It is stored as the base map and the flag and
evaluated block by block, each block through :func:`~meskit.superop.apply`,
so the base may be any map ``apply`` evaluates: a dense
:class:`~meskit.superop.Superoperator`, or a map with its own ``apply_to``
such as the lemma suite's W M^sigma W*.  Only the dense n^4 x n^4 matrix,
which comes in row slabs (:meth:`ExtendedSuperoperator.row_slabs`, written
one at a time by ``meskit extend``) and as :attr:`~ExtendedSuperoperator.matrix`,
reads the base's dense ``matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .superop import SigmaFlag, Superoperator, apply
from .tensor import Dims, as_complex, frobenius, kron


@dataclass(frozen=True, eq=False)
class ExtendedSuperoperator:
    """Superoperator on L(Y (x) Y) obtained by blockwise extension of ``base``.

    ``base`` is any map on L(X (x) Y) with ``dims`` that
    :func:`~meskit.superop.apply` evaluates; :meth:`apply_to` goes through
    ``apply`` block by block, and only :meth:`row_slabs` and :attr:`matrix`
    read ``base.matrix``.
    """

    base: Superoperator
    sigma: SigmaFlag

    def __post_init__(self) -> None:
        if self.base.dims.k < 2:
            raise DimensionError("extension is defined for block counts k >= 2")

    @property
    def yy_dims(self) -> Dims:
        """Dims of the square space the extension acts on."""
        n = self.base.dims.n
        return Dims(n, n)

    def apply_to(self, M) -> np.ndarray:
        """The image [phi(M_pq)] (identity) or [phi(M_qp)] (transpose) of an
        n^2 x n^2 operator M, without the dense matrix."""
        dims = self.base.dims
        blocks = block_split(M, dims)
        if self.sigma is SigmaFlag.TRANSPOSE:
            blocks = blocks.transpose(1, 0, 2, 3)
        images = [[apply(self.base, block) for block in row] for row in blocks]
        return block_join(images, dims)

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

    @property
    def matrix(self) -> np.ndarray:
        """The dense n^4 x n^4 matrix, built anew on each access from
        :meth:`row_slabs`.  Its only reader outside the tests is
        ``perfbench``'s span hook on :func:`extend`; that is why it stays."""
        n = self.base.dims.n
        matrix = np.empty((n**4, n**4), dtype=complex)
        for rows, slab in zip(matrix.reshape(n**2, n**2, n**4), self.row_slabs()):
            rows[...] = slab
        return matrix


def block_split(M, dims: Dims) -> np.ndarray:
    """View an n^2 x n^2 operator on Y (x) Y as a (k, k, mn, mn) block array."""
    n, mn, k = dims.n, dims.mn, dims.k
    M = as_complex(M)
    if M.shape != (n * n, n * n):
        raise DimensionError(f"expected {n * n}x{n * n} operator, got {M.shape}")
    return M.reshape(k, mn, k, mn).transpose(0, 2, 1, 3)


def block_join(blocks, dims: Dims) -> np.ndarray:
    """Inverse of :func:`block_split`."""
    n, mn, k = dims.n, dims.mn, dims.k
    blocks = as_complex(blocks)
    if blocks.shape != (k, k, mn, mn):
        raise DimensionError(f"expected block array of shape {(k, k, mn, mn)}, got {blocks.shape}")
    return blocks.transpose(0, 2, 1, 3).reshape(n * n, n * n).copy()


def extend(phi: Superoperator, sigma: SigmaFlag) -> ExtendedSuperoperator:
    """Blockwise extension of ``phi`` to L(Y (x) Y).

    With M = [M_pq] in k x k blocks, the result sends M to [phi(M_pq)] when
    ``sigma`` is the identity flag and to [phi(M_qp)] when it is the transpose
    flag.  The flag must come from the discriminant of ``phi`` for the
    extension to preserve MES; it is taken as an explicit argument so that the
    (fallible) detection stays separate from this (infallible) construction.
    Nothing of size n^4 x n^4 is allocated; see
    :meth:`ExtendedSuperoperator.row_slabs` for the dense form.
    """
    return ExtendedSuperoperator(base=phi, sigma=sigma)


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
    W = as_complex(W)
    M = as_complex(M)
    left = apply(phi_like, W @ M @ W.conj().T)
    right = W @ apply(phi_like, M) @ W.conj().T
    return frobenius(left - right)
