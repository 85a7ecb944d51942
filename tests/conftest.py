import functools
import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from meskit import (
    Conjugation,
    DimensionError,
    Dims,
    SigmaFlag,
    Superoperator,
    kron,
    make_adjoint_preserver,
    pi,
    random_coisometry,
    representative,
    serialize,
    unvec,
    vec,
)
from meskit.choi import _image_table
from meskit.extension import ad_commutation_residual
from meskit.lemmas import _as_int
from meskit.tensor import frobenius, perturb, unitary_pair


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b after removing one global phase."""
    overlap = np.vdot(a.reshape(-1), b.reshape(-1))
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def identity_superop(dims: Dims) -> Superoperator:
    """The identity map on L(X (x) Y)."""
    side = dims.mn * dims.mn
    return Superoperator(matrix=np.eye(side, dtype=complex), dims=dims)


def nonkron_conjugation(u, v, sigma, eps: float, rng: np.random.Generator) -> Conjugation:
    """Ad_W o sigma with W the unitary nearest to ``perturb(U (x) V, eps, rng)``:
    a conjugation that is no Kronecker product once eps > 0 (and mn >= 4)."""
    a, _, b = np.linalg.svd(perturb(kron(u, v), eps, rng))
    return Conjugation(a @ b, sigma, Dims(len(u), len(v)))


def canonical_family(dims: Dims) -> np.ndarray:
    """The coordinate family [I|0|...|0], [0|I|0|...], ..., stacked (k, m, n)."""
    return np.eye(dims.n, dtype=complex).reshape(dims.k, dims.m, dims.n)


# Reference implementations the closed forms in meskit are checked against:
# the permutation matrix of the transpose, a dense basis of span(MES), a
# sampled commutation test with its switch-form witness, and the Gram-system
# expansion of the restricted map G.
def transpose_matrix(d: int) -> np.ndarray:
    """Permutation matrix T with T @ vec(M) = vec(M^T) for d x d matrices."""
    t = np.zeros((d * d, d * d))
    idx = np.arange(d * d)
    rows, cols = divmod(idx, d)
    t[idx, cols * d + rows] = 1.0
    return t


@functools.lru_cache(maxsize=32)
def span_mes_basis(dims: Dims) -> tuple[np.ndarray, ...]:
    """Orthonormal basis of span(MES) in the Frobenius inner product.

    Every MES satisfies tr_Y rho = I/m, so span(MES) is the kernel of
    M -> tr_Y(M) - (tr M / m) I_m; in the square case (k = 1) coisometries
    are unitary and tr_X(M) - (tr M / n) I_n must vanish as well.  The basis
    is the right-singular vectors of that constraint map past its rank, so
    the elements are generally not MES themselves.
    """
    m, n = dims.m, dims.n
    eye_m, eye_n = np.eye(m), np.eye(n)
    trace = np.eye(dims.mn).reshape(1, -1)  # tr M = <vec(I), vec(M)>
    # vec(M) is indexed (i, p, j, q): i, j on X and p, q on Y
    tr_y = np.einsum("ik,jl,pq->ijkplq", eye_m, eye_m, eye_n).reshape(m * m, -1)
    rows = [tr_y - eye_m.reshape(-1, 1) * trace / m]
    if dims.k == 1:
        tr_x = np.einsum("ik,pr,qs->pqirks", eye_m, eye_n, eye_n).reshape(n * n, -1)
        rows.append(tr_x - eye_n.reshape(-1, 1) * trace / n)
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > 1e-9 * s[0]))
    basis = []
    for row in vh[rank:]:
        e = unvec(row.conj(), dims.mn, dims.mn)
        e.flags.writeable = False
        basis.append(e)
    return tuple(basis)


def dense_extension(ext) -> np.ndarray:
    """The dense n^4 x n^4 matrix of an ExtendedSuperoperator: its row slabs,
    stacked top to bottom."""
    return np.vstack(tuple(ext.row_slabs()))


def _yy_sampling_dims(phi_like) -> Dims:
    if phi_like.dims.m != phi_like.dims.n:
        raise DimensionError("commutation sampling needs a map on a square space")
    return phi_like.dims


def commutes_with_ad(phi_tilde, W, seed=0) -> bool:
    """True iff phi_tilde commutes with M -> W M W* within 1e-9 on 20 sampled
    MES of Y (x) Y."""
    dims = _yy_sampling_dims(phi_tilde)
    for i in range(20):
        A = random_coisometry(dims, np.random.SeedSequence([_as_int(seed), 17, i]))
        if ad_commutation_residual(phi_tilde, W, pi(A)) >= 1e-9:
            return False
    return True


def switch_commutation_witness(dims: Dims, u) -> np.ndarray:
    """Unitary A on Y with u A^T the rotation (1/sqrt2) [[I, I], [I, -I]] on
    the first two X-blocks of Y (identity elsewhere): an MES direction along
    which switch-form maps fail to commute with the first sign conjugation."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rotation = np.eye(dims.n, dtype=complex)
    rotation[: 2 * dims.m, : 2 * dims.m] = kron(h, np.eye(dims.m))
    return (u.conj().T @ rotation).T


def expand_in_image_basis(T: np.ndarray, b, gram4: np.ndarray):
    """Least-squares coefficients of T in {b_p b_q*} (index 2p + q) via the
    Gram system, and the residual of the expansion.

    The basis need not be orthogonal (its orthogonality is a conclusion, not a
    premise), hence the explicit 4 x 4 Gram solve with ``gram4``, the Gram
    matrix of {b_p b_q*}.
    """
    rhs = np.array([np.vdot(bp, T @ bq) for bp in b for bq in b])
    coeffs = np.linalg.solve(gram4, rhs)
    recon = sum(
        coeffs[2 * p + q] * np.outer(b[p], b[q].conj()) for p in range(2) for q in range(2)
    )
    return coeffs, frobenius(T - recon)


def gram_solve_g(phi, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """The matrix G of meskit.restricted_g built column by column from
    :func:`expand_in_image_basis`, with its refusals left out."""
    images, table = _image_table(phi, [A1, A2])
    b = [vec(representative(image, phi.dims)) for image in images]
    gram2 = np.array([[np.vdot(bp, bq) for bq in b] for bp in b])
    gram4 = kron(gram2, gram2.conj())
    g = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            g[:, 2 * i + j] = expand_in_image_basis(table[i][j], b, gram4)[0]
    return g


class WriterFile(NamedTuple):
    """A (2,2) superoperator file as ``write_json`` lays it out, three data
    slices long: its text, split around the data array (``head`` ends at
    ``"data": ``); the first [re, im] pair, one in the second slice, and the
    offset of the "], [" where that slice is cut."""

    text: str
    head: str
    data: str
    rest: str
    pair: str
    later: str
    cut: int

    def reordered(self, data: str) -> str:
        """The document with its keys in another order and ``data`` as the data."""
        dims = json.loads(self.text)["dims"]
        return json.dumps({"matrix": {"data": "D", "cols": 64, "rows": 64}, "dims": dims}).replace('"D"', data)

    def first_pair(self, new: str) -> str:
        """The text with its first pair replaced by ``new``."""
        return self.text.replace(self.pair, new, 1)


@functools.cache
def writer_file() -> WriterFile:
    dims = Dims.from_mk(2, 2)
    phi = make_adjoint_preserver(*unitary_pair(dims, 5), SigmaFlag.TRANSPOSE)
    text = serialize.dumps(serialize.superoperator_to_obj(phi.matrix, dims)) + "\n"
    head, tail = text.split('"data": ')
    close = tail.index("]]") + 2
    first = text.index("[[") + 1
    cut = text.index("], [", first + serialize._SLICE_BYTES)
    pair, later = (text[i : text.index("]", i) + 1] for i in (first, cut + 3))
    w = WriterFile(text, head + '"data": ', tail[:close], tail[close:], pair, later, cut)
    # "truncated" cuts inside the data array, which spans three slices
    assert len(w.head) < 4096 < len(text) - len(w.rest) and len(text) > 2 * serialize._SLICE_BYTES
    return w


# Input files every reader must refuse, by kind: the text of each (bytes where
# it is no UTF-8, None for a path that does not exist), from ``writer_file()``.
# The whole-document reader, ``superoperator_from_obj(read_json(path))``, is
# the oracle for each file's error type and text.
REFUSED = {
    "missing file": lambda w: None,
    "not UTF-8": lambda w: b"\xff{}",
    "truncated head": lambda w: '{"dims":\n',
    "truncated": lambda w: w.text[:4096],
    "list": lambda w: "[" + w.text.strip() + "]",
    # extend's output: {base_dims, sigma, matrix}
    "extend output": lambda w: w.text.replace('{"dims"', '{"base_dims"', 1)
    .replace(', "matrix"', ', "sigma": "identity", "matrix"', 1),
    "missing n": lambda w: w.text.replace('"n": 4, ', "", 1),
    "missing matrix": lambda w: w.text.replace('"matrix"', '"matrices"'),
    "rows 1e999": lambda w: w.text.replace('"rows": 64', '"rows": 1e999'),
    # truncated, 2.9, 4.5, 2.5 and 64.99 would read a (2,2) map that classify certifies
    "fractional counts": lambda w: w.text.replace('"m": 2', '"m": 2.9').replace('"n": 4', '"n": 4.5')
    .replace('"k": 2', '"k": 2.5').replace('"rows": 64', '"rows": 64.99'),
    # k is derived from (m, n)
    "k disagrees": lambda w: w.text.replace('"k": 2', '"k": 3'),
    "wrong side": lambda w: w.text.replace('"m": 2, "n": 4', '"m": 1, "n": 2'),
    "one-element row": lambda w: w.first_pair("[0.5]"),
    "one-element last row": lambda w: w.text[: w.text.rindex("[")] + "[0.5]]}}\n",
    "three-element row": lambda w: w.first_pair(w.pair[:-1] + ", 0.5]"),
    "nan token": lambda w: w.first_pair("[NaN, 0]"),
    "overflow": lambda w: w.first_pair("[1e999, 0]"),
    "count": lambda w: w.text.replace(w.pair + ", ", "", 1),
    "count, one more": lambda w: w.first_pair(w.pair + ", " + w.pair),
    "empty data": lambda w: w.head + "[ ]" + w.rest,
    "comma before the end": lambda w: w.text[: -len(w.rest) - 1] + ", ]" + w.rest,
    # as many entries as rows x cols, but too short to be pairs
    "one-element rows": lambda w: w.head + "[" + ", ".join(["[0]"] * 64 * 64) + "]" + w.rest,
    # where a slice is cut: only JSON whitespace may sit between rows
    "form feed between rows": lambda w: w.text[: w.cut] + "]\f, [" + w.text[w.cut + 4 :],
    "integer entry beyond float": lambda w: w.first_pair("[1" + "0" * 400 + ", 0]"),
    # numpy reads these as numbers; JSON numbers they are not
    "string entry": lambda w: w.first_pair('["0.5", 0]'),
    "true entry": lambda w: w.first_pair("[true, 0]"),
    "false entry in the second slice": lambda w: w.text.replace(w.later, "[0, false]", 1),
    "null entry": lambda w: w.first_pair("[null, 0]"),
    "string entry, keys reordered": lambda w: w.reordered(w.data.replace(w.pair, '["0.5", 0]', 1)),
    # a repeated key replaces the array: with a string, and after an array that is not JSON
    "repeated data key, NUL": lambda w: w.head + w.data + ', "data": "\\u0000"' + w.rest,
    "repeated data key, bad array": lambda w: w.head + "[[1, 2,]], " + '"data": ' + w.data + w.rest,
    # deeper than json's recursion can go: a ValueError, not a RecursionError
    "deep nesting": lambda w: '{"dims": ' + "[" * 100000 + "]" * 100000 + "}",
    "deep object in a row": lambda w: w.first_pair("[" + '{"a": ' * 100000 + "0" + "}" * 100000 + ", 0]"),
    # faults in two places: the whole-document reader names the one it meets first
    "one-element row, then nan": lambda w: w.first_pair("[0.5]").replace(w.later, "[NaN, 0]", 1),
    "count, then a syntax error": lambda w: w.text.replace(w.pair + ", ", "", 1)[: -len(w.rest)] + "}, }\n",
    "syntax error on a later line": lambda w: w.first_pair("[0.5]")[:-2] + "\r\n,}",
}


def refused_file(tmp_path, kind: str) -> tuple[str, Exception]:
    """Write the ``REFUSED`` file ``kind`` under ``tmp_path``: its path, and
    the error the whole-document reader raises on it."""
    path, bad = tmp_path / "bad.json", REFUSED[kind](writer_file())
    if bad is not None:
        path.write_bytes(bad if isinstance(bad, bytes) else bad.encode())
    with pytest.raises(Exception) as want:
        serialize.superoperator_from_obj(serialize.read_json(str(path)))
    return str(path), want.value


def peak_traced_bytes(fn):
    """``fn()``'s value, and the peak of the memory that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
