import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meskit import (
    DimensionError,
    Dims,
    NotMESError,
    NotUnitaryError,
    SigmaFlag,
    Superoperator,
    apply,
    haar_unitary,
    is_invertible_on_span,
    is_mes,
    kron,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
    partial_trace_y,
    pi,
    preserves_mes,
    random_coisometry,
    vec,
)
from conftest import (
    complex_gaussian,
    identity_superop,
    span_mes_basis,
    transpose_matrix,
    unitary_pair,
)

DIMS = Dims.from_mk(2, 2)

# complex dimensions of span(MES), pinned from a brute-force sampling oracle
# (rank of vec'd projections of independently sampled coisometries)
SPAN_DIMS = {(1, 2): 4, (2, 1): 10, (2, 2): 61, (2, 3): 141, (3, 1): 65}


def _span_columns(dims: Dims) -> np.ndarray:
    """Orthonormal column basis Q of span(MES) from the dense span_mes_basis."""
    return np.array([vec(e) for e in span_mes_basis(dims)]).T


def test_apply_identity_and_linearity(rng):
    ident = identity_superop(DIMS)
    m = complex_gaussian(rng, 8, 8)
    n = complex_gaussian(rng, 8, 8)
    np.testing.assert_allclose(apply(ident, m), m, atol=1e-14)
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 3), SigmaFlag.IDENTITY)
    np.testing.assert_allclose(
        apply(phi, m + n), apply(phi, m) + apply(phi, n), atol=1e-12
    )


def test_apply_rejects_mismatched_shapes(rng):
    phi = identity_superop(DIMS)
    with pytest.raises(DimensionError):
        apply(phi, complex_gaussian(rng, 4, 4))


def test_transpose_matrix_action(rng):
    m = complex_gaussian(rng, 3, 3)
    np.testing.assert_allclose(transpose_matrix(3) @ vec(m), vec(m.T), atol=1e-14)


def _matmul_preserver(u, v, sigma, swap=False):
    """The constructors' former matrix products: kron(w, conj(w)), times the
    transpose permutation for sigma = transpose, times kron(F, conj(F)) for the
    switch form (F the flip on C^m (x) C^m)."""
    w = kron(u, v)
    mat = kron(w, w.conj())
    if sigma is SigmaFlag.TRANSPOSE:
        mat = mat @ transpose_matrix(w.shape[0])
    if swap:
        flip = transpose_matrix(u.shape[0])
        mat = mat @ kron(flip, flip.conj())
    return mat


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2), (3, 1)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
@pytest.mark.parametrize("factors", ["identity", "haar"])
def test_constructors_match_the_matrix_products_bitwise(m, k, sigma, factors):
    # bitwise, so signed zeros count: gen writes these matrices byte for byte
    dims = Dims.from_mk(m, k)
    if factors == "identity":
        u, v = np.eye(m), np.eye(dims.n)
    else:
        u, v = unitary_pair(dims, 23)
    assert _same_bits(make_adjoint_preserver(u, v, sigma).matrix, _matmul_preserver(u, v, sigma))
    if k == 1:
        assert _same_bits(
            make_swap_preserver(u, v, sigma).matrix, _matmul_preserver(u, v, sigma, swap=True)
        )


@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_adjoint_preserver_peak_memory_near_its_output(sigma):
    u, v = unitary_pair(Dims.from_mk(3, 2), 1)
    tracemalloc.start()
    try:
        phi = make_adjoint_preserver(u, v, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * phi.matrix.nbytes


def test_adjoint_preserver_moves_projections():
    u, v = unitary_pair(DIMS, 5)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    a = random_coisometry(DIMS, 7)
    expected = pi(u @ a @ v.T)
    np.testing.assert_allclose(apply(phi, pi(a)), expected, atol=1e-12)


def test_transpose_preserver_conjugates_projections():
    phi = make_adjoint_preserver(np.eye(2), np.eye(4), SigmaFlag.TRANSPOSE)
    a = random_coisometry(DIMS, 9)
    expected = pi(a.conj())
    np.testing.assert_allclose(apply(phi, pi(a)), expected, atol=1e-12)


def test_adjoint_preserver_identity_case():
    phi = make_adjoint_preserver(np.eye(2), np.eye(4), SigmaFlag.IDENTITY)
    np.testing.assert_allclose(phi.matrix, np.eye(64), atol=1e-14)


def test_adjoint_preserver_preserves_mes():
    for sigma in (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE):
        phi = make_adjoint_preserver(*unitary_pair(DIMS, 11), sigma)
        for seed in range(100):
            image = apply(phi, pi(random_coisometry(DIMS, seed)))
            assert is_mes(image, DIMS, 1e-10)


def test_adjoint_preserver_rejects_non_unitary(rng):
    with pytest.raises(NotUnitaryError):
        make_adjoint_preserver(complex_gaussian(rng, 2, 2), np.eye(4), SigmaFlag.IDENTITY)


def test_adjoint_preserver_functoriality():
    u1, v1 = unitary_pair(DIMS, 13)
    u2, v2 = unitary_pair(DIMS, 15)
    composed = make_adjoint_preserver(u1 @ u2, v1 @ v2, SigmaFlag.IDENTITY)
    chained = make_adjoint_preserver(u1, v1, SigmaFlag.IDENTITY).matrix @ make_adjoint_preserver(
        u2, v2, SigmaFlag.IDENTITY
    ).matrix
    assert np.linalg.norm(composed.matrix - chained) < 1e-10


def test_swap_preserver_transposes_projections():
    sw = make_swap_preserver(np.eye(2), np.eye(2), SigmaFlag.IDENTITY)
    a = haar_unitary(2, 17)
    np.testing.assert_allclose(apply(sw, pi(a)), pi(a.T), atol=1e-12)
    # the switch is an involution
    np.testing.assert_allclose(sw.matrix @ sw.matrix, np.eye(16), atol=1e-14)


def test_swap_preserver_preserves_square_mes():
    square = Dims(2, 2)
    u = haar_unitary(2, 19)
    v = haar_unitary(2, 21)
    for sigma in (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE):
        sw = make_swap_preserver(u, v, sigma)
        for seed in range(100):
            image = apply(sw, pi(haar_unitary(2, seed)))
            assert is_mes(image, square, 1e-10)


def test_swap_preserver_rejects_rectangular():
    with pytest.raises(DimensionError):
        make_swap_preserver(np.eye(2), np.eye(4), SigmaFlag.IDENTITY)


def test_swap_and_adjoint_agree_on_symmetric_products(rng):
    square = Dims(2, 2)
    u = haar_unitary(2, 23)
    v = haar_unitary(2, 25)
    a = complex_gaussian(rng, 2, 2)
    sym = kron(a, a)
    for sigma in (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE):
        ad = make_adjoint_preserver(u, v, sigma)
        sw = make_swap_preserver(u, v, sigma)
        np.testing.assert_allclose(apply(ad, sym), apply(sw, sym), atol=1e-12)


def test_trace_preserver_behavior(rng):
    rho = pi(random_coisometry(DIMS, 27))
    phi = make_trace_preserver(rho, DIMS)
    m = pi(random_coisometry(DIMS, 29))
    np.testing.assert_allclose(apply(phi, m), rho, atol=1e-12)
    traceless = complex_gaussian(rng, 8, 8)
    traceless -= np.trace(traceless) / 8.0 * np.eye(8)
    assert np.linalg.norm(apply(phi, traceless)) < 1e-12
    assert preserves_mes(phi)
    assert not is_invertible_on_span(phi)


def test_trace_preserver_rejects_non_mes(rng):
    u = complex_gaussian(rng, 8, 1)[:, 0]
    u /= np.linalg.norm(u)
    with pytest.raises(NotMESError):
        make_trace_preserver(np.outer(u, u.conj()), DIMS)


@pytest.mark.parametrize("m,k", sorted(SPAN_DIMS))
def test_span_mes_basis_dimension(m, k):
    dims = Dims.from_mk(m, k)
    basis = span_mes_basis(dims)
    assert len(basis) == SPAN_DIMS[(m, k)]
    stacked = np.array([vec(b) for b in basis]).T
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[-1] > 1e-9 * s[0]  # genuinely independent


@pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_span_dimension_against_sampling_oracle(m, k):
    # independent oracle: rank of the raw projections of many sampled
    # coisometries, with no structured combinations at all
    dims = Dims.from_mk(m, k)
    cols = [
        vec(pi(random_coisometry(dims, np.random.SeedSequence([777, i]))))
        for i in range(4 * dims.mn * dims.mn)
    ]
    stacked = np.array(cols).T
    s = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    assert rank == SPAN_DIMS[(m, k)]
    # every sampled projection lies in the span basis, not just as many of them
    q = _span_columns(dims)
    outside = stacked - q @ (q.conj().T @ stacked)
    assert np.linalg.norm(outside, axis=0).max() < 1e-10


def test_span_basis_elements_satisfy_partial_trace_law():
    basis = span_mes_basis(DIMS)
    for b in basis:
        expected = (np.trace(b) / 2.0) * np.eye(2)
        assert np.linalg.norm(partial_trace_y(b, DIMS) - expected) < 1e-10


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import meskit, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_public_names_resolve():
    import meskit

    assert len(set(meskit.__all__)) == len(meskit.__all__)
    for name in meskit.__all__:
        getattr(meskit, name)
    namespace: dict = {}
    exec("from meskit import *", namespace)
    assert set(meskit.__all__) <= set(namespace)


def test_span_basis_m1_is_full_operator_space():
    dims = Dims.from_mk(1, 3)
    assert len(span_mes_basis(dims)) == 9


def test_preserves_mes_positive_and_negative(rng):
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 31), SigmaFlag.TRANSPOSE)
    assert preserves_mes(phi)
    bad = Superoperator(matrix=complex_gaussian(rng, 64, 64), dims=DIMS)
    assert not preserves_mes(bad)


def test_is_invertible_on_span_identity_and_adjoint():
    assert is_invertible_on_span(identity_superop(DIMS))
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 33), SigmaFlag.IDENTITY)
    assert is_invertible_on_span(phi)


def test_identity_restriction_is_isometric():
    # smallest singular value of the restricted identity is exactly 1
    q = _span_columns(DIMS)
    restricted = q.conj().T @ (identity_superop(DIMS).matrix @ q)
    s = np.linalg.svd(restricted, compute_uv=False)
    assert s[-1] == pytest.approx(1.0, abs=1e-12)


def test_scalar_commutant_of_mes_samples():
    # only multiples of the identity commute with enough sampled projections
    rows = []
    for seed in range(12):
        m = pi(random_coisometry(DIMS, seed))
        rows.append(kron(m, np.eye(8)) - kron(np.eye(8), m.T))
    stacked = np.vstack(rows)
    s = np.linalg.svd(stacked, compute_uv=False)
    null_dim = int(np.sum(s < 1e-9 * s[0]))
    assert null_dim == 1
    residual = stacked @ vec(np.eye(8))
    assert np.linalg.norm(residual) < 1e-12


def test_equal_conjugations_share_a_line():
    u, v = unitary_pair(DIMS, 35)
    w1 = kron(u, v)
    w2 = np.exp(0.7j) * w1
    phi1 = kron(w1, w1.conj())
    phi2 = kron(w2, w2.conj())
    assert np.linalg.norm(phi1 - phi2) < 1e-10
    stacked = np.stack([vec(w1), vec(w2)]).T
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 1


@pytest.mark.parametrize("m,k", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_span_complement_is_orthogonal_to_the_dense_span_basis(m, k):
    from meskit.superop import _span_complement

    dims = Dims.from_mk(m, k)
    p = _span_complement(dims)
    q = _span_columns(dims)
    side = dims.mn * dims.mn
    assert p.shape == (side, side - q.shape[1])
    assert p.shape[1] == (m * m - 1) * (2 if k == 1 else 1)
    np.testing.assert_allclose(p.conj().T @ p, np.eye(p.shape[1]), atol=1e-13)
    assert np.abs(p.conj().T @ q).max(initial=0.0) < 1e-12
    # together they span the whole space: QQ* + PP* = I
    np.testing.assert_allclose(q @ q.conj().T + p @ p.conj().T, np.eye(side), atol=1e-12)
