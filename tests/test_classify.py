import numpy as np
import pytest

from meskit import (
    DimensionError,
    Dims,
    NoSolutionError,
    NotInvertibleError,
    NotPreserverError,
    SigmaFlag,
    Superoperator,
    apply,
    decompose,
    identity_superop,
    kron,
    make_adjoint_preserver,
    make_trace_preserver,
    pi,
    random_coisometry,
    recover_unitary,
    verify_theorem_form,
)
from conftest import complex_gaussian, phase_aligned_distance, unitary_pair

DIMS = Dims.from_mk(2, 2)


def test_recover_unitary_from_conjugation():
    u, v = unitary_pair(DIMS, 1)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    w = recover_unitary(phi, DIMS)
    assert phase_aligned_distance(w, kron(u, v)) < 1e-8


def test_recover_unitary_identity():
    # the identity map is Ad_I: the recovered unitary is I in the phase gauge
    w = recover_unitary(identity_superop(DIMS), DIMS)
    np.testing.assert_allclose(w, np.eye(8), atol=1e-10)


def test_recover_unitary_null_space_contains_identity_for_identity_map():
    # the only conjugations that fix every matrix are the scalars: on a
    # non-square split the identity map still recovers I up to phase
    dims = Dims.from_mk(3, 2)
    w = recover_unitary(identity_superop(dims), dims)
    assert phase_aligned_distance(w, np.eye(dims.mn)) < 1e-10


def test_recover_unitary_rejects_trace_form():
    rho = pi(random_coisometry(DIMS, 3))
    phi = make_trace_preserver(rho)
    with pytest.raises(NoSolutionError):
        recover_unitary(phi, DIMS)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_decompose_roundtrip(m, k, sigma):
    dims = Dims.from_mk(m, k)
    u, v = unitary_pair(dims, 5)
    dec = decompose(make_adjoint_preserver(u, v, sigma))
    assert dec.sigma is sigma
    assert dec.kron_residual < 1e-9
    assert dec.verification_residual < 1e-9
    assert phase_aligned_distance(kron(dec.U, dec.V), kron(u, v)) < 1e-7
    assert np.linalg.norm(dec.U @ dec.U.conj().T - np.eye(m)) < 1e-8
    assert np.linalg.norm(dec.V @ dec.V.conj().T - np.eye(dims.n)) < 1e-8


def test_decompose_identity():
    dec = decompose(identity_superop(DIMS))
    assert dec.sigma is SigmaFlag.IDENTITY
    assert phase_aligned_distance(dec.U, np.eye(2)) < 1e-9
    assert phase_aligned_distance(dec.V, np.eye(4)) < 1e-9


def test_decompose_rejects_trace_form():
    phi = make_trace_preserver(pi(random_coisometry(DIMS, 7)))
    with pytest.raises(NotInvertibleError):
        decompose(phi)


def test_decompose_rejects_random_superoperator(rng):
    bad = Superoperator(matrix=complex_gaussian(rng, 64, 64), dims=DIMS)
    with pytest.raises(NotPreserverError):
        decompose(bad)


def test_decompose_rejects_single_block():
    square = Dims(m=2, n=2, k=1)
    phi = make_adjoint_preserver(np.eye(2), np.eye(2), SigmaFlag.IDENTITY)
    assert phi.dims == square
    with pytest.raises(DimensionError):
        decompose(phi)


def test_decompose_exclusive_outcome():
    # exactly one of: a decomposition, or a typed error; never a partial result
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 9), SigmaFlag.TRANSPOSE)
    dec = decompose(phi)
    assert dec.sigma is SigmaFlag.TRANSPOSE
    assert dec.U.shape == (2, 2) and dec.V.shape == (4, 4)


def test_decompose_gauge_deterministic():
    u, v = unitary_pair(DIMS, 11)
    phi1 = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    # rescaling the factors by unit phases produces the *same* superoperator,
    # so the decomposition must be bit-for-bit identical
    phi2 = make_adjoint_preserver(np.exp(0.3j) * u, np.exp(-1.1j) * v, SigmaFlag.IDENTITY)
    assert np.linalg.norm(phi1.matrix - phi2.matrix) < 1e-12
    dec1 = decompose(phi1)
    dec2 = decompose(phi2)
    assert dec1.sigma is dec2.sigma
    np.testing.assert_allclose(dec1.U, dec2.U, atol=1e-10)
    np.testing.assert_allclose(dec1.V, dec2.V, atol=1e-10)


def test_decompose_custom_seed():
    u, v = unitary_pair(DIMS, 13)
    dec = decompose(make_adjoint_preserver(u, v, SigmaFlag.IDENTITY), seed=3)
    assert dec.verification_residual < 1e-9


def test_verify_theorem_form_matching_and_mismatched():
    u, v = unitary_pair(DIMS, 15)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    dec = decompose(phi)
    assert verify_theorem_form(phi, dec) < 1e-9
    other = decompose(make_adjoint_preserver(*unitary_pair(DIMS, 17), SigmaFlag.IDENTITY))
    assert verify_theorem_form(phi, other) > 0.1


def _noisy_preserver(dims, sigma, eps, seed):
    u, v = unitary_pair(dims, seed)
    phi = make_adjoint_preserver(u, v, sigma)
    g = complex_gaussian(np.random.default_rng(seed), *phi.matrix.shape)
    noisy = Superoperator(matrix=phi.matrix + eps * g / np.linalg.norm(g), dims=dims)
    return noisy, u, v


# At (1,2) the whole noise norm falls on 16 entries, and the sampled preserver
# check (tolerance 1e-8) refuses about half of the maps at 1e-8; 3e-9 passes.
@pytest.mark.parametrize("m,k,eps", [(1, 2, 3e-9), (2, 2, 1e-8), (2, 3, 1e-8), (3, 2, 1e-8)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_decompose_tolerates_small_noise(m, k, eps, sigma):
    # Frobenius-normalised noise still decomposes, within criterion 2's bound
    phi, u, v = _noisy_preserver(Dims.from_mk(m, k), sigma, eps, 21)
    dec = decompose(phi)
    assert dec.sigma is sigma
    assert phase_aligned_distance(kron(dec.U, dec.V), kron(u, v)) < 1e-7


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_verification_residual_bounds_every_mes(m, k, sigma):
    # the span certificate covers all MES, not just a sampled few
    dims = Dims.from_mk(m, k)
    phi, _, _ = _noisy_preserver(dims, sigma, 1e-9, 23)
    dec = decompose(phi)
    W = kron(dec.U, dec.V)
    for i in range(50):
        M = pi(random_coisometry(dims, np.random.SeedSequence([23, 97, i]))).matrix
        Msig = M.T if sigma is SigmaFlag.TRANSPOSE else M
        residual = np.linalg.norm(apply(phi, M) - W @ Msig @ W.conj().T)
        assert residual <= dec.verification_residual
