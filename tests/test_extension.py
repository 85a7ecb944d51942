
import numpy as np
import pytest

from meskit import (
    Decomposition,
    DimensionError,
    Dims,
    ExtendedSuperoperator,
    SigmaFlag,
    Superoperator,
    ad_commutation_residual,
    apply,
    decompose,
    haar_unitary,
    is_mes,
    kron,
    make_adjoint_preserver,
    make_swap_preserver,
    p_operator,
    pi,
    q_operator,
    random_coisometry,
    structural_unitaries,
    verify_theorem_form,
)
from meskit.lemmas import check_switch_identities
from meskit.tensor import complex_gaussian, perturb, unitary_pair
from conftest import (
    commutes_with_ad,
    dense_extension,
    identity_superop,
    peak_traced_bytes,
    switch_commutation_witness,
)

DIMS = Dims.from_mk(2, 2)
BOTH = (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE)


def _preserver(seed, sigma, dims=DIMS):
    return make_adjoint_preserver(*unitary_pair(dims, seed), sigma)


def test_extend_identity_is_identity():
    ext = ExtendedSuperoperator(identity_superop(DIMS), SigmaFlag.IDENTITY)
    np.testing.assert_allclose(dense_extension(ext), np.eye(256), atol=1e-14)


def _kron_extension(phi, sigma):
    """The kron-and-permute construction: kron(B, phi) with B the identity or
    the block swap on k^2 block pairs, then regrouped by vec index."""
    dims = phi.dims
    n, mn, k = dims.n, dims.mn, dims.k
    block_perm = np.eye(k * k)
    if sigma is SigmaFlag.TRANSPOSE:
        block_perm = np.zeros((k * k, k * k))
        for p in range(k):
            for q in range(k):
                block_perm[p * k + q, q * k + p] = 1.0
    grouped = np.kron(block_perm, phi.matrix)
    row, col = divmod(np.arange(n**4), n * n)
    p, r = divmod(row, mn)
    q, s = divmod(col, mn)
    g = ((p * k + q) * mn + r) * mn + s
    return grouped[np.ix_(g, g)]


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("sigma", BOTH)
def test_extend_equals_kron_construction(m, k, sigma, rng):
    dims = Dims.from_mk(m, k)
    phi = Superoperator(complex_gaussian(rng, dims.mn**2, dims.mn**2), dims)
    ext = dense_extension(ExtendedSuperoperator(phi, sigma))
    assert np.array_equal(ext, _kron_extension(phi, sigma))
    # structural zeros are +0 (kron wrote 0 * negative as -0)
    zeros = ext[ext == 0]
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("sigma", BOTH)
@pytest.mark.parametrize("base", ["dense", "conjugation"])
def test_blockwise_apply_equals_dense_matvec(m, k, sigma, base, rng):
    dims = Dims.from_mk(m, k)
    if base == "dense":
        phi = Superoperator(complex_gaussian(rng, dims.mn**2, dims.mn**2), dims)
    else:
        phi = make_adjoint_preserver(*unitary_pair(dims, 0, 0), sigma)
    ext = ExtendedSuperoperator(phi, sigma)
    side = dims.n**2
    M = complex_gaussian(rng, side, side)
    image = apply(ext, M)
    # bit for bit the base applied to each block, block (q, p) under the transpose
    blocks = M.reshape(k, dims.mn, k, dims.mn)
    if sigma is SigmaFlag.TRANSPOSE:
        blocks = blocks.transpose(2, 1, 0, 3)
    reference = np.block([[apply(phi, blocks[p, :, q, :]) for q in range(k)] for p in range(k)])
    np.testing.assert_array_equal(image, reference)
    dense = (dense_extension(ext) @ M.reshape(-1)).reshape(side, side)
    assert np.linalg.norm(image - dense) <= 1e-13 * np.linalg.norm(dense)


def test_extension_peak_memory_far_below_the_dense_matrix(rng):
    dims = Dims.from_mk(3, 2)
    phi = _preserver(1, SigmaFlag.TRANSPOSE, dims)
    states = [complex_gaussian(rng, dims.n**2, dims.n**2) for _ in range(3)]
    dense_nbytes = dims.n**8 * np.dtype(complex).itemsize  # the n^4 x n^4 matrix
    def apply_all():
        ext = ExtendedSuperoperator(phi, SigmaFlag.TRANSPOSE)
        for state in states:
            apply(ext, state)

    assert peak_traced_bytes(apply_all)[1] < dense_nbytes / 10


def test_extend_rejects_single_block():
    square = Dims(2, 2)
    phi = make_adjoint_preserver(np.eye(2), np.eye(2), SigmaFlag.IDENTITY)
    assert phi.dims == square
    with pytest.raises(DimensionError):
        ExtendedSuperoperator(phi, SigmaFlag.IDENTITY)


@pytest.mark.parametrize("sigma", BOTH)
def test_extend_preserves_square_mes(sigma):
    phi = _preserver(5, sigma)
    ext = ExtendedSuperoperator(phi, sigma)
    for seed in range(25):
        state = pi(random_coisometry(ext.dims, seed))
        assert is_mes(apply(ext, state), ext.dims, 1e-8)


@pytest.mark.parametrize("sigma", BOTH)
def test_extend_consistency_with_block_diagonal_conjugation(sigma):
    # extending ad_{U (x) V} (with the matching branch flag) equals the
    # square-space conjugation by (I_k (x) U) (x) V
    u, v = unitary_pair(DIMS, 7)
    ext = ExtendedSuperoperator(make_adjoint_preserver(u, v, sigma), sigma)
    big = make_adjoint_preserver(kron(np.eye(2), u), v, sigma)
    assert np.linalg.norm(dense_extension(ext) - big.matrix) < 1e-10


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2)])
@pytest.mark.parametrize("sigma", BOTH)
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-7])
@pytest.mark.parametrize("seed", range(2))
def test_extension_certificate_is_bounded_by_the_base(m, k, sigma, eps, seed):
    # each block of an element of span(MES(Y (x) Y)) lies in span(MES(X (x) Y)),
    # so the extension misses Ad_{(I_k (x) U) (x) V} o sigma on its span by no more
    # than phi misses Ad_{U (x) V} o sigma on its own; the extension has k = 1
    dims = Dims.from_mk(m, k)
    exact = _preserver(seed, sigma, dims).matrix
    phi = Superoperator(perturb(exact, eps, np.random.default_rng([seed, 7])), dims)
    dec = decompose(phi, tol=1e-6)  # the certificate's bound is then its 1e-6 cap
    ext = Superoperator(dense_extension(ExtendedSuperoperator(phi, dec.sigma)), Dims(dims.n, dims.n))
    lifted = Decomposition(dec.sigma, kron(np.eye(k), dec.U), dec.V, 0.0, 0.0)
    # 1e-15 of slack for rounding, which is all of an exact map's certificate
    assert verify_theorem_form(ext, lifted) <= dec.verification_residual + 1e-15


def test_p_operator_formula_and_involution():
    dims = Dims.from_mk(1, 2)
    np.testing.assert_array_equal(p_operator(1, dims), np.diag([-1.0, 1.0]))
    dims = Dims.from_mk(2, 3)
    for j in range(1, 4):
        p = p_operator(j, dims)
        np.testing.assert_allclose(p @ p, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(p @ p.conj().T, np.eye(6), atol=1e-14)
        np.testing.assert_array_equal(p, p.conj().T)
    with pytest.raises(IndexError):
        p_operator(4, dims)


def test_q_operator_formula_and_involution():
    dims = Dims.from_mk(1, 2)
    t12 = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(q_operator(1, 2, dims), kron(t12, np.eye(2)))
    dims = Dims.from_mk(2, 3)
    q = q_operator(1, 3, dims)
    np.testing.assert_allclose(q @ q, np.eye(36), atol=1e-14)
    with pytest.raises(IndexError):
        q_operator(2, 2, dims)


def test_q_operator_swaps_blocks(rng):
    q = q_operator(1, 2, DIMS)
    m = complex_gaussian(rng, 16, 16)
    swapped = (q @ m @ q.conj().T).reshape(2, 8, 2, 8)
    blocks = m.reshape(2, 8, 2, 8)
    np.testing.assert_allclose(swapped[0, :, 0, :], blocks[1, :, 1, :], atol=1e-12)
    np.testing.assert_allclose(swapped[1, :, 1, :], blocks[0, :, 0, :], atol=1e-12)
    np.testing.assert_allclose(swapped[0, :, 1, :], blocks[1, :, 0, :], atol=1e-12)


@pytest.mark.parametrize("sigma", BOTH)
def test_extension_commutes_with_structural_conjugations(sigma):
    dims = Dims.from_mk(2, 3)
    ext = ExtendedSuperoperator(_preserver(9, sigma, dims), sigma)
    eye_n = np.eye(dims.n)
    for j in range(1, dims.k + 1):
        assert commutes_with_ad(ext, kron(p_operator(j, dims), eye_n))
    for p in range(1, dims.k + 1):
        for q in range(p + 1, dims.k + 1):
            assert commutes_with_ad(ext, q_operator(p, q, dims))


def test_structural_unitaries_order_and_values():
    dims = Dims.from_mk(2, 3)
    pairs = structural_unitaries(dims)
    assert [name for name, _ in pairs] == ["P1xI", "P2xI", "P3xI", "Q12", "Q13", "Q23"]
    expected = [kron(p_operator(j, dims), np.eye(dims.n)) for j in (1, 2, 3)]
    expected += [q_operator(p, q, dims) for p, q in ((1, 2), (1, 3), (2, 3))]
    for (_, w), e in zip(pairs, expected):
        np.testing.assert_array_equal(w, e)


def test_switch_form_fails_sign_commutation_with_witness():
    # the square-space switch form is ruled out exactly because it fails this
    # commutation; the rotation witness below exhibits the failure directly
    u = haar_unitary(4, 11)
    v = haar_unitary(4, 13)
    psi = make_swap_preserver(u, v, SigmaFlag.IDENTITY)
    w = kron(p_operator(1, DIMS), np.eye(4))
    a = switch_commutation_witness(DIMS, u)
    assert np.linalg.norm(a @ a.conj().T - np.eye(4)) < 1e-12
    state = pi(a)
    assert ad_commutation_residual(psi, w, state) > 0.1
    assert not commutes_with_ad(psi, w)


def test_switch_witness_construction():
    u = haar_unitary(4, 15)
    a = switch_commutation_witness(DIMS, u)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(u @ a.T, kron(h, np.eye(2)), atol=1e-12)


def test_square_space_projection_identities():
    # switch, transpose and conjugation act on projections of unitaries as
    # transpose, complex conjugation, and U A V^T respectively
    n = 4
    switch = make_swap_preserver(np.eye(n), np.eye(n), SigmaFlag.IDENTITY)
    for seed in range(50):
        a = haar_unitary(n, np.random.SeedSequence([seed, 0]))
        u = haar_unitary(n, np.random.SeedSequence([seed, 1]))
        v = haar_unitary(n, np.random.SeedSequence([seed, 2]))
        state = pi(a)
        assert np.linalg.norm(apply(switch, state) - pi(a.T)) < 1e-10
        assert np.linalg.norm(state.T - pi(a.conj())) < 1e-10
        w = kron(u, v)
        conj = w @ state @ w.conj().T
        assert np.linalg.norm(conj - pi(u @ a @ v.T)) < 1e-10
    # the switch is the flip permutation of indices, as check_switch_identities applies it
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        M = complex_gaussian(rng, n * n, n * n)
        swap = make_swap_preserver(np.eye(n), np.eye(n), SigmaFlag.IDENTITY)
        flipped = M.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
        assert np.array_equal(flipped, apply(swap, M))


def test_switch_check_peak_memory_below_the_switch_matrix():
    # at n = 6 the dense switch on L(Y (x) Y) would be 16 n^8 = 26.9 MB
    dims = Dims.from_mk(3, 2)
    residual, peak = peak_traced_bytes(lambda: check_switch_identities(dims, 3, 0))
    assert residual < 1e-9
    assert peak < 16 * dims.n**8 / 4
