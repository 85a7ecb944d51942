import numpy as np
import pytest

from meskit import (
    Conjugation,
    Dims,
    NotMESError,
    NotOrthogonalError,
    SigmaFlag,
    Superoperator,
    align_images,
    apply,
    choi_matrix,
    haar_unitary,
    kron,
    make_adjoint_preserver,
    orthogonal_family,
    phi_on_cross_term,
    pi,
    random_coisometry,
    restricted_g,
    unvec,
    vec,
)
from meskit.tensor import complex_gaussian, perturb, unitary_pair
from conftest import (
    canonical_family,
    gram_solve_g,
    identity_superop,
)

DIMS = Dims.from_mk(2, 2)


def _preserver(seed, sigma):
    return make_adjoint_preserver(*unitary_pair(DIMS, seed), sigma)


def _evaluate(g, X):
    """G(X) for the matrix G of restricted_g, which acts on row-vectorized X."""
    return unvec(g @ vec(X), 2, 2)


@pytest.mark.parametrize("seed", [3, 4])
def test_restricted_g_refuses_a_near_mes_image_with_a_typed_error(seed):
    # Ad_W for W = U (x) V plus 3e-8 noise: an image passes is_mes at 1e-8, but its
    # rescaled rank-one factor is not a coisometry within 1e-8
    dims = Dims.from_mk(2, 3)
    w = kron(haar_unitary(2, seed), haar_unitary(6, seed + 100))
    w = perturb(w, 3e-8, np.random.default_rng(seed))
    phi = Conjugation(w, SigmaFlag.IDENTITY, dims)
    pair = orthogonal_family(dims, np.random.SeedSequence([0, 13]))[:2]
    with pytest.raises(NotMESError, match="rank-one factor is not a coisometry"):
        restricted_g(phi, *pair)


def test_cross_term_matches_direct_conjugation():
    u, v = unitary_pair(DIMS, 17)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    fam = orthogonal_family(DIMS, 19)
    w = kron(u, v)
    cross = np.outer(vec(fam[0]), vec(fam[1]).conj())
    np.testing.assert_allclose(
        phi_on_cross_term(phi, fam[0], fam[1]), w @ cross @ w.conj().T, atol=1e-11
    )


def test_restricted_g_diagonal_normalization_and_offdiagonal_phase():
    # G fixes E11 and E22, and sends E12 to c E12 (identity) or c E21 (transpose)
    # and E21 to conj(c) times the transpose of that, |c| = 1: so G keeps
    # rank-one PSD coefficient matrices rank-one PSD of trace 1
    fam = orthogonal_family(DIMS, 23)
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = e12.T
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    for sigma in (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE):
        g = restricted_g(_preserver(25, sigma), fam[0], fam[1])
        np.testing.assert_allclose(_evaluate(g, e11), e11, atol=1e-10)
        np.testing.assert_allclose(_evaluate(g, e22), e22, atol=1e-10)
        image12 = _evaluate(g, e12)
        pattern = e12 if sigma is SigmaFlag.IDENTITY else e21
        coeff = image12[pattern.astype(bool)][0]
        assert abs(abs(coeff) - 1.0) < 1e-10
        np.testing.assert_allclose(image12, coeff * pattern, atol=1e-10)
        np.testing.assert_allclose(_evaluate(g, e21), np.conj(coeff) * pattern.T, atol=1e-10)


def test_choi_matrix_of_identity_map():
    fam = canonical_family(DIMS)
    j = choi_matrix(restricted_g(identity_superop(DIMS), fam[0], fam[1]))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    np.testing.assert_allclose(j, expected, atol=1e-10)


def test_choi_matrix_forms_and_determinant():
    fam = orthogonal_family(DIMS, 29)
    j_id = choi_matrix(restricted_g(_preserver(31, SigmaFlag.IDENTITY), fam[0], fam[1]))
    # identity branch: support on corners (0,0), (0,3), (3,0), (3,3)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[0, 3] = mask[3, 0] = mask[3, 3] = True
    assert np.abs(j_id[~mask]).max() < 1e-10
    assert abs(abs(j_id[0, 3]) - 1.0) < 1e-10
    assert abs(np.linalg.det(j_id)) < 1e-10
    j_tr = choi_matrix(restricted_g(_preserver(31, SigmaFlag.TRANSPOSE), fam[0], fam[1]))
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[1, 2] = mask[2, 1] = mask[3, 3] = True
    assert np.abs(j_tr[~mask]).max() < 1e-10
    assert abs(abs(j_tr[1, 2]) - 1.0) < 1e-10
    assert abs(np.linalg.det(j_tr) + 1.0) < 1e-10


def _choi_by_definition(g):
    """J(G) = sum_ij E_ij (x) G(E_ij), summed term by term."""
    eye2 = np.eye(2)
    J = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(eye2[i], eye2[j])
            J += np.kron(e_ij, _evaluate(g, e_ij))
    return J


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_choi_matrix_realigns_g_exactly(m, k, sigma):
    # the realignment moves G's entries without arithmetic, so it agrees with
    # the sum of E_ij (x) G(E_ij) bit for bit, and so does det J(G)
    dims = Dims.from_mk(m, k)
    for seed in range(5):
        phi = make_adjoint_preserver(*unitary_pair(dims, 60 + seed), sigma)
        fam = orthogonal_family(dims, 70 + seed)
        g = restricted_g(phi, fam[0], fam[1])
        j, reference = choi_matrix(g), _choi_by_definition(g)
        assert np.array_equal(j, reference)
        assert np.linalg.det(j) == np.linalg.det(reference)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_restricted_g_matches_the_gram_solve(m, k, sigma):
    # the closed form B+ T (B+)* is the least-squares solution the 4 x 4 Gram
    # system gives, on exact preservers and on one with noise of Frobenius norm 1e-9
    dims = Dims.from_mk(m, k)
    exact = make_adjoint_preserver(*unitary_pair(dims, 80 + m + k), sigma)
    noisy = Superoperator(perturb(exact.matrix, 1e-9 / dims.mn, np.random.default_rng(m * k)), dims)
    for seed, phi in [(90, exact), (91, exact), (92, noisy)]:
        fam = orthogonal_family(dims, seed)
        g, oracle = restricted_g(phi, fam[0], fam[1]), gram_solve_g(phi, fam[0], fam[1])
        assert np.linalg.norm(g - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_restricted_g_and_align_images_reject_non_orthogonal():
    phi = _preserver(27, SigmaFlag.IDENTITY)
    a = random_coisometry(DIMS, 15)
    with pytest.raises(NotOrthogonalError):
        restricted_g(phi, a, a)
    with pytest.raises(NotOrthogonalError):
        align_images(phi, [a, a])


def test_choi_determinant_of_the_dense_identity_is_zero():
    pair = orthogonal_family(DIMS, np.random.SeedSequence([0, 13]))[:2]
    g = restricted_g(identity_superop(DIMS), *pair)
    assert abs(np.linalg.det(choi_matrix(g))) < 1e-12


def test_align_images_identity_on_canonical_family():
    family = canonical_family(DIMS)
    images = align_images(identity_superop(DIMS), family)
    for a, b in zip(family, images):
        np.testing.assert_allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_align_images_orthogonality_and_coherence(sigma):
    dims = Dims.from_mk(2, 3)
    u, v = unitary_pair(dims, 41)
    phi = make_adjoint_preserver(u, v, sigma)
    family = orthogonal_family(dims, 43)
    images = align_images(phi, family)
    for p in range(3):
        for q in range(3):
            expect = np.eye(2) if p == q else np.zeros((2, 2))
            assert (
                np.linalg.norm(images[p] @ images[q].conj().T - expect) < 1e-9
            )
    # coherence against the known conjugation images
    for p in range(3):
        for q in range(3):
            target = phi_on_cross_term(phi, family[p], family[q]) if p != q else (
                2.0 * apply(phi, pi(family[p]))
            )
            bp, bq = (images[q], images[p]) if sigma is SigmaFlag.TRANSPOSE else (
                images[p],
                images[q],
            )
            recon = np.outer(vec(bp), vec(bq).conj())
            assert np.linalg.norm(target - recon) < 1e-9


@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_projective_semilinearity_on_pairs(sigma, rng):
    phi = _preserver(45, sigma)
    fam = orthogonal_family(DIMS, 47)[:2]
    images = align_images(phi, fam)
    for _ in range(25):
        ab = complex_gaussian(rng, 2)
        ab /= np.linalg.norm(ab)
        coeff = ab.conj() if sigma is SigmaFlag.TRANSPOSE else ab
        source = ab[0] * fam[0] + ab[1] * fam[1]
        target = coeff[0] * images[0] + coeff[1] * images[1]
        dist = np.linalg.norm(apply(phi, pi(source)) - pi(target))
        assert dist < 1e-8


@pytest.mark.parametrize("m,k", [(3, 2), (2, 3)])
def test_align_images_reads_each_value_once(m, k, monkeypatch):
    # k diagonal values and four MES evaluations per cross term, each made once
    import meskit.choi

    dims = Dims.from_mk(m, k)
    phi = make_adjoint_preserver(*unitary_pair(dims, 49), SigmaFlag.TRANSPOSE)
    calls = []

    def counting_apply(op, M):
        calls.append(1)
        return apply(op, M)

    monkeypatch.setattr(meskit.choi, "apply", counting_apply)
    align_images(phi, orthogonal_family(dims, 51))
    assert len(calls) <= k + 4 * k * (k - 1)
