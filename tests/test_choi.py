import numpy as np
import pytest

from meskit import (
    Dims,
    NotMESError,
    NotOrthogonalError,
    SigmaFlag,
    Superoperator,
    align_images,
    apply,
    choi_matrix,
    detect_sigma,
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
from meskit.superop import _conjugation_matrix
from conftest import (
    canonical_family,
    complex_gaussian,
    identity_superop,
    unitary_pair,
)

DIMS = Dims.from_mk(2, 2)


def _preserver(seed, sigma):
    return make_adjoint_preserver(*unitary_pair(DIMS, seed), sigma)


def _evaluate(g, X):
    """G(X) for the matrix G of restricted_g, which acts on row-vectorized X."""
    return unvec(g @ vec(X), 2, 2)


@pytest.mark.parametrize("seed", [3, 4])
def test_detect_sigma_refuses_a_near_mes_image_with_a_typed_error(seed):
    # Ad_W for W = U (x) V plus 3e-8 noise: an image passes is_mes at 1e-8, but its
    # rescaled rank-one factor is not a coisometry within 1e-8
    dims = Dims.from_mk(2, 3)
    w = kron(haar_unitary(2, seed), haar_unitary(6, seed + 100))
    noise = complex_gaussian(np.random.default_rng(seed), *w.shape)
    w = w + 3e-8 * np.linalg.norm(w) * noise / np.linalg.norm(noise)
    phi = Superoperator(_conjugation_matrix(w, SigmaFlag.IDENTITY), dims)
    with pytest.raises(NotMESError, match="rank-one factor is not a coisometry"):
        detect_sigma(phi)


def test_cross_term_identity_map():
    fam = orthogonal_family(DIMS, 13)
    out = phi_on_cross_term(identity_superop(DIMS), fam[0], fam[1])
    expected = np.outer(vec(fam[0]), vec(fam[1]).conj())
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_cross_term_rejects_non_orthogonal():
    a = random_coisometry(DIMS, 15)
    with pytest.raises(NotOrthogonalError):
        phi_on_cross_term(identity_superop(DIMS), a, a)


def test_cross_term_matches_direct_conjugation():
    u, v = unitary_pair(DIMS, 17)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    fam = orthogonal_family(DIMS, 19)
    w = kron(u, v)
    cross = np.outer(vec(fam[0]), vec(fam[1]).conj())
    np.testing.assert_allclose(
        phi_on_cross_term(phi, fam[0], fam[1]), w @ cross @ w.conj().T, atol=1e-11
    )


def test_restricted_g_identity():
    # the canonical family already satisfies the phase gauge, so the image
    # representatives coincide with the inputs and G is exactly the identity
    fam = canonical_family(DIMS)
    g = restricted_g(identity_superop(DIMS), fam[0], fam[1])
    np.testing.assert_allclose(g, np.eye(4), atol=1e-10)


def test_restricted_g_identity_on_random_pair_is_diagonal_phase():
    # for a gauge-free input pair the identity map still gives a diagonal G
    # with unimodular entries and normalized corners
    fam = orthogonal_family(DIMS, 21)
    g = restricted_g(identity_superop(DIMS), fam[0], fam[1])
    off = g - np.diag(np.diagonal(g))
    assert np.abs(off).max() < 1e-10
    np.testing.assert_allclose(np.abs(np.diagonal(g)), np.ones(4), atol=1e-10)
    assert g[0, 0] == pytest.approx(1.0)
    assert g[3, 3] == pytest.approx(1.0)


def test_restricted_g_diagonal_normalization_and_offdiagonal_phase():
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


def test_restricted_g_and_align_images_reject_non_orthogonal():
    phi = _preserver(27, SigmaFlag.IDENTITY)
    a = random_coisometry(DIMS, 15)
    with pytest.raises(NotOrthogonalError):
        restricted_g(phi, a, a)
    with pytest.raises(NotOrthogonalError):
        align_images(phi, [a, a])


def test_restricted_g_rank_one_preservation(rng):
    # images of rank-1 PSD coefficient matrices stay rank-1 PSD
    g = restricted_g(_preserver(33, SigmaFlag.IDENTITY), *orthogonal_family(DIMS, 35)[:2])
    for _ in range(50):
        ab = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ab /= np.linalg.norm(ab)
        image = _evaluate(g, np.outer(ab, ab.conj()))
        assert abs(np.linalg.det(image)) < 1e-8
        assert abs(np.trace(image) - 1.0) < 1e-8
        assert np.linalg.eigvalsh((image + image.conj().T) / 2.0)[0] > -1e-8


def test_flag_from_determinant_balls():
    from meskit import NotPreserverError, flag_from_determinant

    assert flag_from_determinant(0.0) is SigmaFlag.IDENTITY
    assert flag_from_determinant(0.2 - 0.3j) is SigmaFlag.IDENTITY
    assert flag_from_determinant(-1.0) is SigmaFlag.TRANSPOSE
    assert flag_from_determinant(-0.8 + 0.1j) is SigmaFlag.TRANSPOSE
    for outside in (-0.5, 0.7, -1.9, 2.0, -0.5 + 0.2j):
        with pytest.raises(NotPreserverError):
            flag_from_determinant(outside)


def test_detect_sigma_identity_and_transpose():
    assert detect_sigma(identity_superop(DIMS)) is SigmaFlag.IDENTITY
    assert detect_sigma(_preserver(37, SigmaFlag.IDENTITY)) is SigmaFlag.IDENTITY
    assert detect_sigma(_preserver(37, SigmaFlag.TRANSPOSE)) is SigmaFlag.TRANSPOSE


def test_detect_sigma_pair_independent():
    phi = _preserver(39, SigmaFlag.TRANSPOSE)
    flags = {detect_sigma(phi, seed=s) for s in range(20)}
    assert flags == {SigmaFlag.TRANSPOSE}


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
        ab = rng.standard_normal(2) + 1j * rng.standard_normal(2)
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
