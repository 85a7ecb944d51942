import numpy as np
import pytest

from meskit import (
    DimensionError,
    Dims,
    NotMESError,
    ZeroOperatorError,
    are_orthogonal,
    haar_unitary,
    is_coisometry,
    is_mes,
    orthogonal_family,
    partial_trace_y,
    pi,
    random_coisometry,
    representative,
    vec,
)
from meskit.tensor import complex_gaussian
from conftest import canonical_family

DIMS = Dims.from_mk(2, 2)


def test_pi_is_the_projector_array(rng):
    # pi returns vec(A) vec(A)* / ||A||_F^2 itself, bit for bit, whether or not A is a coisometry
    for a in (random_coisometry(DIMS, 3), complex_gaussian(rng, 2, 4)):
        w = vec(a)
        expected = np.outer(w, w.conj()) / np.vdot(w, w).real
        assert np.array_equal(pi(a), expected)


def test_pi_scale_invariance(rng):
    a = complex_gaussian(rng, 2, 4)
    np.testing.assert_allclose(pi(3j * a), pi(a), atol=1e-14)


def test_pi_rejects_zero():
    with pytest.raises(ZeroOperatorError):
        pi(np.zeros((2, 4)))


def test_pi_partial_trace_is_maximally_mixed():
    a = random_coisometry(DIMS, 5)
    np.testing.assert_allclose(
        partial_trace_y(pi(a), DIMS), np.eye(2) / 2.0, atol=1e-12
    )


def test_is_coisometry_canonical_and_scaled():
    a = canonical_family(DIMS)[0]
    assert is_coisometry(a)
    bad = a.copy()
    bad[0] *= 2.0
    assert not is_coisometry(bad)


def test_is_mes_positive_and_negatives(rng):
    assert is_mes(pi(random_coisometry(DIMS, 3)), DIMS)
    # unentangled product vector: partial trace is a rank-1 projection, not I/2
    x = complex_gaussian(rng, 2)
    y = complex_gaussian(rng, 4)
    u = np.kron(x, y)
    u /= np.linalg.norm(u)
    assert not is_mes(np.outer(u, u.conj()), DIMS)
    # rank-2 mixture of orthogonal MES
    fam = orthogonal_family(DIMS, 7)
    mix = (pi(fam[0]) + pi(fam[1])) / 2.0
    assert not is_mes(mix, DIMS)
    # non-Hermitian input is simply not an MES
    assert not is_mes(complex_gaussian(rng, 8, 8), DIMS)


def test_random_coisometry_unit_row_case():
    dims = Dims.from_mk(1, 3)
    a = random_coisometry(dims, 2)
    assert a.shape == (1, 3)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_family_blocks():
    dims = Dims.from_mk(2, 3)
    family = orthogonal_family(dims, 11)
    assert len(family) == 3
    for p in range(3):
        for q in range(3):
            expect = np.eye(2) if p == q else np.zeros((2, 2))
            prod = family[p] @ family[q].conj().T
            assert np.linalg.norm(prod - expect) < 1e-12
    stacked = family.reshape(6, 6)
    assert np.linalg.norm(stacked @ stacked.conj().T - np.eye(6)) < 1e-12
    # the family is the reshaped Haar unitary and its first block the random coisometry, bit for bit
    for s in (0, 11):
        assert np.array_equal(orthogonal_family(dims, s).reshape(6, 6), haar_unitary(6, s))
        assert np.array_equal(random_coisometry(dims, s), orthogonal_family(dims, s)[0])


def test_are_orthogonal_negative():
    a = random_coisometry(DIMS, 1)
    assert not are_orthogonal(a, a)
    with pytest.raises(DimensionError, match="shape mismatch"):
        are_orthogonal(a, a[:, :2])


def test_unit_sphere_combinations_of_orthogonal_pair(rng):
    family = orthogonal_family(DIMS, 13)
    for _ in range(20):
        ab = complex_gaussian(rng, 2)
        ab /= np.linalg.norm(ab)
        assert is_coisometry(ab[0] * family[0] + ab[1] * family[1], 1e-10)


def test_representative_roundtrip():
    for seed in range(20):
        a = random_coisometry(DIMS, seed)
        b = representative(pi(a), DIMS)
        assert np.linalg.norm(pi(b) - pi(a)) < 1e-10
        overlap = abs(np.vdot(vec(b), vec(a))) / 2.0
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_representative_canonical_exact():
    # the factor is rescaled to a coisometry, so a state of trace 1 + 1e-9 has the same representative
    a = canonical_family(DIMS)[0]
    for scale in (1.0, 1.0 + 1e-9):
        assert np.linalg.norm(representative(scale * pi(a), DIMS) - a) < 1e-12, scale


def test_representative_factors_once(monkeypatch):
    # the MES test and the returned factor share one eigendecomposition
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    state = pi(random_coisometry(DIMS, 19))
    expected = representative(state, DIMS)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert np.array_equal(representative(state, DIMS), expected)
    assert len(calls) == 1


def test_representative_rejects_rank_two():
    fam = orthogonal_family(DIMS, 17)
    mix = (pi(fam[0]) + pi(fam[1])) / 2.0
    assert not is_mes(mix, DIMS)
    with pytest.raises(NotMESError):
        representative(mix, DIMS)


@pytest.mark.parametrize(
    "matrix",
    [
        np.triu(np.ones((8, 8))) / 8,
        np.eye(8) / 4,
        np.diag([2.0, -1.0, 0, 0, 0, 0, 0, 0]),
        np.eye(4) / 4,
    ],
    ids=["hermitian", "trace", "eigenvalue", "shape"],
)
def test_non_states_are_not_mes(matrix):
    # a matrix that is no state (not Hermitian, wrong trace, a negative
    # eigenvalue, not mn x mn) is simply not an MES, and has no representative
    assert not is_mes(matrix, DIMS)
    with pytest.raises(NotMESError):
        representative(matrix, DIMS)


def test_pure_state_span_membership_biconditional(rng):
    # rank-1 trace-1 PSD: partial-trace criterion agrees with coisometry extraction
    from meskit import rank_one_factor, unvec

    mes = pi(random_coisometry(DIMS, 23))
    u = complex_gaussian(rng, 8)
    u /= np.linalg.norm(u)
    generic = np.outer(u, u.conj())
    for mat, expect in [(mes, True), (generic, False)]:
        ptrace_ok = np.linalg.norm(partial_trace_y(mat, DIMS) - np.eye(2) / 2.0) < 1e-9
        v, _ = rank_one_factor(mat)
        coiso_ok = is_coisometry(np.sqrt(2) * unvec(v, 2, 4), 1e-9)
        assert ptrace_ok == coiso_ok == expect


def test_pi_injective_on_projective_classes():
    a = random_coisometry(DIMS, 29)
    b = random_coisometry(DIMS, 31)
    assert np.linalg.norm(pi(a) - pi(1j * a)) < 1e-10
    stacked = np.stack([vec(a), vec((1j * a))]).T
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 1
    different = np.stack([vec(a), vec(b)]).T
    assert np.linalg.matrix_rank(different, tol=1e-10) == 2
    assert np.linalg.norm(pi(a) - pi(b)) > 1e-3
