import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meskit import (
    DimensionError,
    Dims,
    NotHermitianError,
    fix_global_phase,
    haar_unitary,
    kron,
    nearest_kron_factor,
    partial_trace_y,
    rank_one_factor,
    unvec,
    vec,
)
from meskit.tensor import complex_gaussian


def test_vec_stacks_rows():
    a = np.array([[1 + 2j, 3], [4, 5 - 1j]])
    np.testing.assert_array_equal(vec(a), np.array([1 + 2j, 3, 4, 5 - 1j]))


def test_unvec_rejects_bad_length():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5), 2, 2)


@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_vec_unvec_roundtrip(seed, m, n):
    a = complex_gaussian(np.random.default_rng(seed), m, n)
    np.testing.assert_array_equal(unvec(vec(a), m, n), a)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_kron_consistent_with_vec(seed):
    rng = np.random.default_rng(seed)
    a, x, b = (complex_gaussian(rng, 2, 2) for _ in range(3))
    np.testing.assert_allclose(vec(a @ x @ b), kron(a, b.T) @ vec(x), atol=1e-12)


def test_partial_trace_product_rule(rng):
    a = complex_gaussian(rng, 2, 2)
    b = complex_gaussian(rng, 4, 4)
    np.testing.assert_allclose(
        partial_trace_y(kron(a, b), Dims(2, 4)), np.trace(b) * a, atol=1e-12
    )


def test_partial_trace_vec_outer_rule(rng):
    dims = Dims.from_mk(2, 2)
    a = complex_gaussian(rng, 2, 4)
    b = complex_gaussian(rng, 2, 4)
    lhs = partial_trace_y(np.outer(vec(a), vec(b).conj()), dims)
    np.testing.assert_allclose(lhs, a @ b.conj().T, atol=1e-12)


def test_partial_trace_rejects_bad_shape():
    with pytest.raises(DimensionError):
        partial_trace_y(np.eye(5), Dims.from_mk(2, 2))


def test_dims_validation():
    with pytest.raises(DimensionError):
        Dims(2, 5)
    with pytest.raises(DimensionError):
        Dims(0, 0)
    # a float or bool side is refused, though 2.0 divides 4 and True divides 2
    for m, n in ((2.0, 4), (2, 4.0), (np.float64(2), 4), (True, 2), (1, True), (np.int64(2), 4.0)):
        with pytest.raises(DimensionError, match="integers"):
            Dims(m, n)
    assert Dims(np.int64(2), np.int32(4)).mn == 8
    assert Dims.from_mk(2, 3).mn == 12


def test_dims_is_a_shape_and_derives_k():
    assert [f.name for f in dataclasses.fields(Dims)] == ["m", "n"]
    assert Dims(2, 4).k == 2
    assert Dims.from_mk(2, 3) == Dims(2, 6)


def test_haar_unitary_is_unitary():
    for seed in range(100):
        u = haar_unitary(6, seed)
        assert np.linalg.norm(u @ u.conj().T - np.eye(6)) < 1e-12


def test_haar_unitary_scalar_case():
    u = haar_unitary(1, 3)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14
    with pytest.raises(DimensionError, match="got 0"):
        haar_unitary(0)


def test_haar_unitary_deterministic():
    np.testing.assert_array_equal(haar_unitary(4, 11), haar_unitary(4, 11))
    assert np.linalg.norm(haar_unitary(4, 11) - haar_unitary(4, 12)) > 1e-3


def test_haar_first_moment():
    # E |u_00|^2 = 1/d for Haar measure
    total = sum(abs(haar_unitary(4, s)[0, 0]) ** 2 for s in range(10_000))
    assert total / 10_000 == pytest.approx(0.25, abs=0.02)


def test_fix_global_phase_pivot_and_ties():
    a = np.array([[1j, -2j], [0.5, 0]])
    fixed = fix_global_phase(a)
    assert fixed[0, 1] == pytest.approx(2.0)  # largest entry rotated positive real
    tie = np.array([1j, 1j])
    np.testing.assert_allclose(fix_global_phase(tie), np.array([1.0, 1.0]), atol=1e-15)
    np.testing.assert_array_equal(fix_global_phase(np.zeros(3)), np.zeros(3))


def test_rank_one_factor_recovers_projection(rng):
    u = complex_gaussian(rng, 5)
    u /= np.linalg.norm(u)
    v, residual = rank_one_factor(np.outer(u, u.conj()))
    assert residual < 1e-12
    overlap = abs(np.vdot(v, u))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.angle(v[np.argmax(np.abs(v))]) == pytest.approx(0.0, abs=1e-12)  # the global gauge


def test_rank_one_factor_identity_residual():
    _, residual = rank_one_factor(np.eye(2))
    assert residual == pytest.approx(1.0, abs=1e-12)


def test_rank_one_factor_zero():
    v, residual = rank_one_factor(np.zeros((3, 3)))
    np.testing.assert_array_equal(v, np.zeros(3))
    assert residual == 0.0


def test_rank_one_factor_rejects_non_hermitian(rng):
    with pytest.raises(NotHermitianError):
        rank_one_factor(complex_gaussian(rng, 3, 3))
    with pytest.raises(DimensionError, match="square"):
        rank_one_factor(np.ones((2, 3)))


def test_nearest_kron_factor_roundtrip():
    dims = Dims.from_mk(2, 2)
    u0, v0 = haar_unitary(2, 1), haar_unitary(4, 2)
    u, v, residual = nearest_kron_factor(kron(u0, v0), dims)
    assert residual < 1e-10
    np.testing.assert_allclose(kron(u, v), kron(u0, v0), atol=1e-10)
    np.testing.assert_allclose(fix_global_phase(u0), u, atol=1e-10)


def test_nearest_kron_factor_identity():
    dims = Dims.from_mk(2, 3)
    u, v, residual = nearest_kron_factor(np.eye(12), dims)
    assert residual < 1e-12
    np.testing.assert_allclose(u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(v, np.eye(6), atol=1e-12)
    with pytest.raises(DimensionError, match="12x12"):
        nearest_kron_factor(np.eye(8), dims)


def test_nearest_kron_factor_swap_is_far():
    # the swap operator is maximally non-Kronecker: its rearrangement has four
    # equal singular values, leaving residual sqrt(3)
    dims = Dims(2, 2)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    rearranged = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    rearranged[i * 2 + j, p * 2 + q] = swap[i * 2 + p, j * 2 + q]
    s = np.linalg.svd(rearranged, compute_uv=False)
    expected = float(np.sqrt(np.sum(s[1:] ** 2)))
    _, _, residual = nearest_kron_factor(swap, dims)
    assert residual == pytest.approx(expected, abs=1e-12)
    assert residual > 0.5


def test_nearest_kron_factor_scale_split():
    dims = Dims.from_mk(2, 2)
    w = kron(haar_unitary(2, 5), haar_unitary(4, 6)) * 3.0
    u, v, _ = nearest_kron_factor(w, dims)
    assert np.linalg.norm(u) == pytest.approx(np.sqrt(2))
    np.testing.assert_allclose(kron(u, v), w, atol=1e-10)
