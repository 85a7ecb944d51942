import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meskit import (
    Conjugation,
    DimensionError,
    Dims,
    ExtendedSuperoperator,
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
    pi,
    random_coisometry,
    vec,
)
from meskit.superop import _span_sigma_min
from meskit.tensor import complex_gaussian, unitary_pair
from conftest import (
    dense_extension,
    identity_superop,
    peak_traced_bytes,
    span_mes_basis,
    transpose_matrix,
)

DIMS = Dims.from_mk(2, 2)

# complex dimensions of span(MES), pinned from a brute-force sampling oracle
# (rank of vec'd projections of independently sampled coisometries)
SPAN_DIMS = {(1, 2): 4, (2, 1): 10, (2, 2): 61, (2, 3): 141, (3, 1): 65}


def _span_columns(dims: Dims) -> np.ndarray:
    """Orthonormal column basis Q of span(MES) from the dense span_mes_basis."""
    return np.array([vec(e) for e in span_mes_basis(dims)]).T


@pytest.mark.parametrize("kind", ["dense", "extension", "conjugation"])
@pytest.mark.parametrize("wrong", ["wrong side", "non-square", "1-D"])
def test_apply_rejects_wrong_shapes(kind, wrong, rng):
    # apply is the one check of an operator's shape, whatever the map
    conjugation = make_adjoint_preserver(*unitary_pair(DIMS, 3), SigmaFlag.IDENTITY)
    phi = {
        "dense": Superoperator(conjugation.matrix, DIMS),
        "extension": ExtendedSuperoperator(conjugation, SigmaFlag.IDENTITY),
        "conjugation": conjugation,
    }[kind]
    side = phi.dims.mn
    shape = {"wrong side": (side // 2, side // 2), "non-square": (side, side // 2), "1-D": (side,)}[wrong]
    with pytest.raises(DimensionError, match=f"expected {side}x{side} operator"):
        apply(phi, rng.standard_normal(shape))


@pytest.mark.parametrize(
    "form,m,k",
    [("adjoint", 1, 2), ("adjoint", 2, 2), ("adjoint", 3, 2), ("swap", 1, 1), ("swap", 2, 1), ("swap", 3, 1)],
)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_conjugation_applies_its_own_matrix(form, m, k, sigma, rng):
    # apply evaluates w M^sigma w*, and the dense matrix, built on each read and
    # never kept, is the same map
    dims = Dims.from_mk(m, k)
    make = make_swap_preserver if form == "swap" else make_adjoint_preserver
    phi = make(*unitary_pair(dims, 3), sigma)
    assert isinstance(phi, Conjugation) and phi.dims == dims
    assert _same_bits(phi.matrix, phi.matrix)
    assert vars(phi).keys() == {"w", "sigma", "dims"}
    maps = [(phi, phi.matrix)]
    if dims.k >= 2:  # the extension: blockwise vs dense
        ext = ExtendedSuperoperator(phi, sigma)
        maps.append((ext, dense_extension(ext)))
    for psi, matrix in maps:
        for _ in range(3):
            M = complex_gaussian(rng, psi.dims.mn, psi.dims.mn)
            want = (matrix @ vec(M)).reshape(M.shape)
            assert np.linalg.norm(apply(psi, M) - want) <= 1e-13 * np.linalg.norm(want)
    for w in (phi.w[:-1, :-1], phi.w[:, :-1], np.eye(dims.mn + 1)):
        with pytest.raises(DimensionError, match=f"must be {dims.mn}x{dims.mn}"):
            Conjugation(w, sigma, dims)


@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_sigma_given_by_its_value_is_the_flag(sigma, rng):
    # a map built with "transpose" must not apply the identity branch
    dims = Dims.from_mk(1, 2)
    u, v = unitary_pair(dims, 3)
    M = complex_gaussian(rng, dims.mn, dims.mn)
    flag = make_adjoint_preserver(u, v, sigma)
    for phi in (make_adjoint_preserver(u, v, sigma.value), Conjugation(flag.w, sigma.value, dims)):
        assert phi.sigma is sigma
        assert np.array_equal(phi.matrix, flag.matrix)
        assert np.array_equal(phi.apply_to(M), flag.apply_to(M))
    by_value, by_flag = ExtendedSuperoperator(flag, sigma.value), ExtendedSuperoperator(flag, sigma)
    assert by_value.sigma is sigma
    assert np.array_equal(dense_extension(by_value), dense_extension(by_flag))
    big = complex_gaussian(rng, by_flag.dims.mn, by_flag.dims.mn)
    assert np.array_equal(by_value.apply_to(big), by_flag.apply_to(big))
    with pytest.raises(ValueError):
        Conjugation(flag.w, "bogus", dims)
    with pytest.raises(ValueError):
        ExtendedSuperoperator(flag, "bogus")


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
    phi, peak = peak_traced_bytes(lambda: make_adjoint_preserver(u, v, sigma))
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


def test_adjoint_preserver_preserves_mes():
    for sigma in (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE):
        phi = make_adjoint_preserver(*unitary_pair(DIMS, 11), sigma)
        for seed in range(100):
            image = apply(phi, pi(random_coisometry(DIMS, seed)))
            assert is_mes(image, DIMS, 1e-10)


def test_adjoint_preserver_rejects_non_unitary(rng):
    with pytest.raises(NotUnitaryError):
        make_adjoint_preserver(complex_gaussian(rng, 2, 2), np.eye(4), SigmaFlag.IDENTITY)
    with pytest.raises(NotUnitaryError, match="square"):
        make_adjoint_preserver(np.eye(2), np.eye(4)[:3], SigmaFlag.IDENTITY)


def test_adjoint_preserver_functoriality():
    u1, v1 = unitary_pair(DIMS, 13)
    u2, v2 = unitary_pair(DIMS, 15)
    composed = make_adjoint_preserver(u1 @ u2, v1 @ v2, SigmaFlag.IDENTITY)
    chained = make_adjoint_preserver(u1, v1, SigmaFlag.IDENTITY).matrix @ make_adjoint_preserver(
        u2, v2, SigmaFlag.IDENTITY
    ).matrix
    assert np.linalg.norm(composed.matrix - chained) < 1e-10


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


def test_trace_preserver_behavior(rng):
    rho = pi(random_coisometry(DIMS, 27))
    phi = make_trace_preserver(rho, DIMS)
    m = pi(random_coisometry(DIMS, 29))
    np.testing.assert_allclose(apply(phi, m), rho, atol=1e-12)
    traceless = complex_gaussian(rng, 8, 8)
    traceless -= np.trace(traceless) / 8.0 * np.eye(8)
    assert np.linalg.norm(apply(phi, traceless)) < 1e-12
    assert not is_invertible_on_span(phi)


def test_trace_preserver_rejects_non_mes(rng):
    u = complex_gaussian(rng, 8)
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


def test_is_invertible_on_span_identity_and_adjoint():
    assert is_invertible_on_span(identity_superop(DIMS))
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 33), SigmaFlag.IDENTITY)
    assert is_invertible_on_span(phi)


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (2, 1)])
def test_is_invertible_on_span_threshold_is_relative(m, k):
    # a scaled preserver's singular values on the span all equal the scale, and the
    # threshold, 1e-6 times their RMS, scales with it: invertible at every scale.
    # With the image of the unit element x_0 x_{d-1}* (in the span for every k)
    # scaled by t, the smallest singular value is t: singular at t = 1e-7, not at
    # 1e-5, with the RMS singular value on the span just under 1
    dims = Dims.from_mk(m, k)
    make = make_swap_preserver if k == 1 else make_adjoint_preserver
    phi = make(*unitary_pair(dims, 39), SigmaFlag.IDENTITY).matrix
    for scale in (1e300, 1e154, 1e3, 1.0, 1e-7, 1e-10, 1e-20):
        smallest, threshold = _span_sigma_min(Superoperator(matrix=scale * phi, dims=dims))
        assert smallest == pytest.approx(scale, rel=1e-12), scale
        assert threshold == pytest.approx(1e-6 * scale, rel=1e-12), scale
    for t, invertible in ((1e-7, False), (1e-5, True)):
        column = phi.copy()
        column[:, dims.mn - 1] *= t
        smallest, threshold = _span_sigma_min(Superoperator(matrix=column, dims=dims))
        assert smallest == pytest.approx(t, rel=1e-9) and 0.9e-6 < threshold < 1e-6, t
        assert (smallest > threshold) is invertible, t


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


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("m,k", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_projecting_out_the_complement_is_the_dense_span_projector(m, k, axis):
    from meskit.superop import _project_out_complement

    def project(a):
        # rows (axis 1) directly; columns (axis 0) through the rows of a
        # C-contiguous transposed copy
        if axis == 1:
            _project_out_complement(a, dims)
            return a
        t = np.ascontiguousarray(a.T)
        _project_out_complement(t, dims)
        return t.T

    dims = Dims.from_mk(m, k)
    side = dims.mn * dims.mn
    q = _span_columns(dims)
    qq = q @ q.conj().T
    # applied to the identity's columns (axis 0) or rows (axis 1), the
    # projection leaves the matrix I - Pi, Pi the projector onto the complement
    rest = project(np.eye(side, dtype=complex))
    np.testing.assert_allclose(rest, qq, atol=1e-13)
    proj = np.eye(side) - rest
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-13)
    assert np.linalg.matrix_rank(proj, tol=1e-9) == (m * m - 1) * (2 if k == 1 else 1)
    # on a matrix that is not symmetric, the axis decides the side QQ* acts on
    g = complex_gaussian(np.random.default_rng(m * 10 + k), side, side)
    expected = qq @ g if axis == 0 else g @ qq.T
    np.testing.assert_allclose(project(g), expected, atol=1e-12)
