import gc
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from meskit import (
    Conjugation,
    DimensionError,
    Dims,
    ExtendedSuperoperator,
    MESKitError,
    NotInvertibleError,
    NotPreserverError,
    SigmaFlag,
    Superoperator,
    align_images,
    apply,
    decompose,
    haar_unitary,
    is_invertible_on_span,
    kron,
    make_adjoint_preserver,
    make_trace_preserver,
    nearest_kron_factor,
    orthogonal_family,
    pi,
    random_coisometry,
    recover_unitary,
    representative,
    restricted_g,
    serialize,
    verify_theorem_form,
    vec,
)
from meskit import classify
from meskit.classify import Decomposition, _certify
from meskit.cli import main
from meskit.superop import _require_unitary, _span_sigma_min, make_swap_preserver
from meskit.tensor import complex_gaussian, perturb, unitary_pair
from conftest import (
    identity_superop,
    nonkron_conjugation,
    peak_traced_bytes,
    phase_aligned_distance,
    span_mes_basis,
)

DIMS = Dims.from_mk(2, 2)
# Relative noise certified, at seed 21 under the right sigma, in (tol, 5 tol) and (5 tol, 1e-6)
_SMALL_NOISE = [(1, 2, 1.5e-9), (2, 2, 1.25e-9), (2, 3, 1e-8 / 12), (3, 2, 1e-8 / 18)]
_BAND = [(1, 2, 1.5e-8), (2, 2, 1.25e-8), (2, 3, 1e-7 / 12), (3, 2, 3e-7 / 18)]


def _images(phi):
    """The (d, d, d, d) image array ``images[:, :, a, b] = phi(x_a x_b*)``."""
    return phi.matrix.reshape((phi.dims.mn,) * 4)


def _noisy(dims, seed, sigma, eps):
    """Ad_{U (x) V} o sigma with U, V drawn at ``seed``, plus relative noise ``eps`` drawn at ``seed``."""
    phi = make_adjoint_preserver(*unitary_pair(dims, seed), sigma)
    return Superoperator(perturb(phi.matrix, eps, np.random.default_rng(seed)), dims)


def test_recover_unitary_from_conjugation():
    u, v = unitary_pair(DIMS, 1)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    w = recover_unitary(_images(phi), DIMS)
    assert phase_aligned_distance(w, kron(u, v)) < 1e-8


def test_recover_unitary_identity():
    # the identity map is Ad_I: the recovered unitary is I in the phase gauge
    w = recover_unitary(_images(identity_superop(DIMS)), DIMS)
    np.testing.assert_allclose(w, np.eye(8), atol=1e-10)


def test_recover_unitary_identity_map_on_non_square_split():
    # the only conjugations that fix every matrix are the scalars: on a
    # non-square split the identity map still recovers I up to phase
    dims = Dims.from_mk(3, 2)
    w = recover_unitary(_images(identity_superop(dims)), dims)
    assert phase_aligned_distance(w, np.eye(dims.mn)) < 1e-10


def test_recover_unitary_rejects_trace_form():
    # the trace form sends the unit element x_r x_s* of span(MES) to exactly 0, so
    # every column read off is 0: the screen refuses it, and decompose alone names
    # the map singular
    rho = pi(random_coisometry(DIMS, 3))
    phi = make_trace_preserver(rho, DIMS)
    with pytest.raises(NotPreserverError, match=r"^stage recovery: no conjugation form: singular ratio 0\.000e\+00 "):
        recover_unitary(_images(phi), DIMS)
    with pytest.raises(NotInvertibleError, match=r"^stage recovery: singular on span\(MES\): "):
        decompose(phi)


def _round_trips():
    """Ad_{U (x) V} o sigma at seed 5 over the ladder, both sigma, and the identity map."""
    for m, k in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)):
        u, v = unitary_pair(Dims.from_mk(m, k), 5)
        for sigma in SigmaFlag:
            yield pytest.param(make_adjoint_preserver(u, v, sigma), u, v, sigma, id=f"{sigma.value}-{m}-{k}")
    yield pytest.param(identity_superop(DIMS), np.eye(2), np.eye(4), SigmaFlag.IDENTITY, id="identity-map")


@pytest.mark.parametrize("phi,u,v,sigma", list(_round_trips()))
def test_decompose_roundtrip(phi, u, v, sigma, monkeypatch):
    # each factor comes back up to a phase; the record is the one _certify(phi, sigma,
    # 1e-9) returned, and, bit for bit, the record of the map's dense matrix
    records = []

    def certify(*args):
        records.append((args[1:], _certify(*args)))
        return records[-1][1]

    monkeypatch.setattr(classify, "_certify", certify)
    dec = decompose(phi)
    assert records == [((sigma, 1e-9), dec)]  # a Decomposition compares by identity
    assert dec.sigma is sigma
    assert dec.kron_residual < 1e-9 and dec.verification_residual < 1e-9
    assert dec.U.shape == u.shape and dec.V.shape == v.shape
    assert max(phase_aligned_distance(dec.U, u), phase_aligned_distance(dec.V, v)) < 1e-9
    for x in (dec.U, dec.V):
        assert np.linalg.norm(x @ x.conj().T - np.eye(len(x))) < 1e-8
    dense = decompose(Superoperator(phi.matrix, phi.dims))
    assert dense.sigma is sigma
    assert dense.U.tobytes() == dec.U.tobytes() and dense.V.tobytes() == dec.V.tobytes()
    assert repr((dense.kron_residual, dense.verification_residual)) == repr(
        (dec.kron_residual, dec.verification_residual)
    )


@pytest.mark.parametrize("m,k,seed", [(3, 2, 2), (2, 3, 21)])
def test_decompose_factors_to_rounding(m, k, seed):
    # V is re-solved for the SVD's U by least squares: with the SVD's leading
    # pair alone, the Kronecker residual reads 7.9e-15 and 8.1e-15 here
    dims = Dims.from_mk(m, k)
    u, v = unitary_pair(dims, seed)
    dec = decompose(make_adjoint_preserver(u, v, SigmaFlag.IDENTITY))
    bound = 10 * 2.0**-53 * np.sqrt(dims.mn)  # 10 u ||W||_F, W unitary
    assert dec.kron_residual < bound
    assert phase_aligned_distance(kron(dec.U, dec.V), kron(u, v)) < bound


def test_decompose_rejects_single_block():
    square = Dims(2, 2)
    phi = make_adjoint_preserver(np.eye(2), np.eye(2), SigmaFlag.IDENTITY)
    assert phi.dims == square
    with pytest.raises(DimensionError):
        decompose(phi)


def test_decompose_refuses_an_extension_before_its_dense_matrix():
    # the extension is a k = 1 map on Y (x) Y; its n^4 x n^4 matrix is 27 MB at (3,2)
    dims = Dims.from_mk(3, 2)
    phi = make_adjoint_preserver(*unitary_pair(dims, 5), SigmaFlag.IDENTITY)
    ext = ExtendedSuperoperator(phi, SigmaFlag.IDENTITY)
    dense_nbytes = dims.n**8 * np.dtype(complex).itemsize

    def refuse():
        with pytest.raises(DimensionError, match="k >= 2"):
            decompose(ext)

    assert peak_traced_bytes(refuse)[1] < dense_nbytes / 10


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


def test_verify_theorem_form_matching_and_mismatched():
    u, v = unitary_pair(DIMS, 15)
    phi = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
    dec = decompose(phi)
    assert verify_theorem_form(phi, dec) < 1e-9
    other = decompose(make_adjoint_preserver(*unitary_pair(DIMS, 17), SigmaFlag.IDENTITY))
    assert verify_theorem_form(phi, other) > 0.1


# At (1,2) the whole noise norm falls on 16 entries: maps at relative noise 5e-9
# certify near 1e-8, above 5 tol, while 1.5e-9 certifies below it.
@pytest.mark.parametrize("m,k,eps", _SMALL_NOISE)
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_decompose_tolerates_small_noise(m, k, eps, sigma):
    # noise relative to the map's Frobenius norm still decomposes, within criterion 2's
    # bound, and is accepted with a certificate between tol and 5 tol
    u, v = unitary_pair(Dims.from_mk(m, k), 21)
    dec = decompose(_noisy(Dims.from_mk(m, k), 21, sigma, eps))
    assert dec.sigma is sigma
    assert phase_aligned_distance(kron(dec.U, dec.V), kron(u, v)) < 1e-7
    assert dec.kron_residual < 1e-9 < dec.verification_residual < 5e-9


@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_decompose_names_certificate_stage_on_noise(sigma):
    # this noisy map certifies at 8.9e-9 or 1.0e-8, above 5 tol, and the refusal names that stage
    phi = _noisy(Dims.from_mk(1, 2), 3, sigma, 5e-9)
    with pytest.raises(NotPreserverError, match=r"^stage certificate: span residual .* >= 5\.0e-09$"):
        decompose(phi)


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_physical_noise_is_refused_at_its_certificate(m, k, sigma):
    # Ad o sigma o ((1 - p) id + p D), D the global depolarizing map M -> tr(M) I / mn,
    # at p = 1e-6: the columns read off are within 1e-6 of orthonormal, so recovery
    # passes and the refusal names the right sigma's certificate, p on the span
    dims = Dims.from_mk(m, k)
    p, eye = 1e-6, vec(np.eye(dims.mn))
    channel = (1 - p) * np.eye(dims.mn**2) + p / dims.mn * np.outer(eye, eye)
    phi = Superoperator(make_adjoint_preserver(*unitary_pair(dims, 0), sigma).matrix @ channel, dims)
    with pytest.raises(NotPreserverError, match=r"^stage certificate: span residual 1\.000e-06 >= 5\.0e-09$"):
        decompose(phi)


def _recovery_refusals():
    """Trace forms and the zero map are singular on span(MES); 1e-7 phi is
    not, but its columns read off are not unitary."""
    for m, k in ((2, 2), (3, 2)):
        dims = Dims.from_mk(m, k)
        trace = make_trace_preserver(pi(random_coisometry(dims, 7)), dims)
        yield pytest.param(trace, NotInvertibleError, id=f"trace-{m}-{k}")
    zero = Superoperator(matrix=np.zeros((64, 64), dtype=complex), dims=DIMS)
    yield pytest.param(zero, NotInvertibleError, id="zero")
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 7), SigmaFlag.IDENTITY)
    yield pytest.param(Superoperator(matrix=1e-7 * phi.matrix, dims=DIMS), NotPreserverError, id="scaled")


@pytest.mark.parametrize("phi,error", list(_recovery_refusals()))
def test_decompose_names_recovery_stage(phi, error):
    with pytest.raises(error, match=r"^stage recovery: ") as raised:
        decompose(phi)
    assert type(raised.value) is error


def _scaled_unit_column(dims, sigma, column, t):
    """Ad_{U (x) V} o sigma with one column of its matrix, the image of a unit
    element x_a x_b* of span(MES) (column a*mn + b), scaled by t."""
    matrix = make_adjoint_preserver(*unitary_pair(dims, 0), sigma).matrix
    matrix[:, column] *= t
    return Superoperator(matrix, dims)


def _killed_elements():
    """(m, k, a, b) for the unit elements x_a x_b* of span(MES) that are killed:
    x_0 x_1* and x_1 x_0*, which the two attempts read as their rank-one
    column, and x_1 x_2*, x_{d-1} x_{d-2}* and x_0 x_{d-1}*, which neither does."""
    for m, k in ((1, 2), (2, 2), (2, 3), (3, 2)):
        d = m * m * k
        pairs = ((0, 1), (1, 0), (1, 2), (d - 1, d - 2), (0, d - 1))
        for a, b in dict.fromkeys(pair for pair in pairs if max(pair) < d):
            yield pytest.param(m, k, a, b, id=f"{m}-{k}-x{a}x{b}")


@pytest.mark.parametrize("m,k,a,b", list(_killed_elements()))
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_a_killed_unit_element_is_singular_under_either_sigma(m, k, a, b, sigma):
    # whichever element is killed, and whichever attempt reads it, the one
    # singularity rule proves phi singular (exit 4)
    dims = Dims.from_mk(m, k)
    assert a % dims.n != b % dims.n  # different Y indices: x_a x_b* lies in span(MES)
    phi = _scaled_unit_column(dims, sigma, a * dims.mn + b, 0.0)
    with pytest.raises(NotInvertibleError, match=r"^stage recovery: singular on span\(MES\): "):
        decompose(phi)


def test_classify_exits_4_on_a_killed_unit_element(tmp_path, capsys):
    # killing x_1 x_0* leaves the identity attempt a non-unitary reading (exit 3 alone)
    path = str(tmp_path / "killed.json")
    phi = _scaled_unit_column(DIMS, SigmaFlag.IDENTITY, DIMS.mn, 0.0)
    serialize.write_json(path, serialize.superoperator_to_obj(phi.matrix, DIMS))
    assert main(["classify", path]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "NotInvertibleError" and error["message"].startswith("stage recovery: ")


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_singularity_threshold_is_a_relative_1e_6(m, k, sigma):
    # phi's smallest singular value on the span is singular at or below a relative
    # 1e-6: scaled by 1e-7 the map is singular, scaled by 1e-5 it is not, and the
    # screen refuses its columns
    dims = Dims.from_mk(m, k)
    for t, error in ((1e-7, NotInvertibleError), (1e-5, NotPreserverError)):
        with pytest.raises(MESKitError, match=r"^stage recovery: ") as raised:
            decompose(_scaled_unit_column(dims, sigma, 1, t))
        assert type(raised.value) is error, (t, raised.value)


def _unit_off_span(dims):
    """vec(A (x) I_n) / ||A (x) I_n||_F with tr A = 0: a unit vector of the
    complement of span(MES), so vec(M)* of it is 0 for every M in the span."""
    c = vec(kron(np.diag([1.0, -1.0] + [0.0] * (dims.m - 2)), np.eye(dims.n)))
    return c / np.linalg.norm(c)


def test_a_term_that_vanishes_on_the_span_moves_no_verdict():
    # x_1 x_2*'s image scaled by 1e-3 leaves phi injective on the span (its smallest
    # singular value there is 1e-3), and its certificate refuses it; adding a term of
    # Frobenius norm 1e4 that vanishes on the span changes neither phi on the span nor
    # the verdict, since the singularity threshold reads phi on the span alone
    phi = _scaled_unit_column(DIMS, SigmaFlag.IDENTITY, 1 * DIMS.mn + 2, 1e-3)
    c = _unit_off_span(DIMS)
    for matrix in (phi.matrix, phi.matrix + 1e4 * np.outer(c, c)):
        with pytest.raises(NotPreserverError, match=r"^stage certificate: span residual 9\.990e-01 "):
            decompose(Superoperator(matrix, DIMS))


def test_a_map_injective_on_the_span_is_refused_at_its_certificate():
    # x_1 x_2* sent to a unit A (x) I_n, off the span: phi is no preserver, yet it
    # is injective on the span (an isometry there), so it is refused at its
    # certificate, ||A (x) I_n - Ad(x_1 x_2*)||_F = sqrt(2), not named singular
    phi = _scaled_unit_column(DIMS, SigmaFlag.IDENTITY, 1 * DIMS.mn + 2, 1.0)
    phi.matrix[:, 1 * DIMS.mn + 2] = _unit_off_span(DIMS)
    assert is_invertible_on_span(phi)
    with pytest.raises(NotPreserverError, match=r"^stage certificate: span residual 1\.414e\+00 "):
        decompose(phi)


def _largest_entry_angle(x):
    """|angle| of x's largest-magnitude entry; entries within a relative 1e-9
    of it tie, and a tie goes to the lowest row-major index (|U_00| = |U_11|
    for every 2 x 2 unitary)."""
    mags = np.abs(x).reshape(-1)
    return abs(np.angle(x.reshape(-1)[np.argmax(mags >= (1.0 - 1e-9) * mags.max())]))


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_recovered_factors_are_phase_gauged(m, k, tmp_path, capsys):
    # U and V each have their largest entry real and positive, in process and in
    # classify's stdout: the one phase freedom of U (x) V is fixed, not left to rounding
    dims = Dims.from_mk(m, k)
    path = str(tmp_path / "sop.json")
    for seed in range(3):
        for sigma in SigmaFlag:
            phi = make_adjoint_preserver(*unitary_pair(dims, seed), sigma)
            dec = decompose(phi)
            serialize.write_json(path, serialize.superoperator_to_obj(phi.matrix, dims))
            assert main(["classify", path]) == 0
            printed = json.loads(capsys.readouterr().out)
            for x in (dec.U, dec.V, *(serialize.matrix_from_obj(printed[f]) for f in "UV")):
                assert _largest_entry_angle(x) < 1e-12, (seed, sigma)


def _cross_term_leak(dims, seed):
    """Ad_W plus a term that vanishes on pi(A1) and pi(A2) but not on the
    cross term vec(A1) vec(A2)*, with (A1, A2) an orthogonal pair."""
    a1, a2 = orthogonal_family(dims, seed)[:2]
    cross = np.outer(vec(a1), vec(a2).conj())
    junk = complex_gaussian(np.random.default_rng(seed), dims.mn, dims.mn)
    phi = make_adjoint_preserver(*unitary_pair(dims, seed), SigmaFlag.IDENTITY)
    leak = phi.matrix + np.outer(vec(junk), vec(cross).conj())
    return Superoperator(matrix=leak, dims=dims), a1, a2


def _twist_fixing(a1, dims, seed):
    """Ad_W for the unitary W = w w* + B H B* with w = vec(A1)/sqrt(m), B an
    orthonormal basis of w's complement and H a Haar unitary: W fixes vec(A1)
    but is no Kronecker product, so the aligned image of A2 is no coisometry
    while every alignment residual stays at rounding level."""
    w = vec(a1) / np.sqrt(dims.m)
    basis = np.linalg.svd(w.conj()[np.newaxis])[2][1:].conj().T
    h = haar_unitary(dims.mn - 1, seed)
    twist = np.outer(w, w.conj()) + basis @ h @ basis.conj().T
    return Conjugation(twist, SigmaFlag.IDENTITY, dims)


def test_refusals_name_their_verdict_and_stage(rng):
    # each refusal is raised where it is found, with its verdict's type, its stage's name and its reason
    leak, a1, a2 = _cross_term_leak(DIMS, 43)
    for a in (a1, a2):  # the leak leaves the images of pi(A1) and pi(A2) MES
        representative(apply(leak, pi(a)), DIMS)
    trace = make_trace_preserver(pi(random_coisometry(DIMS, 3)), DIMS)
    noise = Superoperator(matrix=complex_gaussian(rng, 64, 64), dims=DIMS)
    twist = _twist_fixing(a1, DIMS, 43)
    cases = [
        (lambda: recover_unitary(_images(noise), DIMS), NotPreserverError, "recovery", "no conjugation form"),
        (lambda: decompose(trace), NotInvertibleError, "recovery", "singular on span(MES)"),
        (lambda: restricted_g(leak, a1, a2), NotPreserverError, "restricted map", "cross-term image left"),
        (lambda: restricted_g(trace, a1, a2), NotInvertibleError, "restricted map", "orthogonal coisometries share"),
        (lambda: align_images(leak, [a1, a2]), NotPreserverError, "alignment", "no coherent phase"),
        (lambda: align_images(twist, [a1, a2]), NotPreserverError, "alignment", "image 2 is not a coisometry"),
    ]
    for call, error, stage, reason in cases:
        with pytest.raises(MESKitError) as raised:
            call()
        assert type(raised.value) is error and raised.value.stage == stage, raised.value
        assert str(raised.value).startswith(f"stage {stage}: {reason}"), raised.value


# Relative noise that every seed survived before the certificate gated
# success; at tol=1e-3 the certificate's bound is the 1e-6 cap
@pytest.mark.parametrize("m,k,eps", [(1, 2, 1.5e-9), (2, 2, 2.5e-9), (2, 3, 2e-8 / 12), (3, 2, 2e-8 / 18)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_certificate_gate_keeps_the_noise_band(m, k, eps, sigma):
    dims = Dims.from_mk(m, k)
    for seed in range(20):
        dec = decompose(_noisy(dims, seed, sigma, eps), tol=1e-3)
        assert dec.sigma is sigma
        assert dec.verification_residual < 1e-7


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_verification_residual_bounds_every_mes(m, k, sigma):
    # the span certificate covers all MES, not just a sampled few
    dims = Dims.from_mk(m, k)
    # noise of Frobenius norm 1e-9: ||phi||_F = mn
    phi = _noisy(dims, 23, sigma, 1e-9 / dims.mn)
    dec = decompose(phi)
    W = kron(dec.U, dec.V)
    for i in range(50):
        M = pi(random_coisometry(dims, np.random.SeedSequence([23, 97, i])))
        Msig = M.T if sigma is SigmaFlag.TRANSPOSE else M
        residual = np.linalg.norm(apply(phi, M) - W @ Msig @ W.conj().T)
        assert residual <= dec.verification_residual


@pytest.mark.parametrize(
    "func",
    [
        is_invertible_on_span,
        _require_unitary,
        restricted_g,
        align_images,
        representative,
    ],
)
def test_stage_thresholds_are_fixed(func):
    # each stage's threshold lives at its one use, not in a keyword
    assert not {"tol", "num_samples"} & set(inspect.signature(func).parameters)


def _dense_oracle(phi, dec):
    """phi Q's smallest singular value, the singularity threshold 1e-6 ||phi Q||_F
    / sqrt(D) and the certificate residual, on an orthonormal basis Q of the D
    dimensions of span(MES) built from span_mes_basis."""
    q = np.array([vec(e) for e in span_mes_basis(phi.dims)]).T
    s = np.linalg.svd(phi.matrix @ q, compute_uv=False)
    d = phi.dims.mn
    W = kron(dec.U, dec.V)
    basis = q.T.reshape(-1, d, d)
    if dec.sigma is SigmaFlag.TRANSPOSE:
        basis = basis.transpose(0, 2, 1)
    expected = (W @ basis @ W.conj().T).reshape(-1, d * d).T
    threshold = 1e-6 * np.linalg.norm(s) / np.sqrt(q.shape[1])
    return float(s[-1]), float(threshold), float(np.linalg.norm(phi.matrix @ q - expected, 2))


def _stage_inputs(m, k):
    """(name, map, decomposition to certify against) on both verdicts of
    is_invertible_on_span, with certificate residuals near 0 and far from it."""
    dims = Dims.from_mk(m, k)
    u, v = unitary_pair(dims, 29)
    ident = Decomposition(SigmaFlag.IDENTITY, np.eye(dims.m), np.eye(dims.n), 0.0, 0.0)
    yield "identity", identity_superop(dims), ident
    make = make_swap_preserver if k == 1 else make_adjoint_preserver
    for sigma in SigmaFlag:
        phi = make(u, v, sigma)
        for claimed in SigmaFlag:  # the right sigma and the wrong one
            dec = Decomposition(claimed, u, v, 0.0, 0.0)
            yield f"preserver-{sigma.value}-as-{claimed.value}", phi, dec
    rho = pi(random_coisometry(dims, np.random.SeedSequence([29, 2])))
    yield "trace", make_trace_preserver(rho, dims), ident
    g = complex_gaussian(np.random.default_rng(29), dims.mn**2, dims.mn**2)
    yield "gaussian", Superoperator(matrix=g, dims=dims), ident


@pytest.mark.parametrize("m,k", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_closed_form_stages_match_the_dense_span_basis(m, k):
    for name, phi, dec in _stage_inputs(m, k):
        smallest, threshold, residual = _dense_oracle(phi, dec)
        assert (smallest > threshold) == (name != "trace"), name
        assert _span_sigma_min(phi) == pytest.approx((smallest, threshold), rel=1e-12, abs=1e-14), name
        assert is_invertible_on_span(phi) == (name != "trace"), name
        assert verify_theorem_form(phi, dec) == pytest.approx(residual, rel=1e-12, abs=1e-14), name


def _traced_decompose(phi):
    """decompose(phi)'s sigma or refusal type, and the peak memory it traced."""

    def verdict():
        try:
            return decompose(phi).sigma
        except MESKitError as exc:
            return type(exc)

    return peak_traced_bytes(verdict)


@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_decompose_peak_memory_near_the_map(sigma):
    # an accept holds phi and the certificate's X = phi - Ad_W o sigma; a singular
    # refusal, the trace form's or a killed unit element's, one projected copy of phi
    dims = Dims.from_mk(3, 2)
    phi = make_adjoint_preserver(*unitary_pair(dims, 37), sigma)
    verdict, peak = _traced_decompose(phi)
    assert verdict is sigma
    assert peak < 3.5 * phi.matrix.nbytes
    trace = make_trace_preserver(pi(random_coisometry(dims, 37)), dims)
    killed = _scaled_unit_column(dims, sigma, 1 * dims.mn + 2, 0.0)
    for refused in (trace, killed):
        verdict, peak = _traced_decompose(refused)
        assert verdict is NotInvertibleError
        assert peak < 1.5 * refused.matrix.nbytes


def _decompose_dropped(matrix, dims):
    """decompose a Superoperator of ``matrix`` that nothing else holds: its
    sigma or refusal type, and a weak reference to the matrix.  No
    pytest.raises: its ExceptionInfo would keep the refusal's frames."""
    phi = Superoperator(matrix, dims)
    del matrix
    alive = weakref.ref(phi.matrix)
    try:
        verdict = decompose(phi).sigma
    except MESKitError as exc:
        verdict = type(exc)
    del phi
    return verdict, alive


def test_decompose_leaves_nothing_behind():
    # with the cyclic collector off, reference counting alone must free what a
    # call built: a refused attempt's traceback may not keep the call's frames
    dims = Dims.from_mk(3, 2)
    u, v = unitary_pair(dims, 61)

    def make():  # a fresh map each time: one whose matrix was never read
        return make_adjoint_preserver(u, v, SigmaFlag.TRANSPOSE)

    gc.disable()
    try:
        noisy = perturb(make().matrix, 1e-6, np.random.default_rng(61))
        verdict, alive = _decompose_dropped(noisy, dims)
        del noisy  # the last reference but the weak one
        assert verdict is NotPreserverError and alive() is None
        # accepted under the transpose after the identity's attempt was refused
        verdict, alive = _decompose_dropped(make().matrix.copy(), dims)
        assert verdict is SigmaFlag.TRANSPOSE and alive() is None
        phi = make()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dec = decompose(phi)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert dec.sigma is SigmaFlag.TRANSPOSE
    assert abs(held) < 0.1 * 16 * dims.mn**4  # a tenth of one dense matrix


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_decompose_refuses_non_finite_input(value):
    # a typed refusal before any stage, not numpy's LinAlgError from an SVD
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 53), SigmaFlag.IDENTITY)
    matrix = phi.matrix.copy()
    matrix[3, 5] = value
    with pytest.raises(NotPreserverError, match=r"^stage input: "):
        decompose(Superoperator(matrix=matrix, dims=DIMS))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, True])
def test_decompose_refuses_a_tol_that_is_not_finite_and_positive(tol):
    # a NaN tol fails every ">=" gate, so this map, with a certificate near 2e-6,
    # would be accepted above the hard 1e-6 cap
    phi = _noisy(DIMS, 61, SigmaFlag.IDENTITY, 1e-6)
    with pytest.raises(ValueError, match=r"^tol must be finite and positive, got ") as raised:
        decompose(phi, tol)
    assert type(raised.value) is ValueError


@pytest.mark.parametrize(
    "form,expected,loaded",
    [("adjoint", "0", False), ("trace", "4", False), ("check-lemmas", "0", True)],
)
def test_classify_accept_does_not_import_numpy_random(tmp_path, form, expected, loaded):
    # neither an accept nor a refusal draws; check-lemmas samples, so it shows
    # the check can see the import
    dims = Dims.from_mk(2, 3)
    if form == "trace":
        phi = make_trace_preserver(pi(random_coisometry(dims, 49)), dims)
    else:
        phi = make_adjoint_preserver(*unitary_pair(dims, 49), SigmaFlag.TRANSPOSE)
    path = tmp_path / "superop.json"
    serialize.write_json(str(path), serialize.superoperator_to_obj(phi.matrix, phi.dims))
    argv = ["check-lemmas", "--samples", "1"] if form == "check-lemmas" else ["classify", str(path)]
    # numpy 1.x loads numpy.random with numpy itself; only numpy >= 2 loads it lazily
    code = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import meskit.cli\n"
        "code = meskit.cli.main(sys.argv[1:])\n"
        "print(code, eager, 'numpy.random' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    exit_code, eager, after = out.stdout.split()[-3:]
    assert exit_code == expected
    assert after == str(loaded or eager == "True")


def _certificate(phi, sigma):
    """The certificate under ``sigma``, read off without the verdict's bound."""
    images = _images(phi)
    w = recover_unitary(images.swapaxes(2, 3) if sigma is SigmaFlag.TRANSPOSE else images, phi.dims)
    return verify_theorem_form(phi, Decomposition(sigma, *nearest_kron_factor(w, phi.dims), 0.0))


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2)])
def test_noise_contract_default_tol_follows_the_certificate(m, k):
    # one closed-form rule: accept exactly when the certificate is below 5 tol; a
    # certificate refusal names a residual >= 5 tol
    dims = Dims.from_mk(m, k)
    verdicts = set()
    for sigma in SigmaFlag:
        for eps in (1e-9, 1e-8, 3e-8, 1e-6):  # the noise's Frobenius norm: ||phi||_F = mn
            for seed in range(60, 63):
                phi = _noisy(dims, seed, sigma, eps / dims.mn)
                certificate = _certificate(phi, sigma)
                try:
                    verdict = decompose(phi).sigma
                except MESKitError as exc:
                    verdict = type(exc).__name__
                    if str(exc).startswith("stage certificate: "):
                        refused = re.fullmatch(r"stage certificate: span residual (\S+) >= 5\.0e-09", str(exc))
                        assert refused and float(refused[1]) >= 5e-9, str(exc)
                accept = certificate < 5e-9
                assert (verdict is sigma) == accept, (sigma, eps, seed, verdict, certificate)
                verdicts.add(verdict)
    assert set(SigmaFlag) < verdicts


@pytest.mark.parametrize("m,k,eps", _BAND)
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_noise_contract_loose_tol_accepts_the_band(m, k, eps, sigma):
    phi = _noisy(Dims.from_mk(m, k), 21, sigma, eps)
    with pytest.raises(NotPreserverError, match=r"^stage certificate: "):
        decompose(phi)
    dec = decompose(phi, tol=1e-3)
    assert dec.sigma is sigma
    assert 1e-8 < dec.verification_residual < 1e-6


def _refusals():
    """Each refusal kind at (2,2)."""
    trace = make_trace_preserver(pi(random_coisometry(DIMS, 57)), DIMS)
    yield pytest.param(trace, NotInvertibleError, id="trace")
    g = complex_gaussian(np.random.default_rng(57), 64, 64)
    yield pytest.param(Superoperator(matrix=g, dims=DIMS), NotPreserverError, id="random")
    yield pytest.param(_noisy(DIMS, 21, SigmaFlag.TRANSPOSE, 1.25e-7), NotPreserverError, id="noise")


def test_kronecker_residual_above_tol_is_reported_not_gated():
    # relative noise 2.5e-9: certified below 5 tol, so accepted, with its
    # Kronecker residual of about 1.5e-9, above tol, in the record
    phi = _noisy(DIMS, 21, SigmaFlag.IDENTITY, 2.5e-9)
    dec = decompose(phi)
    assert dec.sigma is SigmaFlag.IDENTITY
    assert dec.verification_residual < 5e-9
    assert 1e-9 < dec.kron_residual < 2e-9


def _near_preservers(dims, seed, sigma):
    """Noise maps and non-Kronecker conjugations Ad_W o sigma, with W the
    unitary nearest to noisy U (x) V, at relative noise 1e-9 to 1e-6."""
    u, v = unitary_pair(dims, seed)
    exact = make_adjoint_preserver(u, v, sigma).matrix
    for i in range(7):
        eps, rng = 10.0 ** (-9 + i / 2), np.random.default_rng([seed, i])
        yield Superoperator(perturb(exact, eps, rng), dims)
        yield nonkron_conjugation(u, v, sigma, eps, rng)


def test_accepted_factors_are_unitary_to_second_order():
    # _certify's argument for having no unitarity gate, on every accept at tol 1e-3:
    # U and V miss unitarity far under 1e-10, and the Kronecker residual stays
    # within twice the certificate
    accepts = 0
    for m, k in ((1, 2), (2, 2), (2, 3), (3, 2)):
        for seed in range(2):
            for sigma in SigmaFlag:
                for phi in _near_preservers(Dims.from_mk(m, k), seed, sigma):
                    try:
                        dec = decompose(phi, tol=1e-3)
                    except NotPreserverError:
                        continue
                    accepts += 1
                    assert dec.sigma is sigma
                    for x in (dec.U, dec.V):
                        assert np.linalg.norm(x @ x.conj().T - np.eye(len(x))) <= 1e-10
                    assert dec.kron_residual <= 2 * dec.verification_residual + 1e-13
    assert accepts >= 180  # 196 of the 224 maps certify under the 1e-6 cap


@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_refusal_at_both_certificates_names_the_smaller_residual(sigma):
    # at (1,2) a wrong sigma passes recovery, so on this noisy map (certified near
    # 2e-8 under its sigma, near 2 under the other) both attempts stop at the certificate
    dims = Dims.from_mk(1, 2)
    phi = _noisy(dims, 3, sigma, 1e-8)
    residuals = {}
    for attempt in SigmaFlag:
        with pytest.raises(NotPreserverError) as raised:
            _certify(phi, attempt, 1e-9)
        assert raised.value.stage == "certificate"
        residuals[attempt] = raised.value.residual
    other = next(s for s in SigmaFlag if s is not sigma)
    assert 5e-9 < residuals[sigma] < 1e-7 and residuals[other] > 1.0, residuals
    with pytest.raises(NotPreserverError) as raised:
        decompose(phi)
    assert raised.value.residual == residuals[sigma]


@pytest.mark.parametrize("phi,error", list(_refusals()))
def test_refusal_makes_at_most_two_certify_calls(phi, error, monkeypatch):
    # of the two attempts' refusals the one with the smaller residual is raised, a
    # screened attempt counting as infinite, and the identity's on a tie: on the
    # random map both are screened, and the identity's "singular ratio 1.242e-02"
    # is raised, not the transpose's 6.563e-03
    calls, refused = [], {}

    def counted(*args):
        calls.append(args[1])
        try:
            return _certify(*args)
        except NotPreserverError as exc:
            refused[args[1]] = exc
            raise

    monkeypatch.setattr(classify, "_certify", counted)
    with pytest.raises(error) as raised:
        decompose(phi)
    assert calls == [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE]
    if error is NotPreserverError:
        residual = {s: getattr(refused[s], "residual", np.inf) for s in SigmaFlag}
        smaller = min(SigmaFlag, key=residual.get)  # the first of equals: the identity
        assert raised.value is refused[smaller]


@pytest.mark.parametrize("phi,error", list(_refusals()))
def test_refusal_order_reads_the_stage_attribute(phi, error, monkeypatch):
    # each refusal carries its stage, set where it is raised; which of the two
    # attempts' refusals is raised does not depend on the message's text
    with pytest.raises(error) as plain:
        decompose(phi)
    assert plain.value.args[0].startswith(f"stage {plain.value.stage}: ")
    monkeypatch.setattr(MESKitError, "__str__", lambda self: "")
    with pytest.raises(error) as blind:
        decompose(phi)
    assert blind.value.args == plain.value.args and blind.value.stage == plain.value.stage


def _forbid_sampling(monkeypatch):
    """Make numpy's generators raise, so a run that draws a random number fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("decompose drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)


def _never_sampled():
    """(phi, sigma or refusal type, tol): exact accepts over the ladder under both sigma;
    the _BAND maps at tol 1e-3 and the _SMALL_NOISE maps; each refusal kind."""
    for (m, k), sigma in itertools.product(((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)), SigmaFlag):
        phi = make_adjoint_preserver(*unitary_pair(Dims.from_mk(m, k), 57), sigma)
        yield pytest.param(phi, sigma, 1e-9, id=f"{sigma.value}-{m}-{k}")
    for cases, tol, name in ((_BAND, 1e-3, "band"), (_SMALL_NOISE, 1e-9, "below-5-tol")):
        for (m, k, eps), sigma in itertools.product(cases, SigmaFlag):
            phi = _noisy(Dims.from_mk(m, k), 21, sigma, eps)
            yield pytest.param(phi, sigma, tol, id=f"{name}-{sigma.value}-{m}-{k}")
    for refusal in _refusals():
        yield pytest.param(*refusal.values, 1e-9, id=refusal.id)


@pytest.mark.parametrize("phi,verdict,tol", list(_never_sampled()))
def test_decompose_never_samples(phi, verdict, tol, monkeypatch):
    _forbid_sampling(monkeypatch)
    if isinstance(verdict, SigmaFlag):
        assert decompose(phi, tol).sigma is verdict
    else:
        with pytest.raises(verdict):
            decompose(phi, tol)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_wrong_sigma_is_refused_before_it_can_accept(m, k, sigma, monkeypatch):
    # the identity is tried first; on a transpose map it fails at recovery (mn >= 3:
    # the columns read off have rank 2) or, at (1,2), at the certificate
    phi = make_adjoint_preserver(*unitary_pair(Dims.from_mk(m, k), 43), sigma)
    attempts, roots = [], []

    def certify(*args):
        try:
            outcome = _certify(*args)
        except MESKitError as exc:
            outcome = exc
        attempts.append((args[1], outcome))
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def recover(images, dims):
        root = images
        while root.base is not None:
            root = root.base
        roots.append(root)
        return recover_unitary(images, dims)

    monkeypatch.setattr(classify, "_certify", certify)
    monkeypatch.setattr(classify, "recover_unitary", recover)
    dec = decompose(phi)
    assert dec.sigma is sigma
    if sigma is SigmaFlag.IDENTITY:
        assert [s for s, _ in attempts] == [SigmaFlag.IDENTITY]
    else:
        assert [s for s, _ in attempts] == [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE]
        wrong = attempts[0][1]
        stage = "recovery" if m >= 2 else "certificate"
        assert isinstance(wrong, MESKitError) and str(wrong).startswith(f"stage {stage}: ")
    # one dense read per call: every attempt's images are a view of one array,
    # the transpose's too, and not a copy
    assert len(roots) == len(attempts) and all(root is roots[0] for root in roots)
    assert roots[0].nbytes == phi.matrix.nbytes
