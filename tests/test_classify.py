import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meskit import (
    DimensionError,
    Dims,
    MESKitError,
    NotInvertibleError,
    NotKroneckerError,
    NotPreserverError,
    SigmaFlag,
    Superoperator,
    align_images,
    apply,
    decompose,
    detect_sigma,
    flag_from_determinant,
    haar_unitary,
    is_invertible_on_span,
    kron,
    make_adjoint_preserver,
    make_trace_preserver,
    nearest_kron_factor,
    orthogonal_family,
    pi,
    preserves_mes,
    random_coisometry,
    recover_unitary,
    representative,
    restricted_g,
    serialize,
    verify_theorem_form,
    vec,
)
from meskit import choi, classify, lemmas, superop
from meskit.classify import Decomposition, _certify
from meskit.cli import main
from meskit.superop import (
    _conjugation_matrix,
    _require_unitary,
    _span_complement,
    make_swap_preserver,
)
from conftest import (
    complex_gaussian,
    identity_superop,
    phase_aligned_distance,
    span_mes_basis,
    unitary_pair,
)

DIMS = Dims.from_mk(2, 2)


def _images(phi):
    """The (d, d, d, d) image array ``images[:, :, a, b] = phi(x_a x_b*)``."""
    return phi.matrix.reshape((phi.dims.mn,) * 4)


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
    # the trace form sends the unit element x_r x_s* of span(MES) to exactly 0
    rho = pi(random_coisometry(DIMS, 3))
    phi = make_trace_preserver(rho, DIMS)
    with pytest.raises(NotInvertibleError):
        recover_unitary(_images(phi), DIMS)


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
    phi = make_trace_preserver(pi(random_coisometry(DIMS, 7)), DIMS)
    with pytest.raises(NotInvertibleError):
        decompose(phi)


def test_decompose_rejects_random_superoperator(rng):
    bad = Superoperator(matrix=complex_gaussian(rng, 64, 64), dims=DIMS)
    with pytest.raises(NotPreserverError):
        decompose(bad)


def test_decompose_rejects_single_block():
    square = Dims(2, 2)
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


# At (1,2) the whole noise norm falls on 16 entries: maps at 1e-8 certify near
# 1e-8, above 5 tol, while 3e-9 certifies below it.
@pytest.mark.parametrize("m,k,eps", [(1, 2, 3e-9), (2, 2, 1e-8), (2, 3, 1e-8), (3, 2, 1e-8)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_decompose_tolerates_small_noise(m, k, eps, sigma):
    # Frobenius-normalised noise still decomposes, within criterion 2's bound
    phi, u, v = _noisy_preserver(Dims.from_mk(m, k), sigma, eps, 21)
    dec = decompose(phi)
    assert dec.sigma is sigma
    assert phase_aligned_distance(kron(dec.U, dec.V), kron(u, v)) < 1e-7


@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_decompose_names_certificate_stage_on_noise(sigma):
    # this noisy map certifies at 8.9e-9 or 1.0e-8, above 5 tol, and the refusal names that stage
    phi, _, _ = _noisy_preserver(Dims.from_mk(1, 2), sigma, 1e-8, 3)
    with pytest.raises(NotPreserverError, match=r"^stage certificate: span residual .* >= 5\.0e-09$"):
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
    return Superoperator(_conjugation_matrix(twist, SigmaFlag.IDENTITY), dims)


def test_refusals_name_their_verdict_and_stage(rng):
    # each refusal is raised where it is found, with its verdict's type and its stage's name
    leak, a1, a2 = _cross_term_leak(DIMS, 43)
    for a in (a1, a2):  # the leak leaves the images of pi(A1) and pi(A2) MES
        representative(apply(leak, pi(a)), DIMS)
    trace = make_trace_preserver(pi(random_coisometry(DIMS, 3)), DIMS)
    noise = Superoperator(matrix=complex_gaussian(rng, 64, 64), dims=DIMS)
    twist = _twist_fixing(a1, DIMS, 43)
    cases = [
        (lambda: recover_unitary(_images(noise), DIMS), NotPreserverError, "stage recovery: "),
        (lambda: recover_unitary(_images(trace), DIMS), NotInvertibleError, "stage recovery: "),
        (lambda: flag_from_determinant(0.7), NotPreserverError, "stage discriminant: "),
        (lambda: restricted_g(leak, a1, a2), NotPreserverError, "stage restricted map: "),
        (lambda: restricted_g(trace, a1, a2), NotInvertibleError, "stage restricted map: "),
        (lambda: align_images(leak, [a1, a2]), NotPreserverError, "stage alignment: "),
        (lambda: align_images(twist, [a1, a2]), NotPreserverError, "stage alignment: "),
    ]
    for call, error, stage in cases:
        with pytest.raises(MESKitError) as raised:
            call()
        assert type(raised.value) is error and str(raised.value).startswith(stage), raised.value


# Frobenius-normalised noise that every seed survived before the certificate
# gated success; tol=1e-3 keeps the Kronecker gate from deciding
@pytest.mark.parametrize("m,k,eps", [(1, 2, 3e-9), (2, 2, 2e-8), (2, 3, 2e-8), (3, 2, 2e-8)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_certificate_gate_keeps_the_noise_band(m, k, eps, sigma):
    for seed in range(20):
        phi, _, _ = _noisy_preserver(Dims.from_mk(m, k), sigma, eps, seed)
        dec = decompose(phi, tol=1e-3)
        assert dec.sigma is sigma
        assert dec.verification_residual < 1e-7


def _sampled_stage_blind_map():
    """Ad_W o (I + c w w*) at (2,2) with c = 1e-3 and w a unit vector of
    span(MES) orthogonal to every input the sampled stages (seed 0) and the
    unitary recovery evaluate, so only the span certificate can see c."""
    dims = DIMS
    d = dims.mn
    rows = [
        vec(pi(random_coisometry(dims, np.random.SeedSequence([0, 11, i]))))
        for i in range(20)
    ]
    a1, a2 = orthogonal_family(dims, np.random.SeedSequence([0, 13]))[:2]
    for x, y in ((a1, a2), (a2, a1)):
        rows.append(vec(pi(x)))
        rows += [
            vec(pi((x + 1j**ell * y) / np.sqrt(2))) for ell in range(4)
        ]
    eye = np.eye(d * d)
    for a in range(d):
        for b in (0, 1):
            rows += [eye[a * d + b], eye[b * d + a]]
    constraints = np.vstack([np.array(rows).conj(), _span_complement(dims).conj().T])
    assert np.linalg.matrix_rank(constraints) == 55
    w = np.linalg.svd(constraints)[2][-1].conj()
    assert np.abs(constraints @ w).max() < 1e-12
    phi = make_adjoint_preserver(*unitary_pair(dims, 51), SigmaFlag.IDENTITY)
    return Superoperator(matrix=phi.matrix @ (eye + 1e-3 * np.outer(w, w.conj())), dims=dims)


def test_certificate_refuses_a_map_the_sampled_stages_miss(tmp_path, capsys):
    phi = _sampled_stage_blind_map()
    with pytest.raises(NotPreserverError, match=r"^stage certificate: span residual 1\.000e-03 "):
        decompose(phi)
    path = str(tmp_path / "blind.json")
    serialize.write_json(path, serialize.superoperator_to_obj(phi.matrix, phi.dims))
    assert main(["classify", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NotPreserverError"


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_verification_residual_bounds_every_mes(m, k, sigma):
    # the span certificate covers all MES, not just a sampled few
    dims = Dims.from_mk(m, k)
    phi, _, _ = _noisy_preserver(dims, sigma, 1e-9, 23)
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
        preserves_mes,
        is_invertible_on_span,
        _require_unitary,
        restricted_g,
        detect_sigma,
        align_images,
        representative,
    ],
)
def test_stage_thresholds_are_fixed(func):
    # each stage's threshold lives at its one use, not in a keyword
    assert not {"tol", "num_samples"} & set(inspect.signature(func).parameters)


def _dense_oracle(phi, dec):
    """The invertibility verdict and the certificate residual on an
    orthonormal basis Q of span(MES) built from span_mes_basis."""
    q = np.array([vec(e) for e in span_mes_basis(phi.dims)]).T
    s = np.linalg.svd(q.conj().T @ phi.matrix @ q, compute_uv=False)
    d = phi.dims.mn
    W = kron(dec.U, dec.V)
    basis = q.T.reshape(-1, d, d)
    if dec.sigma is SigmaFlag.TRANSPOSE:
        basis = basis.transpose(0, 2, 1)
    expected = (W @ basis @ W.conj().T).reshape(-1, d * d).T
    return float(s[-1]) > 1e-9, float(np.linalg.norm(phi.matrix @ q - expected, 2))


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


@pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_closed_form_stages_match_the_dense_span_basis(m, k):
    for name, phi, dec in _stage_inputs(m, k):
        invertible, residual = _dense_oracle(phi, dec)
        assert invertible == (name != "trace"), name
        assert is_invertible_on_span(phi) == invertible, name
        assert verify_theorem_form(phi, dec) == pytest.approx(residual, rel=1e-12, abs=1e-14), name


@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_decompose_peak_memory_near_the_map(sigma):
    # phi, the certificate's X = phi - Ad_W o sigma and the norm's own copy
    dims = Dims.from_mk(3, 2)
    phi = make_adjoint_preserver(*unitary_pair(dims, 37), sigma)
    _span_complement.cache_clear()
    tracemalloc.start()
    try:
        dec = decompose(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.sigma is sigma
    assert peak < 3.5 * phi.matrix.nbytes


def _forbid_sampling(monkeypatch):
    """Make the sampled stages' draws, and numpy's generators, raise, so a
    run that samples fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled stage ran")

    monkeypatch.setattr(superop, "random_coisometry", refuse)
    monkeypatch.setattr(choi, "orthogonal_family", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_accept_runs_no_sampled_stage(m, k, sigma, monkeypatch):
    phi = make_adjoint_preserver(*unitary_pair(Dims.from_mk(m, k), 41), sigma)
    # the sampled reference: preserver check, discriminant, then stages 1-3
    assert preserves_mes(phi)
    reference = _certify(phi, detect_sigma(phi), 1e-9)
    _forbid_sampling(monkeypatch)
    dec = decompose(phi)
    assert dec.sigma is reference.sigma is sigma
    np.testing.assert_array_equal(dec.U, reference.U)
    np.testing.assert_array_equal(dec.V, reference.V)
    assert dec.kron_residual == reference.kron_residual
    assert dec.verification_residual == reference.verification_residual


@pytest.mark.parametrize("seed", [2.7, "1"])
def test_seed_must_be_an_integer(seed):
    accept = make_adjoint_preserver(*unitary_pair(DIMS, 47), SigmaFlag.IDENTITY)
    refusal = make_trace_preserver(pi(random_coisometry(DIMS, 47)), DIMS)
    for phi in (accept, refusal):
        with pytest.raises(TypeError, match="seed must be an integer"):
            detect_sigma(phi, seed=seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        lemmas.run_all(DIMS, samples=1, seed=seed)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_decompose_refuses_non_finite_input(value):
    # a typed refusal before any stage, not numpy's LinAlgError from an SVD
    phi = make_adjoint_preserver(*unitary_pair(DIMS, 53), SigmaFlag.IDENTITY)
    matrix = phi.matrix.copy()
    matrix[3, 5] = value
    with pytest.raises(NotPreserverError, match=r"^stage input: "):
        decompose(Superoperator(matrix=matrix, dims=DIMS))


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


def _stage_readings(phi, sigma):
    """The certificate and Kronecker residual under ``sigma``, read off without
    the verdict's bounds."""
    images = _images(phi)
    w = recover_unitary(images.swapaxes(2, 3) if sigma is SigmaFlag.TRANSPOSE else images, phi.dims)
    u, v, kron_residual = nearest_kron_factor(w, phi.dims)
    return verify_theorem_form(phi, Decomposition(sigma, u, v, kron_residual, 0.0)), kron_residual


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2)])
def test_noise_contract_default_tol_follows_the_certificate(m, k):
    # one closed-form rule: accept exactly when the certificate is below 5 tol and
    # the Kronecker residual below tol; a certificate refusal names a residual >= 5 tol
    verdicts = set()
    for sigma in SigmaFlag:
        for eps in (1e-9, 1e-8, 3e-8, 1e-6):
            for seed in range(3):
                phi, _, _ = _noisy_preserver(Dims.from_mk(m, k), sigma, eps, 60 + seed)
                certificate, kron_residual = _stage_readings(phi, sigma)
                try:
                    verdict = decompose(phi).sigma
                except MESKitError as exc:
                    verdict = type(exc).__name__
                    if str(exc).startswith("stage certificate: "):
                        refused = re.fullmatch(r"stage certificate: span residual (\S+) >= 5\.0e-09", str(exc))
                        assert refused and float(refused[1]) >= 5e-9, str(exc)
                accept = certificate < 5e-9 and kron_residual < 1e-9
                assert (verdict is sigma) == accept, (sigma, eps, seed, verdict, certificate)
                verdicts.add(verdict)
    assert set(SigmaFlag) < verdicts


# Noise that certifies above 5 tol but below 1e-6 under the right sigma.
@pytest.mark.parametrize("m,k,eps", [(1, 2, 3e-8), (2, 2, 1e-7), (2, 3, 1e-7), (3, 2, 3e-7)])
@pytest.mark.parametrize("sigma", [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE])
def test_noise_contract_loose_tol_accepts_the_band_without_sampling(m, k, eps, sigma, monkeypatch):
    phi, _, _ = _noisy_preserver(Dims.from_mk(m, k), sigma, eps, 21)
    with pytest.raises(NotPreserverError, match=r"^stage certificate: "):
        decompose(phi)
    _forbid_sampling(monkeypatch)
    dec = decompose(phi, tol=1e-3)
    assert dec.sigma is sigma
    assert 1e-8 < dec.verification_residual < 1e-6


def test_noise_contract_default_tol_accepts_below_five_tol(monkeypatch):
    # noise that certifies between tol and 5 tol is accepted, without sampling
    phi, _, _ = _noisy_preserver(DIMS, SigmaFlag.IDENTITY, 1e-8, 21)
    _forbid_sampling(monkeypatch)
    dec = decompose(phi)
    assert dec.kron_residual < 1e-9 < dec.verification_residual < 5e-9


def _refusals():
    """Each refusal kind at (2,2)."""
    trace = make_trace_preserver(pi(random_coisometry(DIMS, 57)), DIMS)
    yield pytest.param(trace, NotInvertibleError, id="trace")
    g = complex_gaussian(np.random.default_rng(57), 64, 64)
    yield pytest.param(Superoperator(matrix=g, dims=DIMS), NotPreserverError, id="random")
    noise = _noisy_preserver(DIMS, SigmaFlag.TRANSPOSE, 1e-6, 21)[0]
    yield pytest.param(noise, NotPreserverError, id="noise")
    # Frobenius-relative noise 2.5e-9: certified below 5 tol, Kronecker residual 1.5e-9
    band = _noisy_preserver(DIMS, SigmaFlag.IDENTITY, 2e-8, 21)[0]
    yield pytest.param(band, NotKroneckerError, id="kronecker-band")


@pytest.mark.parametrize("phi,error", list(_refusals()))
def test_refusal_makes_at_most_two_certify_calls(phi, error, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _certify(*args)

    monkeypatch.setattr(classify, "_certify", counted)
    with pytest.raises(error):
        decompose(phi)
    assert calls == [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE]


@pytest.mark.parametrize("phi,error", [pytest.param(None, None, id="accept"), *_refusals()])
def test_decompose_never_samples(phi, error, monkeypatch):
    if phi is None:
        phi = make_adjoint_preserver(*unitary_pair(DIMS, 57), SigmaFlag.TRANSPOSE)
    _forbid_sampling(monkeypatch)
    if error is None:
        assert decompose(phi).sigma is SigmaFlag.TRANSPOSE
    else:
        with pytest.raises(error):
            decompose(phi)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_wrong_sigma_is_refused_before_it_can_accept(m, k, sigma, monkeypatch):
    # the identity is tried first; on a transpose map it fails at recovery (mn >= 3:
    # the columns read off have rank 2) or, at (1,2), at the certificate
    phi = make_adjoint_preserver(*unitary_pair(Dims.from_mk(m, k), 43), sigma)
    attempts, shared = [], []

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
        shared.append(np.shares_memory(images, phi.matrix))
        return recover_unitary(images, dims)

    monkeypatch.setattr(classify, "_certify", certify)
    monkeypatch.setattr(classify, "recover_unitary", recover)
    _forbid_sampling(monkeypatch)
    dec = decompose(phi)
    assert dec.sigma is sigma
    if sigma is SigmaFlag.IDENTITY:
        assert [s for s, _ in attempts] == [SigmaFlag.IDENTITY]
    else:
        assert [s for s, _ in attempts] == [SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE]
        wrong = attempts[0][1]
        stage = "recovery" if m >= 2 else "certificate"
        assert isinstance(wrong, MESKitError) and str(wrong).startswith(f"stage {stage}: ")
    # the transpose's corrected images are a view of phi's matrix, not a copy
    assert all(shared) and len(shared) == len(attempts)
