"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and residuals.
"""

import time

import numpy as np
import pytest

from meskit import (
    Dims,
    ExtendedSuperoperator,
    NotInvertibleError,
    NotPreserverError,
    SigmaFlag,
    ad_commutation_residual,
    align_images,
    apply,
    choi_matrix,
    decompose,
    haar_unitary,
    is_coisometry,
    is_mes,
    kron,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
    orthogonal_family,
    p_operator,
    partial_trace_y,
    phi_on_cross_term,
    pi,
    q_operator,
    random_coisometry,
    restricted_g,
    vec,
)
from meskit.superop import Superoperator
from meskit.tensor import complex_gaussian, unitary_pair
from conftest import (
    commutes_with_ad,
    phase_aligned_distance,
    switch_commutation_witness,
)

BOTH = (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status} -- {detail}")


def test_criterion_1_choi_discriminant():
    start = time.time()
    worst = 0.0
    correct = 0
    total = 0
    for m, k in [(2, 2), (2, 3), (3, 2)]:
        dims = Dims.from_mk(m, k)
        for i in range(50):
            for sigma in BOTH:
                phi = make_adjoint_preserver(*unitary_pair(dims, 1000 + i), sigma)
                family = orthogonal_family(dims, np.random.SeedSequence([2000, i]))
                det = complex(
                    np.linalg.det(choi_matrix(restricted_g(phi, family[0], family[1])))
                )
                target = 0.0 if sigma is SigmaFlag.IDENTITY else -1.0
                worst = max(worst, abs(det - target))
                total += 1
                # the flag is the branch whose value is within 0.5, half their distance
                if abs(det - target) < 0.5:
                    correct += 1
    elapsed = time.time() - start
    ok = worst < 1e-8 and correct == total and elapsed < 60.0
    _report(
        1,
        "choi-discriminant",
        ok,
        f"max |det - target| = {worst:.2e}, {correct}/{total} flags correct, {elapsed:.1f}s",
    )
    assert worst < 1e-8
    assert correct == total
    assert elapsed < 60.0


def test_criterion_2_decomposition_roundtrip():
    start = time.time()
    worst = 0.0
    sigma_correct = 0
    total = 0
    for m, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        dims = Dims.from_mk(m, k)
        for sigma in BOTH:
            for seed in range(50):
                u, v = unitary_pair(dims, 3000 + seed)
                dec = decompose(make_adjoint_preserver(u, v, sigma))
                total += 1
                if dec.sigma is sigma:
                    sigma_correct += 1
                worst = max(worst, phase_aligned_distance(kron(dec.U, dec.V), kron(u, v)))
    elapsed = time.time() - start
    ok = worst < 1e-7 and sigma_correct == total and elapsed < 300.0
    _report(
        2,
        "decomposition-roundtrip",
        ok,
        f"max factor error = {worst:.2e}, {sigma_correct}/{total} sigma correct, {elapsed:.1f}s",
    )
    assert sigma_correct == total
    assert worst < 1e-7
    assert elapsed < 300.0


def test_criterion_3_partial_trace_identity():
    rng = np.random.default_rng(4000)
    worst = 0.0
    count = 0
    grids = [(1, 2), (1, 5), (1, 9), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (3, 9)]
    while count < 1000:
        for m, n in grids:
            a = complex_gaussian(rng, m, n)
            b = complex_gaussian(rng, m, n)
            lhs = partial_trace_y(np.outer(vec(a), vec(b).conj()), Dims(m, n))
            worst = max(worst, float(np.linalg.norm(lhs - a @ b.conj().T)))
            count += 1
    ok = worst < 1e-12
    _report(3, "vec-partial-trace-product", ok, f"max residual = {worst:.2e} over {count} pairs")
    assert worst < 1e-12


def _five_conditions(a1, a2, rng, tol=1e-9):
    c1 = np.linalg.norm(a1 @ a2.conj().T) < tol
    c2 = np.linalg.norm(a2 @ a1.conj().T) < tol
    c3 = is_coisometry(np.vstack([a1, a2]), tol)
    c4 = True
    for _ in range(20):
        ab = complex_gaussian(rng, 2)
        ab /= np.linalg.norm(ab)
        c4 = c4 and is_coisometry(ab[0] * a1 + ab[1] * a2, tol)
    q1 = np.linalg.qr(a1.conj().T)[0]
    q2 = np.linalg.qr(a2.conj().T)[0]
    c5 = np.linalg.norm(q1.conj().T @ q2) < tol * 10
    return [c1, c2, c3, c4, c5]


def test_criterion_4_orthogonality_equivalence():
    rng = np.random.default_rng(5000)
    dims_cycle = [Dims.from_mk(2, 2), Dims.from_mk(2, 3), Dims.from_mk(3, 2), Dims.from_mk(1, 3)]
    disagreements = 0
    for i in range(500):
        dims = dims_cycle[i % len(dims_cycle)]
        family = orthogonal_family(dims, np.random.SeedSequence([5100, i]))
        if not all(_five_conditions(family[0], family[1], rng)):
            disagreements += 1
        b1 = random_coisometry(dims, np.random.SeedSequence([5200, i, 0]))
        b2 = random_coisometry(dims, np.random.SeedSequence([5200, i, 1]))
        if any(_five_conditions(b1, b2, rng)):
            disagreements += 1
    ok = disagreements == 0
    _report(
        4,
        "orthogonality-equivalence",
        ok,
        f"{disagreements} disagreements over 500 orthogonal + 500 control pairs",
    )
    assert disagreements == 0


def test_criterion_5_polarization_reconstruction():
    worst = 0.0
    cases = 0
    for dims in (Dims.from_mk(2, 2), Dims.from_mk(2, 3)):
        for i in range(50):
            for sigma in BOTH:
                phi = make_adjoint_preserver(*unitary_pair(dims, 6000 + i), sigma)
                family = orthogonal_family(dims, np.random.SeedSequence([6100, i]))
                a1, a2 = family[0], family[1]
                reconstructed = phi_on_cross_term(phi, a1, a2)
                direct = apply(
                    phi, np.outer(vec(a1), vec(a2).conj())
                )
                worst = max(worst, float(np.linalg.norm(reconstructed - direct)))
                cases += 1
    ok = worst < 1e-10
    _report(5, "polarization-reconstruction", ok, f"max residual = {worst:.2e} over {cases} cases")
    assert worst < 1e-10


def test_criterion_6_extension():
    worst_mes = 0.0
    worst_comm = 0.0
    for m, k in [(2, 2), (2, 3)]:
        dims = Dims.from_mk(m, k)
        operators = [kron(p_operator(j, dims), np.eye(dims.n)) for j in range(1, k + 1)]
        operators += [
            q_operator(p, q, dims) for p in range(1, k + 1) for q in range(p + 1, k + 1)
        ]
        for sigma in BOTH:
            ext = ExtendedSuperoperator(make_adjoint_preserver(*unitary_pair(dims, 7000), sigma), sigma)
            for i in range(50):
                state = pi(random_coisometry(ext.dims, np.random.SeedSequence([7100, i])))
                image = apply(ext, state)
                assert is_mes(image, ext.dims, 1e-8)
                for w in operators:
                    worst_comm = max(worst_comm, ad_commutation_residual(ext, w, state))
    ok = worst_comm < 1e-9
    _report(
        6,
        "blockwise-extension",
        ok,
        f"all images MES at 1e-8, max commutation residual = {worst_comm:.2e}",
    )
    assert worst_comm < 1e-9


def test_criterion_7_negative_controls():
    dims = Dims.from_mk(2, 2)
    false_accepts = 0
    for seed in range(50):
        rho = pi(random_coisometry(dims, np.random.SeedSequence([8000, seed])))
        phi = make_trace_preserver(rho, dims)
        with pytest.raises(NotInvertibleError):
            decompose(phi)
        bad = Superoperator(
            matrix=haar_unitary(64, np.random.SeedSequence([8100, seed])), dims=dims
        )
        try:
            decompose(bad)
            false_accepts += 1
        except NotPreserverError:
            pass
        u, v = unitary_pair(Dims(4, 4), 8200, seed)
        psi = make_swap_preserver(u, v, SigmaFlag.IDENTITY)
        w = kron(p_operator(1, dims), np.eye(4))
        witness = pi(switch_commutation_witness(dims, u))
        if ad_commutation_residual(psi, w, witness) <= 1e-3:
            false_accepts += 1
        if commutes_with_ad(psi, w, seed=seed):
            false_accepts += 1
    ok = false_accepts == 0
    _report(7, "negative-controls", ok, f"{false_accepts} false accepts over 50 seeds x 3 controls")
    assert false_accepts == 0


def test_criterion_8_family_semilinearity():
    dims = Dims.from_mk(2, 3)
    rng = np.random.default_rng(9000)
    worst = 0.0
    for sigma in BOTH:
        phi = make_adjoint_preserver(*unitary_pair(dims, 9100), sigma)
        family = orthogonal_family(dims, np.random.SeedSequence([9200]))
        images = align_images(phi, family)
        for _ in range(100):
            coeff = complex_gaussian(rng, 3)
            coeff /= np.linalg.norm(coeff)
            out_coeff = coeff.conj() if sigma is SigmaFlag.TRANSPOSE else coeff
            source = sum(c * f for c, f in zip(coeff, family))
            target = sum(c * b for c, b in zip(out_coeff, images))
            dist = float(
                np.linalg.norm(apply(phi, pi(source)) - pi(target))
            )
            worst = max(worst, dist)
    ok = worst < 1e-8
    _report(8, "family-semilinearity", ok, f"max residual = {worst:.2e} over 100 vectors x 2 branches")
    assert worst < 1e-8
