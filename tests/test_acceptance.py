"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 3, 4, 6 and 8 run the checks that ``meskit check-lemmas`` ships
in :mod:`meskit.lemmas`, each at its own dims, draw count and bound, so the
lemma code the CLI reports on is the code these criteria accept.  Criteria 2,
5 and 7 have no shipped twin and keep their own loops.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and residuals.
"""

import time

import numpy as np
import pytest

from meskit import (
    Dims,
    NotInvertibleError,
    NotPreserverError,
    SigmaFlag,
    ad_commutation_residual,
    apply,
    decompose,
    haar_unitary,
    kron,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
    orthogonal_family,
    p_operator,
    phi_on_cross_term,
    pi,
    random_coisometry,
    vec,
)
from meskit.lemmas import (
    check_choi_discriminant,
    check_extension_preserves_mes,
    check_family_alignment,
    check_orthogonality_equivalence,
    check_pair_semilinearity,
    check_structural_commutation,
    check_vec_partial_trace,
)
from meskit.superop import Superoperator
from meskit.tensor import unitary_pair
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
    # 50 preservers per dims under both sigma; a residual under 1e-8 also puts
    # each det within 0.5, half the distance between 0 and -1, of its branch
    start = time.time()
    worst = max(check_choi_discriminant(Dims.from_mk(m, k), 50, 1000) for m, k in [(2, 2), (2, 3), (3, 2)])
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(1, "choi-discriminant", ok, f"max |det - target| = {worst:.2e} over 300 maps, {elapsed:.1f}s")
    assert worst < 1e-8
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
    grids = [(1, 2), (1, 5), (1, 9), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (3, 9)]
    worst = max(check_vec_partial_trace(Dims(m, n), 112, 4000) for m, n in grids)
    ok = worst < 1e-12
    _report(3, "vec-partial-trace-product", ok, f"max residual = {worst:.2e} over {112 * len(grids)} pairs")
    assert worst < 1e-12


def test_criterion_4_orthogonality_equivalence():
    # 125 orthogonal and 125 control pairs per dims
    dims_cycle = [Dims.from_mk(2, 2), Dims.from_mk(2, 3), Dims.from_mk(3, 2), Dims.from_mk(1, 3)]
    disagreements = sum(check_orthogonality_equivalence(dims, 125, 5000) for dims in dims_cycle)
    ok = disagreements == 0
    _report(4, "orthogonality-equivalence", ok, f"{disagreements:.0f} disagreements, 500 orthogonal + 500 controls")
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
    # 50 MES of Y (x) Y per dims under both sigma; the residual r bounds is_mes's
    # rank-one and partial-trace deviations by r and its Hermitian deviation by
    # 2r, so r < 5e-9 is at least as tight as is_mes at 1e-8
    worst_mes = worst_comm = 0.0
    for m, k in [(2, 2), (2, 3)]:
        dims = Dims.from_mk(m, k)
        worst_mes = max(worst_mes, check_extension_preserves_mes(dims, 50, 7000))
        worst_comm = max(worst_comm, check_structural_commutation(dims, 50, 7000))
    ok = worst_mes < 5e-9 and worst_comm < 1e-9
    _report(6, "blockwise-extension", ok, f"max MES residual = {worst_mes:.2e}, commutation = {worst_comm:.2e}")
    assert worst_mes < 5e-9
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
    # 100 preservers at (2,3) under both sigma, one unit coefficient vector each on
    # the whole aligned family, whose images must stay orthogonal; and 25 on one
    # orthogonal pair at (2,2)
    family = check_family_alignment(Dims.from_mk(2, 3), 100, 9000)
    pair = check_pair_semilinearity(Dims.from_mk(2, 2), 25, 9000)
    ok = family < 1e-8 and pair < 1e-8
    _report(8, "family-semilinearity", ok, f"max residual = {family:.2e} over 100 families, {pair:.2e} over 25 pairs")
    assert family < 1e-8
    assert pair < 1e-8
