"""Numerical verification suite for the structural identities the pipeline
rests on.  Each check returns its worst residual over randomized instances;
the CLI aggregates them into a machine-readable report.

The checks that evaluate a preserver draw it as the
:class:`~meskit.superop.Conjugation` M -> W M^sigma W* with W = U (x) V for
Haar U and V, the form every invertible MES preserver takes, and apply it as
that product, O((mn)^3) per operator, never as its dense (mn)^2 x (mn)^2
matrix; the blockwise extension takes it as its base.

Count-style checks (set equivalences, membership biconditionals) report the
number of disagreements as the residual, so 0.0 means a clean pass at any
positive tolerance.
"""

from __future__ import annotations

import numpy as np

from .choi import align_images, choi_matrix, restricted_g
from .errors import DimensionError
from .extension import ExtendedSuperoperator, ad_commutation_residual, structural_unitaries
from .states import is_coisometry, orthogonal_family, pi, random_coisometry
from .superop import SigmaFlag, apply, make_adjoint_preserver
from .tensor import (
    DEFAULT_TOL,
    Dims,
    check_tol,
    complex_gaussian,
    frobenius,
    haar_unitary,
    partial_trace_y,
    rank_one_factor,
    unitary_pair,
    unvec,
    vec,
)


def _as_int(seed) -> int:
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    raise TypeError(f"seed must be an integer, got {type(seed).__name__}")


def _seq(seed, *path) -> np.random.SeedSequence:
    return np.random.SeedSequence([_as_int(seed), *path])


def _rng(seed, *path) -> np.random.Generator:
    return np.random.default_rng(_seq(seed, *path))


def _preserver_draws(dims: Dims, samples: int, seed, path: int):
    """(sigma, preserver, orthogonal family) per sample and branch: the
    preserver drawn from ``path``, the family from ``path + 1``."""
    for i in range(samples):
        family = orthogonal_family(dims, _seq(seed, path + 1, i))
        u, v = unitary_pair(dims, _as_int(seed), path, i)
        for sigma in SigmaFlag:
            yield sigma, make_adjoint_preserver(u, v, sigma), family


def _extension_draws(dims: Dims, samples: int, seed, path: int):
    """(extension, MES of Y (x) Y) per branch and sample: the extended
    preserver drawn from ``path``, the states from ``path + 1``."""
    u, v = unitary_pair(dims, _as_int(seed), path)
    for sigma in SigmaFlag:
        ext = ExtendedSuperoperator(make_adjoint_preserver(u, v, sigma), sigma)
        for i in range(samples):
            yield ext, pi(random_coisometry(ext.dims, _seq(seed, path + 1, i)))


def _action_residual(phi, sigma: SigmaFlag, family, images, rng) -> float:
    """||phi(pi(sum_j c_j A_j)) - pi(sum_j c'_j B_j)||_F for a random unit c,
    with c' = c (identity branch) or conj(c) (transpose branch): the
    (conjugate-)linear action of phi on the aligned images B_j of A_j."""
    coeff = complex_gaussian(rng, len(images))
    coeff /= np.linalg.norm(coeff)
    out_coeff = coeff.conj() if sigma is SigmaFlag.TRANSPOSE else coeff
    source = sum(c * f for c, f in zip(coeff, family))
    target = sum(c * b for c, b in zip(out_coeff, images))
    return frobenius(apply(phi, pi(source)) - pi(target))


def check_vec_partial_trace(dims: Dims, samples: int, seed) -> float:
    """tr_Y(vec(A) vec(B)*) = A B* for arbitrary operators A, B: Y -> X."""
    rng = _rng(seed, 101)
    worst = 0.0
    for _ in range(samples):
        a = complex_gaussian(rng, dims.m, dims.n)
        b = complex_gaussian(rng, dims.m, dims.n)
        lhs = partial_trace_y(np.outer(vec(a), vec(b).conj()), dims)
        worst = max(worst, frobenius(lhs - a @ b.conj().T))
    return worst


def check_mes_partial_trace(dims: Dims, samples: int, seed) -> float:
    """tr_Y = I/m on MES and (tr/m) I on the span of MES."""
    rng = _rng(seed, 102)
    eye = np.eye(dims.m)
    worst = 0.0
    for i in range(samples):
        states = [pi(random_coisometry(dims, _seq(seed, 102, i, j))) for j in range(3)]
        worst = max(worst, frobenius(partial_trace_y(states[0], dims) - eye / dims.m))
        coeff = complex_gaussian(rng, 3)
        combo = sum(c * s for c, s in zip(coeff, states))
        expected = (np.trace(combo) / dims.m) * eye
        worst = max(worst, frobenius(partial_trace_y(combo, dims) - expected))
    return worst


def check_pure_states_in_span(dims: Dims, samples: int, seed) -> float:
    """A rank-1 trace-1 PSD operator has tr_Y = I/m exactly when its rank-1
    factor rescales to a coisometry; disagreements are counted, and the
    extraction residual on the positive side is included."""
    rng = _rng(seed, 103)
    disagreements = 0
    worst = 0.0
    for i in range(samples):
        if i % 2 == 0:
            mat = pi(random_coisometry(dims, _seq(seed, 103, i)))
        else:
            u = complex_gaussian(rng, dims.mn)
            u /= np.linalg.norm(u)
            mat = np.outer(u, u.conj())
        ptrace_ok = frobenius(partial_trace_y(mat, dims) - np.eye(dims.m) / dims.m) < 1e-8
        v, _ = rank_one_factor(mat, 1e-8)
        candidate = np.sqrt(dims.m) * unvec(v, dims.m, dims.n)
        coiso_ok = is_coisometry(candidate, 1e-8)
        if ptrace_ok != coiso_ok:
            disagreements += 1
        if ptrace_ok and coiso_ok:
            worst = max(
                worst,
                frobenius(candidate @ candidate.conj().T - np.eye(dims.m)),
            )
    return max(worst, float(disagreements))


def _five_way_conditions(A1: np.ndarray, A2: np.ndarray, rng) -> list[bool]:
    c1 = frobenius(A1 @ A2.conj().T) < DEFAULT_TOL
    c2 = frobenius(A2 @ A1.conj().T) < DEFAULT_TOL
    c3 = is_coisometry(np.vstack([A1, A2]))
    c4 = True
    for _ in range(20):
        ab = complex_gaussian(rng, 2)
        ab /= np.linalg.norm(ab)
        c4 = c4 and is_coisometry(ab[0] * A1 + ab[1] * A2)
    # row spaces via orthonormal bases, independent of the product tests above
    q1 = np.linalg.qr(A1.conj().T)[0]
    q2 = np.linalg.qr(A2.conj().T)[0]
    c5 = frobenius(q1.conj().T @ q2) < DEFAULT_TOL * 10
    return [c1, c2, c3, c4, c5]


def check_orthogonality_equivalence(dims: Dims, samples: int, seed) -> float:
    """Five-way equivalence for orthogonal coisometry pairs, with
    non-orthogonal pairs as negative controls; residual = #disagreements."""
    rng = _rng(seed, 104)
    disagreements = 0
    for i in range(samples):
        family = orthogonal_family(dims, _seq(seed, 104, i))
        conds = _five_way_conditions(family[0], family[1], rng)
        if not all(conds):
            disagreements += 1
        b1 = random_coisometry(dims, _seq(seed, 105, i, 0))
        b2 = random_coisometry(dims, _seq(seed, 105, i, 1))
        conds = _five_way_conditions(b1, b2, rng)
        if any(conds):
            disagreements += 1
    return float(disagreements)


def check_choi_discriminant(dims: Dims, samples: int, seed) -> float:
    """det J(G) sits at 0 for identity-branch preservers and -1 for
    transpose-branch preservers, for every orthogonal pair used to build G."""
    worst = 0.0
    for sigma, phi, family in _preserver_draws(dims, samples, seed, 106):
        det = complex(np.linalg.det(choi_matrix(restricted_g(phi, family[0], family[1]))))
        worst = max(worst, abs(det - (0.0 if sigma is SigmaFlag.IDENTITY else -1.0)))
    return worst


def check_pair_semilinearity(dims: Dims, samples: int, seed) -> float:
    """On the span of an orthogonal pair, the induced map acts linearly
    (identity branch) or conjugate-linearly (transpose branch) on
    coefficients."""
    rng = _rng(seed, 108)
    worst = 0.0
    for sigma, phi, family in _preserver_draws(dims, samples, seed, 109):
        pair = family[:2]
        worst = max(worst, _action_residual(phi, sigma, pair, align_images(phi, pair), rng))
    return worst


def check_polarization(dims: Dims, samples: int, seed) -> float:
    """A B* is exactly the alternating average of the four (A + i^l B) squares."""
    rng = _rng(seed, 111)
    worst = 0.0
    for _ in range(samples):
        a = complex_gaussian(rng, dims.m, dims.n)
        b = complex_gaussian(rng, dims.m, dims.n)
        total = np.zeros((dims.m, dims.m), dtype=complex)
        for ell in range(4):
            c = a + (1j**ell) * b
            total += (1j**ell) * (c @ c.conj().T)
        worst = max(worst, frobenius(total / 4.0 - a @ b.conj().T))
    return worst


def check_family_alignment(dims: Dims, samples: int, seed) -> float:
    """Aligned image families stay mutually orthogonal and reproduce the
    k-term (conjugate-)linear action on coefficients."""
    rng = _rng(seed, 112)
    worst = 0.0
    for sigma, phi, family in _preserver_draws(dims, samples, seed, 113):
        images = align_images(phi, family)
        for p in range(dims.k):
            for q in range(dims.k):
                expect = np.eye(dims.m) if p == q else 0.0
                worst = max(worst, frobenius(images[p] @ images[q].conj().T - expect))
        worst = max(worst, _action_residual(phi, sigma, family, images, rng))
    return worst


def check_extension_preserves_mes(dims: Dims, samples: int, seed) -> float:
    """The blockwise extension maps MES of Y (x) Y to MES of Y (x) Y."""
    worst = 0.0
    for ext, state in _extension_draws(dims, samples, seed, 115):
        image = apply(ext, state)
        _, rank1_residual = rank_one_factor(image, 1e-6)
        ptrace_dev = frobenius(partial_trace_y(image, ext.dims) - np.eye(dims.n) / dims.n)
        worst = max(worst, rank1_residual, ptrace_dev)
    return worst


def check_structural_commutation(dims: Dims, samples: int, seed) -> float:
    """The extension commutes with conjugation by every P_j (x) I and Q_pq."""
    operators = [w for _, w in structural_unitaries(dims)]
    worst = 0.0
    for ext, state in _extension_draws(dims, samples, seed, 117):
        for w in operators:
            worst = max(worst, ad_commutation_residual(ext, w, state))
    return worst


def check_switch_identities(dims: Dims, samples: int, seed) -> float:
    """Switch/transpose/conjugation action on projections of unitaries:
    S(pi_A) = pi_{A^T}, (pi_A)^T = pi_{conj(A)}, ad_{U (x) V}(pi_A) = pi_{U A V^T}.

    S is conjugation by the flip A (x) B -> B (x) A, applied as the index
    permutation (i, p, j, q) -> (p, i, q, j) of the n^2 x n^2 state.
    """
    n = dims.n
    worst = 0.0
    for i in range(samples):
        a = haar_unitary(n, _seq(seed, 119, i, 0))
        u = haar_unitary(n, _seq(seed, 119, i, 1))
        v = haar_unitary(n, _seq(seed, 119, i, 2))
        state = pi(a)
        switched = state.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
        worst = max(worst, frobenius(switched - pi(a.T)))
        worst = max(worst, frobenius(state.T - pi(a.conj())))
        ad = make_adjoint_preserver(u, v, SigmaFlag.IDENTITY)
        worst = max(worst, frobenius(apply(ad, state) - pi(u @ a @ v.T)))
    return worst


_CHECKS = [
    ("vec-partial-trace-product", check_vec_partial_trace),
    ("mes-partial-trace-identity", check_mes_partial_trace),
    ("pure-states-in-span", check_pure_states_in_span),
    ("orthogonality-equivalence", check_orthogonality_equivalence),
    ("choi-discriminant", check_choi_discriminant),
    ("pair-semilinearity", check_pair_semilinearity),
    ("polarization-reconstruction", check_polarization),
    ("family-alignment", check_family_alignment),
    ("extension-preserves-mes", check_extension_preserves_mes),
    ("structural-commutation", check_structural_commutation),
    ("switch-transpose-adjoint-identities", check_switch_identities),
]


def run_all(dims: Dims, tol: float = DEFAULT_TOL, samples: int = 20, seed: int = 0) -> list[dict]:
    """Run every structural check at the given dimensions (k >= 2), giving
    each check's report row ``{"name", "max_residual", "pass"}``.  Before any
    check runs, ``samples`` < 1 and a ``tol`` that is not finite and positive
    raise ValueError, as either would let every row pass unchecked, and so does a bool."""
    if dims.k < 2:
        raise DimensionError("the lemma suite needs an orthogonal pair, so k >= 2")
    if isinstance(samples, bool) or samples < 1:
        raise ValueError("samples must be >= 1")
    check_tol(tol)
    results = []
    for name, func in _CHECKS:
        residual = float(func(dims, samples, seed))
        results.append({"name": name, "max_residual": residual, "pass": residual < tol})
    return results
