"""Relations the theorem fixes between runs of ``decompose``, checked without a
seeded truth: each compares one decomposition with another's.

With Phi = Ad_W o sigma on span(MES) and local unitaries L and R, Ad_L o Phi
o Ad_R is Ad_{L W R^sigma} o sigma (R^sigma = R or conj(R)); composing with
the transpose T flips sigma, Phi o T keeping W and T o Phi taking conj(W);
c Phi misses Ad_W o sigma by exactly |1 - c| on the span; a term that
vanishes on the span changes nothing the theorem speaks of; and a noisy map's
certificate moves under local unitaries only within a band.
"""

import numpy as np
import pytest

from meskit import (
    Conjugation,
    Dims,
    MESKitError,
    NotPreserverError,
    SigmaFlag,
    Superoperator,
    decompose,
    kron,
    make_adjoint_preserver,
    vec,
)
from meskit.tensor import complex_gaussian, perturb, unitary_pair
from conftest import phase_aligned_distance
from test_verdict_table import _build

LADDER = [(1, 2), (2, 2), (2, 3), (3, 2)]
FLIP = {SigmaFlag.IDENTITY: SigmaFlag.TRANSPOSE, SigmaFlag.TRANSPOSE: SigmaFlag.IDENTITY}


def _exact(mk, sigma, seed=0):
    dims = Dims.from_mk(*mk)
    return make_adjoint_preserver(*unitary_pair(dims, seed), sigma).matrix, dims


def _w(matrix, dims):
    dec = decompose(Superoperator(matrix, dims))
    return dec.sigma, kron(dec.U, dec.V)


@pytest.mark.parametrize("mk", LADDER)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_local_unitaries_move_w_and_keep_sigma(mk, sigma):
    matrix, dims = _exact(mk, sigma)
    _, w = _w(matrix, dims)
    left, right = kron(*unitary_pair(dims, 0, 1)), kron(*unitary_pair(dims, 0, 2))
    ad = [Conjugation(x, SigmaFlag.IDENTITY, dims).matrix for x in (left, right)]
    got_sigma, got = _w(ad[0] @ matrix @ ad[1], dims)
    assert got_sigma is sigma
    want = left @ w @ (right if sigma is SigmaFlag.IDENTITY else right.conj())
    assert phase_aligned_distance(got, want) < 1e-13


@pytest.mark.parametrize("mk", LADDER)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_composing_with_the_transpose_flips_sigma(mk, sigma):
    matrix, dims = _exact(mk, sigma)
    _, w = _w(matrix, dims)
    d = dims.mn
    # columns (i, j) <- (j, i) give Phi o T; rows, T o Phi
    after_t = matrix.reshape(d * d, d, d).swapaxes(1, 2).reshape(d * d, d * d)
    before_t = matrix.reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d)
    for composed, want in ((after_t, w), (before_t, w.conj())):
        got_sigma, got = _w(composed, dims)
        assert got_sigma is FLIP[sigma]
        assert phase_aligned_distance(got, want) < 1e-13


@pytest.mark.parametrize("mk", LADDER)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
@pytest.mark.parametrize("c", [0.7, 1.001])
def test_a_scaled_preserver_is_refused_by_its_distance(mk, sigma, c):
    # at c = 0.7 the recovered columns' singular ratio is 0.7, so a recovery
    # screen at 0.9 in place of 1/2 would refuse it at stage recovery instead
    matrix, dims = _exact(mk, sigma)
    with pytest.raises(NotPreserverError) as refused:
        decompose(Superoperator(c * matrix, dims))
    assert refused.value.stage == "certificate"
    assert refused.value.residual == pytest.approx(abs(1 - c), rel=1e-11)


@pytest.mark.parametrize("mk", LADDER)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
@pytest.mark.parametrize("c", [1e154, 1e300])
def test_a_preserver_scaled_past_overflow_is_refused_at_recovery(mk, sigma, c):
    # the columns read through w_s carry c^2, which overflows from about 1.34e154, and the
    # singularity threshold's sum of squares from about 1.3e154: neither may decide the verdict
    matrix, dims = _exact(mk, sigma)
    with pytest.raises(NotPreserverError, match=r"^stage recovery: no conjugation form: "):
        decompose(Superoperator(c * matrix, dims))


def _outcome(phi):
    """(sigma, certificate) of an accept, or (error type, stage, span residual or None)."""
    try:
        dec = decompose(phi)
    except MESKitError as exc:
        return type(exc), exc.stage, getattr(exc, "residual", None)
    return dec.sigma, dec.verification_residual


@pytest.mark.parametrize("mk", LADDER[1:])  # at m = 1 the span is all of L(X (x) Y)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
@pytest.mark.parametrize(
    "kind", [("adjoint", 0.0), ("noise", 1e-9), ("noise", 1e-7), ("nonkron", 1.5e-9), ("trace", None), ("random", None)]
)
def test_a_term_off_the_span_moves_no_verdict(mk, sigma, kind):
    # Phi + r c*, c = vec(A (x) I_n) / ||.|| with tr A = 0, agrees with Phi on
    # span(MES).  The certificate is not bit-invariant: the projection leaves
    # rounding of order 1e-16 ||r|| of the term
    dims = Dims.from_mk(*mk)
    phi = _build(*kind, dims, sigma, 0)
    rng = np.random.default_rng(1)
    a = complex_gaussian(rng, dims.m, dims.m)
    c = vec(kron(a - np.trace(a) / dims.m * np.eye(dims.m), np.eye(dims.n)))
    r = complex_gaussian(rng, dims.mn**2)
    norm_r = 1e4
    term = np.outer(norm_r * r / np.linalg.norm(r), (c / np.linalg.norm(c)).conj())
    before, after = _outcome(phi), _outcome(Superoperator(phi.matrix + term, dims))
    assert before[:-1] == after[:-1]
    if before[-1] is None:
        assert after[-1] is None
    else:
        assert abs(after[-1] - before[-1]) <= 1e-15 * norm_r


@pytest.mark.parametrize("mk", LADDER)
@pytest.mark.parametrize("sigma", list(SigmaFlag))
@pytest.mark.parametrize("eps", [1e-9, 1e-7])
@pytest.mark.parametrize("seed", range(3))
def test_a_noisy_maps_certificate_is_covariant_within_a_band(mk, sigma, eps, seed):
    # local unitaries keep the noise's norm on the span, but recovery reads fixed
    # reference columns, so the certificate moves: on these draws by up to 1.133x
    # at (1,2) and 1.025x from (2,2) up.  The verdict is kept outside that band
    # around the accept bound 5 tol
    factor, bound = (1.5 if mk == (1, 2) else 1.05), 5e-9
    exact, dims = _exact(mk, sigma, seed)
    matrix = perturb(exact, eps, np.random.default_rng([seed, 7]))
    left, right = kron(*unitary_pair(dims, seed, 1)), kron(*unitary_pair(dims, seed, 2))
    ad = [Conjugation(x, SigmaFlag.IDENTITY, dims).matrix for x in (left, right)]
    before = _outcome(Superoperator(matrix, dims))
    after = _outcome(Superoperator(ad[0] @ matrix @ ad[1], dims))
    assert before[-1] / factor <= after[-1] <= before[-1] * factor
    if not bound / factor <= before[-1] <= bound * factor:
        assert after[:-1] == before[:-1]
