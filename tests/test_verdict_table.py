"""The verdict table over the shared draws: each map kind built from
``unitary_pair``, ``perturb`` and ``complex_gaussian`` gets the verdict the
classification gives it, in process and through ``meskit classify``."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meskit import (
    Dims,
    MESKitError,
    NotInvertibleError,
    NotPreserverError,
    SigmaFlag,
    Superoperator,
    decompose,
    kron,
    make_adjoint_preserver,
    make_trace_preserver,
    pi,
    random_coisometry,
    serialize,
    vec,
)
from meskit.cli import main
from meskit.tensor import complex_gaussian, perturb, unitary_pair
from conftest import nonkron_conjugation

# noise_scan at seeds 0-2 accepts every 1e-10 row and refuses every >= 1e-8 row
# at tol 1e-9: both levels sit a decade or more from the band.  "offspan" adds
# a term of unit norm that vanishes on span(MES).  "nonkron" is Ad_W o sigma
# with W the unitary nearest to perturb(U (x) V, 1.5e-9): from mn = 4 up no
# Kronecker product, yet certified below 5 tol (on every tenth seed to 990,
# Kronecker residual 2.0e-9 to 4.5e-9, certificate at most 4.1e-9).  The
# first four kinds are accepted.  "killed" is Ad_W o sigma with the image of one
# unit element x_a x_b* of span(MES), picked by the seed, scaled by eps = 0: it
# is singular on the span, like "trace"
KINDS = (
    ("adjoint", 0.0),
    ("noise", 1e-10),
    ("offspan", 1.0),
    ("nonkron", 1.5e-9),
    ("noise", 1e-7),
    ("trace", None),
    ("random", None),
    ("killed", 0.0),
)


def _build(kind, eps, dims, sigma, seed):
    if kind == "trace":
        return make_trace_preserver(pi(random_coisometry(dims, seed)), dims)
    if kind == "random":
        return Superoperator(complex_gaussian(np.random.default_rng(seed), dims.mn**2, dims.mn**2), dims)
    if kind == "nonkron":
        return nonkron_conjugation(*unitary_pair(dims, seed), sigma, eps, np.random.default_rng(seed))
    phi = make_adjoint_preserver(*unitary_pair(dims, seed), sigma)
    if kind == "adjoint":
        return phi
    if kind == "killed":
        d = dims.mn
        a = seed % d
        others = [b for b in range(d) if b % dims.n != a % dims.n]  # x_a x_b* lies in span(MES)
        matrix = phi.matrix
        matrix[:, a * d + others[seed // d % len(others)]] *= eps
        return Superoperator(matrix, dims)
    if kind == "offspan":  # Ad_W o sigma + c vec(J) vec(A (x) I_n)*, tr A = 0 (A = 0 at m = 1)
        rng = np.random.default_rng(seed)
        j, a = complex_gaussian(rng, dims.mn, dims.mn), complex_gaussian(rng, dims.m, dims.m)
        off = kron(a - np.trace(a) / dims.m * np.eye(dims.m), np.eye(dims.n))
        scale = eps / max(np.linalg.norm(j) * np.linalg.norm(off), 1e-300)
        return Superoperator(phi.matrix + scale * np.outer(vec(j), vec(off).conj()), dims)
    return Superoperator(perturb(phi.matrix, eps, np.random.default_rng(seed)), dims)


def _verdict(phi):
    """(sigma, U, V, residuals) of an accept, or (error type, message) of a refusal."""
    try:
        dec = decompose(phi)
    except MESKitError as exc:
        return type(exc), str(exc)
    return dec.sigma, dec.U.tobytes(), dec.V.tobytes(), dec.kron_residual, dec.verification_residual


def _classify_exit(phi):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "superop.json")
        serialize.write_json(path, serialize.superoperator_to_obj(phi.matrix, phi.dims))
        return main(["classify", path])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    mk=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2)]),
    sigma=st.sampled_from(list(SigmaFlag)),
    seed=st.integers(0, 999),
    kind=st.sampled_from(KINDS),
    cli=st.just(False),
)
# one example of each kind also goes through the CLI
@example(mk=(1, 2), sigma=SigmaFlag.TRANSPOSE, seed=0, kind=KINDS[0], cli=True)
@example(mk=(2, 2), sigma=SigmaFlag.TRANSPOSE, seed=1, kind=KINDS[1], cli=True)
@example(mk=(2, 2), sigma=SigmaFlag.IDENTITY, seed=5, kind=KINDS[2], cli=True)
@example(mk=(2, 2), sigma=SigmaFlag.TRANSPOSE, seed=6, kind=KINDS[3], cli=True)
@example(mk=(1, 2), sigma=SigmaFlag.IDENTITY, seed=2, kind=KINDS[4], cli=True)
@example(mk=(2, 2), sigma=SigmaFlag.IDENTITY, seed=3, kind=KINDS[5], cli=True)
@example(mk=(1, 2), sigma=SigmaFlag.IDENTITY, seed=4, kind=KINDS[6], cli=True)
@example(mk=(3, 2), sigma=SigmaFlag.TRANSPOSE, seed=47, kind=KINDS[7], cli=True)
def test_each_kind_gets_its_verdict(mk, sigma, seed, kind, cli):
    phi = _build(*kind, Dims.from_mk(*mk), sigma, seed)
    verdict = _verdict(phi)
    if kind in KINDS[:4]:
        assert verdict[0] is sigma, verdict
        expected_exit = 0
    else:
        error = NotInvertibleError if kind[0] in ("trace", "killed") else NotPreserverError
        assert verdict[0] is error, verdict
        if error is NotInvertibleError:
            assert verdict[1].startswith("stage recovery"), verdict
        expected_exit = error.exit_code
    assert _verdict(phi) == verdict
    if cli:
        assert _classify_exit(phi) == expected_exit
