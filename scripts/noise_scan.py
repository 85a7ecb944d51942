#!/usr/bin/env python3
"""Seeded scan of ``decompose``'s verdicts on noisy preservers and non-preservers.

For each (m, k), ``tol`` and seed it builds:

* ``noise``: ``perturb`` of the matrix of Ad_{U (x) V} o sigma, at nine
  levels eps from 1e-10 to 1e-6 (half decades), both sigma;
* ``nonkron``: Ad_W o sigma with W the unitary nearest to
  ``perturb(U (x) V, eps)``, eps 2e-9 or 3.2e-9 (a conjugation that is not a
  Kronecker product once mn >= 4), both sigma; accepted when its
  certificate is below min(5 tol, 1e-6), whatever its Kronecker residual;
* ``trace``: a trace form tr(M) rho, singular on span(MES);
* ``random``: a complex Gaussian matrix.

``meskit.tensor.perturb(a, eps, rng)`` adds noise in the one unit: Frobenius
norm eps ||a||_F.  (U, V) is ``unitary_pair(dims, seed)``.

It calls only ``decompose(phi, tol)`` and prints one JSON line per map: the
map's description, the verdict (sigma or error type), the CLI exit code (0,
3 or 4), the message, the certificate and Kronecker residual as ``repr``
strings, and a hash of the bits of U and V.  The output depends only on the
arguments, so two checkouts are compared with ``diff``:

    PYTHONPATH=src python scripts/noise_scan.py > scan.jsonl
    PYTHONPATH=src python scripts/noise_scan.py --dims 1x2 --seeds 1
"""

import argparse
import hashlib
import json

import numpy as np

from meskit import (
    Conjugation,
    Dims,
    MESKitError,
    SigmaFlag,
    Superoperator,
    decompose,
    kron,
    make_adjoint_preserver,
    make_trace_preserver,
    pi,
    random_coisometry,
)
from meskit.tensor import complex_gaussian, perturb, unitary_pair

NOISE = tuple(10.0 ** (-10 + i / 2) for i in range(9))
NONKRON = (2e-9, 10**-8.5)
TOLS = (1e-9, 1e-3)


def _rng(*path):
    return np.random.default_rng(np.random.SeedSequence(path))


def maps(dims: Dims, seed: int):
    """Yields (description, superoperator) for one dims and seed."""
    u, v = unitary_pair(dims, seed)
    for sigma in SigmaFlag:
        exact = make_adjoint_preserver(u, v, sigma).matrix
        for i, eps in enumerate(NOISE):
            yield {"kind": "noise", "sigma": sigma.value, "eps": eps}, perturb(exact, eps, _rng(seed, 2, i))
        for i, eps in enumerate(NONKRON):
            a, _, b = np.linalg.svd(perturb(kron(u, v), eps, _rng(seed, 3, i)))
            nonkron = Conjugation(a @ b, sigma, dims)
            yield {"kind": "nonkron", "sigma": sigma.value, "eps": eps}, nonkron.matrix
    rho = pi(random_coisometry(dims, np.random.SeedSequence([seed, 5])))
    yield {"kind": "trace"}, make_trace_preserver(rho, dims).matrix
    yield {"kind": "random"}, complex_gaussian(_rng(seed, 4), dims.mn**2, dims.mn**2)


def verdict(phi: Superoperator, tol: float) -> dict:
    try:
        dec = decompose(phi, tol)
    except MESKitError as exc:
        return {"verdict": type(exc).__name__, "exit": exc.exit_code, "message": str(exc)}
    bits = hashlib.sha256(dec.U.tobytes() + dec.V.tobytes()).hexdigest()[:16]
    return {
        "verdict": dec.sigma.value,
        "exit": 0,
        "certificate": repr(dec.verification_residual),
        "kron_residual": repr(dec.kron_residual),
        "bits": bits,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dims", nargs="+", default=["1x2", "2x2", "2x3", "3x2", "3x3"],
                        help="(m, k) pairs written MxK")
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0 .. N-1 per dims")
    args = parser.parse_args()
    for label in args.dims:
        dims = Dims.from_mk(*map(int, label.split("x")))
        for seed in range(args.seeds):
            for desc, matrix in maps(dims, seed):
                phi = Superoperator(matrix=matrix, dims=dims)
                for tol in TOLS:
                    row = {"dims": label, "seed": seed, **desc, "tol": tol, **verdict(phi, tol)}
                    print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
