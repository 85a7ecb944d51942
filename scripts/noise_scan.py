#!/usr/bin/env python3
"""Seeded scan of ``decompose``'s verdicts on noisy preservers and non-preservers.

For each (m, k), ``tol`` and seed it builds:

* ``noise``: Ad_{U (x) V} o sigma plus Frobenius-relative Gaussian noise on
  the map's matrix, at nine levels from 1e-10 to 1e-6 (half decades), both
  sigma;
* ``nonkron``: Ad_W o sigma with W the unitary nearest to U (x) V plus
  Frobenius-relative noise 2e-9 or 3.2e-9 (a conjugation that is not a
  Kronecker product), both sigma;
* ``trace``: a trace form tr(M) rho, singular on span(MES);
* ``random``: a complex Gaussian matrix.

It calls only ``decompose(phi, tol)`` and prints one JSON line per map: the
map's description, the verdict (sigma or error type), the CLI exit code, the
message, the certificate and Kronecker residual as ``repr`` strings, and a
hash of the bits of U and V.  The output depends only on the arguments, so
two checkouts are compared with ``diff``:

    PYTHONPATH=src python scripts/noise_scan.py > scan.jsonl
    PYTHONPATH=src python scripts/noise_scan.py --dims 1x2 --seeds 1
"""

import argparse
import hashlib
import json

import numpy as np

from meskit import Dims, MESKitError, SigmaFlag, Superoperator, decompose, haar_unitary, kron
from meskit.cli import _error_code
from meskit.superop import _conjugation_matrix

NOISE = tuple(10.0 ** (-10 + i / 2) for i in range(9))
NONKRON = (2e-9, 10**-8.5)
TOLS = (1e-9, 1e-3)


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _relative(a, eps, rng):
    g = _gaussian(rng, a.shape)
    return a + eps * np.linalg.norm(a) * g / np.linalg.norm(g)


def maps(dims: Dims, seed: int):
    """Yields (description, superoperator) for one dims and seed."""
    u = haar_unitary(dims.m, np.random.SeedSequence([seed, 0]))
    v = haar_unitary(dims.n, np.random.SeedSequence([seed, 1]))
    for sigma in SigmaFlag:
        exact = _conjugation_matrix(kron(u, v), sigma)
        for i, eps in enumerate(NOISE):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
            yield {"kind": "noise", "sigma": sigma.value, "eps": eps}, _relative(exact, eps, rng)
        for i, eps in enumerate(NONKRON):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 3, i]))
            a, _, b = np.linalg.svd(_relative(kron(u, v), eps, rng))
            yield {"kind": "nonkron", "sigma": sigma.value, "eps": eps}, _conjugation_matrix(a @ b, sigma)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    a = haar_unitary(dims.n, np.random.SeedSequence([seed, 5]))[: dims.m]  # a coisometry Y -> X
    rho = np.outer(a.reshape(-1), a.reshape(-1).conj()) / dims.m
    yield {"kind": "trace"}, np.outer(rho.reshape(-1), np.eye(dims.mn).reshape(-1))
    yield {"kind": "random"}, _gaussian(rng, (dims.mn**2, dims.mn**2))


def verdict(phi: Superoperator, tol: float) -> dict:
    try:
        dec = decompose(phi, tol)
    except MESKitError as exc:
        return {"verdict": type(exc).__name__, "exit": _error_code(exc), "message": str(exc)}
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
