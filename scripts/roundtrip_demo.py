#!/usr/bin/env python3
"""End-to-end demo: build a hidden preserver, classify it blind, extend it.

Writes its working files to a temp directory and prints a short comparison of
the recovered factors against the hidden ground truth.
"""

import argparse
import tempfile

import numpy as np

from meskit import (
    Dims,
    SigmaFlag,
    decompose,
    extend,
    haar_unitary,
    kron,
    make_adjoint_preserver,
    serialize,
)
from meskit.extension import ad_commutation_residual, p_operator, q_operator
from meskit.states import pi, random_coisometry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sigma", choices=["identity", "transpose"], default="transpose")
    args = parser.parse_args()

    dims = Dims.from_mk(args.m, args.k)
    sigma = SigmaFlag(args.sigma)
    u = haar_unitary(dims.m, np.random.SeedSequence([args.seed, 0]))
    v = haar_unitary(dims.n, np.random.SeedSequence([args.seed, 1]))
    hidden = make_adjoint_preserver(u, v, sigma)

    # round-trip through the file format, then classify the reloaded map blind
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/superop.json"
        serialize.write_json(path, serialize.superoperator_to_obj(hidden.matrix, hidden.dims))
        phi = serialize.read_superoperator(path)
    print(f"hidden preserver: dims m={dims.m}, n={dims.n}, k={dims.k}, sigma={sigma.value}")

    dec = decompose(phi)
    w_true = kron(u, v)
    w_rec = kron(dec.U, dec.V)
    overlap = np.vdot(w_rec.reshape(-1), w_true.reshape(-1))
    aligned = np.linalg.norm(w_rec * overlap / abs(overlap) - w_true)
    print(f"recovered sigma = {dec.sigma.value} (truth {sigma.value})")
    print(f"kron residual          = {dec.kron_residual:.3e}")
    print(f"verification residual  = {dec.verification_residual:.3e}")
    print(f"factor error vs truth  = {aligned:.3e} (up to one global phase)")

    ext = extend(phi, dec.sigma)
    state = pi(random_coisometry(ext.yy_dims, args.seed))
    checks = [("P1 x I", kron(p_operator(1, dims), np.eye(dims.n)))]
    if dims.k >= 2:
        checks.append(("Q12", q_operator(1, 2, dims)))
    for name, w in checks:
        print(f"extension commutation residual vs {name}: "
              f"{ad_commutation_residual(ext, w, state):.3e}")


if __name__ == "__main__":
    main()
