#!/usr/bin/env python3
"""Sweep the Choi determinant discriminant across dimensions and branches.

For each (m, k) and each branch, builds random conjugation preservers and
prints how tightly det J(G) concentrates on 0 (identity branch) or -1
(transpose branch), and in how many trials det J(G) lies within 0.5 of the
branch's value (half the distance between the two), so that it names the
branch the map was built with.
"""

import argparse

import numpy as np

from meskit import (
    Dims,
    SigmaFlag,
    choi_matrix,
    make_adjoint_preserver,
    orthogonal_family,
    restricted_g,
)
from meskit.tensor import unitary_pair


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'dims':>10s} {'branch':>10s} {'max |det - target|':>20s} {'detected':>9s}")
    for m, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        dims = Dims.from_mk(m, k)
        for sigma in (SigmaFlag.IDENTITY, SigmaFlag.TRANSPOSE):
            target = 0.0 if sigma is SigmaFlag.IDENTITY else -1.0
            worst = 0.0
            hits = 0
            for i in range(args.trials):
                phi = make_adjoint_preserver(*unitary_pair(dims, args.seed, i), sigma)
                pair = orthogonal_family(dims, np.random.SeedSequence([args.seed, i, 2]))
                det = complex(np.linalg.det(choi_matrix(restricted_g(phi, pair[0], pair[1]))))
                worst = max(worst, abs(det - target))
                hits += abs(det - target) < 0.5
            label = f"({m},{k})"
            print(f"{label:>10s} {sigma.value:>10s} {worst:20.3e} {hits:>6d}/{args.trials}")


if __name__ == "__main__":
    main()
