"""Workload definitions: the operations of one cycle and their set-up.

Every workload runs a fixed cycle of operations, so each run holds the same
mix whatever its length: the same dims ladder, the same share of refusals.
Inputs come from the benchmark seed alone.  The cycle lists need no meskit
import; the set-up functions do, and run in a fresh interpreter
(``prepare.py``) or, for the in-process workload, in the benchmark process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

WORKLOADS = ("decompose-inproc", "classify-cli", "extend-cli", "lemmas-cli")
LADDER = ((2, 2), (2, 3), (3, 2))
NOISE_EPS = 1e-6  # Frobenius-relative noise; far past the 1e-8 that still classifies
# Per dims, one in five inputs is refused: a trace form and a noisy adjoint.
DECOMPOSE_PATTERN = (
    "identity", "transpose", "identity", "transpose", "trace",
    "transpose", "identity", "transpose", "identity", "noise",
)
REFUSAL = {"trace": "NotInvertibleError", "noise": "NotPreserverError"}
EXIT_NOT_INVERTIBLE = 4


def label(m: int, k: int) -> str:
    return f"m{m}k{k}"


@dataclass(frozen=True)
class Op:
    """One operation.  Equal ``key`` means the same input, so equal output."""

    key: str
    dims: str
    refusal: bool
    expect: str  # sigma of an accept; error type or exit code of a refusal
    argv: tuple = ()
    truth: str = ""
    output: str = ""


def _gen_argv(workdir: str, name: str, m: int, k: int, form: str, sigma: str, seed: int):
    out = os.path.join(workdir, f"{name}.json")
    argv = ["gen", "--m", str(m), "--k", str(k), "--form", form, "--sigma", sigma]
    return argv + ["--seed", str(seed), "--out", out], out


def gen_commands(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """The ``meskit gen`` calls that make a CLI workload's input files."""
    return [argv for argv, _ in _files(workload, seed, workdir).values()]


def _files(workload: str, seed: int, workdir: str) -> dict:
    files = {}
    if workload == "classify-cli":
        for i, (m, k) in enumerate(LADDER):
            for j, sigma in enumerate(("identity", "transpose")):
                name = f"c_{label(m, k)}_{sigma}"
                files[name] = _gen_argv(workdir, name, m, k, "adjoint", sigma, seed * 100 + 2 * i + j)
        files["t_m2k3"] = _gen_argv(workdir, "t_m2k3", 2, 3, "trace", "identity", seed * 100 + 9)
    elif workload == "extend-cli":
        for i, (m, k, sigma) in enumerate(((2, 2, "transpose"), (3, 2, "identity"))):
            name = f"e_{label(m, k)}_{sigma}"
            files[name] = _gen_argv(workdir, name, m, k, "adjoint", sigma, seed * 100 + i)
    return files


def cycle(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operations of one cycle of a CLI workload, in order."""
    files = _files(workload, seed, workdir)

    def truth(name):
        return files[name][1][: -len(".json")] + ".truth.json"

    if workload == "classify-cli":
        # c_m2k2_identity comes twice, so one cycle already repeats an input.
        order = ["c_m2k2_identity", "c_m2k3_transpose", "c_m3k2_identity", "t_m2k3",
                 "c_m2k2_transpose", "c_m2k3_identity", "c_m3k2_transpose", "c_m2k2_identity"]
        ops = []
        for name in order:
            dims = name.split("_")[1]
            refused = name.startswith("t_")
            expect = str(EXIT_NOT_INVERTIBLE) if refused else name.split("_")[2]
            argv = ("classify", files[name][1])
            ops.append(Op(name, dims, refused, expect, argv, truth(name)))
        return ops
    if workload == "extend-cli":
        order = ["e_m2k2_transpose", "e_m3k2_identity", "e_m2k2_transpose"]
        ops = []
        for name in order:
            out = os.path.join(workdir, f"x_{name}.json")
            argv = ("extend", files[name][1], "--sigma", "auto", "--out", out)
            ops.append(Op(name, name.split("_")[1], False, name.split("_")[2], argv, truth(name), out))
        return ops
    if workload == "lemmas-cli":
        return [
            Op(f"l_{label(m, k)}", label(m, k), False, "all_pass",
               ("check-lemmas", "--m", str(m), "--k", str(k), "--seed", str(seed)))
            for m, k in LADDER
        ]
    raise ValueError(f"{workload} is not a CLI workload")


def _haar(rng, d: int):
    import numpy as np

    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def decompose_inputs(seed: int):
    """One cycle of the in-process workload: ``[(op, superoperator, truth)]``.

    Truth factors come from numpy alone; meskit builds the superoperators.
    """
    import numpy as np
    from meskit.superop import SigmaFlag, Superoperator, make_adjoint_preserver
    from meskit.tensor import Dims

    items = []
    for i, kind in enumerate(DECOMPOSE_PATTERN):
        for j, (m, k) in enumerate(LADDER):
            rng = np.random.default_rng(np.random.SeedSequence([seed, j, i]))
            dims = Dims.from_mk(m, k)
            u, v = _haar(rng, dims.m), _haar(rng, dims.n)
            sigma = "transpose" if kind == "transpose" else "identity"
            phi = make_adjoint_preserver(u, v, SigmaFlag(sigma))
            truth = {"sigma": sigma, "U": u, "V": v}
            if kind == "noise":
                noise = rng.standard_normal(phi.matrix.shape) + 1j * rng.standard_normal(phi.matrix.shape)
                noise *= NOISE_EPS * np.linalg.norm(phi.matrix) / np.linalg.norm(noise)
                phi = Superoperator(matrix=phi.matrix + noise, dims=dims)
            elif kind == "trace":
                a = _haar(rng, dims.n)[: dims.m]  # a coisometry Y -> X
                rho = np.outer(a.reshape(-1), a.reshape(-1).conj()) / dims.m
                phi = Superoperator(matrix=np.outer(rho.reshape(-1), np.eye(dims.mn).reshape(-1)), dims=dims)
            expect = REFUSAL.get(kind, sigma)
            op = Op(f"d_{label(m, k)}_{i}", label(m, k), kind in REFUSAL, expect)
            items.append((op, phi, truth))
    return items


def warm_span_bases(items) -> None:
    """Build the cached span(MES) bases at every dims, as a first call would."""
    from meskit.superop import is_invertible_on_span

    seen = set()
    for op, phi, _ in items:
        if op.dims not in seen:
            seen.add(op.dims)
            is_invertible_on_span(phi)
