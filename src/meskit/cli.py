"""Command-line front end.

Subcommands: ``gen`` (emit a canonical preserver plus a ground-truth sidecar),
``classify`` (decompose a superoperator into sigma/U/V), ``extend`` (blockwise
extension plus its certificate), ``check-lemmas`` (structural identity
suite).  Results go to stdout as JSON; failures emit an error JSON on stderr.

``extend --sigma auto`` refuses a map as ``classify`` does and reports its span
certificate, which bounds the extension on every MES of Y (x) Y; an explicit
``--sigma`` passes only when ``classify`` accepts the map with that sigma.

Exit codes: 0 success, 2 usage/parse errors (an ``--out`` that cannot be
written, ``check-lemmas`` with k = 1), 3 not a preserver (at stage recovery
or a failed span certificate), 4 singular on the MES span, 6 recovered
unitary not a Kronecker product, 1 unexpected numerical breakdown or a report
with ``"all_pass": false`` (``extend`` under an explicit sigma,
``check-lemmas``).  :func:`main` maps every refusal once: a package error
exits with its type's ``exit_code``, and any other ``ValueError`` or an
``OSError`` with 2.

Each subcommand accepts only the flags it reads: ``--tol`` for ``classify``,
``extend`` and ``check-lemmas``, ``--samples`` (default 20) for ``check-lemmas``
only, and ``--seed`` (a non-negative integer, default 0) for the commands that
draw at random, ``gen`` and ``check-lemmas``.  ``--tol`` defaults to 1e-9; no
environment variable sets it.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import lemmas, serialize
from .classify import Decomposition, decompose
from .errors import DimensionError, MESKitError
from .extension import extend
from .states import pi, random_coisometry
from .superop import (
    SigmaFlag,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
)
from .tensor import DEFAULT_TOL, Dims, haar_unitary

_EXIT_USAGE = 2


def _fail(exc: BaseException, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(serialize.dumps(payload), file=sys.stderr)
    return code


def _check_settings(args) -> None:
    """Rejects a non-positive or non-finite tolerance, a non-positive sample
    count and a negative seed."""
    if "tol" in args:
        if args.tol <= 0:
            raise ValueError("tol must be positive")
        if not math.isfinite(args.tol):
            raise ValueError("tol must be finite")
    if "samples" in args and args.samples < 1:
        raise ValueError("samples must be >= 1")
    if "seed" in args and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _truth_path(out: str) -> str:
    return out[: -len(".json")] + ".truth.json" if out.endswith(".json") else out + ".truth.json"


def _decomposition_obj(dec: Decomposition) -> dict:
    return {
        "sigma": dec.sigma.value,
        "U": serialize.matrix_to_obj(dec.U),
        "V": serialize.matrix_to_obj(dec.V),
        "kron_residual": dec.kron_residual,
        "verification_residual": dec.verification_residual,
    }


def cmd_gen(args) -> int:
    sigma = SigmaFlag(args.sigma)
    out = args.out or "superop.json"
    dims = Dims.from_mk(args.m, args.k)
    truth: dict = {"form": args.form, "m": args.m, "k": args.k, "seed": args.seed}
    if args.form == "trace":
        rho = pi(random_coisometry(dims, np.random.SeedSequence([args.seed, 41, 2])))
        phi = make_trace_preserver(rho, dims)
        truth.update({"rho": serialize.matrix_to_obj(rho)})
    else:
        if args.form == "swap" and args.k != 1:
            raise DimensionError("the switch form needs a square space: use --k 1")
        make = make_swap_preserver if args.form == "swap" else make_adjoint_preserver
        u = haar_unitary(dims.m, np.random.SeedSequence([args.seed, 41, 0]))
        v = haar_unitary(dims.n, np.random.SeedSequence([args.seed, 41, 1]))
        phi = make(u, v, sigma)
        truth.update(
            {"sigma": sigma.value, "U": serialize.matrix_to_obj(u), "V": serialize.matrix_to_obj(v)}
        )
    serialize.write_json(out, serialize.superoperator_to_obj(phi.matrix, phi.dims))
    serialize.write_json(_truth_path(out), truth)
    print(serialize.dumps({"superop": out, "truth": _truth_path(out)}))
    return 0


def cmd_classify(args) -> int:
    payload = _decomposition_obj(decompose(serialize.read_superoperator(args.input), tol=args.tol))
    if args.out:
        serialize.write_json(args.out, payload)
    print(serialize.dumps(payload))
    return 0


def cmd_extend(args) -> int:
    phi = serialize.read_superoperator(args.input)
    auto = args.sigma == "auto"
    try:
        dec = decompose(phi, tol=args.tol)
    except MESKitError as exc:
        if auto or isinstance(exc, DimensionError):  # k = 1 is a usage error under any sigma
            raise
        dec = exc
    ext = extend(phi, dec.sigma if auto else SigmaFlag(args.sigma))
    if isinstance(dec, Decomposition) and dec.sigma is not ext.sigma:
        dec = f"stage sigma: certified as {dec.sigma.value}, not {ext.sigma.value}"
    certified = isinstance(dec, Decomposition)
    report = {
        "sigma": ext.sigma.value,
        "dims": serialize.dims_to_obj(phi.dims),
        "certificate": dec.verification_residual if certified else str(dec),
        "tol": args.tol,
        "all_pass": certified,
    }
    side = ext.yy_dims.mn**2
    serialize.write_json(
        args.out or "extended.json",
        {
            "base_dims": serialize.dims_to_obj(phi.dims),
            "sigma": ext.sigma.value,
            "matrix": serialize.row_slabs_to_obj(ext.row_slabs(), side, side),
        },
    )
    print(serialize.dumps(report))
    return 0 if certified else 1


def cmd_check_lemmas(args) -> int:
    dims = Dims.from_mk(args.m, args.k)
    checks = lemmas.run_all(dims, tol=args.tol, samples=args.samples, seed=args.seed)
    report = {
        "dims": serialize.dims_to_obj(dims),
        "tol": args.tol,
        "samples": args.samples,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    print(serialize.dumps(report))
    return 0 if report["all_pass"] else 1


def _add_common(
    parser: argparse.ArgumentParser, dims: bool = False, tol: bool = False, samples: bool = False
) -> None:
    """Adds, of the shared flags, only those the subcommand reads; the commands
    that take dimensions draw at random, so they also take ``--seed``."""
    if dims:
        parser.add_argument("--m", type=int, default=2, help="dimension of the X factor")
        parser.add_argument("--k", type=int, default=2, help="block count (Y has dimension k*m)")
        parser.add_argument("--seed", type=int, default=0, help="seed for all randomized draws")
    if tol:
        parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance (default 1e-9)")
    if samples:
        parser.add_argument("--samples", type=int, default=20, help="sample count (default 20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meskit",
        description="Generate, classify and extend maps preserving maximally entangled states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a canonical preserver and its ground truth")
    _add_common(gen, dims=True)
    gen.add_argument("--sigma", choices=["identity", "transpose"], default="identity")
    gen.add_argument("--form", choices=["adjoint", "swap", "trace"], default="adjoint")
    gen.add_argument("--out", default="superop.json", help="output path for the superoperator")
    gen.set_defaults(func=cmd_gen)

    classify = sub.add_parser("classify", help="decompose a superoperator into sigma, U, V")
    classify.add_argument("input", help="superoperator JSON file")
    _add_common(classify, tol=True)
    classify.add_argument("--out", default=None, help="also write the decomposition here")
    classify.set_defaults(func=cmd_classify)

    ext = sub.add_parser("extend", help="blockwise extension plus its span certificate")
    ext.add_argument("input", help="superoperator JSON file")
    _add_common(ext, tol=True)
    ext.add_argument("--sigma", choices=["identity", "transpose", "auto"], default="auto")
    ext.add_argument("--out", default=None, help="output path for the extension (default extended.json)")
    ext.set_defaults(func=cmd_extend)

    check = sub.add_parser("check-lemmas", help="run the structural identity suite")
    _add_common(check, dims=True, tol=True, samples=True)
    check.set_defaults(func=cmd_check_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else _EXIT_USAGE
    try:
        _check_settings(args)
        return args.func(args)
    except MESKitError as exc:
        return _fail(exc, exc.exit_code)
    except (ValueError, OSError) as exc:
        return _fail(exc, _EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
