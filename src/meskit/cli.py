"""Command-line front end.

Subcommands: ``gen`` (emit a canonical preserver plus a ground-truth sidecar),
``classify`` (decompose a superoperator into sigma/U/V), ``extend`` (blockwise
extension plus its certificate), ``check-lemmas`` (structural identity
suite).  Results go to stdout as JSON; failures emit an error JSON on stderr.

``extend --sigma auto`` refuses a map as ``classify`` does and reports its span
certificate, which bounds the extension on every MES of Y (x) Y; an explicit
``--sigma`` passes only when ``classify`` accepts the map with that sigma.

Exit codes: 0 success, 2 usage/parse errors (an ``--out`` that cannot be
written, a k = 1 input or ``check-lemmas --k 1``), 3 not a preserver (at
stage recovery or a failed span certificate), 4 singular on the MES span,
1 unexpected numerical breakdown, a report with ``"all_pass": false``
(``extend`` under an explicit sigma, ``check-lemmas``), or a stdout closed by
its reader.  :func:`main` maps every refusal once: a package error exits with
its type's ``exit_code``, a closed stdout with 1 and nothing more printed,
numpy's ``LinAlgError`` and a ``MemoryError`` with 1, and any other
``ValueError`` or ``OSError`` with 2.  A refused input file's path leads the
error's message.

Each subcommand accepts only the flags it reads: ``--tol`` for ``classify``,
``extend`` and ``check-lemmas``, ``--samples`` (default 20) for ``check-lemmas``
only, and ``--seed`` (a non-negative integer, default 0) for the commands that
draw at random, ``gen`` and ``check-lemmas``.  ``--tol`` defaults to 1e-9; no
environment variable sets it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import lemmas, serialize
from .classify import Decomposition, decompose
from .errors import DimensionError, MESKitError
from .extension import ExtendedSuperoperator
from .states import pi, random_coisometry
from .superop import (
    SigmaFlag,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
)
from .tensor import DEFAULT_TOL, Dims, check_tol, unitary_pair

_EXIT_USAGE = 2


def _fail(exc: BaseException, code: int) -> int:
    where = getattr(exc, "input_path", None)  # set by _read
    message = f"{where}: {exc}" if where else str(exc)
    payload = {"error": type(exc).__name__, "message": message, "exit_code": code}
    print(serialize.dumps(payload), file=sys.stderr)
    return code


def _check_settings(args) -> None:
    """Rejects, before any file is read, a tolerance that is not finite and
    positive (:func:`~meskit.tensor.check_tol`) and a negative seed;
    ``lemmas.run_all`` refuses a sample count below 1 before any check runs."""
    if "tol" in args:
        check_tol(args.tol)
    if "seed" in args and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _read(path: str):
    """``serialize.read_superoperator(path)``; a refusal keeps its type, and
    :func:`_fail` names the file before its message."""
    try:
        return serialize.read_superoperator(path)
    except ValueError as exc:
        exc.input_path = path
        raise


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
        u, v = unitary_pair(dims, args.seed, 41)
        phi = make(u, v, sigma)
        truth.update(
            {"sigma": sigma.value, "U": serialize.matrix_to_obj(u), "V": serialize.matrix_to_obj(v)}
        )
    serialize.write_json(out, serialize.superoperator_to_obj(phi.matrix, phi.dims))
    serialize.write_json(_truth_path(out), truth)
    print(serialize.dumps({"superop": out, "truth": _truth_path(out)}))
    return 0


def cmd_classify(args) -> int:
    payload = _decomposition_obj(decompose(_read(args.input), tol=args.tol))
    if args.out:
        serialize.write_json(args.out, payload)
    print(serialize.dumps(payload))
    return 0


def cmd_extend(args) -> int:
    phi = _read(args.input)
    sigma = None if args.sigma == "auto" else SigmaFlag(args.sigma)
    try:
        dec = decompose(phi, tol=args.tol)
    except MESKitError as exc:
        if sigma is None:
            raise
        certificate = str(exc)  # reported below, unless the extension refuses a k = 1 map
    else:
        sigma = sigma or dec.sigma
        certificate = dec.verification_residual
        if dec.sigma is not sigma:
            certificate = f"stage sigma: certified as {dec.sigma.value}, not {sigma.value}"
    ext = ExtendedSuperoperator(phi, sigma)
    report = {
        "sigma": sigma.value,
        "dims": serialize.dims_to_obj(phi.dims),
        "certificate": certificate,
        "tol": args.tol,
        "all_pass": not isinstance(certificate, str),
    }
    side = ext.dims.mn**2
    serialize.write_json(
        args.out or "extended.json",
        {
            "base_dims": serialize.dims_to_obj(phi.dims),
            "sigma": sigma.value,
            "matrix": serialize.row_slabs_to_obj(ext.row_slabs(), side, side),
        },
    )
    print(serialize.dumps(report))
    return 0 if report["all_pass"] else 1


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
    gen.add_argument("--sigma", choices=[s.value for s in SigmaFlag], default=SigmaFlag.IDENTITY.value)
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
    ext.add_argument("--sigma", choices=[*(s.value for s in SigmaFlag), "auto"], default="auto")
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
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError as exc:
        if exc.filename is not None:  # an --out FIFO whose reader left
            return _fail(exc, _EXIT_USAGE)
        # stdout's reader left: the interpreter's last flush must find nothing to print to
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (np.linalg.LinAlgError, MemoryError) as exc:  # LinAlgError is a ValueError, but no usage error
        return _fail(exc, 1)
    except MESKitError as exc:
        return _fail(exc, exc.exit_code)
    except (ValueError, OSError) as exc:
        return _fail(exc, _EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
