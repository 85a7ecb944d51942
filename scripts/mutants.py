#!/usr/bin/env python3
"""Mutation score of every module of ``src/meskit`` but the package's
``__init__``: each row of ``MUTANTS`` changes one text of ``src/meskit``, and
the fast subset of tests that ``FAST`` maps its source file to must fail on it.

The subsets are the verdict path's (``classify``, ``superop``, and
``tensor`` with ``test_tensor.py`` first), the float kernel's and the reader
and writer's (``_float_kernel``, ``serialize``) and the CLI's (``cli``), these
three with the CLI byte pins first (all but the seed grid's and
``check-lemmas``' at the default seed), the lemma suite's (``lemmas``,
``extension``), ``states``' (with the ``check-lemmas --seed 1`` byte pins
last), the sigma discriminant's (``choi``) and the error types'
(``errors``); each lists its files, or single tests, cheapest first, since
with ``-x`` a run stops at its first failure.  For each row it copies
``src/``, ``tests/`` and ``scripts/`` to a temporary directory of its own,
replaces the row's old text, which must occur exactly once, with its new
text, and runs the subset there with ``pytest -x``, at one BLAS thread unless
``OPENBLAS_NUM_THREADS`` is set, and without Hypothesis's pytest plugin,
which only reports: its end-of-run summary imports all of Hypothesis, about
0.7 s a row.  Rows run concurrently, one per CPU the process may use.  It
prints one line per row, in table order: "killed" and the first failing test,
or "survived", with the seconds the run took.  It exits 1 if a survivor is
not marked equivalent, if an old text does not occur exactly once, or if a
run stops without a failing test (a collection error kills nothing).  Nothing
in the checkout is written.

    python scripts/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each source file's fast subset, cheapest first: with -x a run stops at its first failure
VERDICT = (
    "tests/test_scripts.py::test_noise_scan_prints_one_verdict_per_map",
    "tests/test_superop.py",
    "tests/test_verdict_table.py",
    "tests/test_relations.py",
    "tests/test_classify.py",
)
PINS = "tests/test_cli_bytes.py"
# the byte pins of the I/O and CLI subsets: the seed grid's pins repeat DIGESTS' commands at other seeds
# and sigmas, and the default-seed check-lemmas pins reach no code that the --seed 1 ones do not, and
# would add 1.1 s to each of those rows
IO_PINS = tuple(
    f"{PINS}::test_{name}"
    for name in ("cli_outputs_keep_their_bytes", "classify_trace_form_keeps_its_exit_and_stderr",
                 "gen_and_extend_files_keep_their_bytes", "check_lemmas_keeps_its_bytes")
)
LEMMA = ("tests/test_lemmas.py", "tests/test_extension.py", "tests/test_acceptance.py")
CLASSIFY, SUPEROP, TENSOR = "src/meskit/classify.py", "src/meskit/superop.py", "src/meskit/tensor.py"
KERNEL, SERIALIZE, CLI = "src/meskit/_float_kernel.py", "src/meskit/serialize.py", "src/meskit/cli.py"
LEMMAS, EXTENSION, STATES = "src/meskit/lemmas.py", "src/meskit/extension.py", "src/meskit/states.py"
CHOI, ERRORS = "src/meskit/choi.py", "src/meskit/errors.py"
FAST = {
    CLASSIFY: VERDICT,
    SUPEROP: VERDICT,
    TENSOR: ("tests/test_tensor.py", *VERDICT),
    KERNEL: (*IO_PINS, "tests/test_serialize.py"),
    SERIALIZE: (*IO_PINS, "tests/test_cli.py", "tests/test_serialize.py"),
    CLI: (*IO_PINS, "tests/test_cli.py"),
    LEMMAS: LEMMA,
    EXTENSION: LEMMA,
    STATES: (
        "tests/test_states.py",
        "tests/test_choi.py::test_restricted_g_refuses_a_near_mes_image_with_a_typed_error",
        f"{PINS}::test_check_lemmas_keeps_its_bytes",
    ),
    CHOI: (
        "tests/test_choi.py",
        "tests/test_classify.py::test_refusals_name_their_verdict_and_stage",
        "tests/test_acceptance.py::test_criterion_1_choi_discriminant",
        "tests/test_acceptance.py::test_criterion_8_family_semilinearity",
    ),
    ERRORS: ("tests/test_classify.py::test_refusals_name_their_verdict_and_stage", "tests/test_cli.py"),
}
SCREEN = "    if ratio <= 0.5:\n"
SHORTCUT = 'if getattr(refusals[0], "residual", np.inf) >= 0.5:'
TIES = "mags >= (1.0 - 1e-9) * mags.max()"
BOUND = "bound = min(5 * tol, 1e-6)"
SIGMA_MIN = "return float(s[span - 1]), float(np.ldexp(1e-6 * np.linalg.norm(np.ldexp(s, -e)) / span**0.5, e))"
ACCEPT = "    return replace(dec, verification_residual=residual)\n"
WEYL = (
    "by Weyl a certificate eps < 1 puts sigma_min on the span at >= 1 - eps: "
    "no cut-off in (0, 1), or none, moves a verdict"
)
DECLINE = "if any(c in piece for c in b'\"tfn'):"
PACKAGE = "    except MESKitError as exc:\n        return _fail(exc, exc.exit_code)\n"
OTHER = "    except (ValueError, OSError) as exc:\n        return _fail(exc, _EXIT_USAGE)\n"

# (file, old text, new text, label, reason the mutant is verdict-equivalent or None)
MUTANTS = (
    (CLASSIFY, SCREEN, "    if ratio <= 0.1:\n", "screen at 0.1", None),
    (CLASSIFY, SCREEN, "    if False:\n", "screen dropped", None),
    (CLASSIFY, SCREEN, "    if ratio <= 0.9:\n", "screen at 0.9", None),
    (CLASSIFY, SHORTCUT, SHORTCUT.replace("0.5", "1.5"), "invertibility shortcut at 1.5", None),
    (CLASSIFY, SHORTCUT, SHORTCUT.replace("0.5", "0.05"), "invertibility shortcut at 0.05", WEYL),
    (CLASSIFY, SHORTCUT, "if True:", "invertibility shortcut dropped", WEYL),
    (CLASSIFY, BOUND, "bound = min(5 * tol, 1e-5)", "cap at 1e-5", None),
    (CLASSIFY, BOUND, "bound = min(6 * tol, 1e-6)", "bound at 6 tol", None),
    (CLASSIFY, "if residual >= bound:", "if residual > bound:", "> at the certificate",
     "differs only where the certificate equals its bound exactly"),
    (CLASSIFY, "        refusals.sort(", "        refusals.reverse()\n        refusals.sort(",
     "tie rule reversed", None),
    (CLASSIFY, "return fix_global_phase(u @ vh)", "return u @ vh", "gauge dropped", None),
    (CLASSIFY, "if not np.isfinite(W0).all():", "if False:", "recovered columns' finiteness check dropped", None),
    (TENSOR, f"int(np.argmax({TIES}))", f"mags.size - 1 - int(np.argmax(({TIES})[::-1]))",
     "gauge tie rule reversed", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("s[span - 1]", "s[span - 2]"), "sigma_min read at index D - 2", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("s[span - 1]", "s[-1]"), "sigma_min read at the last index", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("1e-6", "1e-9"), "singularity threshold at 1e-9", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("1e-6", "1e-4"), "singularity threshold at 1e-4", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("np.linalg.norm(np.ldexp(s, -e)) / span**0.5", "np.ldexp(s[0], -e)"),
     "singularity threshold scaled by sigma_max", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("float(np.ldexp(1e-6 * np.linalg.norm(np.ldexp(s, -e)) / span**0.5, e))",
                                           "1e-6 * float(np.linalg.norm(s)) / span**0.5"),
     "singularity threshold squared unscaled", None),
    (SUPEROP, "(2 if phi.dims.k == 1 else 1)", "1", "k = 1 span dimension", None),
    (SUPEROP, "    if dims.k == 1:  # the part", "    if False:  # the part", "k = 1 projection dropped", None),
    (TENSOR, "if isinstance(tol, bool) or not", "if not", "tol True read as 1", None),
    (TENSOR, "U = U / (pivot / abs(pivot))", "U = U / (pivot / abs(pivot)) * (1 + 1e-4)", "U scaled by 1 + 1e-4", None),
    (CLASSIFY, "    check_tol(tol)\n", "    np.random.default_rng(0)\n    check_tol(tol)\n", "decompose draws", None),
    (CLASSIFY, ACCEPT, f"    if residual > tol:\n        np.random.default_rng(0)\n{ACCEPT}",
     "an accept between tol and 5 tol draws", None),
    (CLASSIFY, ACCEPT, f"    if residual > 5e-9:\n        np.random.default_rng(0)\n{ACCEPT}",
     "an accept above 5e-9 (tol 1e-3) draws", None),
    # I/O: the float kernel's certified rounding, the writer and the readers
    (KERNEL, "_MARGIN = 1e-14", "_MARGIN = 0.0", "tie margin 0", None),
    (KERNEL, "_MARGIN = 1e-14", "_MARGIN = 1e-15", "tie margin below the error bound", None),
    (KERNEL, "ok = (a == np.abs(x)) & ", "ok = ", "clipped values laid out", None),
    (KERNEL, "+ a_lo * hi_lo + a * lo", "+ a_lo * hi_lo", "lo of 10**k dropped", None),
    (KERNEL, " & (n <= 10**17)", "", "an exponent one low laid out", None),
    (KERNEL, "carry = n == 10**17", "carry = n > 10**17", "no carry into a new digit", None),
    (KERNEL, "zero = np.signbit(pairs) * 2", "zero = np.signbit(pairs) * 0", "-0 written as 0", None),
    (KERNEL, "yield separator + text", "yield text", "no separator at a chunk boundary", None),
    (KERNEL, "if not np.isfinite(chunk).all():", "if False:", "inf and nan written", None),
    (KERNEL, 'if a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind != "f":', "if False:",
     "arrays not of float pairs written", None),
    (SERIALIZE, "from .errors import", "from ._float_kernel import encode\nfrom .errors import",
     "float kernel imported with serialize", None),
    (SERIALIZE, 'return -0.0 if token == "-0" else int(token)', "return int(token)", "-0 read as 0", None),
    (SERIALIZE, DECLINE, DECLINE.replace("tfn'", "'"),
     "sliced reader reads true, false and null", None),
    (SERIALIZE, "return out if count == expected else None", "return out", "sliced reader ignores its count", None),
    (SERIALIZE, "if pairs is not None and np.isfinite(pairs).all():", "if pairs is not None:",
     "sliced reader takes inf and nan", None),
    (SERIALIZE, r'_PAIR_END = re.compile(rb"\][ \t\n\r]*,")', r'_PAIR_END = re.compile(rb"\][ \t\n\r\f]*,")',
     "slices cut after a form feed", None),
    (SERIALIZE, '.replace("\\r\\n", "\\n").replace("\\r", "\\n")', "", "whole parse keeps carriage returns", None),
    (SERIALIZE, "if isinstance(data, list) and set(", "if False and set(", "strings and booleans read as numbers", None),
    (SERIALIZE, "    if k != dims.k:", "    if False:", "k disagreeing with n / m read", None),
    (SERIALIZE, "if tmp and mode is not None:", "if False:", "replaced file takes the umask's mode", None),
    (SERIALIZE, "if mode is not None and not stat.S_ISREG(mode):", "if mode is not None and stat.S_ISCHR(mode):",
     "FIFO replaced by a regular file", None),
    (SERIALIZE, 'with open(path, "rb") as handle:\n        buf = handle.read()',
     'with open(path, "rb") as handle:\n        buf = handle.read(os.path.getsize(path))',
     "input read by its size, so a FIFO reads empty", None),
    (SERIALIZE, "raise type(exc)(exc.errno, exc.strerror, path) from None", "raise",
     "write error names the temp file", None),
    # CLI: the exit-code mapping, a closed stdout and the order of the checks
    (CLI, PACKAGE, PACKAGE.replace("exc.exit_code)", "1)"), "package errors exit 1", None),
    (CLI, PACKAGE + OTHER, OTHER + PACKAGE, "ValueError caught before package errors", None),
    (CLI, OTHER, OTHER.replace("_EXIT_USAGE", "1"), "read and usage errors exit 1", None),
    (CLI, "except (np.linalg.LinAlgError, MemoryError)", "except MemoryError", "LinAlgError exits 2 as a usage error",
     None),
    (CLI, "if exc.filename is not None:", "if False:", "--out FIFO closed exits 1 quietly", None),
    (CLI, "        os.dup2(", "        0 and os.dup2(", "closed stdout left open at shutdown", None),
    (CLI, "        _check_settings(args)\n        code = args.func(args)\n",
     "        code = args.func(args)\n        _check_settings(args)\n", "--tol checked after the command", None),
    (CLI, "    except ValueError as exc:\n        exc.input_path", "    except (ValueError, OSError) as exc:\n        exc.input_path",
     "OSError's path named twice", None),
    (CLI, "        exc.input_path = path\n", "", "refused input file not named", None),
    (CLI, 'return 0 if report["all_pass"] else 1\n\n\ndef cmd_check', 'return 0\n\n\ndef cmd_check',
     "failing extend report exits 0", None),
    # the lemma suite's checks and the blockwise extension
    (LEMMAS, "(0.0 if sigma is SigmaFlag.IDENTITY else -1.0)", "(-1.0 if sigma is SigmaFlag.IDENTITY else 0.0)",
     "discriminant targets swapped", None),
    (LEMMAS, "out_coeff = coeff.conj() if sigma is SigmaFlag.TRANSPOSE else coeff", "out_coeff = coeff",
     "semilinearity without conjugation", None),
    (LEMMAS, "lhs - a @ b.conj().T", "lhs - a @ b.T", "partial-trace product without conjugation", None),
    (LEMMAS, "np.integer)) and not isinstance(seed, bool):", "np.integer)):", "seed True read as 1", None),
    (LEMMAS, "if isinstance(samples, bool) or samples < 1:", "if samples < 1:", "samples True read as 1", None),
    (LEMMAS, "is_coisometry(np.vstack([A1, A2]))", "is_coisometry(np.vstack([A1, A1]))", "c3 stacks A1 twice", None),
    (EXTENSION, "self.base.apply_to(blocks[a, :, b, :])", "self.base.apply_to(blocks[p, :, q, :])",
     "apply_to ignores the transpose's block swap", None),
    (EXTENSION, "slab[q, :, a, :, b, :] = block[r]", "slab[q, :, b, :, a, :] = block[r]",
     "row slabs swap the block index", None),
    (STATES, "return v if ptrace_dev < bound else None", "return v", "MES test without the partial trace", None),
    (STATES, "return np.outer(w, w.conj()) / norm2", "return np.outer(w.conj(), w) / norm2", "pi transposed", None),
    (STATES, "if norm2 <= 0.0:", "if False:", "pi of zero not refused", None),
    (STATES, "dev = frobenius(A @ A.conj().T - np.eye(A.shape[0]))",
     "dev = frobenius(A.conj().T @ A - np.eye(A.shape[1]))", "coisometry tested as an isometry", None),
    (STATES, "    A = A / np.sqrt(float(np.trace(A @ A.conj().T).real) / dims.m)\n", "",
     "representative not renormalized", None),
    (STATES, "    if not is_coisometry(A, _VALIDATION_TOL):", "    if False:",
     "representative's coisometry check dropped", None),
    (STATES, "return fix_global_phase(A)", "return A", "representative not gauged", None),
    (EXTENSION, "return kron(sign, np.eye(dims.m))", "return kron(np.eye(dims.m), sign)", "P_j flips within X", None),
    (EXTENSION, "    t[[p - 1, q - 1]] = t[[q - 1, p - 1]]\n", "", "Q_pq the identity", None),
    (EXTENSION, "kron(kron(t, np.eye(dims.m)), np.eye(dims.n))", "kron(np.eye(dims.n), kron(t, np.eye(dims.m)))",
     "Q_pq swaps the second factor's blocks", None),
    # the helpers the verdict subset does not reach
    (TENSOR, "return v.reshape(m, n).copy()", "return v.reshape(n, m).T.copy()", "unvec reads columns", None),
    (TENSOR, "    if v.size != m * n:\n", "    if False:\n", "unvec takes any length", None),
    (TENSOR, '"ipjp->ij"', '"ipjp->ji"', "partial trace transposed", None),
    (TENSOR, "v = np.sqrt(lam) * fix_global_phase(Q[:, -1])", "v = np.sqrt(lam) * Q[:, -1]",
     "rank-one factor not gauged", None),
    (TENSOR, "return q * (safe / np.abs(safe))[np.newaxis, :]", "return q",
     "Haar draw without its phase correction", None),
    (SUPEROP, ".reshape(m * m, m, m).transpose(0, 2, 1)", ".reshape(m * m, m, m)",
     "switch form without the flip", None),
    (SUPEROP, "if dev >= scaled_tol(1e-10, frobenius(U)):", "if False:", "factors not checked unitary", None),
    # the sigma discriminant and the phase-coherent image family
    (CHOI, "comb = (A1 + (1j**ell) * A2)", "comb = (A1 - (1j**ell) * A2)", "polarization by A1 - i^l A2", None),
    (CHOI, "total += (1j**ell) * 2.0", "total += (1j**-ell) * 2.0", "polarization weighted by i^-l", None),
    (CHOI, "phi.dims.m * images[p] if p == q", "images[p] if p == q", "diagonal without its factor m", None),
    (CHOI, "if sin2 < _VALIDATION_TOL:", "if False:", "sin^2 gate dropped", None),
    (CHOI, "if residual >= scaled_tol(_VALIDATION_TOL, frobenius(target)):", "if False:",
     "subspace gate dropped", None),
    (CHOI, ".transpose(2, 0, 3, 1)", ".transpose(0, 2, 1, 3)", "J(G) realigned by the wrong axes", None),
    (CHOI, "min(readings, key=", "min(readings[::-1], key=", "alignment tie goes to the transpose reading",
     "the readings tie exactly where they build the same images (a one-element family, zero cross terms), "
     "and elsewhere only by a coincidence of rounding"),
    (CHOI, "(t @ b1 if swap else t.conj().T @ b1)", "(t.conj().T @ b1 if swap else t @ b1)",
     "branch readings swapped", None),
    (CHOI, "(table[q][p] if swap else table[p][q])", "table[p][q]", "transpose reading of the identity's table", None),
    (CHOI, "if residual >= scaled_tol(_VALIDATION_TOL, float(dims.m)):", "if False:", "coherence gate dropped", None),
    (CHOI, "if not is_coisometry(b, _VALIDATION_TOL):", "if False:", "aligned images not checked", None),
    # the error types' exit codes, ValueError base and stage
    (ERRORS, "    exit_code = 1\n", "    exit_code = 2\n", "package errors without a code exit 2", None),
    (ERRORS, "    exit_code = 2\n", "    exit_code = 1\n", "DimensionError exits 1", None),
    (ERRORS, "    exit_code = 3\n", "    exit_code = 4\n", "not-a-preserver exits 4", None),
    (ERRORS, "    exit_code = 4\n", "    exit_code = 3\n", "singular exits 3", None),
    (ERRORS, "class DimensionError(MESKitError, ValueError):", "class DimensionError(MESKitError):",
     "DimensionError no ValueError", None),
    (ERRORS, "vars(refusal).update(stage=stage, **attributes)", "vars(refusal).update(attributes)",
     "refusal without its stage", None),
)


def run(path, old, new, tmp):
    """Copy the tree to ``tmp``, apply one mutant, run its file's FAST subset:
    (killed, first failure)."""
    for part in ("src", "tests", "scripts"):
        shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: old text occurs {text.count(old)} times: {old!r}")
    target.write_text(text.replace(old, new), encoding="utf-8")
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ, "PYTHONPATH": str(tmp / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
         *FAST[path]],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^FAILED (.+?)(?: - .*)?$", out.stdout, re.M)
    if out.returncode == 0:
        return False, ""
    if failed is None:
        raise SystemExit(f"pytest exited {out.returncode} without a failing test:\n{out.stdout[-2000:]}{out.stderr}")
    return True, failed.group(1)


def timed(mutant):
    """Run one row in a temporary directory of its own: (killed, first failure, seconds)."""
    path, old, new, *_ = mutant
    began = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        killed, first = run(path, old, new, Path(tmp))
    return killed, first, time.perf_counter() - began


def main() -> int:
    survived, bad, start = 0, 0, time.perf_counter()
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for (*_, label, equivalent), (killed, first, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            if killed:
                print(f"killed    {seconds:5.1f} s  {label}: {first}", flush=True)
            else:
                survived += 1
                bad += equivalent is None
                note = f"equivalent: {equivalent}" if equivalent else "NOT EQUIVALENT"
                print(f"survived  {seconds:5.1f} s  {label} ({note})", flush=True)
    print(
        f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed, {survived - bad} equivalent survivors, "
        f"{bad} other survivors, in {time.perf_counter() - start:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
