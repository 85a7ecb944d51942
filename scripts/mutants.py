#!/usr/bin/env python3
"""Mutation score of the verdict path: each row of ``MUTANTS`` changes one
text of ``src/meskit``, and the fast subset of the tests must fail on it.

For each row it copies ``src/``, ``tests/`` and ``scripts/`` to a temporary
directory of its own, replaces the row's old text, which must occur exactly
once, with its new text, and runs ``FAST`` there with ``pytest -x``, at one
BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.  Rows run concurrently,
one per CPU the process may use.  It prints one line per row, in table order:
"killed" and the first failing test, or "survived", with the seconds the run
took.  It exits 1 if a survivor is not marked equivalent, if
an old text does not occur exactly once, or if a run stops without a failing
test (a collection error kills nothing).  Nothing in the checkout is written.

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
# cheapest first: with -x a run stops at its first failure
FAST = (
    "tests/test_scripts.py::test_noise_scan_prints_one_verdict_per_map",
    "tests/test_superop.py",
    "tests/test_verdict_table.py",
    "tests/test_relations.py",
    "tests/test_classify.py",
)
CLASSIFY, SUPEROP, TENSOR = "src/meskit/classify.py", "src/meskit/superop.py", "src/meskit/tensor.py"
SCREEN = "    if ratio <= 0.5:\n"
SHORTCUT = 'if getattr(refusals[0], "residual", np.inf) >= 0.5:'
TIES = "mags >= (1.0 - 1e-9) * mags.max()"
BOUND = "bound = min(5 * tol, 1e-6)"
SIGMA_MIN = "return float(s[span - 1]), 1e-6 * float(np.linalg.norm(s)) / span**0.5"
ACCEPT = "    return replace(dec, verification_residual=residual)\n"
WEYL = (
    "by Weyl a certificate eps < 1 puts sigma_min on the span at >= 1 - eps: "
    "no cut-off in (0, 1), or none, moves a verdict"
)

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
    (TENSOR, f"int(np.argmax({TIES}))", f"mags.size - 1 - int(np.argmax(({TIES})[::-1]))",
     "gauge tie rule reversed", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("s[span - 1]", "s[span - 2]"), "sigma_min read at index D - 2", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("s[span - 1]", "s[-1]"), "sigma_min read at the last index", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("1e-6", "1e-9"), "singularity threshold at 1e-9", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("1e-6", "1e-4"), "singularity threshold at 1e-4", None),
    (SUPEROP, SIGMA_MIN, SIGMA_MIN.replace("float(np.linalg.norm(s)) / span**0.5", "float(s[0])"),
     "singularity threshold scaled by sigma_max", None),
    (SUPEROP, "(2 if phi.dims.k == 1 else 1)", "1", "k = 1 span dimension", None),
    (SUPEROP, "    if dims.k == 1:  # the part", "    if False:  # the part", "k = 1 projection dropped", None),
    (TENSOR, "U = U / (pivot / abs(pivot))", "U = U / (pivot / abs(pivot)) * (1 + 1e-4)", "U scaled by 1 + 1e-4", None),
    (CLASSIFY, "    check_tol(tol)\n", "    np.random.default_rng(0)\n    check_tol(tol)\n", "decompose draws", None),
    (CLASSIFY, ACCEPT, f"    if residual > tol:\n        np.random.default_rng(0)\n{ACCEPT}",
     "an accept between tol and 5 tol draws", None),
    (CLASSIFY, ACCEPT, f"    if residual > 5e-9:\n        np.random.default_rng(0)\n{ACCEPT}",
     "an accept above 5e-9 (tol 1e-3) draws", None),
)


def run(path, old, new, tmp):
    """Copy the tree to ``tmp``, apply one mutant, run FAST: (killed, first failure)."""
    for part in ("src", "tests", "scripts"):
        shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: old text occurs {text.count(old)} times: {old!r}")
    target.write_text(text.replace(old, new), encoding="utf-8")
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ, "PYTHONPATH": str(tmp / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *FAST],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^FAILED (\S+)", out.stdout, re.M)
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
