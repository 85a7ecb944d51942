"""Correctness gate: every operation's output is checked against ground truth.

* An accepted decomposition passes only if sigma matches the truth and
  ``U (x) V`` is within ``FACTOR_TOL`` (Frobenius, after removing one global
  phase) of the true ``U (x) V``.  1e-7 is the bound of acceptance
  criterion 2 in the test suite.
* A refusal passes only with the expected error type (in process) or exit
  code (CLI).
* ``extend`` and ``check-lemmas`` must report ``all_pass: true``; the
  extension written by ``extend`` must act as the blockwise truth map.
* CLI stdout must be byte-identical whenever an input repeats within a run.

:func:`self_test` feeds the gate tampered results and fails unless each one
is caught.
"""

from __future__ import annotations

import json

import numpy as np

FACTOR_TOL = 1e-7
EXTEND_TOL = 1e-9
LEMMA_CHECKS = 11


def matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def load_truth(path: str) -> dict:
    """The sigma and factors of a ``meskit gen`` adjoint-form sidecar."""
    with open(path) as handle:
        obj = json.load(handle)
    return {"sigma": obj["sigma"], "U": matrix(obj["U"]), "V": matrix(obj["V"])}


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b after removing one global phase."""
    overlap = np.vdot(a.reshape(-1), b.reshape(-1))
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def check_decomposition(result: dict, truth: dict) -> tuple[list[str], float]:
    """``result`` carries sigma, U, V (arrays) and verification_residual."""
    problems = []
    if result["sigma"] != truth["sigma"]:
        problems.append(f"sigma {result['sigma']} != truth {truth['sigma']}")
    dist = phase_distance(np.kron(result["U"], result["V"]), np.kron(truth["U"], truth["V"]))
    if not dist < FACTOR_TOL:
        problems.append(f"U (x) V is {dist:.3e} from the truth")
    return problems, max(dist, float(result["verification_residual"]))


def expected_extension(truth: dict, M: np.ndarray) -> np.ndarray:
    """The blockwise extension of the truth map applied to M on Y (x) Y.

    Blocks are (k, k) of size mn; block (p, q) of the image is phi(M_pq), or
    phi(M_qp) in the transpose branch, with phi(X) = W X^sigma W*.
    """
    W = np.kron(truth["U"], truth["V"])
    mn, k = W.shape[0], truth["V"].shape[0] // truth["U"].shape[0]
    blocks = M.reshape(k, mn, k, mn).transpose(0, 2, 1, 3)
    if truth["sigma"] == "transpose":
        blocks = blocks.transpose(1, 0, 3, 2)
    out = W @ blocks @ W.conj().T
    return out.transpose(0, 2, 1, 3).reshape(M.shape)


def check_extension(path: str, truth: dict, seed: int) -> tuple[list[str], float]:
    with open(path) as handle:
        E = matrix(json.load(handle)["matrix"])
    side = int(round(np.sqrt(E.shape[0])))
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    want = expected_extension(truth, M)
    err = float(np.linalg.norm((E @ M.reshape(-1)).reshape(side, side) - want) / np.linalg.norm(want))
    return ([] if err < EXTEND_TOL else [f"extension is {err:.3e} from the truth map"]), err


def check_report(op, report: dict, truth: dict | None, seed: int) -> tuple[list[str], float]:
    """Checks the parsed stdout of an accepted CLI operation."""
    problems = []
    if op.argv[0] == "classify":
        result = dict(report, U=matrix(report["U"]), V=matrix(report["V"]))
        return check_decomposition(result, truth)
    if not report.get("all_pass"):
        problems.append("all_pass is not true")
    if op.argv[0] == "extend":
        if report["sigma"] != truth["sigma"]:
            problems.append(f"sigma {report['sigma']} != truth {truth['sigma']}")
        more, err = check_extension(op.output, truth, seed)
        return problems + more, err
    if len(report["checks"]) != LEMMA_CHECKS:
        problems.append(f"{len(report['checks'])} lemma checks, expected {LEMMA_CHECKS}")
    return problems, max(float(c["max_residual"]) for c in report["checks"])


class Gate:
    """Checks one run's operations; remembers stdout per input key."""

    def __init__(self) -> None:
        self._stdout: dict[str, bytes] = {}

    def check_stdout(self, key: str, stdout: bytes) -> list[str]:
        first = self._stdout.setdefault(key, stdout)
        return [] if first == stdout else [f"stdout differs from an earlier run of input {key}"]

    def check_cli(self, op, code: int, stdout: bytes, truth: dict | None, seed: int):
        """Returns (problems, error) for one CLI operation; error is None for refusals."""
        if op.refusal:
            problems = [] if str(code) == op.expect else [f"exit {code}, expected {op.expect}"]
            return problems + self.check_stdout(op.key, stdout), None
        if code != 0:
            return [f"exit {code}, expected 0"], None
        problems = self.check_stdout(op.key, stdout)
        try:
            more, err = check_report(op, json.loads(stdout), truth, seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return problems + [f"malformed output: {exc!r}"], None
        return problems + more, err


def self_test() -> list[str]:
    """Tampered results the gate must refuse; returns what it let through."""
    from workloads import Op

    rng = np.random.default_rng(7)
    u, v = np.linalg.qr(rng.standard_normal((2, 2)))[0], np.linalg.qr(rng.standard_normal((4, 4)))[0]
    truth = {"sigma": "identity", "U": u.astype(complex), "V": v.astype(complex)}
    good = {"sigma": "identity", "U": 1j * u, "V": v, "verification_residual": 1e-15}
    escaped = []
    if check_decomposition(good, truth)[0]:
        escaped.append("a correct decomposition was refused")
    if not check_decomposition(dict(good, sigma="transpose"), truth)[0]:
        escaped.append("wrong sigma passed")
    if not check_decomposition(dict(good, U=good["U"] + 1e-6 * rng.standard_normal((2, 2))), truth)[0]:
        escaped.append("perturbed U passed")
    gate = Gate()
    refusal = Op("t", "m2k2", True, "4", ("classify", "t.json"))
    if gate.check_cli(refusal, 4, b"", None, 0)[0]:
        escaped.append("a correct refusal was refused")
    if not gate.check_cli(refusal, 3, b"", None, 0)[0]:
        escaped.append("wrong exit code passed")
    lemmas = Op("l", "m2k2", False, "all_pass", ("check-lemmas",))
    stdout = json.dumps({"all_pass": True, "checks": [{"max_residual": 0.0}] * LEMMA_CHECKS}).encode()
    if gate.check_cli(lemmas, 0, stdout, None, 0)[0] or gate.check_cli(lemmas, 0, stdout, None, 0)[0]:
        escaped.append("a repeated identical stdout was refused")
    tampered = stdout.replace(b"0.0", b"0.1", 1)  # still valid, still all_pass
    if not gate.check_cli(lemmas, 0, tampered, None, 0)[0]:
        escaped.append("a one-byte change on stdout passed")
    return escaped
