import ast
import importlib.util
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def _outcome(row):
    """A noise_scan row's map, verdict, exit code, refusal stage and certificate
    (an accept's, or the span residual a certificate refusal names) to 3
    significant digits, or only as below 1e-12, at rounding level."""
    message = row.get("message", "")
    stage = re.match(r"stage ([a-z ]+): ", message)
    residual = re.search(r"span residual (\S+) ", message)
    certificate = row.get("certificate", residual and residual.group(1))
    if certificate is not None:
        certificate = "< 1e-12" if float(certificate) < 1e-12 else f"{float(certificate):.2e}"
    described = [row.get(k) for k in ("dims", "seed", "kind", "sigma", "eps", "tol")]
    return described, row["verdict"], row["exit"], stage and stage.group(1), certificate


def _scan_and_golden(monkeypatch, capsys, *dims):
    """The rows of ``noise_scan.py --dims <dims> --seeds 1``, run in this
    process, and of its checked-in output, ``tests/noise_scan_<dims>.jsonl``."""
    monkeypatch.setattr(sys, "argv", ["noise_scan.py", "--dims", *dims, "--seeds", "1"])
    runpy.run_path(str(SCRIPTS / "noise_scan.py"), run_name="__main__")
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    path = TESTS / f"noise_scan_{'_'.join(dims)}.jsonl"
    golden = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(golden) == 96  # 2 dims x 2 tol x (2 sigma x 11 noisy maps + 2)
    return rows, golden


def test_noise_scan_prints_one_verdict_per_map(monkeypatch, capsys):
    # each row matches the checked-in output of the same command (see _outcome)
    for row, want in zip(*_scan_and_golden(monkeypatch, capsys, "1x2", "2x2")):
        assert _outcome(row) == _outcome(want), want


def test_noise_scan_verdicts_at_2x3_and_3x2(monkeypatch, capsys):
    # from (2,3) up a certificate's last digits move with the BLAS thread
    # count, so only the map, verdict, exit code and refusal stage are compared
    for row, want in zip(*_scan_and_golden(monkeypatch, capsys, "2x3", "3x2")):
        assert _outcome(row)[:4] == _outcome(want)[:4], want


def test_mutation_table_rows_and_subsets_resolve():
    # each row's old text occurs once in a file that has a subset, and each
    # subset names existing files and top-level tests, never a test beside
    # its own file, where pytest drops a missing one silently
    table = runpy.run_path(str(SCRIPTS / "mutants.py"))
    fast, root = table["FAST"], SCRIPTS.parent
    for path, old, *_ in table["MUTANTS"]:
        assert path in fast and (root / path).read_text(encoding="utf-8").count(old) == 1, (path, old)
    for subset in fast.values():
        for entry in subset:
            file, *name = entry.split("::")
            tree = ast.parse((root / file).read_text(encoding="utf-8"))
            tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert not name or (name[0] in tests and file not in subset), entry


def _perfbench_meskit_imports():
    """``file:module[:name]`` of each meskit import in ``perfbench/*.py``, at
    any depth (the workloads import inside their functions)."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "meskit":
                    found += [f"{path.name}:{node.module}:{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    f"{path.name}:{alias.name}"
                    for alias in node.names
                    if alias.name.split(".")[0] == "meskit"
                ]
    return found


@pytest.mark.parametrize("entry", _perfbench_meskit_imports())
def test_perfbench_imports_resolve(entry):
    # the benchmark harness imports these; one that src/ no longer has fails
    # every benchmark run
    _, module, *name = entry.split(":")
    mod = importlib.import_module(module)
    if name:
        assert hasattr(mod, name[0]) or importlib.util.find_spec(f"{module}.{name[0]}"), entry
