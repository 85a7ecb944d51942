import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from meskit import (
    DimensionError,
    Dims,
    MESKitError,
    NotInvertibleError,
    NotPreserverError,
    NotUnitaryError,
    SigmaFlag,
    Superoperator,
    ZeroOperatorError,
    decompose,
    kron,
    make_adjoint_preserver,
    make_trace_preserver,
    pi,
    random_coisometry,
    serialize,
)
from meskit.cli import main
from meskit.extension import ExtendedSuperoperator
from meskit.tensor import perturb, unitary_pair
from conftest import REFUSED, dense_extension, nonkron_conjugation, peak_traced_bytes, refused_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_classify_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    code, stdout, _ = run_cli(
        capsys, "gen", "--m", "2", "--k", "2", "--sigma", "transpose", "--form", "adjoint",
        "--out", out, "--seed", "3",
    )
    assert code == 0
    paths = json.loads(stdout)
    truth = json.loads((tmp_path / "sop.truth.json").read_text())
    assert truth["sigma"] == "transpose" and paths["superop"] == out

    code, stdout, _ = run_cli(capsys, "classify", out)
    assert code == 0
    dec = json.loads(stdout)
    assert dec["sigma"] == "transpose"
    assert dec["kron_residual"] < 1e-9 and dec["verification_residual"] < 1e-9
    u = serialize.matrix_from_obj(dec["U"])
    v = serialize.matrix_from_obj(dec["V"])
    w = kron(u, v)
    w_true = kron(
        serialize.matrix_from_obj(truth["U"]), serialize.matrix_from_obj(truth["V"])
    )
    overlap = np.vdot(w.reshape(-1), w_true.reshape(-1))
    assert np.linalg.norm(w * overlap / abs(overlap) - w_true) < 1e-7


@pytest.mark.parametrize("form,mk", [("adjoint", (1, 2)), ("trace", (1, 2)), ("swap", (2, 1))])
def test_gen_draws_from_its_seed_path(form, mk, tmp_path, capsys):
    # every gen file, and the benchmark's gate, rely on this path: (U, V) from
    # unitary_pair(dims, seed, 41), rho from [seed, 41, 2]
    dims, out = Dims.from_mk(*mk), str(tmp_path / "sop.json")
    argv = ["--m", str(mk[0]), "--k", str(mk[1]), "--form", form, "--seed", "8", "--out", out]
    assert run_cli(capsys, "gen", *argv)[0] == 0
    truth = json.loads((tmp_path / "sop.truth.json").read_text())
    if form == "trace":
        expected = {"rho": pi(random_coisometry(dims, np.random.SeedSequence([8, 41, 2])))}
    else:
        expected = dict(zip("UV", unitary_pair(dims, 8, 41)))
    for key, matrix in expected.items():
        assert serialize.matrix_from_obj(truth[key]).tobytes() == matrix.tobytes(), key


def test_gen_is_byte_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--seed", "9", "--out", out1)[0] == 0
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--seed", "9", "--out", out2)[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()


def test_classify_stdout_is_deterministic(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--seed", "13", "--out", out)[0] == 0
    first = run_cli(capsys, "classify", out)
    second = run_cli(capsys, "classify", out)
    assert first == second


def test_flags_only_where_read(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    for flag, value in (("--tol", "-5"), ("--samples", "3")):
        code, _, stderr = run_cli(capsys, "gen", flag, value, "--out", out)
        assert code == 2 and "unrecognized arguments" in stderr
    assert run_cli(capsys, "gen", "--out", out)[0] == 0
    for command in ("classify", "extend"):
        code, stdout, stderr = run_cli(capsys, command, out, "--samples", "3")
        assert code == 2 and stdout == "" and "--samples" in stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        (["classify", "SOP", "--tol", "0"], "tol must be finite and positive, got 0.0"),
        (["classify", "SOP", "--tol", "-5"], "tol must be finite and positive, got -5.0"),
        (["extend", "SOP", "--tol", "0"], "tol must be finite and positive, got 0.0"),
        (["check-lemmas", "--samples", "0"], "samples must be >= 1"),
        (["check-lemmas", "--tol", "0", "--samples", "0"], "tol must be finite and positive, got 0.0"),
        (["classify", "SOP", "--tol", "nan"], "tol must be finite and positive, got nan"),
        (["extend", "SOP", "--tol", "nan"], "tol must be finite and positive, got nan"),
        (["check-lemmas", "--tol", "inf"], "tol must be finite and positive, got inf"),
        (["extend", "SOP", "--tol", "-1"], "tol must be finite and positive, got -1.0"),
        (["classify", "SOP", "--tol", "inf"], "tol must be finite and positive, got inf"),
        (["check-lemmas", "--tol", "nan"], "tol must be finite and positive, got nan"),
        (["classify", "SOP", "--tol=-inf"], "tol must be finite and positive, got -inf"),
        (["gen", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["check-lemmas", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
)
def test_invalid_settings_exit_2(argv, message, tmp_path, capsys):
    # refused before any file is read or any check runs: one error JSON, nothing
    # on stdout, no file; a bad tol gets tensor.check_tol's text
    sop, out = tmp_path / "sop.json", tmp_path / "out.json"
    assert run_cli(capsys, "gen", "--out", str(sop))[0] == 0
    argv = [str(sop) if a == "SOP" else a for a in argv]
    if argv[0] != "check-lemmas":
        argv += ["--out", str(out)]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2 and stdout == "" and not out.exists()
    expected = {"error": "ValueError", "message": message, "exit_code": 2}
    assert stderr == serialize.dumps(expected) + "\n"


@pytest.mark.parametrize("command", ["classify", "extend"])
def test_seed_only_where_drawn(command, tmp_path, capsys):
    # classify and extend draw no random number, so they take no --seed
    sop = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--out", sop)[0] == 0
    code, stdout, stderr = run_cli(capsys, command, sop, "--seed", "1")
    assert code == 2 and stdout == "" and "--seed" in stderr


@pytest.mark.parametrize(
    "error,code",
    [
        (DimensionError, 2),
        (NotPreserverError, 3),
        (NotInvertibleError, 4),
        (MESKitError, 1),
        # a ValueError too, but no verdict: unexpected, not a usage error
        (ZeroOperatorError, 1),
        (np.linalg.LinAlgError, 1),
        # an allocation failure: an error JSON, not a stack trace
        (MemoryError, 1),
    ],
)
def test_each_refusal_exits_with_its_documented_code(error, code, tmp_path, capsys, monkeypatch):
    sop, ext = str(tmp_path / "sop.json"), tmp_path / "ext.json"
    assert run_cli(capsys, "gen", "--out", sop)[0] == 0

    def refuse(phi, tol):
        raise error("stage test: refused")

    monkeypatch.setattr("meskit.cli.decompose", refuse)
    for argv in (["classify", sop], ["extend", sop, "--out", str(ext)]):
        assert run_cli(capsys, *argv) == (
            code,
            "",
            serialize.dumps(
                {"error": error.__name__, "message": "stage test: refused", "exit_code": code}
            ) + "\n",
        )
    assert not ext.exists()


@pytest.mark.parametrize(
    "argv,target",
    [
        (["gen", "--out", "OUT"], "meskit.cli.make_adjoint_preserver"),
        (["check-lemmas", "--samples", "1"], "meskit.lemmas.run_all"),
    ],
    ids=["gen", "check-lemmas"],
)
def test_non_verdict_error_exits_1_from_every_command(argv, target, tmp_path, capsys, monkeypatch):
    # as under classify: a package error that is no verdict is unexpected (exit 1),
    # though NotUnitaryError is also a ValueError (exit 2)
    def refuse(*args, **kwargs):
        raise NotUnitaryError("broken")

    monkeypatch.setattr(target, refuse)
    argv = [str(tmp_path / "sop.json") if a == "OUT" else a for a in argv]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert json.loads(stderr) == {"error": "NotUnitaryError", "message": "broken", "exit_code": 1}


@pytest.mark.parametrize("command", ["classify", "extend"])
@pytest.mark.parametrize("kind", REFUSED)
def test_refused_input_exits_2_naming_the_file(kind, command, tmp_path, capsys):
    # one error JSON of the whole-document reader's type, its text after the
    # path (an OSError's own text names it), nothing on stdout, no --out file
    path, want = refused_file(tmp_path, kind)
    out = tmp_path / "out.json"
    code, stdout, stderr = run_cli(capsys, command, path, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    message = str(want) if isinstance(want, OSError) else f"{path}: {want}"
    assert stderr == serialize.dumps({"error": type(want).__name__, "message": message, "exit_code": 2}) + "\n"


@pytest.mark.parametrize("command", ["gen", "classify", "extend"])
def test_unwritable_out_exit_2(command, tmp_path, capsys):
    source = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--m", "1", "--k", "2", "--out", source)[0] == 0
    argv = ["gen", "--m", "1", "--k", "2"] if command == "gen" else [command, source]
    out = str(tmp_path / "missing" / "x.json")
    code, stdout, stderr = run_cli(capsys, *argv, "--out", out)
    assert code == 2 and stdout == ""
    error = json.loads(stderr)
    assert error["error"] == "FileNotFoundError" and error["message"].endswith(f": {out!r}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sop.json", "sop.truth.json"]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # a reader that leaves before the report is written, as `| head -c 10` may:
    # buffered, the report fails at main's flush; unbuffered, at its print
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        out = subprocess.run(
            [sys.executable, "-m", "meskit.cli", "check-lemmas", "--m", "1", "--k", "2", "--samples", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert out.returncode == 1, out.stderr
    assert out.stderr == ""  # no error JSON, no Traceback, no "Exception ignored"


def test_a_run_that_writes_no_matrix_does_not_import_the_float_kernel():
    # the kernel builds its tables at import, a few ms that only a process
    # writing a matrix should pay: not check-lemmas, a refusal or --help
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, meskit.cli; meskit.cli.main(['check-lemmas', '--m', '1', '--k', '2', '--samples', '2']); "
        "sys.stderr.write(str('meskit._float_kernel' in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stderr == "False"


def test_out_fifo_closed_by_its_reader_exit_2(tmp_path, capsys):
    source = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--out", source)[0] == 0
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def read_one_byte():
        with open(fifo, "rb") as handle:
            handle.read(1)

    reader = threading.Thread(target=read_one_byte, daemon=True)
    reader.start()
    code, stdout, stderr = run_cli(capsys, "extend", source, "--out", fifo)
    assert code == 2 and stdout == ""  # before the join: a replaced FIFO has no writer
    reader.join(timeout=60)
    error = json.loads(stderr)
    assert error["error"] == "BrokenPipeError" and error["message"].endswith(f": {fifo!r}")


def test_classify_single_block_out_of_scope(tmp_path, capsys):
    out = str(tmp_path / "square.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "1", "--form", "adjoint", "--out", out)[0] == 0
    code, _, stderr = run_cli(capsys, "classify", out)
    assert code == 2
    assert json.loads(stderr)["error"] == "DimensionError"


def test_extend_explicit_sigma_single_block_exit_2(tmp_path, capsys):
    out = str(tmp_path / "swap.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "1", "--form", "swap", "--out", out)[0] == 0
    ext_out = tmp_path / "ext.json"
    code, stdout, stderr = run_cli(capsys, "extend", out, "--sigma", "identity", "--out", str(ext_out))
    assert code == 2 and stdout == "" and "Traceback" not in stderr
    error = json.loads(stderr)  # one error JSON
    assert error["error"] == "DimensionError" and error["exit_code"] == 2
    assert not ext_out.exists()


def test_gen_swap_requires_square_space(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "gen", "--m", "2", "--k", "2", "--form", "swap",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "square" in json.loads(stderr)["message"]


def test_gen_swap_square_space_ok(tmp_path, capsys):
    out = str(tmp_path / "swap.json")
    code, _, _ = run_cli(capsys, "gen", "--m", "3", "--k", "1", "--form", "swap", "--out", out)
    assert code == 0
    phi = serialize.superoperator_from_obj(json.loads((tmp_path / "swap.json").read_text()))
    assert phi.dims == Dims(3, 3)
    assert phi.matrix.shape == (81, 81)


def test_extend_reports_the_certificate(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    assert run_cli(
        capsys, "gen", "--m", "2", "--k", "2", "--sigma", "identity", "--out", out, "--seed", "5"
    )[0] == 0
    ext_out = str(tmp_path / "ext.json")
    code, stdout, _ = run_cli(capsys, "extend", out, "--out", ext_out)
    assert code == 0
    report = json.loads(stdout)
    assert list(report) == ["sigma", "dims", "certificate", "tol", "all_pass"]
    assert report["sigma"] == "identity" and report["all_pass"]
    # the certificate is classify's span residual
    dec = json.loads(run_cli(capsys, "classify", out)[1])
    assert report["certificate"] == dec["verification_residual"] < 1e-9
    ext_obj = json.loads((tmp_path / "ext.json").read_text())
    assert ext_obj["sigma"] == "identity"
    matrix = serialize.matrix_from_obj(ext_obj["matrix"])
    assert matrix.shape == (256, 256)


def _write_map(path, dims, sigma, eps=0.0, form="adjoint"):
    """Write a trace form, Ad_W o sigma with W the unitary nearest to
    ``perturb(U (x) V, eps)`` (a conjugation that is not a Kronecker product
    once ``eps`` > 0), or, for the "noisy" form, ``perturb`` of the matrix of
    Ad_{U (x) V} o sigma."""
    rng = np.random.default_rng(31)
    if form == "trace":
        phi = make_trace_preserver(pi(random_coisometry(dims, 31)), dims)
    elif form == "noisy":
        exact = make_adjoint_preserver(*unitary_pair(dims, 31), sigma)
        phi = Superoperator(perturb(exact.matrix, eps, rng), dims)
    else:
        phi = nonkron_conjugation(*unitary_pair(dims, 31), sigma, eps, rng)
    serialize.write_json(str(path), serialize.superoperator_to_obj(phi.matrix, dims))


@pytest.mark.parametrize("requested", ["auto", "identity", "transpose"])
@pytest.mark.parametrize(
    "form,mk,sigma,eps,code",
    [("trace", (2, 2), SigmaFlag.IDENTITY, 0.0, 4)]
    + [
        ("adjoint", (2, 2), sigma, eps, 0)
        for sigma in SigmaFlag
        # noise of Frobenius norm 3e-9 on U (x) V, whose norm is sqrt(8): no
        # Kronecker product, but certified below 5 tol
        for eps in (0.0, 3e-9 / 8**0.5)
    ]
    # certifies below 1e-6 but not below 5 tol
    + [("noisy", (1, 2), sigma, 3e-8, 3) for sigma in SigmaFlag]
    # certifies below 5 tol, with a Kronecker residual above tol
    + [("noisy", (2, 2), sigma, 2.5e-9, 0) for sigma in SigmaFlag],
)
def test_extend_auto_agrees_with_classify(form, mk, sigma, eps, code, requested, tmp_path, capsys):
    # one decision for both commands: under auto the same exit code and error type,
    # under an explicit sigma a pass exactly when classify accepts with that sigma
    sop, ext = tmp_path / "sop.json", tmp_path / "ext.json"
    _write_map(sop, Dims.from_mk(*mk), sigma, eps, form)
    classified = run_cli(capsys, "classify", str(sop))
    extended = run_cli(capsys, "extend", str(sop), "--sigma", requested, "--out", str(ext))
    assert classified[0] == code
    if requested == "auto":
        assert extended[0] == code
        if code:
            assert extended[2] == classified[2]  # the same error JSON
            assert extended[1] == "" and not ext.exists()
        else:
            assert json.loads(extended[1])["sigma"] == json.loads(classified[1])["sigma"]
            assert json.loads(extended[1])["sigma"] == sigma.value
        return
    report = json.loads(extended[1])
    accepted = code == 0 and sigma.value == requested
    assert extended[0] == (0 if accepted else 1) and report["all_pass"] is accepted
    assert report["sigma"] == json.loads(ext.read_text())["sigma"] == requested
    if accepted:
        assert report["certificate"] == json.loads(classified[1])["verification_residual"]
    elif code:
        assert report["certificate"] == json.loads(classified[2])["message"]
    else:
        assert report["certificate"] == f"stage sigma: certified as {sigma.value}, not {requested}"


@pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_extend_certificate_bounds_every_mes(m, k, sigma, tmp_path, capsys):
    # each block of an MES of Y (x) Y lies in span(MES), so the certificate bounds
    # the extension's distance from Ad_{I_k (x) U (x) V} o sigma on MES of Y (x) Y
    dims, sop = Dims.from_mk(m, k), tmp_path / "sop.json"
    _write_map(sop, dims, sigma, 1e-9 / dims.mn**0.5)  # Frobenius norm 1e-9 on U (x) V
    code, stdout, _ = run_cli(capsys, "extend", str(sop), "--out", str(tmp_path / "ext.json"))
    assert code == 0
    bound = json.loads(stdout)["certificate"]
    phi = serialize.read_superoperator(str(sop))
    dec = decompose(phi)
    ext, w = ExtendedSuperoperator(phi, dec.sigma), kron(np.eye(k), kron(dec.U, dec.V))
    worst = 0.0
    for i in range(20):
        rho = pi(random_coisometry(ext.dims, np.random.SeedSequence([7, i])))
        target = w @ (rho.T if sigma is SigmaFlag.TRANSPOSE else rho) @ w.conj().T
        worst = max(worst, np.linalg.norm(ext.apply_to(rho) - target))
    assert 0.0 < worst <= bound < 1e-9


@pytest.mark.parametrize("m,k", [(2, 2), (1, 3)])
@pytest.mark.parametrize("sigma", ["identity", "transpose"])
def test_extend_file_matches_dense_reference(m, k, sigma, tmp_path, capsys):
    # the file is streamed in row slabs, yet its bytes are those of the dense
    # matrix written whole
    sop, out = tmp_path / "sop.json", tmp_path / "ext.json"
    gen = ["gen", "--m", str(m), "--k", str(k), "--sigma", sigma, "--seed", "4", "--out", str(sop)]
    assert run_cli(capsys, *gen)[0] == 0
    phi = serialize.superoperator_from_obj(serialize.read_json(str(sop)))
    ext = ExtendedSuperoperator(phi, SigmaFlag(sigma))
    reference = {
        "base_dims": serialize.dims_to_obj(phi.dims),
        "sigma": sigma,
        "matrix": serialize.matrix_to_obj(dense_extension(ext)),
    }
    assert run_cli(capsys, "extend", str(sop), "--sigma", sigma, "--out", str(out))[0] == 0
    assert out.read_text() == serialize.dumps(reference) + "\n"


def test_extend_peak_memory_below_the_dense_matrix(tmp_path, capsys):
    # at (2,3), n = 6: the dense n^4 x n^4 extension would be 16 n^8 = 26.9 MB
    sop, out = str(tmp_path / "sop.json"), str(tmp_path / "ext.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "3", "--out", sop)[0] == 0
    code, peak = peak_traced_bytes(lambda: main(["extend", sop, "--out", out]))
    assert code == 0
    assert peak < 16 * 6**8 / 4


def test_extend_identity_superop_is_identity_extension(tmp_path, capsys):
    dims = Dims.from_mk(2, 2)
    path = tmp_path / "id.json"
    serialize.write_json(
        str(path), serialize.superoperator_to_obj(np.eye(64, dtype=complex), dims)
    )
    code, stdout, _ = run_cli(capsys, "extend", str(path), "--out", str(tmp_path / "ide.json"))
    assert code == 0
    ext_obj = json.loads((tmp_path / "ide.json").read_text())
    np.testing.assert_allclose(
        serialize.matrix_from_obj(ext_obj["matrix"]), np.eye(256), atol=1e-12
    )


@pytest.mark.parametrize(
    "m,k,samples",
    # at m = 1 every coisometry is one unit row
    [(2, 2, 5), (3, 2, 3), (1, 2, 5), (1, 3, 5)],
    ids=["at_default_dims", "at_bigger_dims", "with_single_row_coisometries_k2", "with_single_row_coisometries_k3"],
)
def test_check_lemmas_passes(m, k, samples, capsys):
    code, stdout, _ = run_cli(capsys, "check-lemmas", "--m", str(m), "--k", str(k), "--samples", str(samples))
    report = json.loads(stdout)
    assert code == 0 and report["all_pass"] and report["dims"] == {"m": m, "n": m * k, "k": k}
    assert len(report["checks"]) == 11 and all(c["max_residual"] < 1e-9 for c in report["checks"])


def test_check_lemmas_reports_tolerance_floor(capsys):
    code, stdout, _ = run_cli(
        capsys, "check-lemmas", "--m", "2", "--k", "2", "--samples", "3", "--tol", "1e-17"
    )
    assert code == 1  # below the numerical noise floor: clean failure report
    report = json.loads(stdout)
    assert not report["all_pass"]


@pytest.mark.parametrize("m", ["1", "2"])
def test_check_lemmas_single_block_exit_2(m, capsys):
    code, stdout, stderr = run_cli(capsys, "check-lemmas", "--m", m, "--k", "1", "--samples", "1")
    assert code == 2 and stdout == ""
    error = json.loads(stderr)  # one error JSON, no traceback
    assert error["error"] == "DimensionError" and "k >= 2" in error["message"]


def test_tol_flag_overrides_default_tol(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--out", out)[0] == 0
    code, stdout, _ = run_cli(capsys, "classify", out, "--tol", "1e-3")
    assert code == 0  # looser gate still classifies cleanly


def test_classify_ignores_meskit_tol(tmp_path, capsys, monkeypatch):
    # --tol is the one source of the tolerance: the environment does not set it
    out = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--out", out)[0] == 0
    expected = run_cli(capsys, "classify", out)
    assert expected[0] == 0
    monkeypatch.setenv("MESKIT_TOL", "abc")
    assert run_cli(capsys, "classify", out) == expected


def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
