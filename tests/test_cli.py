import json
import tracemalloc

import numpy as np
import pytest

from conftest import complex_gaussian, unitary_pair
from meskit import (
    DimensionError,
    Dims,
    MESKitError,
    NotInvertibleError,
    NotKroneckerError,
    NotPreserverError,
    NotUnitaryError,
    SigmaFlag,
    Superoperator,
    ZeroOperatorError,
    decompose,
    extend,
    kron,
    make_trace_preserver,
    pi,
    random_coisometry,
    serialize,
)
from meskit.cli import main
from meskit.extension import ExtendedSuperoperator
from meskit.superop import _conjugation_matrix


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


def test_classify_trace_form_exit_4(tmp_path, capsys):
    out = str(tmp_path / "trace.json")
    assert run_cli(capsys, "gen", "--form", "trace", "--out", out)[0] == 0
    code, _, stderr = run_cli(capsys, "classify", out)
    assert code == 4
    assert json.loads(stderr)["error"] == "NotInvertibleError"


def test_extend_auto_sigma_trace_form_exit_4(tmp_path, capsys):
    out = str(tmp_path / "trace.json")
    assert run_cli(capsys, "gen", "--form", "trace", "--out", out)[0] == 0
    code, _, stderr = run_cli(
        capsys, "extend", out, "--sigma", "auto", "--out", str(tmp_path / "ext.json")
    )
    assert code == 4
    assert json.loads(stderr)["error"] == "NotInvertibleError"


def test_extend_failing_report_exit_1(tmp_path, capsys):
    # classify refuses the trace form at recovery, so its forced identity
    # extension reports that refusal; the extension is still written
    out, ext = str(tmp_path / "trace.json"), tmp_path / "ext.json"
    assert run_cli(capsys, "gen", "--form", "trace", "--out", out)[0] == 0
    code, stdout, _ = run_cli(capsys, "extend", out, "--sigma", "identity", "--out", str(ext))
    assert code == 1
    report = json.loads(stdout)
    assert not report["all_pass"] and report["certificate"].startswith("stage recovery: ")
    assert json.loads(ext.read_text())["sigma"] == "identity"


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
        (["classify", "SOP", "--tol", "0"], "tol must be positive"),
        (["classify", "SOP", "--tol", "-5"], "tol must be positive"),
        (["extend", "SOP", "--tol", "0"], "tol must be positive"),
        (["check-lemmas", "--samples", "0"], "samples must be >= 1"),
        (["check-lemmas", "--tol", "0", "--samples", "0"], "tol must be positive"),
        (["classify", "SOP", "--tol", "nan"], "tol must be finite"),
        (["extend", "SOP", "--tol", "nan"], "tol must be finite"),
        (["check-lemmas", "--tol", "inf"], "tol must be finite"),
        (["extend", "SOP", "--tol", "-1"], "tol must be positive"),
        (["classify", "SOP", "--tol", "inf"], "tol must be finite"),
        (["check-lemmas", "--tol", "nan"], "tol must be finite"),
        (["classify", "SOP", "--tol=-inf"], "tol must be positive"),
        (["gen", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["check-lemmas", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
)
def test_invalid_settings_exit_2(argv, message, tmp_path, capsys):
    # checked before the command runs: one error JSON, nothing on stdout, no file
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


def test_classify_random_matrix_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    dims = Dims.from_mk(2, 2)
    mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    path = tmp_path / "random.json"
    serialize.write_json(str(path), serialize.superoperator_to_obj(mat, dims))
    code, _, stderr = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert json.loads(stderr)["error"] == "NotPreserverError"


@pytest.mark.parametrize(
    "error,code",
    [
        (DimensionError, 2),
        (NotPreserverError, 3),
        (NotInvertibleError, 4),
        (NotKroneckerError, 6),
        (MESKitError, 1),
        # a ValueError too, but no verdict: unexpected, not a usage error
        (ZeroOperatorError, 1),
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


def _not_a_superoperator(tmp_path, capsys, kind):
    """A JSON document that is no superoperator object, and the key it misses
    or mistypes."""
    sop, path = tmp_path / "sop.json", tmp_path / f"{kind}.json"
    assert run_cli(capsys, "gen", "--m", "1", "--k", "2", "--out", str(sop))[0] == 0
    if kind == "extend output":
        assert run_cli(capsys, "extend", str(sop), "--out", str(path))[0] == 0
        return path, "dims"
    text = sop.read_text()
    bad, key = {
        "list": ("[" + text.strip() + "]", "dims"),
        "missing n": (text.replace('"n": 2, ', ""), "n"),
        "rows 1e999": (text.replace('"rows": 4', '"rows": 1e999'), "rows"),
    }[kind]
    assert bad != text
    path.write_text(bad)
    return path, key


@pytest.mark.parametrize("command", ["classify", "extend"])
@pytest.mark.parametrize("kind", ["extend output", "list", "missing n", "rows 1e999"])
def test_not_a_superoperator_exit_2_naming_the_key(kind, command, tmp_path, capsys):
    path, key = _not_a_superoperator(tmp_path, capsys, kind)
    out = tmp_path / "out.json"
    code, stdout, stderr = run_cli(capsys, command, str(path), "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    error = json.loads(stderr)  # one error JSON, no traceback
    assert error["error"] == "ValueError" and error["exit_code"] == 2
    assert repr(key) in error["message"]


@pytest.mark.parametrize("command", ["classify", "extend"])
def test_fractional_counts_exit_2(command, tmp_path, capsys):
    # truncating 2.9, 4.5, 2.5 and 64.99 would read a (2,2) map that classify certifies
    sop, path = tmp_path / "sop.json", tmp_path / "fractional.json"
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--out", str(sop))[0] == 0
    text = sop.read_text()
    for count, fraction in [('"m": 2', '"m": 2.9'), ('"n": 4', '"n": 4.5'), ('"k": 2', '"k": 2.5'),
                            ('"rows": 64', '"rows": 64.99')]:
        assert text.count(count) == 1
        text = text.replace(count, fraction)
    path.write_text(text)
    out = tmp_path / "out.json"
    code, stdout, stderr = run_cli(capsys, command, str(path), "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert json.loads(stderr) == {
        "error": "ValueError",
        "message": "the key 'm' must hold an integer, got 2.9",
        "exit_code": 2,
    }


@pytest.mark.parametrize("command", ["classify", "extend"])
def test_wrong_side_exit_2(command, tmp_path, capsys):
    path = tmp_path / "side.json"
    obj = serialize.superoperator_to_obj(np.eye(9, dtype=complex), Dims.from_mk(1, 2))
    serialize.write_json(str(path), obj)
    code, stdout, stderr = run_cli(capsys, command, str(path), "--out", str(tmp_path / "out.json"))
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {
        "error": "DimensionError",
        "message": "superoperator for dims Dims(m=1, n=2) must be 4x4, got (9, 9)",
        "exit_code": 2,
    }


@pytest.mark.parametrize("command", ["classify", "extend"])
def test_missing_input_is_named(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, command, "nonexist.json")
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {
        "error": "FileNotFoundError",
        "message": "[Errno 2] No such file or directory: 'nonexist.json'",
        "exit_code": 2,
    }


def test_classify_parse_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "classify", str(path))
    assert code == 2


def test_classify_ragged_data_exit_2(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    obj = serialize.superoperator_to_obj(np.eye(16, dtype=complex), Dims.from_mk(1, 2))
    obj["matrix"]["data"] = [[0.0, 0.0]] * 255 + [[0.0]]
    path.write_text(json.dumps(obj))
    code, stdout, stderr = run_cli(capsys, "classify", str(path))
    assert code == 2 and stdout == ""
    error = json.loads(stderr)  # one error JSON, no traceback
    assert error["error"] == "ValueError" and error["exit_code"] == 2


def test_classify_single_block_out_of_scope(tmp_path, capsys):
    out = str(tmp_path / "square.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "1", "--form", "adjoint", "--out", out)[0] == 0
    code, _, stderr = run_cli(capsys, "classify", out)
    assert code == 2
    assert json.loads(stderr)["error"] == "DimensionError"


def test_classify_block_count_must_match_the_shape(tmp_path, capsys):
    # k is derived from (m, n), so a file whose "k" disagrees is refused on reading
    path = tmp_path / "k.json"
    obj = serialize.superoperator_to_obj(np.eye(64, dtype=complex), Dims.from_mk(2, 2))
    obj["dims"]["k"] = 3
    serialize.write_json(str(path), obj)
    code, stdout, stderr = run_cli(capsys, "classify", str(path))
    assert code == 2 and stdout == ""
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
    U (x) V plus Frobenius-normalised noise ``eps`` (a conjugation that is
    not a Kronecker product once ``eps`` > 0), or, for the "noisy" form,
    Ad_{U (x) V} o sigma plus noise ``eps`` on the map's matrix."""
    if form == "trace":
        phi = make_trace_preserver(pi(random_coisometry(dims, 31)), dims)
    elif form == "noisy":
        exact = _conjugation_matrix(kron(*unitary_pair(dims, 31)), sigma)
        g = complex_gaussian(np.random.default_rng(31), *exact.shape)
        phi = Superoperator(exact + eps * np.linalg.norm(exact) * g / np.linalg.norm(g), dims)
    else:
        u, v = unitary_pair(dims, 31)
        g = complex_gaussian(np.random.default_rng(31), dims.mn, dims.mn)
        a, _, b = np.linalg.svd(kron(u, v) + eps * g / np.linalg.norm(g))
        phi = Superoperator(_conjugation_matrix(a @ b, sigma), dims)
    serialize.write_json(str(path), serialize.superoperator_to_obj(phi.matrix, dims))


@pytest.mark.parametrize("requested", ["auto", "identity", "transpose"])
@pytest.mark.parametrize(
    "form,mk,sigma,eps,code",
    [("trace", (2, 2), SigmaFlag.IDENTITY, 0.0, 4)]
    + [
        ("adjoint", (2, 2), sigma, eps, code)
        for sigma in SigmaFlag
        for eps, code in ((0.0, 0), (3e-9, 6))
    ]
    # certifies below 1e-6 but not below 5 tol
    + [("noisy", (1, 2), sigma, 3e-8, 3) for sigma in SigmaFlag]
    # certifies below 5 tol, with a Kronecker residual above tol
    + [("noisy", (2, 2), sigma, 2.5e-9, 6) for sigma in SigmaFlag],
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
            assert json.loads(extended[2])["error"] == json.loads(classified[2])["error"]
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
    _write_map(sop, dims, sigma, 1e-9)
    code, stdout, _ = run_cli(capsys, "extend", str(sop), "--out", str(tmp_path / "ext.json"))
    assert code == 0
    bound = json.loads(stdout)["certificate"]
    phi = serialize.read_superoperator(str(sop))
    dec = decompose(phi)
    ext, w = extend(phi, dec.sigma), kron(np.eye(k), kron(dec.U, dec.V))
    worst = 0.0
    for i in range(20):
        rho = pi(random_coisometry(ext.yy_dims, np.random.SeedSequence([7, i])))
        target = w @ (rho.T if sigma is SigmaFlag.TRANSPOSE else rho) @ w.conj().T
        worst = max(worst, np.linalg.norm(ext.apply_to(rho) - target))
    assert 0.0 < worst <= bound < 1e-9


@pytest.mark.parametrize("m,k", [(2, 2), (1, 3)])
@pytest.mark.parametrize("sigma", ["identity", "transpose"])
def test_extend_file_matches_dense_reference(m, k, sigma, tmp_path, capsys, monkeypatch):
    # the file is streamed in row slabs, never from the dense matrix, yet its
    # bytes are those of the dense matrix written whole
    sop, out = tmp_path / "sop.json", tmp_path / "ext.json"
    gen = ["gen", "--m", str(m), "--k", str(k), "--sigma", sigma, "--seed", "4", "--out", str(sop)]
    assert run_cli(capsys, *gen)[0] == 0
    phi = serialize.superoperator_from_obj(serialize.read_json(str(sop)))
    ext = extend(phi, SigmaFlag(sigma))
    reference = {
        "base_dims": serialize.dims_to_obj(phi.dims),
        "sigma": sigma,
        "matrix": serialize.matrix_to_obj(ext.matrix),
    }

    def refuse(self):
        raise AssertionError("the dense extension matrix was built")

    monkeypatch.setattr(ExtendedSuperoperator, "matrix", property(refuse))
    assert run_cli(capsys, "extend", str(sop), "--sigma", sigma, "--out", str(out))[0] == 0
    assert out.read_text() == serialize.dumps(reference) + "\n"


def test_extend_peak_memory_below_the_dense_matrix(tmp_path, capsys):
    # at (2,3), n = 6: the dense n^4 x n^4 extension would be 16 n^8 = 26.9 MB
    sop, out = str(tmp_path / "sop.json"), str(tmp_path / "ext.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "3", "--out", sop)[0] == 0
    tracemalloc.start()
    try:
        code = main(["extend", sop, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


def test_check_lemmas_passes_at_default_dims(capsys):
    code, stdout, _ = run_cli(capsys, "check-lemmas", "--m", "2", "--k", "2", "--samples", "5")
    assert code == 0
    report = json.loads(stdout)
    assert report["all_pass"]
    assert len(report["checks"]) == 11
    assert all(c["max_residual"] < 1e-9 for c in report["checks"])


def test_check_lemmas_passes_at_bigger_dims(capsys):
    code, stdout, _ = run_cli(capsys, "check-lemmas", "--m", "3", "--k", "2", "--samples", "3")
    assert code == 0
    assert json.loads(stdout)["all_pass"]


@pytest.mark.parametrize("k", ["2", "3"])
def test_check_lemmas_passes_with_single_row_coisometries(k, capsys):
    # at m = 1 every coisometry is one unit row
    code, stdout, _ = run_cli(capsys, "check-lemmas", "--m", "1", "--k", k, "--samples", "5")
    assert code == 0
    report = json.loads(stdout)
    assert report["all_pass"] and report["dims"] == {"m": 1, "n": int(k), "k": int(k)}


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
