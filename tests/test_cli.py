import json
import tracemalloc

import numpy as np
import pytest

from conftest import complex_gaussian, unitary_pair
from meskit import (
    Dims,
    SigmaFlag,
    Superoperator,
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


def test_flags_only_where_read(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "sop.json")
    for flag, value in (("--tol", "-5"), ("--samples", "3")):
        code, _, stderr = run_cli(capsys, "gen", flag, value, "--out", out)
        assert code == 2 and "unrecognized arguments" in stderr
    monkeypatch.setenv("MESKIT_TOL", "abc")  # gen takes no --tol, so it ignores MESKIT_TOL
    assert run_cli(capsys, "gen", "--out", out)[0] == 0
    monkeypatch.delenv("MESKIT_TOL")
    for command in ("classify", "extend"):
        code, stdout, stderr = run_cli(capsys, command, out, "--samples", "3")
        assert code == 2 and stdout == "" and "--samples" in stderr


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["classify", "SOP", "--tol", "0"], None, "tol must be positive"),
        (["classify", "SOP", "--tol", "-5"], None, "tol must be positive"),
        (["extend", "SOP", "--tol", "0"], None, "tol must be positive"),
        (["check-lemmas", "--samples", "0"], None, "samples must be >= 1"),
        (["classify", "SOP"], "abc", "could not convert string to float: 'abc'"),
        (["classify", "SOP"], "-1", "tol must be positive"),
        (["check-lemmas", "--tol", "0", "--samples", "0"], "abc", "tol must be positive"),
        (["classify", "SOP", "--tol", "nan"], None, "tol must be finite"),
        (["extend", "SOP", "--tol", "nan"], None, "tol must be finite"),
        (["check-lemmas", "--tol", "inf"], None, "tol must be finite"),
        (["classify", "SOP"], "inf", "tol must be finite"),
        (["check-lemmas"], "nan", "tol must be finite"),
        (["gen", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
        (["check-lemmas", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
    ],
)
def test_invalid_settings_exit_2(argv, env, message, tmp_path, capsys, monkeypatch):
    # checked before the command runs: one error JSON, nothing on stdout, no file
    sop, out = tmp_path / "sop.json", tmp_path / "out.json"
    assert run_cli(capsys, "gen", "--out", str(sop))[0] == 0
    if env is not None:
        monkeypatch.setenv("MESKIT_TOL", env)
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
    matrix, dims = serialize.superoperator_from_obj(json.loads((tmp_path / "swap.json").read_text()))
    assert dims == Dims(m=3, n=3, k=1)
    assert matrix.shape == (81, 81)


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
        phi = make_trace_preserver(pi(random_coisometry(dims, 31)))
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
    phi = Superoperator(*serialize.read_superoperator(str(sop)))
    dec = decompose(phi)
    ext, w = extend(phi, dec.sigma), kron(np.eye(k), kron(dec.U, dec.V))
    worst = 0.0
    for i in range(20):
        rho = pi(random_coisometry(ext.yy_dims, np.random.SeedSequence([7, i]))).matrix
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
    matrix, dims = serialize.superoperator_from_obj(serialize.read_json(str(sop)))
    ext = extend(Superoperator(matrix, dims), SigmaFlag(sigma))
    reference = {
        "base_dims": serialize.dims_to_obj(dims),
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
    code, stdout, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and stdout == ""
    assert json.loads(stderr)["error"] == "FileNotFoundError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sop.json", "sop.truth.json"]


def test_env_var_overrides_default_tol(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--out", out)[0] == 0
    monkeypatch.setenv("MESKIT_TOL", "1e-3")
    code, stdout, _ = run_cli(capsys, "classify", out)
    assert code == 0  # looser gate still classifies cleanly
    monkeypatch.delenv("MESKIT_TOL")


def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
