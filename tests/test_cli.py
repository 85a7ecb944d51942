import json

import numpy as np

from meskit import Dims, kron, serialize
from meskit.cli import main


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

    code, stdout, _ = run_cli(capsys, "classify", out, "--seed", "1")
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
    first = run_cli(capsys, "classify", out, "--seed", "2")
    second = run_cli(capsys, "classify", out, "--seed", "2")
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
    # the trace form is not a conjugation, so its forced identity extension fails the report
    out = str(tmp_path / "trace.json")
    assert run_cli(capsys, "gen", "--form", "trace", "--out", out)[0] == 0
    code, stdout, _ = run_cli(
        capsys, "extend", out, "--sigma", "identity", "--out", str(tmp_path / "ext.json")
    )
    assert code == 1
    report = json.loads(stdout)
    assert not report["all_pass"] and not report["mes_preservation"]["pass"]


def test_flags_only_where_read(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    for flag, value in (("--tol", "-5"), ("--samples", "3")):
        code, _, stderr = run_cli(capsys, "gen", flag, value, "--out", out)
        assert code == 2 and "unrecognized arguments" in stderr
    assert run_cli(capsys, "gen", "--out", out)[0] == 0
    code, stdout, stderr = run_cli(capsys, "classify", out, "--samples", "3")
    assert code == 2 and stdout == "" and "--samples" in stderr


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


def test_extend_reports_commutation(tmp_path, capsys):
    out = str(tmp_path / "sop.json")
    assert run_cli(
        capsys, "gen", "--m", "2", "--k", "2", "--sigma", "identity", "--out", out, "--seed", "5"
    )[0] == 0
    ext_out = str(tmp_path / "ext.json")
    code, stdout, _ = run_cli(capsys, "extend", out, "--out", ext_out)
    assert code == 0
    report = json.loads(stdout)
    assert report["sigma"] == "identity"
    assert report["all_pass"]
    assert {c["operator"] for c in report["commutation"]} == {"P1xI", "P2xI", "Q12"}
    assert all(c["max_residual"] < 1e-9 for c in report["commutation"])
    ext_obj = json.loads((tmp_path / "ext.json").read_text())
    assert ext_obj["sigma"] == "identity"
    matrix = serialize.matrix_from_obj(ext_obj["matrix"])
    assert matrix.shape == (256, 256)


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


def test_env_var_overrides_default_tol(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "sop.json")
    assert run_cli(capsys, "gen", "--m", "2", "--k", "2", "--out", out)[0] == 0
    monkeypatch.setenv("MESKIT_TOL", "1e-3")
    code, stdout, _ = run_cli(capsys, "classify", out)
    assert code == 0  # looser gate still classifies cleanly
    monkeypatch.delenv("MESKIT_TOL")


def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
