"""The CLI's output bytes, pinned by SHA-256 digest.

At (1,2) and (2,2), the dims whose outputs CI also compares byte for byte
under one and two BLAS threads (from (2,3) up the last digits of ``classify``'s
and ``extend``'s stdout differ): ``gen``'s superoperator and truth files,
``classify``'s stdout and ``extend --sigma auto``'s stdout and file, both
sigma, one seed each; and ``classify``'s exit code and stderr on a (2,2)
trace-form file.  Beyond these, the outputs CI compares the same way: the
files of ``gen --m 3 --k 2 --sigma transpose --seed 8`` and of ``extend
--sigma auto`` on it, of the (3,2) trace form and of the (2,1) switch form;
and ``check-lemmas``' stdout at (2,3) and (3,2) with ``--seed 1``, and at
(1,2), (2,3), (3,2), (3,3) and (4,2) with the default seed.  A cross-thread
comparison cannot see a change that moves both runs alike; these digests do.
A change that moves one of these outputs on purpose takes the new digests
from ``pytest -vv`` on this file, updates ``DIGESTS``, ``TRACE_STDERR``,
``GEN_FILES``, ``LEMMAS`` or ``LEMMAS_DEFAULT_SEED``, and names the change in
CHANGES.md.
"""

import hashlib

import pytest

from meskit.cli import main

# (m, k, sigma, seed): each output's SHA-256
DIGESTS = {
    (1, 2, "identity", 3): {
        "superop": "947956b0f872811dd13441713a676b2a2f995dcf07683792e3149d4ce8a4ad83",
        "truth": "a84681434115d5d6e995c0f508abf48c3756edc37c93d93a5dbd7441172112e2",
        "classify": "6644926bc53f42a78d3bd508624e438539f8bf5c307ec008468413f50465d4b5",
        "extend": "c166823269dc63c938b070dc7507b6d6c8d960d67095d8d239f8f997857c734a",
        "extended": "c43f2cd0e8d229db3dbe6ee14069094606f5653a32174f89f8fc2d3f943ad5f5",
    },
    (1, 2, "transpose", 8): {
        "superop": "8e89af8d2a5e226e237c446f7bca9dc469d9b6b5c79e93685559af2f7a36b879",
        "truth": "30d839b79007f655ebcfd828a94744a1adbc2f2560c16fae22b6891642a9a5ec",
        "classify": "9ab47adeaaff838394ba97bfc167433b6894e68547242d5653f4efbd4bf8cec1",
        "extend": "c99031736e54e1edaf34ffd6c83f5115329fc3f50ad9ba741270e18e13291fd9",
        "extended": "6dcdd861e6d2618edc94daa846082b4ffba09479b30db37572c8feffdbb5781e",
    },
    (2, 2, "identity", 0): {
        "superop": "556c305bc9fc173241cb14a821943b5a787544d49902d432e3396d66d3797784",
        "truth": "8a1bfc25411240c90855d127217b5521edcc7aec0fcb602d1194417493b097c5",
        "classify": "d26c72576edf93fffb821a6a73d1db6ba10a0307919740dfd9e339208884aa35",
        "extend": "c25dc7b99ddb9631ed781390b65c8c49b400ffdf0f04394a96d747a91135ab32",
        "extended": "548a7c4eac06d96b4c4c4064db6004edeb6b85fb38239753e1be439b8089dfbf",
    },
    (2, 2, "transpose", 5): {
        "superop": "c333efdebf9588e597be382cdf0420009380dbb227b24a21675cca6932da0334",
        "truth": "15f7ad26e11eb299b13fbcb5a696ae6c73212a87c7dd975c4fb17aeb0be62cb0",
        "classify": "07172b95620888459abefb764c27322e0074958689fd058b865cc29d30c20f15",
        "extend": "611a08b68ed435fd9bdd85e829a98b5afe9c8a0913ad730c04ba62e4d98c3f48",
        "extended": "f28620d3a14bcc3f0b073d10fb2d9f67f666596ae72348199ad212028bb510c3",
    },
}
TRACE_STDERR = "de4b532aafc04a502e4b8e03820faf0eefdf7325ec798cc3de18baf54dc46e16"
# (form, m, k, sigma, seed) of gen: the SHA-256 of its files and, for the adjoint form, extend's file
GEN_FILES = {
    ("adjoint", 3, 2, "transpose", 8): {
        "superop": "8fc174c890966558fa6ed4f56b1177f693ebb5f7505f96423489a49cb94084fd",
        "truth": "97948819e8726fed336f0fb212cf00dbedc3591928f570b10f7503714ebaa93b",
        "extended": "257b325176003509a435ccae4153c7adb18f646a530844e65f549076fa483853",
    },
    ("swap", 2, 1, "identity", 0): {
        "superop": "5b24d6c4bb26eb7449fd1eb1695f12c50353c0fd34f6b4f7b9172235689b6efe",
        "truth": "7c09e9a92675736f4553c197ff1d6d120c4c9962bc37f52f128a023e0f8be65b",
    },
    ("trace", 3, 2, "identity", 0): {
        "superop": "45fd2b0bfe9fb762b0da840e56457c7c30172c48a01851df9e219a1bcb17e048",
        "truth": "1d3e720d13b7ea19120e21927bdcbd4131e5e258f5a8c525d60e5d72ecb04646",
    },
}
# (m, k) of check-lemmas --seed 1, 20 samples: its stdout's SHA-256
LEMMAS = {
    (2, 3): "f012670ed28a1fd319cac75c08774280c74a6752a21dbcc576b095d03324d4e4",
    (3, 2): "3e5121341de65795fa4b6e2ffdb630e8eb60a8f4efe927d7ddd426f3261971de",
}
# (m, k) of check-lemmas at the default seed, 20 samples: its stdout's SHA-256
LEMMAS_DEFAULT_SEED = {
    (1, 2): "0ca4931d2154de79714529ef95916f6972c55c1a2bc08f98564ffd1b3ca2452c",
    (2, 3): "756cbcecbb7775433300653f4f1cb87cb234d7206f30419d38876b29b6c5a558",
    (3, 2): "0cc5a36617fa97ad9e0d3cda0a667991a7b1ba5873943e1d5f02d44bb0b012e1",
    (3, 3): "dfaab70dc458eadd9baed2e33c6eeff93ab99134a8ceec69422f44c852f911d6",
    (4, 2): "68eef3e002e8793d87303ae1d93890b33869fb8c1b655b296d4d7d8bf501ea6a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(capsysbinary, *argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("m,k,sigma,seed", sorted(DIGESTS))
def test_cli_outputs_keep_their_bytes(m, k, sigma, seed, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    dims = ["--m", str(m), "--k", str(k)]
    assert _run(capsysbinary, "gen", *dims, "--sigma", sigma, "--seed", str(seed), "--out", "sop.json")[0] == 0
    classify = _run(capsysbinary, "classify", "sop.json")
    extend = _run(capsysbinary, "extend", "sop.json", "--sigma", "auto", "--out", "ext.json")
    assert classify[0] == extend[0] == 0
    outputs = {
        "superop": (tmp_path / "sop.json").read_bytes(),
        "truth": (tmp_path / "sop.truth.json").read_bytes(),
        "classify": classify[1],
        "extend": extend[1],
        "extended": (tmp_path / "ext.json").read_bytes(),
    }
    assert {key: _sha(data) for key, data in outputs.items()} == DIGESTS[m, k, sigma, seed]


def test_classify_trace_form_keeps_its_exit_and_stderr(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert _run(capsysbinary, "gen", "--m", "2", "--k", "2", "--form", "trace", "--out", "sop.json")[0] == 0
    code, out, err = _run(capsysbinary, "classify", "sop.json")
    assert (code, out, _sha(err)) == (4, b"", TRACE_STDERR)


@pytest.mark.parametrize("form,m,k,sigma,seed", sorted(GEN_FILES))
def test_gen_and_extend_files_keep_their_bytes(form, m, k, sigma, seed, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    argv = ["--form", form, "--m", str(m), "--k", str(k), "--sigma", sigma, "--seed", str(seed)]
    assert _run(capsysbinary, "gen", *argv, "--out", "sop.json")[0] == 0
    files = {"superop": "sop.json", "truth": "sop.truth.json"}
    if form == "adjoint":
        assert _run(capsysbinary, "extend", "sop.json", "--sigma", "auto", "--out", "ext.json")[0] == 0
        files["extended"] = "ext.json"
    digests = {key: _sha((tmp_path / name).read_bytes()) for key, name in files.items()}
    assert digests == GEN_FILES[form, m, k, sigma, seed]


@pytest.mark.parametrize("m,k", sorted(LEMMAS))
def test_check_lemmas_keeps_its_bytes(m, k, capsysbinary):
    code, out, _ = _run(capsysbinary, "check-lemmas", "--m", str(m), "--k", str(k), "--seed", "1")
    assert (code, _sha(out)) == (0, LEMMAS[m, k])


@pytest.mark.parametrize("m,k", sorted(LEMMAS_DEFAULT_SEED))
def test_check_lemmas_at_the_default_seed_keeps_its_bytes(m, k, capsysbinary):
    code, out, _ = _run(capsysbinary, "check-lemmas", "--m", str(m), "--k", str(k))
    assert (code, _sha(out)) == (0, LEMMAS_DEFAULT_SEED[m, k])
