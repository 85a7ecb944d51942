"""The CLI's output bytes, pinned by SHA-256 digest.

At (1,2) and (2,2), the dims whose ``classify`` and ``extend`` stdout do not
move with the BLAS thread count (from (2,3) up their last digits do):
``gen``'s superoperator and truth files, ``classify``'s stdout and ``extend
--sigma auto``'s stdout and file, both sigma, at the seeds of ``DIGESTS`` and
of ``GRID``; and ``classify``'s exit code and stderr on a (2,2) trace-form
file.  Beyond these: the files of ``gen --m 3 --k 2 --sigma transpose --seed
8`` and of ``extend --sigma auto`` on it, of the (3,2) trace form and of the
(2,1) switch form; and ``check-lemmas``' stdout at (2,3) and (3,2) with
``--seed 1``, and at (1,2), (2,3), (3,2), (3,3) and (4,2) with the default
seed.  CI runs this module under ``OPENBLAS_NUM_THREADS=1`` and ``=2``: both
runs meet the same digests, so the thread counts agree with each other, and
a change that moves both alike is caught too.
A change that moves one of these outputs on purpose takes the new digests
from ``pytest -vv`` on this file, updates ``DIGESTS``, ``GRID``,
``TRACE_STDERR``, ``GEN_FILES``, ``LEMMAS`` or ``LEMMAS_DEFAULT_SEED``, and
names the change in CHANGES.md.
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
# (m, k, sigma, seed) of the grid m in {1, 2}, k = 2, both sigma, seeds 0 and 8
# that DIGESTS lacks: each output's SHA-256
GRID = {
    (1, 2, "identity", 0): {
        "superop": "a5c897cc192113962f807e6d7f1214dac7d4d229b1a87506e8d0a94f715e621e",
        "truth": "6783370a102201003ca6be74aa00f5eba24b3eaea9246aab68a355d32a5c770f",
        "classify": "30eb1247e371d9b290f9935bbd7652879cac334e02b33fb278d4a9457acbd1bf",
        "extend": "c67e8cf447786f8c1ca29b39174f16b499a484b778872c72548ede399c4e4c4b",
        "extended": "830d11b9c9f4f64ba490a21da05aaa809da1af662cab9554fb279f80dfce6193",
    },
    (1, 2, "identity", 8): {
        "superop": "5671ae0d0995647e35e62fd8ccc4f5b20f6a6602d85d4ef9a10c7c12fe0a7ebe",
        "truth": "abe7aead36a12bbc6336aeb0abf922ace8523edc049c64767cb63066148c4af1",
        "classify": "f2b4baf953999236724ffd1f973dcaa5f9cf4e01e3e27eda48dedff36e3caf6c",
        "extend": "a89d7bdb5a891f8642b50e40dde4c3512fcc43a79d8bfdfe4c51fe35ee3a7f5b",
        "extended": "2d2fb5ae024fd328526f24430eae1b0967e8a727865c38d41d9ca0dbbaefd90f",
    },
    (1, 2, "transpose", 0): {
        "superop": "706051b0d7fbcd56374c28807f2e6bf3abe13142241b6636ca3bee19c44fc2fa",
        "truth": "5ca19cc55df27cc8806d991736c71c98f8e2d9a77440307ab605c67031f706c0",
        "classify": "aa4c860b5feee918aba4dac7b626cd01bb37ca685a7797b27e7b997257b3f693",
        "extend": "fb1bd44fac37b9a12d83e9ea7081c0f76c7868bcd7259a1c6ab1478e39820a55",
        "extended": "4ed15ebad029a53304db9c556c7bfe9870d3db5d1de00976ad1698ec49507fd3",
    },
    (2, 2, "identity", 8): {
        "superop": "85941f94755215f8e0fb460afe17a878488f19baf5acaa5da28b25b2ef0a52ec",
        "truth": "8bbdcbaff71c62575447f79f8d650bd58e2d8e8f34c34c5b77b05c4f8059768a",
        "classify": "8ec814cb6eada51645aadab0cae656a575f0307b5165e6ff7675f38ad26dbbe8",
        "extend": "d93c2a5b1e8e9118d5bb421ff1397aacf49e65737be5076a750431b671da3d15",
        "extended": "2cb49ab2b113f25b38a275cd722665b57c78019bab1b975c0c5fb91539b5b8f4",
    },
    (2, 2, "transpose", 0): {
        "superop": "1a7acee0ba9396b62a028ca17a20ab5ee509a1368676c65e69596180d3d29313",
        "truth": "c19c69e7055e980c730e78915b4bb43959bd71f5ee1590ef4018534c955ec891",
        "classify": "19be439e424bf8330eedfbe57b8e088e63840eb3cc4c03ede6116b74ebb47770",
        "extend": "bb75b706da3de6fc895837547fe44487c592736a50161597a415f177deb267fc",
        "extended": "436626a1987214652a69eea37fed987771073001bd947bbe24d3e6ee41f6fa24",
    },
    (2, 2, "transpose", 8): {
        "superop": "6b50120817bd6665b730afcdea3f5456cf7e85fc7c4ba97122208fd580dafb71",
        "truth": "16607046acc57bcd4a297cc66a5bbe064f6f554a8f413388b41c0096e7e7f945",
        "classify": "3e60f10f9a5e50f15f05dc4aad028e3f9da95bde83493fb385ad7f9d7772ca0b",
        "extend": "bea28028eddfd21723bfeb6322035a7536402da66e89a863d2c370e8b5fa2162",
        "extended": "8fb9dd0f84c7722c093c70eafb7ea5399ee79030c8d950b954919f17e8300f64",
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


def _cli_digests(m, k, sigma, seed, tmp_path, capsysbinary):
    """The SHA-256 of gen's files, classify's stdout and extend --sigma auto's
    stdout and file, run in ``tmp_path``."""
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
    return {key: _sha(data) for key, data in outputs.items()}


@pytest.mark.parametrize("m,k,sigma,seed", sorted(DIGESTS))
def test_cli_outputs_keep_their_bytes(m, k, sigma, seed, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert _cli_digests(m, k, sigma, seed, tmp_path, capsysbinary) == DIGESTS[m, k, sigma, seed]


# a test of its own, so that scripts/mutants.py's IO_PINS, which names the one above, does not run it
@pytest.mark.parametrize("m,k,sigma,seed", sorted(GRID))
def test_cli_outputs_on_the_seed_grid_keep_their_bytes(m, k, sigma, seed, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert _cli_digests(m, k, sigma, seed, tmp_path, capsysbinary) == GRID[m, k, sigma, seed]


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
