import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meskit import (
    DimensionError,
    Dims,
    SigmaFlag,
    extend,
    make_adjoint_preserver,
    make_trace_preserver,
    pi,
    random_coisometry,
    serialize,
)
from meskit import _float_kernel
from meskit.cli import main
from conftest import complex_gaussian, unitary_pair

CHUNK = _float_kernel._BLOCK


def _reference_dumps(obj) -> str:
    """Per-entry encoder whose bytes the streamed writer must reproduce."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_reference_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if obj is None:
        return "null"
    return json.dumps(obj)


def _reference_matrix_obj(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def _assert_same_text(text: str, expected: str) -> None:
    # report the first difference; a full diff of ~1 MB strings takes minutes
    if text != expected:
        i = len(os.path.commonprefix([text, expected]))
        got, want = text[max(i - 30, 0) : i + 30], expected[max(i - 30, 0) : i + 30]
        pytest.fail(f"text differs at offset {i}: {got!r} != {want!r}")


def _special_matrix() -> np.ndarray:
    values = [
        complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0),
        complex(5e-324, -5e-324), complex(1e300, -1e300),
        complex(-1e300, 0.1), complex(1 / 3, -2.5),
    ]
    return np.array(values).reshape(2, 4)


def _repetitive_column(entries: int, rng) -> np.ndarray:
    # zeros of both signs and repeated values, so chunks share bit patterns
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-17, *rng.standard_normal(6)])
    re, im = rng.choice(pool, entries), rng.choice(pool, entries)
    re[::7] = rng.standard_normal(len(re[::7]))
    return (re + 1j * im).reshape(entries, 1)


def test_matrix_roundtrip(rng):
    a = complex_gaussian(rng, 3, 5)
    obj = serialize.matrix_to_obj(a)
    assert obj["rows"] == 3 and obj["cols"] == 5 and len(obj["data"]) == 15
    np.testing.assert_array_equal(serialize.matrix_from_obj(obj), a)


def test_matrix_roundtrip_through_text(rng):
    a = complex_gaussian(rng, 4, 4)
    text = serialize.dumps(serialize.matrix_to_obj(a))
    back = serialize.matrix_from_obj(json.loads(text))
    np.testing.assert_array_equal(back, a)  # 17 significant digits are lossless


def test_signed_zeros_survive_a_file_roundtrip(tmp_path):
    a = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.0]])
    path = str(tmp_path / "zeros.json")
    serialize.write_json(path, serialize.matrix_to_obj(a))
    back = serialize.matrix_from_obj(serialize.read_json(path))
    np.testing.assert_array_equal(np.signbit(back.real), np.signbit(a.real))
    np.testing.assert_array_equal(np.signbit(back.imag), np.signbit(a.imag))


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        serialize.matrix_to_obj(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        serialize.matrix_from_obj({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})


def test_matrix_to_obj_rejects_a_vector():
    # nothing writes a vector, so a 1-D array is not a matrix payload
    with pytest.raises(DimensionError, match="ndim=1"):
        serialize.matrix_to_obj(np.array([1j, 2.0]))


def test_matrix_rejects_wrong_count():
    with pytest.raises(DimensionError):
        serialize.matrix_from_obj({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


def test_dumps_is_deterministic_and_17g():
    payload = {"x": 0.1, "flag": True, "n": 3, "items": [1.0 / 3.0, None, "s"]}
    text = serialize.dumps(payload)
    assert text == serialize.dumps(payload)
    assert "0.10000000000000001" in text
    assert json.loads(text)["x"] == 0.1


@pytest.mark.parametrize("entries", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_dumps_matches_per_entry_reference(entries, rng, tmp_path):
    mats = [_special_matrix(), _repetitive_column(entries, rng)]
    payload = {
        "flags": [True, False, None, "s\"q", 3, -0.0, 2.5, (1, 2)],
        "mats": [serialize.matrix_to_obj(a) for a in mats],
        "nested": {"empty": [], "d": {}},
    }
    reference = {
        "flags": [True, False, None, "s\"q", 3, -0.0, 2.5, [1, 2]],
        "mats": [_reference_matrix_obj(a) for a in mats],
        "nested": {"empty": [], "d": {}},
    }
    expected = _reference_dumps(reference)
    _assert_same_text(serialize.dumps(payload), expected)
    path = tmp_path / "out.json"
    serialize.write_json(str(path), payload)
    _assert_same_text(path.read_text(), expected + "\n")


def _assert_encodes_as_format(values) -> np.ndarray:
    """``dumps`` of a matrix of ``values``, repeated to at least one entry
    more than a chunk so that rows straddle the kernel's block boundary, is
    the per-entry text of ``format(x, ".17g")``; returns the matrix's floats."""
    flat = np.resize(np.asarray(values, dtype=np.float64), 2 * max(CHUNK + 1, len(values)))
    a = flat.view(complex).reshape(-1, 1)
    expected = _reference_dumps(_reference_matrix_obj(a))
    _assert_same_text(serialize.dumps(serialize.matrix_to_obj(a)), expected)
    return flat


def _edge_values() -> np.ndarray:
    info = np.finfo(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])  # fixed/scientific switches
    steps = np.arange(-8, 9)[:, None]
    near_switches = switches * (1 + steps * info.eps)
    for _ in range(3):  # a few ulps below each switch exactly
        switches = np.nextafter(switches, 0)
        near_switches = np.append(near_switches, switches)
    values = np.concatenate([
        [0.0, 5e-324, info.smallest_normal - 5e-324, info.smallest_normal, info.max],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        near_switches.reshape(-1),
        [float(2**53), float(2**53 - 1), 100.0, 1200.0, 1e15, 120.5, 99999999999999984.0],
        np.arange(0.0, 2.0**53, 2.0**53 / 997),  # exact integers
        # exact 18-digit ties, to even: 0.10000228881835938, 0.10000991821289062
        [26215 / 2**18, 26217 / 2**18],
    ])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def test_dumps_is_format_at_edge_values():
    _assert_encodes_as_format(_edge_values())


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_dumps_is_format_for_any_float(values):
    _assert_encodes_as_format(values)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_dumps_is_format_for_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.int64).view(np.float64)
    assume(np.isfinite(values).any())
    _assert_encodes_as_format(values[np.isfinite(values)])


def test_dumps_without_extended_precision_formats_every_value(monkeypatch, rng):
    # where long double is a plain double, its powers of ten stop at 1e308
    # and its error bound certifies no rounding: every nonzero value takes
    # the format route
    double = np.finfo(np.float64)
    exponents = range(16 - _float_kernel._E_MAX, 17 - _float_kernel._E_MIN)
    tables = _float_kernel.tables()._replace(
        pow10=_float_kernel.powers_of_ten(exponents, double), slack=2 * float(double.eps)
    )
    monkeypatch.setattr(_float_kernel, "tables", lambda: tables)
    formatted = []

    def counting_format(x, spec):
        formatted.append(x)
        return format(x, spec)

    monkeypatch.setattr(_float_kernel, "format", counting_format, raising=False)
    flat = _assert_encodes_as_format(np.concatenate([_edge_values(), rng.standard_normal(CHUNK)]))
    assert len(formatted) == np.count_nonzero(flat)


def test_powers_of_ten_are_correctly_rounded():
    # the kernel's error bound assumes each power within half an ulp
    largest = np.finfo(np.longdouble).max
    exponents = range(16 - _float_kernel._E_MAX, 17 - _float_kernel._E_MIN)
    for k, power in zip(exponents, _float_kernel.tables().pow10):
        if power < largest:
            error = abs(Fraction(*power.as_integer_ratio()) - Fraction(10) ** k)
            assert error <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, k


def test_matrix_to_obj_is_a_view(rng):
    a = complex_gaussian(rng, 3, 4)
    data = serialize.matrix_to_obj(a)["data"]
    assert data.shape == (12, 2) and np.shares_memory(data, a)


def test_row_slabs_write_the_bytes_of_the_whole_matrix(rng):
    # slabs of 0, 1, 3 and 1 rows; the 3-row slab spans more than one chunk
    a = complex_gaussian(rng, 5, CHUNK // 2 + 3)
    a[1, 2] = complex(-0.0, 0.0)
    slabs = [a[:0], a[:1], a[1:4], a[4:]]
    text = serialize.dumps(serialize.row_slabs_to_obj(iter(slabs), *a.shape))
    _assert_same_text(text, serialize.dumps(serialize.matrix_to_obj(a)))
    for bad, error in [
        ([a[:2], a[2:, 1:]], DimensionError),  # a slab of the wrong width
        ([a[:2], a[2:4]], DimensionError),  # too few rows in all
        ([a[:2], np.full((3, a.shape[1]), np.nan)], ValueError),
    ]:
        with pytest.raises(error):
            serialize.dumps(serialize.row_slabs_to_obj(bad, *a.shape))


def test_dumps_rejects_nonfinite_array():
    with pytest.raises(ValueError):
        serialize.dumps({"data": np.array([[0.0, np.nan]])})


@pytest.mark.parametrize(
    "data",
    [
        [[0.0, 0.0], [1.0]],
        [[0.0, 0.0], ["x", 1.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [0.0, 1.0],
        [[0.0, 0.0], [{}, 1.0]],
        [[0.0, 0.0], [10**400, 1.0]],
        5,
    ],
    ids=["ragged", "non-numeric", "triples", "flat", "object entry", "beyond float", "scalar"],
)
def test_matrix_from_obj_rejects_malformed_data(data):
    with pytest.raises(ValueError):
        serialize.matrix_from_obj({"rows": 2, "cols": 1, "data": data})


def test_matrix_from_obj_is_fresh_and_exact(rng):
    a = complex_gaussian(rng, 2, 2)
    a[0, 0] = complex(-0.0, -0.0)
    back = serialize.matrix_from_obj(serialize.matrix_to_obj(a))
    assert not np.shares_memory(back, a)
    assert np.array_equal(back.view(np.int64), a.view(np.int64))  # bits, signed zeros too


def test_write_json_peak_memory_below_the_matrix(tmp_path):
    # the (3,2) extension, 1296 x 1296: the writer streams it in chunks
    dims = Dims.from_mk(3, 2)
    phi = make_adjoint_preserver(*unitary_pair(dims, 1), SigmaFlag.IDENTITY)
    matrix = extend(phi, SigmaFlag.IDENTITY).matrix
    tracemalloc.start()
    try:
        serialize.write_json(str(tmp_path / "ext.json"), serialize.matrix_to_obj(matrix))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes


def test_superoperator_obj_roundtrip(rng):
    dims = Dims.from_mk(1, 2)
    mat = complex_gaussian(rng, 4, 4)
    back = serialize.superoperator_from_obj(serialize.superoperator_to_obj(mat, dims))
    assert back.dims == dims
    np.testing.assert_array_equal(back.matrix, mat)


def test_superoperator_obj_checks_side(rng):
    dims = Dims.from_mk(1, 2)
    obj = serialize.superoperator_to_obj(complex_gaussian(rng, 4, 4), dims)
    obj["matrix"] = serialize.matrix_to_obj(complex_gaussian(rng, 3, 3))
    with pytest.raises(DimensionError):
        serialize.superoperator_from_obj(obj)


_DROP = object()


@pytest.mark.parametrize(
    "where,value,key",
    [
        (("dims",), _DROP, "dims"),
        (("dims",), [1, 2, 2], "m"),
        (("dims", "n"), _DROP, "n"),
        (("dims", "m"), "one", "m"),
        (("dims", "k"), None, "k"),
        (("dims", "m"), True, "m"),
        (("dims", "n"), 2.0, "n"),
        (("dims", "k"), "2", "k"),
        (("matrix",), _DROP, "matrix"),
        (("matrix", "rows"), float("inf"), "rows"),
        (("matrix", "rows"), 4.5, "rows"),
        (("matrix", "cols"), _DROP, "cols"),
        (("matrix", "data"), _DROP, "data"),
    ],
    ids=["no dims", "dims list", "no n", "m text", "k null", "m true", "n float", "k digits",
         "no matrix", "rows inf", "rows fraction", "no cols", "no data"],
)
def test_superoperator_from_obj_names_the_key(where, value, key, rng):
    # a document that is no superoperator object is a ValueError, never a
    # KeyError, TypeError or OverflowError
    obj = serialize.superoperator_to_obj(complex_gaussian(rng, 4, 4), Dims.from_mk(1, 2))
    obj = json.loads(serialize.dumps(obj))
    *parents, last = where
    target = obj
    for name in parents:
        target = target[name]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(ValueError, match=repr(key)) as raised:
        serialize.superoperator_from_obj(obj)
    assert type(raised.value) is ValueError


def test_write_json_atomic_replace(tmp_path):
    path = tmp_path / "out.json"
    serialize.write_json(str(path), {"a": 1})
    serialize.write_json(str(path), {"a": 2})
    assert json.loads(path.read_text()) == {"a": 2}
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_write_json_into_a_missing_directory_names_the_path(tmp_path):
    # the error names the file asked for, not the hidden temp file
    path = str(tmp_path / "missing" / "x.json")
    with pytest.raises(FileNotFoundError) as raised:
        serialize.write_json(path, {"a": 1})
    assert raised.value.filename == path and ".tmp" not in str(raised.value)
    assert list(tmp_path.iterdir()) == []


def test_write_json_over_a_directory_names_the_path(tmp_path):
    # the rename fails after the temp file is written: its error too names
    # only the file asked for, and the temp file is removed
    path = tmp_path / "x.json"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        serialize.write_json(str(path), {"a": 1})
    assert raised.value.filename == str(path) and raised.value.filename2 is None
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _superop_file(path, m, k, form, sigma=SigmaFlag.IDENTITY) -> str:
    dims = Dims.from_mk(m, k)
    if form == "trace":
        rho = pi(random_coisometry(dims, np.random.SeedSequence([5, 2])))
        phi = make_trace_preserver(rho, dims)
    else:
        phi = make_adjoint_preserver(*unitary_pair(dims, 5), sigma)
    serialize.write_json(str(path), serialize.superoperator_to_obj(phi.matrix, dims))
    return str(path)


def _assert_reads_as_json_reader(path) -> None:
    phi = serialize.read_superoperator(path)
    want = serialize.superoperator_from_obj(serialize.read_json(path))
    assert phi.dims == want.dims
    assert _same_bits(phi.matrix, want.matrix)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_read_superoperator_matches_the_json_reader(m, k, sigma, tmp_path):
    _assert_reads_as_json_reader(_superop_file(tmp_path / "sop.json", m, k, "adjoint", sigma))


def test_read_superoperator_keeps_signed_zeros(tmp_path):
    path = _superop_file(tmp_path / "trace.json", 2, 2, "trace")
    assert "-0]" in open(path).read()  # the trace form has -0 entries
    _assert_reads_as_json_reader(path)
    a = np.zeros((16, 16), dtype=complex)
    a[3, 4] = complex(-0.0, 0.0)
    a[5, 6] = complex(0.0, -0.0)
    path = str(tmp_path / "z.json")
    serialize.write_json(path, serialize.superoperator_to_obj(a, Dims.from_mk(2, 1)))
    back = serialize.read_superoperator(path).matrix
    assert _same_bits(back, a)


def _writer_text(tmp_path):
    """A (2,2) file as the writer lays it out, three data slices long, and its
    text split around the data array: ``head`` ends at ``"data": ``."""
    path = _superop_file(tmp_path / "sop.json", 2, 2, "adjoint", SigmaFlag.TRANSPOSE)
    text = open(path).read()
    assert len(text) > 2 * serialize._SLICE_BYTES
    head, tail = text.split('"data": ')
    close = tail.index("]]") + 2
    return text, head + '"data": ', tail[:close], tail[close:]


def test_read_superoperator_accepts_what_json_accepts(tmp_path):
    text, head, data, rest = _writer_text(tmp_path)
    reordered = {"matrix": {"data": "D", "cols": 64, "rows": 64}, "dims": json.loads(text)["dims"]}
    spaced = data.replace("], [", "]\n ,\r\n\t[").replace(", ", " ,  ")
    variants = {
        "reordered": json.dumps(reordered).replace('"D"', data),
        "whitespace": head[:-1] + "\n" + spaced + "\n" + rest,
        # strings with brackets, and "matrix" and "data" keys off the path
        "extra keys": '{"note": "a ]], [[ \\" \\\\", "data": [[1, 2]], '
        + '"meta": {"matrix": {"data": [[3, 4]]}}, ' + text[1:-2] + ', "after": [[{"]": []}]]}\n',
        # json keeps the last of repeated keys
        "repeated data key": head + "[[9, 9]], " + '"data": ' + data + rest,
    }
    for name, variant in variants.items():
        path = tmp_path / f"{name}.json"
        path.write_text(variant)
        assert serialize._data_span(path.read_bytes()) is not None, name  # read in slices
        _assert_reads_as_json_reader(str(path))


def test_read_superoperator_refuses_what_the_json_reader_refuses(tmp_path, capsys):
    text, head, data, rest = _writer_text(tmp_path)
    first = text.index("[[") + 1
    pair = text[first : text.index("]", first) + 1]
    cut = text.index("], [", first + serialize._SLICE_BYTES)
    refused = {
        "truncated": text[:4096],
        "one-element row": text.replace(pair, "[0.5]", 1),
        "three-element row": text.replace(pair, pair[:-1] + ", 0.5]", 1),
        "nan token": text.replace(pair, "[NaN, 0]", 1),
        "overflow": text.replace(pair, "[1e999, 0]", 1),
        "count": text.replace(pair + ", ", "", 1),
        "count, one more": text.replace(pair, pair + ", " + pair, 1),
        "empty data": head + "[ ]" + rest,
        # as many entries as rows x cols, but too short to be pairs
        "one-element rows": head + "[" + ", ".join(["[0]"] * 64 * 64) + "]" + rest,
        # where a slice is cut: only JSON whitespace may sit between rows
        "form feed between rows": text[:cut] + "]\f, [" + text[cut + 4 :],
        "missing matrix": text.replace('"matrix"', '"matrices"'),
        "rows 1e999": text.replace('"rows": 64', '"rows": 1e999'),
        "integer entry beyond float": text.replace(pair, "[1" + "0" * 400 + ", 0]", 1),
        # a repeated key replaces the array: with the placeholder's value, and
        # after an array that is not JSON
        "repeated data key, NUL": head + data + ', "data": "\\u0000"' + rest,
        "repeated data key, bad array": head + "[[1, 2,]], " + '"data": ' + data + rest,
        # deeper than json's recursion can go: a ValueError, not a RecursionError
        "deep nesting": '{"dims": ' + "[" * 100000 + "]" * 100000 + "}",
        "deep object in a row": text.replace(
            pair, "[" + '{"a": ' * 100000 + "0" + "}" * 100000 + ", 0]", 1
        ),
    }
    for name, bad in refused.items():
        path = tmp_path / "bad.json"
        path.write_text(bad)
        with pytest.raises(Exception) as want:  # the whole-document reader, as the oracle
            serialize.superoperator_from_obj(serialize.read_json(str(path)))
        with pytest.raises(want.type):
            serialize.read_superoperator(str(path))
        assert main(["classify", str(path)]) == 2, name
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == want.type.__name__, name
        if "shape was" not in err["message"]:  # numpy's shape is the slice's
            assert err["message"] == str(want.value), name


def test_read_superoperator_peak_memory_below_file_and_two_matrices(tmp_path):
    path = _superop_file(tmp_path / "sop.json", 3, 2, "adjoint")
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        matrix = serialize.read_superoperator(path).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size + 2 * matrix.nbytes


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
def test_write_json_gives_the_mode_of_the_umask(umask, mode, tmp_path):
    old = os.umask(umask)
    try:
        serialize.write_json(str(tmp_path / "out.json"), {"a": 1})
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.json").st_mode & 0o777 == mode


def test_write_json_leaves_the_umask_alone(tmp_path, monkeypatch):
    # os.umask sets the mask of the whole process, for every thread's files
    def umask(mask):
        raise AssertionError("write_json changed the process umask")

    monkeypatch.setattr(os, "umask", umask)
    serialize.write_json(str(tmp_path / "out.json"), {"a": 1})
    assert json.loads((tmp_path / "out.json").read_text()) == {"a": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_json_files_are_utf8_in_an_ascii_locale(tmp_path):
    path = tmp_path / "note.json"
    path.write_bytes('{"note": "\u00e9"}'.encode("utf-8"))
    code = (
        "import sys\n"
        "from meskit import serialize\n"
        "assert serialize.read_json(sys.argv[1]) == {'note': '\\u00e9'}\n"
        "serialize.write_json(sys.argv[1], {'\\u00e9': ['\\u00e9', 0.5]})\n"
        "assert serialize.read_json(sys.argv[1]) == {'\\u00e9': ['\\u00e9', 0.5]}\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "0", "LC_ALL": "C"}
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
