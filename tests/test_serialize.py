import json
import os
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meskit import (
    DimensionError,
    Dims,
    ExtendedSuperoperator,
    SigmaFlag,
    make_adjoint_preserver,
    make_swap_preserver,
    make_trace_preserver,
    pi,
    random_coisometry,
    serialize,
)
from meskit import _float_kernel
from meskit.tensor import complex_gaussian, unitary_pair
from conftest import REFUSED, dense_extension, peak_traced_bytes, refused_file, writer_file

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
    with pytest.raises(DimensionError, match="positive"):
        serialize.matrix_from_obj({"rows": 0, "cols": 1, "data": []})


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


def _scaled_onto_bounds() -> np.ndarray:
    """|x| whose product with a tabulated hi rounds onto 1e16 or 1e17, while
    lo moves the exact |x| * 10**k below or above it."""
    hi, _, _, lo = _float_kernel._POW10.T
    near = np.concatenate([1e16 / hi, 1e17 / hi])
    near = near * (1 + np.arange(-3, 4)[:, None] * np.finfo(np.float64).eps)
    hi, lo = np.tile(hi, 2 * 7), np.tile(lo, 2 * 7)
    near = near.reshape(-1)
    onto = np.isin(near * hi, [1e16, 1e17]) & (near >= _float_kernel._X_MIN) & (near <= _float_kernel._X_MAX)
    assert (lo[onto] > 0).any() and (lo[onto] < 0).any()
    return near[onto]


# Doubles x whose scaled |x| * 10**(16 - e) lies within 3e-15 of a half-integer,
# but not on it, so that only the kernel's margin keeps their rounding
# uncertified.  Each is m / 2**p with m of 53 bits, a fractional part a multiple
# of 2**-(p - k) with p - k > 60, k = 16 - e: found by a 2-D lattice search, in
# exact ints, for m * 10**k = 2**(p - 1) (mod 2**p) near that residue.
NEAR_TIES = (7.05482353209107e-120, 9.580454101173112e-150, 5.381832978910322e-200, 6.350626636710146e-250)


def _edge_values() -> np.ndarray:
    info = np.finfo(np.float64)
    bounds = np.array([_float_kernel._X_MIN, _float_kernel._X_MAX])
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
        # and the ties whose power of ten, 1e23 or 1e24, is no float64
        np.arange(3, 17, 2) * 2.0**-24, [2.0**-25, 3 * 2.0**-25],
        # the smallest and largest |x| the kernel certifies, and their neighbours
        bounds, np.nextafter(bounds, 0), np.nextafter(bounds, np.inf),
        _scaled_onto_bounds(),
        NEAR_TIES,
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


@pytest.fixture
def formatted(monkeypatch):
    """The floats the kernel hands to ``format``, recorded as it calls it."""
    calls = []

    def counting_format(x, spec):
        calls.append(x)
        return format(x, spec)

    monkeypatch.setattr(_float_kernel, "format", counting_format, raising=False)
    return calls


def test_dumps_formats_every_value_it_cannot_certify(monkeypatch, rng, formatted):
    # with the certification margin at 1/2 no rounding certifies: every
    # nonzero value takes the format route, and the bytes stay the same
    monkeypatch.setattr(_float_kernel, "_MARGIN", 0.5)
    flat = _assert_encodes_as_format(np.concatenate([_edge_values(), rng.standard_normal(CHUNK)]))
    assert len(formatted) == np.count_nonzero(flat)


def test_dumps_formats_the_near_ties(formatted):
    # within the margin of a half-integer, not on it: encode_block hands each to format
    for x in NEAR_TIES:
        e = int(f"{x:e}".split("e")[1])
        assert Fraction(10) ** e <= Fraction(x) < Fraction(10) ** (e + 1)
        y = Fraction(x) * Fraction(10) ** (16 - e)
        assert 0 < abs(y - int(y) - Fraction(1, 2)) < Fraction(3, 10**15), x
    values = np.array(NEAR_TIES + tuple(-x for x in NEAR_TIES))
    text = _float_kernel.encode_block(values.reshape(-1, 2))
    assert formatted == values.tolist()
    pairs = values.reshape(-1, 2).tolist()
    assert text == ", ".join(f"[{format(x, '.17g')}, {format(y, '.17g')}]" for x, y in pairs).encode()


def test_powers_of_ten_are_correctly_rounded():
    # the kernel's error bound assumes 10**k = hi + lo with hi within half an
    # ulp of 10**k, and lo within half an ulp of 10**k - hi
    hi, hi_hi, hi_lo, lo = _float_kernel._POW10.T
    exponents = range(_float_kernel._E_MIN, 17 - _float_kernel._E_MIN)
    assert len(hi) == len(exponents)
    np.testing.assert_array_equal(hi_hi + hi_lo, hi)
    for k, h, rest in zip(exponents, hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** k
        assert abs(Fraction(h) - exact) <= Fraction(np.spacing(h)) / 2, k
        assert abs(Fraction(rest) - (exact - Fraction(h))) <= Fraction(abs(np.spacing(rest))) / 2, k


def test_an_exponent_one_low_carries_or_goes_to_format(formatted):
    # log10's exponent is one low for |x| just above a power of ten: there n is
    # 10**17, the carry, or above it, and format writes the value
    above = [0.1, 0.01, 1e-4, 1e-5]  # each float64 lies above its power of ten
    for k in (-200, -3, 0, 5, 17, 150):
        above += [float(Fraction(10) ** k * (1 + Fraction(delta))) for delta in (2e-15, 1e-12, 1e-9, 1.9e-9)]
    for x in above:
        e = int(f"{x:e}".split("e")[1])
        assert Fraction(10) ** e < Fraction(x) < Fraction(10) ** e * (1 + Fraction(2, 10**9)), x
    powers = [1.0, 1e16, 1e22]  # exact, so log10 puts each one low
    values = np.array(above + [-x for x in above] + powers + [-x for x in powers])
    text = _float_kernel.encode_block(values.reshape(-1, 2))
    assert formatted == above + [-x for x in above]
    pairs = values.reshape(-1, 2).tolist()
    assert text == ", ".join(f"[{format(x, '.17g')}, {format(y, '.17g')}]" for x, y in pairs).encode()


@pytest.mark.parametrize("sigma", SigmaFlag)
@pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 2)])
def test_dumps_certifies_every_float_of_a_gen_file(m, k, sigma, formatted):
    # gen --seed 1's matrix: the array route decides every float, format none
    dims = Dims.from_mk(m, k)
    phi = make_adjoint_preserver(*unitary_pair(dims, 1, 41), sigma)
    serialize.dumps(serialize.superoperator_to_obj(phi.matrix, dims))
    assert formatted == []


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


@pytest.mark.parametrize(
    "obj,error,message",
    [
        ({"data": np.array([[0.0, np.nan]])}, ValueError, "non-finite"),
        ({"x": float("inf")}, ValueError, "non-finite number inf"),
        ({"x": {1j}}, TypeError, "type set"),
        ({"data": iter([[0.0, 1.0]])}, TypeError, "a list as matrix data"),
        (np.zeros((2, 3)), TypeError, "shape (2, 3)"),
        (np.zeros((2, 2), np.int64), TypeError, "int64 array"),
    ],
    ids=["nan in an array", "inf scalar", "unsupported type", "slab not an array", "not pairs", "not floats"],
)
def test_dumps_rejects_what_it_cannot_write(obj, error, message):
    with pytest.raises(error, match=re.escape(message)):
        serialize.dumps(obj)


def test_write_json_failing_partway_leaves_no_temp_file(tmp_path):
    # the document fails after its first bytes: a new path stays absent, and
    # an existing file keeps its bytes
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        serialize.write_json(str(path), {"a": float("nan")})
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError):
        serialize.write_json(str(path), {"a": float("nan")})
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old\n"


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
        # numpy reads these as numbers; JSON numbers they are not
        [[0.0, 0.0], ["1.5", 1.0]],
        [[0.0, 0.0], [True, 1.0]],
        [[0.0, 0.0], [None, 1.0]],
        [[0.0, 0.0], [[1.0], 2.0]],
    ],
    ids=[
        "ragged", "non-numeric", "triples", "flat", "object entry", "beyond float", "scalar",
        "string", "bool", "null", "nested",
    ],
)
def test_matrix_from_obj_rejects_malformed_data(data):
    with pytest.raises(ValueError, match=re.escape("matrix data must be a list of [re, im] pairs")):
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
    matrix = dense_extension(ExtendedSuperoperator(phi, SigmaFlag.IDENTITY))
    out = str(tmp_path / "ext.json")
    assert peak_traced_bytes(lambda: serialize.write_json(out, serialize.matrix_to_obj(matrix)))[1] < matrix.nbytes


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's minor page faults")
def test_write_json_fresh_write_page_faults(tmp_path):
    # the float kernel allocates each block's temporaries afresh; if glibc
    # trims the heap between blocks, each block faults them in again (on x86-64
    # Linux: 1.7k faults as written, 17k when a block's text is freed before
    # the next block is encoded)
    code = (
        "import resource, sys\n"
        "import numpy as np\n"
        "from meskit import Dims, SigmaFlag, haar_unitary, make_adjoint_preserver, serialize\n"
        "dims = Dims.from_mk(3, 2)\n"
        "u, v = (haar_unitary(d, np.random.SeedSequence([0, d])) for d in (dims.m, dims.n))\n"
        "obj = serialize.superoperator_to_obj(make_adjoint_preserver(u, v, SigmaFlag.IDENTITY).matrix, dims)\n"
        "serialize.dumps(serialize.matrix_to_obj(np.eye(2)))  # loads the kernel\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "serialize.write_json(sys.argv[1], obj)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "sop.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 8000


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
    # a directory is no regular file, so it is opened in place and that
    # fails: the error names only the file asked for, and no temp file is left
    path = tmp_path / "x.json"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        serialize.write_json(str(path), {"a": 1})
    assert raised.value.filename == str(path) and raised.value.filename2 is None
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []


def test_write_json_writes_a_fifo_in_place(tmp_path):
    # a rename would replace the FIFO (or a device) with a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    serialize.write_json(str(fifo), {"a": [1.5, -0.0]})
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)  # before the join: a replaced FIFO has no writer
    reader.join(timeout=30)
    assert received == [b'{"a": [1.5, -0]}\n']
    assert list(tmp_path.iterdir()) == [fifo]  # no stray temp files


def test_write_json_keeps_an_existing_files_mode(tmp_path):
    # the rename carries the temp file's mode over, so the temp file takes
    # the old file's mode first: a private file is not widened to the umask's
    path = tmp_path / "out.json"
    path.write_text("old\n")
    os.chmod(path, 0o600)
    old = os.umask(0o022)
    try:
        serialize.write_json(str(path), {"a": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert json.loads(path.read_text()) == {"a": 1}
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


@pytest.mark.parametrize("dangling", [False, True])
def test_write_json_writes_a_symlinks_target(dangling, tmp_path):
    # a rename over the link would replace it with a regular file and leave
    # its target alone; the link stays, and the target gets the document
    links, real = tmp_path / "links", tmp_path / "real"
    links.mkdir()
    real.mkdir()
    target = real / "real.json"
    if not dangling:
        target.write_text("old\n")
    link = links / "link.json"
    link.symlink_to(os.path.join("..", "real", "real.json"))
    serialize.write_json(str(link), {"a": 1})
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert json.loads(target.read_text()) == {"a": 1}
    assert list(links.iterdir()) == [link] and list(real.iterdir()) == [target]


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


def _reads_whole(path, monkeypatch) -> bool:
    """Whether :func:`serialize.read_superoperator` parses ``path`` as one
    document, not its data array in slices, which each start with a row."""
    texts = []
    loads = serialize._loads

    def spy(text):
        texts.append(text)
        return loads(text)

    with monkeypatch.context() as patch:
        patch.setattr(serialize, "_loads", spy)
        serialize.read_superoperator(path)
    return any(not text.startswith("[") for text in texts)


def test_read_superoperator_accepts_what_json_accepts(tmp_path, monkeypatch):
    w = writer_file()
    text, head, data, rest, *_ = w
    spaced = data.replace("], [", "]\n ,\r\n\t[").replace(", ", " ,  ")
    swap = make_swap_preserver(*unitary_pair(Dims.from_mk(2, 1), 3), SigmaFlag.TRANSPOSE)
    swap_path = str(tmp_path / "swap.json")
    serialize.write_json(swap_path, serialize.superoperator_to_obj(swap.matrix, swap.dims))
    in_slices = {
        "writer": text,
        "crlf": text[:-1] + "\r\n",
        "trailing spaces": text[:-1] + "  \t \n\n",
        "whitespace between rows": head + spaced + rest,
        "k = 1 swap": Path(swap_path).read_text(),
    }
    whole = {
        "reordered": w.reordered(data),
        "whitespace": head[:-1] + "\n" + spaced + "\n" + rest,
        # strings with brackets, and "matrix" and "data" keys off the path
        "extra keys": '{"note": "a ]], [[ \\" \\\\", "data": [[1, 2]], '
        + '"meta": {"matrix": {"data": [[3, 4]]}}, ' + text[1:-2] + ', "after": [[{"]": []}]]}\n',
        # json keeps the last of repeated keys
        "repeated data key": head + "[[9, 9]], " + '"data": ' + data + rest,
    }
    for variants, sliced in ((in_slices, True), (whole, False)):
        for name, variant in variants.items():
            path = tmp_path / "variant.json"
            path.write_bytes(variant.encode())
            assert _reads_whole(str(path), monkeypatch) is not sliced, name
            _assert_reads_as_json_reader(str(path))


def test_read_superoperator_reads_a_fifo_once(tmp_path):
    # a FIFO gives its bytes once: a file the sliced path declines must be
    # parsed from the bytes already read, not opened again
    w = writer_file()
    (tmp_path / "sop.json").write_text(w.text)
    want = serialize.read_superoperator(str(tmp_path / "sop.json"))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for variant in (w.text, w.reordered(w.data)):
        threading.Thread(target=fifo.write_bytes, args=(variant.encode(),), daemon=True).start()
        got = []
        # read in a thread too: a second open would wait for a writer forever
        reader = threading.Thread(
            target=lambda: got.append(serialize.read_superoperator(str(fifo))), daemon=True
        )
        reader.start()
        reader.join(timeout=60)
        assert got, "no superoperator read from the FIFO"
        assert got[0].dims == want.dims and _same_bits(got[0].matrix, want.matrix)


@pytest.mark.parametrize("kind", REFUSED)
def test_read_superoperator_refuses_what_the_json_reader_refuses(kind, tmp_path):
    # the same error type and text as the whole-document reader, whichever
    # path, sliced or whole, meets the fault
    path, want = refused_file(tmp_path, kind)
    with pytest.raises(Exception) as got:
        serialize.read_superoperator(path)
    assert (type(got.value), str(got.value)) == (type(want), str(want))


def _read_outcome(read, path):
    """What reading ``path`` gives: dims and matrix bits, or error type and text."""
    try:
        phi = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return phi.dims, phi.matrix.shape, phi.matrix.tobytes()


def test_read_superoperator_agrees_with_the_json_reader_on_mutated_files(tmp_path, monkeypatch):
    text = Path(_superop_file(tmp_path / "sop.json", 1, 2, "adjoint")).read_bytes()
    rng = np.random.default_rng(11)
    alphabet = b'[]{},:" \t\r\n-+.0123456789eENaI\\\x00\xff'
    path = str(tmp_path / "mutant.json")

    def oracle(p):
        return serialize.superoperator_from_obj(serialize.read_json(p))

    outcomes = set()
    for i in range(300):
        # a third of the edits each in the head, in the end, and anywhere
        pos = int([rng.integers(90), len(text) - 1 - rng.integers(40), rng.integers(len(text))][i % 3])
        byte = bytes([alphabet[rng.integers(len(alphabet))]])
        edit = rng.integers(3)  # insert, replace or delete
        mutant = text[:pos] + (byte if edit < 2 else b"") + text[pos + (edit > 0) :]
        Path(path).write_bytes(mutant)
        want = _read_outcome(oracle, path)
        outcomes.add(want[0] if isinstance(want[0], type) else "accepted")
        for slice_bytes in (20, 64):
            monkeypatch.setattr(serialize, "_SLICE_BYTES", slice_bytes)
            got = _read_outcome(serialize.read_superoperator, path)
            assert got == want, mutant[max(pos - 9, 0) : pos + 9]
    assert "accepted" in outcomes and len(outcomes) >= 3  # the edits reach more than one verdict


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_read_superoperator_matches_the_json_reader(m, k, sigma, tmp_path):
    _assert_reads_as_json_reader(_superop_file(tmp_path / "sop.json", m, k, "adjoint", sigma))


def test_read_superoperator_peak_memory_below_file_and_two_matrices(tmp_path):
    path = _superop_file(tmp_path / "sop.json", 3, 2, "adjoint")
    size = os.path.getsize(path)
    matrix, peak = peak_traced_bytes(lambda: serialize.read_superoperator(path).matrix)
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
