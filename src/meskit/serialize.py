"""JSON formats shared by the CLI and the file interfaces.

Matrix payload: ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with the
entries of a 2-D matrix in row-major order.  In memory, :func:`matrix_to_obj`
carries ``data`` as an ``(r*c, 2)`` float64 view of the matrix, and
:func:`row_slabs_to_obj` as a one-shot iterator of such views, one per slab of
rows; the encoder writes either in fixed-size chunks.
:func:`read_superoperator` reads a superoperator file back as a
:class:`~meskit.superop.Superoperator`.  A file in the layout
:func:`write_json` writes is read without building the matrix as Python
lists: its ``data`` array is parsed in slices of rows straight into one
float64 array, which the matrix views.  That path returns the array or
declines; any file it declines is parsed whole, as :func:`read_json` parses
it, from the bytes already read, so a pipe or a FIFO can be read too.

Serialization is deterministic: floats are emitted with 17 significant digits
(lossless for float64; both readers read ``-0`` back as -0.0), keys in fixed
insertion order.  A new or regular file is written via a temp file + rename,
so readers never observe partial output; a new file gets the mode ``0o666``
less the umask, and an existing one keeps its mode.  A device or a FIFO is
written in place, and a symlink's target is written.
Every float is written as ``format(x, ".17g")`` writes it: a matrix's floats
by an array kernel (:mod:`meskit._float_kernel`) that rounds a chunk's digits
in float64 alone (Dekker's exact product with each power of ten held as two
doubles), the same on every platform.  It sends to ``format`` only a value
whose rounding it cannot certify (within 1e-14 of a decimal tie) and any
|x| outside [1e-280, 1e280].
Files are UTF-8 (the writer's JSON is ASCII) whatever the locale.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .errors import DimensionError
from .superop import Superoperator
from .tensor import Dims


# Bytes of a matrix's data array parsed per slice when a file is read: bounds
# the Python lists held at once.
_SLICE_BYTES = 1 << 16
_NOT_PAIRS = "matrix data must be a list of [re, im] pairs"


def dumps(obj) -> str:
    """Deterministic JSON encoding with 17-significant-digit floats."""
    return b"".join(_chunks(obj)).decode("ascii")


def _chunks(obj):
    """Yield the JSON text of ``obj`` in pieces of ASCII bytes; an ``(N, 2)``
    float array (a matrix's ``data``) is written as the list of its rows, and
    an iterator of such arrays (the data in row slabs) as the one list of all
    their rows."""
    if isinstance(obj, (np.ndarray, Iterator)):
        from ._float_kernel import encode  # imported, tables and all, on the first matrix written

        yield from encode((obj,) if isinstance(obj, np.ndarray) else obj)
    elif isinstance(obj, dict):
        yield b"{"
        for i, (k, v) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(str(k))}: ".encode()
            yield from _chunks(v)
        yield b"}"
    elif isinstance(obj, (list, tuple)):
        yield b"["
        for i, v in enumerate(obj):
            if i:
                yield b", "
            yield from _chunks(v)
        yield b"]"
    else:
        yield _scalar(obj).encode()


def _scalar(obj) -> str:
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite number {x!r} cannot be serialized")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON to ``path``, streaming the text so the whole
    document is never held in memory.  A symlink's target is written and
    the link kept.  A new path or a regular file is written atomically (temp
    file + rename), an existing one keeping its mode; any other existing
    file, such as a device or a FIFO, is written in place, since a rename
    would replace it with a regular file.  Every ``OSError`` names ``path``,
    never the temp file or a link's target."""
    tmp = None
    try:
        real = os.path.realpath(path)
        mode = os.stat(real).st_mode if os.path.exists(real) else None
        if mode is not None and not stat.S_ISREG(mode):
            fd = os.open(real, os.O_WRONLY)
        else:
            directory, name = os.path.split(real)
            tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
            # a new file of its own, with the mode open() gives: 0o666 less the umask
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                if tmp and mode is not None:  # the file it replaces keeps its mode
                    os.fchmod(fd, stat.S_IMODE(mode))
                handle.writelines(_chunks(obj))
                handle.write(b"\n")
            if tmp:
                os.replace(tmp, real)
        except BaseException:
            if tmp and os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _parse_int(token: str):
    # the encoder writes -0.0 as "-0", which int() would read as +0
    return -0.0 if token == "-0" else int(token)


def _loads(text: str):
    # nesting deeper than the parser's recursion can go is a ValueError too
    try:
        return json.loads(text, parse_int=_parse_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def read_json(path: str):
    """Parse a JSON file; the token ``-0`` reads back as the float -0.0."""
    with open(path, encoding="utf-8") as handle:
        return _loads(handle.read())


def read_superoperator(path: str) -> Superoperator:
    """``superoperator_from_obj(read_json(path))``: the same superoperator, or
    the same error.

    A file in :func:`write_json`'s layout is read holding only its bytes, the
    matrix and one slice of rows: its head through ``"data": [`` and its end
    from ``]}}`` are matched as bytes, and the array between is parsed by
    :func:`_sliced_pairs` into one float64 array, which the matrix views.  If
    no slice is empty and each parses as a JSON array, the slices joined by
    their commas are one, so the file is JSON with exactly those values.  Any
    other file, and one whose counts, pairs or values that path declines, is
    parsed whole from the bytes already read; that parse makes every refusal.
    """
    with open(path, "rb") as handle:
        buf = handle.read()
    head = _WRITER_HEAD.match(buf)
    # the end is sought in the last 64 bytes: a search of a 5 MB file takes ms
    end = head and _WRITER_END.search(buf, max(head.end(), len(buf) - 64))
    if end:
        try:
            m, n, k, rows, cols = map(int, head.groups())
            dims = dims_from_obj({"m": m, "n": n, "k": k})
            pairs = _sliced_pairs(buf, head.end() - 1, end.start() + 1, rows * cols)
            if pairs is not None and np.isfinite(pairs).all():
                return Superoperator(matrix=pairs.view(complex).reshape(rows, cols), dims=dims)
        except ValueError:
            pass
    # as read_json reads the file: a bad byte raises ValueError, and \r\n and \r
    # read as \n, which moves the line and column an error names
    text = buf.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return superoperator_from_obj(_loads(text))


# write_json's layout of a superoperator: the head through the data array's
# "[", each count a JSON integer, and the end from its "]", which only JSON
# whitespace may follow.
_COUNT = rb"(0|[1-9][0-9]*)"
_WRITER_HEAD = re.compile(
    rb'\{"dims": \{"m": %s, "n": %s, "k": %s\}, "matrix": \{"rows": %s, "cols": %s, "data": \['
    % ((_COUNT,) * 5)
)
_WRITER_END = re.compile(rb"\]\}\}[ \t\n\r]*\Z")
# A row's end and the comma after it, where a slice is cut.
_PAIR_END = re.compile(rb"\][ \t\n\r]*,")


def _sliced_pairs(buf: bytes, start: int, stop: int, expected: int):
    """The JSON array ``buf[start:stop]`` of ``expected`` ``[re, im]`` pairs as
    one ``(expected, 2)`` float64 array, parsed in slices of about
    ``_SLICE_BYTES``, each cut after a row; ``None`` if a slice has a byte of
    '"tfn' or the entries' count is not ``expected``.  A slice that is empty,
    is not JSON ``[re, im]`` pairs, or holds more pairs than ``expected`` or
    its bytes allow raises ValueError."""
    # a pair takes at least 6 bytes with its separator, which bounds the
    # allocation whatever rows and cols claim
    out = np.empty((min(expected, (stop - start) // 6), 2))
    count, pos, last = 0, start + 1, stop - 1
    while pos < last:
        cut = _PAIR_END.search(buf, pos + _SLICE_BYTES, last) if pos + _SLICE_BYTES < last else None
        piece = buf[pos : cut.start() + 1 if cut else last]
        rows = _loads("[" + piece.decode("utf-8") + "]")
        # numpy would read a string, true, false or null as a number, and each
        # starts with one of '"tfn'; an empty or overfull slice raises ValueError below
        if any(c in piece for c in b'"tfn'):
            return None
        out[count : count + len(rows)] = _pairs(rows)
        count += len(rows)
        pos = cut.end() if cut else last
    return out if count == expected else None


def matrix_to_obj(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    rows, cols = a.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": np.ascontiguousarray(a).view(np.float64).reshape(-1, 2),
    }


def row_slabs_to_obj(slabs, rows: int, cols: int) -> dict:
    """Matrix payload of a ``rows`` x ``cols`` matrix given as an iterable of
    complex row slabs, top to bottom.  Each slab is encoded when the payload is
    written and can then be dropped, so the matrix is never held whole; the
    payload can be written once."""

    def data():
        seen = 0
        for slab in slabs:
            if slab.ndim != 2 or slab.shape[1] != cols:
                raise DimensionError(f"expected slabs of {cols} columns, got shape {slab.shape}")
            seen += len(slab)
            yield np.ascontiguousarray(slab, dtype=complex).view(np.float64).reshape(-1, 2)
        if seen != rows:
            raise DimensionError(f"expected {rows} rows, got {seen}")

    return {"rows": rows, "cols": cols, "data": data()}


def _field(obj, key: str):
    """``obj[key]``, or a ValueError naming ``key`` when ``obj`` is not an
    object that carries it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected an object with the key {key!r}")
    return obj[key]


def _count(obj, key: str) -> int:
    """``obj[key]``, or a ValueError naming ``key`` when its value is not an
    integer: a float such as ``2.9`` or ``1e999``, a string or a boolean is
    refused, not truncated."""
    value = _field(obj, key)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"the key {key!r} must hold an integer, got {value!r:.40}")
    return int(value)


def matrix_from_obj(obj) -> np.ndarray:
    """The matrix of a matrix payload; a payload that lacks a key or holds a
    value of the wrong kind raises ValueError."""
    rows, cols = _count(obj, "rows"), _count(obj, "cols")
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be positive: {rows}x{cols}")
    data = _field(obj, "data")
    if not isinstance(data, (list, np.ndarray)):
        raise ValueError(_NOT_PAIRS)
    if len(data) != rows * cols:
        raise DimensionError(f"expected {rows * cols} entries, got {len(data)}")
    pairs = _pairs(data)
    # numpy reads a string, a boolean or null in a parsed list as a float: refuse them
    if isinstance(data, list) and set(map(type, chain.from_iterable(data))) - {int, float}:
        raise ValueError(_NOT_PAIRS)
    if not np.isfinite(pairs).all():
        raise ValueError("matrix contains non-finite entries")
    return pairs.view(complex).reshape(rows, cols)


def _pairs(data) -> np.ndarray:
    # numpy's own text for ragged, nested or non-numeric data, or an entry
    # that no float holds, such as an integer of 400 digits, becomes ours
    try:
        pairs = np.array(data, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ValueError(_NOT_PAIRS) from None
    if pairs.shape != (len(data), 2):
        raise ValueError(_NOT_PAIRS)
    return pairs


def dims_to_obj(dims: Dims) -> dict:
    return {"m": dims.m, "n": dims.n, "k": dims.k}


def dims_from_obj(obj) -> Dims:
    """Dims of a ``{"m", "n", "k"}`` object, whose ``k`` must equal n / m."""
    m, n, k = _count(obj, "m"), _count(obj, "n"), _count(obj, "k")
    dims = Dims(m, n)
    if k != dims.k:
        raise DimensionError(f"block count k = {k} disagrees with n / m = {dims.k}")
    return dims


def superoperator_to_obj(matrix: np.ndarray, dims: Dims) -> dict:
    return {"dims": dims_to_obj(dims), "matrix": matrix_to_obj(matrix)}


def superoperator_from_obj(obj) -> Superoperator:
    """The superoperator of a superoperator object.  A document that is not
    one (a missing or mistyped key, or a count such as ``2.9`` or ``1e999``)
    raises ValueError naming the key, and a matrix whose side does not fit the
    dims the DimensionError of :class:`~meskit.superop.Superoperator`, so
    reading a file raises only ValueError and OSError."""
    dims = dims_from_obj(_field(obj, "dims"))
    return Superoperator(matrix=matrix_from_obj(_field(obj, "matrix")), dims=dims)
