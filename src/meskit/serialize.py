"""JSON formats shared by the CLI and the file interfaces.

Matrix payload: ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with the
entries of a 2-D matrix in row-major order.  In memory, :func:`matrix_to_obj`
carries ``data`` as an ``(r*c, 2)`` float64 view of the matrix, and
:func:`row_slabs_to_obj` as a one-shot iterator of such views, one per slab of
rows; the encoder writes either in fixed-size chunks.
:func:`read_superoperator` reads a superoperator file back as a
:class:`~meskit.superop.Superoperator` without building the matrix as Python
lists: it parses the ``data`` array in slices of rows straight into one
float64 array.

Serialization is deterministic: floats are emitted with 17 significant digits
(lossless for float64; both readers read ``-0`` back as -0.0), keys in fixed
insertion order, files written via a temp file + rename so readers never
observe partial output; a written file gets the mode ``0o666`` less the umask.
Every float is written as ``format(x, ".17g")`` writes it: a matrix's floats
by an array kernel (:mod:`meskit._float_kernel`) that rounds a chunk's digits
in long double and sends each value whose rounding it cannot certify to
``format``.
Files are UTF-8 (the writer's JSON is ASCII) whatever the locale.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass

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
    if isinstance(obj, np.ndarray):
        yield from _array_chunks((obj,))
    elif isinstance(obj, Iterator):
        yield from _array_chunks(obj)
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


def _array_chunks(slabs):
    """Yield the rows of a sequence of ``(N, 2)`` float arrays as the one text
    ``[[x, y], ...]``, each chunk of the float kernel's ``_BLOCK`` rows
    encoded by it."""
    from ._float_kernel import _BLOCK, encode_block  # compiled on first use, not at import

    yield b"["
    separator = b""
    for a in slabs:
        if not isinstance(a, np.ndarray):
            raise TypeError(f"cannot serialize a {type(a).__name__} as matrix data")
        if a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind != "f":
            raise TypeError(f"cannot serialize a {a.dtype} array of shape {a.shape}")
        for start in range(0, len(a), _BLOCK):
            chunk = np.ascontiguousarray(a[start : start + _BLOCK], dtype=np.float64)
            if not np.isfinite(chunk).all():
                raise ValueError("non-finite number cannot be serialized")
            # kept until the next block is encoded: freed first, glibc trims the heap
            # and each block faults its temporaries in again (5x the page faults)
            text = encode_block(chunk)
            yield separator + text
            separator = b", "
    yield b"]"


def write_json(path: str, obj) -> None:
    """Atomically write ``obj`` as JSON to ``path`` (temp file + rename),
    streaming the text so the whole document is never held in memory.  Every
    ``OSError`` names ``path``, never the temp file."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # a new file of its own, with the mode open() gives: 0o666 less the umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.writelines(_chunks(obj))
                handle.write(b"\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
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
    """``superoperator_from_obj(read_json(path))``, with the same checks,
    holding only the file's bytes, the matrix and one slice of rows.  A file
    with faults in more than one place may be refused for another of them.

    The document is parsed with its top-level ``matrix.data`` array cut out
    and a placeholder in its place; the array is then parsed in slices of
    about ``_SLICE_BYTES``, each cut after a row, and each slice's pairs are
    converted as :func:`matrix_from_obj` converts them, into one float64
    array.  A document without such an array is parsed whole.
    """
    with open(path, "rb") as handle:
        buf = handle.read()
    # files are UTF-8, as open() reads them; a bad byte raises ValueError
    span = _data_span(buf)
    if span is None:
        return superoperator_from_obj(_loads(buf.decode("utf-8")))
    data = _DataSpan(buf, *span)
    obj = _loads((buf[: data.start] + _PLACEHOLDER + buf[data.end :]).decode("utf-8"))
    matrix = obj.get("matrix") if isinstance(obj, dict) else None
    if isinstance(matrix, dict) and matrix.get("data") == "\x00":
        matrix["data"] = data
    else:  # a repeated key replaced the array, which must still be JSON
        for _ in data.row_slices():
            pass
    return superoperator_from_obj(obj)


# A string (so that brackets inside one are skipped) or a structural character.
_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|[][{}:,]', re.DOTALL)
# The (opener, key) stack at the value of a top-level object's "matrix" key.
_MATRIX_PATH = [(b"{", None), (b"{", b'"matrix"')]
# JSON whitespace only: bytes a cut skips must be ones json would skip too.
_EMPTY_ARRAY = re.compile(rb"\[[ \t\n\r]*\]")
_LAST_PAIR_END = re.compile(rb"\][ \t\n\r]*\]")
_PAIR_END = re.compile(rb"\][ \t\n\r]*,")
# A one-character string, NUL: no other string of the document can equal it
# unless the document spells \u0000 outside the array.
_NUL_ESCAPE = b"\\u0000"
_PLACEHOLDER = b'"' + _NUL_ESCAPE + b'"'


def _data_span(buf: bytes):
    """Byte span ``(start, end)`` of the array at ``matrix.data`` of a
    top-level object, or None.

    Only the tokens in front of the array are walked; the array is taken to
    end at the first ``]`` that closes right after another, as an array of
    ``[re, im]`` pairs does.  Nothing found here is trusted: the document
    with the span cut out and the span itself must each parse as JSON, and
    then the document parses, as a whole, to the same values.
    """
    path, key = [], None
    for token in _TOKEN.finditer(buf):
        t = token[0]
        if t == b"[" and key == b'"data"' and path == _MATRIX_PATH:
            start = token.start()
            close = _EMPTY_ARRAY.match(buf, start) or _LAST_PAIR_END.search(buf, start)
            if close is None:
                return None
            end = close.end()
            if buf.find(_NUL_ESCAPE, 0, start) >= 0 or buf.find(_NUL_ESCAPE, end) >= 0:
                return None
            return start, end
        if t in (b"{", b"["):
            path.append((t, key))
            key = None
        elif t in (b"}", b"]", b","):
            if t != b"," and path:
                path.pop()
            key = None
        elif t != b":" and path and path[-1][0] == b"{" and key is None:
            key = t
    return None


@dataclass(frozen=True)
class _DataSpan:
    """A matrix's ``data`` array as the bytes ``buf[start:end]``, parsed when
    the matrix is built."""

    buf: bytes
    start: int
    end: int

    def row_slices(self):
        """The array's entries as lists of about ``_SLICE_BYTES`` of text."""
        pos, stop = self.start + 1, self.end - 1
        while pos < stop:
            cut = None
            if pos + _SLICE_BYTES < stop:
                cut = _PAIR_END.search(self.buf, pos + _SLICE_BYTES, stop)
            end = cut.start() + 1 if cut else stop
            text = self.buf[pos:end].decode("utf-8")
            try:
                rows = _loads("[" + text + "]")
            except json.JSONDecodeError as exc:
                # name the place in the file, as a parse of the whole file would
                before = self.buf[:pos].decode("utf-8") + text[: max(exc.pos - 1, 0)]
                raise json.JSONDecodeError(exc.msg, before, len(before)) from None
            if rows:  # only the empty array gives an empty slice
                yield rows
            pos = cut.end() if cut else stop

    def pairs(self, expected: int) -> np.ndarray:
        # a pair takes at least 6 bytes with its separator, which bounds the
        # allocation whatever rows and cols claim
        out = np.empty((min(expected, (self.end - self.start) // 6), 2))
        count = 0
        for rows in self.row_slices():
            if count + len(rows) <= len(out):
                out[count : count + len(rows)] = _pairs(rows)
            count += len(rows)
        if count != expected:
            raise DimensionError(f"expected {expected} entries, got {count}")
        if count > len(out):  # entries too short to be pairs
            raise ValueError(_NOT_PAIRS)
        return out


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
    if isinstance(data, _DataSpan):
        pairs = data.pairs(rows * cols)
    elif not isinstance(data, (list, np.ndarray)):
        raise ValueError(_NOT_PAIRS)
    elif len(data) != rows * cols:
        raise DimensionError(f"expected {rows * cols} entries, got {len(data)}")
    else:
        pairs = _pairs(data)
    if not np.isfinite(pairs).all():
        raise ValueError("matrix contains non-finite entries")
    return pairs.view(complex).reshape(rows, cols)


def _pairs(data) -> np.ndarray:
    # ragged or non-numeric data raises ValueError here, and so does an
    # entry that no float holds, such as an integer of 400 digits
    try:
        pairs = np.array(data, dtype=np.float64, order="C")
    except (TypeError, OverflowError):
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
