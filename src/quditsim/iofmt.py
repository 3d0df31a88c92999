"""Human-readable matrix display and the QSIM binary matrix format.

Display renders entries as ``a+bi`` with a fixed number of digits after
the decimal point (trailing zeros trimmed); components below the chop
threshold print as zero, and pure-real entries drop the imaginary term.

The QSIM byte layout (little-endian throughout):

    offset  size  field
    0       4     magic bytes b"QSIM"
    4       1     format version, 0x01
    5       8     rows, unsigned 64-bit
    13      8     cols, unsigned 64-bit
    21      -     rows*cols entries, row-major, each two IEEE-754
                  binary64 values (real part, imaginary part)

Save/load round-trips are bitwise exact.
"""

from __future__ import annotations

import contextlib
import io
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from ._checks import as_matrix
from .constants import CHOP
from .exceptions import ErrorKind, QuantumError

MAGIC = b"QSIM"
VERSION = 1

_HEADER = struct.Struct("<4sBQQ")
_CHUNK = 1 << 22  # bytes per payload read


def _fmt_component(x: float, precision: int) -> str:
    s = f"{x:.{precision}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def _as_complex(z, op: str) -> complex:
    try:
        return complex(z)
    except (TypeError, ValueError) as err:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, f"not a number: {err}") from None


def format_scalar(z: complex, precision: int = 4, chop: float = CHOP) -> str:
    """Render one complex number as ``a+bi``, chopping tiny components."""
    z = _as_complex(z, "format_scalar")
    re = 0.0 if abs(z.real) < chop else z.real
    im = 0.0 if abs(z.imag) < chop else z.imag
    rs = _fmt_component(re, precision)
    ims = _fmt_component(im, precision)
    if ims == "0":
        return rs
    if rs == "0":
        return f"{ims}i"
    sep = "" if ims.startswith("-") else "+"
    return f"{rs}{sep}{ims}i"


def format_matrix(A, precision: int = 4, chop: float = CHOP) -> str:
    """Multi-line, column-aligned rendering of a matrix.

    The empty matrix renders as ``[]``.
    """
    try:
        M = as_matrix(A, "format_matrix")
    except QuantumError as err:
        if err.kind is ErrorKind.ZERO_SIZE:
            return "[]"
        raise
    cells = [[format_scalar(z, precision, chop) for z in row] for row in M]
    widths = [max(len(cells[i][j]) for i in range(M.shape[0])) for j in range(M.shape[1])]
    return "\n".join(
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def format_sequence(xs: Iterable, delimiter: str = " ", precision: int = 4, chop: float = CHOP) -> str:
    """Join a sequence of numbers/strings with a delimiter."""
    op = "format_sequence"
    try:
        items = iter(xs)
    except TypeError:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, f"{xs!r} is not a sequence") from None
    parts = []
    for x in items:
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, (int, np.integer)):
            parts.append(str(int(x)))
        else:
            parts.append(format_scalar(_as_complex(x, op), precision, chop))
    return delimiter.join(parts)


def _opened(target, mode: str, op: str):
    """A path opened in ``mode``, or a stream as is, to use in ``with``;
    anything else is IO_ERROR."""
    if isinstance(target, (str, Path)):
        return open(target, mode)
    if not hasattr(target, "read" if mode == "rb" else "write"):
        raise QuantumError(ErrorKind.IO_ERROR, op, f"{target!r} is neither a path nor a stream")
    return contextlib.nullcontext(target)


def save(A, sink) -> None:
    """Write a matrix to a binary stream or path in the QSIM format."""
    M = as_matrix(A, "save")
    header = _HEADER.pack(MAGIC, VERSION, M.shape[0], M.shape[1])
    payload = np.ascontiguousarray(M, dtype="<c16").tobytes()
    # ValueError: a closed stream, or a NUL byte in a path; TypeError: a text stream
    try:
        with _opened(sink, "wb", "save") as fh:
            fh.write(header)
            fh.write(payload)
    except (OSError, TypeError, ValueError) as exc:
        raise QuantumError(ErrorKind.IO_ERROR, "save", str(exc)) from None


def _read_exact(fh, n: int, what: str) -> bytearray:
    # Bounded reads: a corrupt header asking for a huge payload fails on
    # the first missing chunk instead of allocating its claimed size.
    buf = bytearray()
    while len(buf) < n:
        block = fh.read(min(n - len(buf), _CHUNK))
        if not block:
            raise QuantumError(ErrorKind.IO_ERROR, "load", f"truncated {what}")
        buf += block
    return buf


def _read_record(fh) -> np.ndarray:
    magic, version, rows, cols = _HEADER.unpack(_read_exact(fh, _HEADER.size, "header"))
    if magic != MAGIC:
        raise QuantumError(ErrorKind.IO_ERROR, "load", "bad magic bytes")
    if version != VERSION:
        raise QuantumError(ErrorKind.IO_ERROR, "load", f"unsupported version {version}")
    if rows == 0 or cols == 0:
        raise QuantumError(ErrorKind.IO_ERROR, "load", "empty matrix record")
    payload = _read_exact(fh, 16 * rows * cols, "payload")
    flat = np.frombuffer(payload, dtype="<c16")
    return flat.astype(np.complex128, copy=False).reshape(rows, cols)


def load(source) -> np.ndarray:
    """Read back one matrix written by :func:`save`, bit for bit.

    A stream is left just after the record read, so matrices saved one
    after another to a stream load back one per call.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    # ValueError: a closed stream, or a NUL byte in a path; TypeError: a text stream
    try:
        with _opened(source, "rb", "load") as fh:
            return _read_record(fh)
    except (OSError, TypeError, ValueError) as exc:
        raise QuantumError(ErrorKind.IO_ERROR, "load", str(exc)) from None
