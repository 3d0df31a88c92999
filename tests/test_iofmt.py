import io
import struct

import numpy as np
import pytest

from quditsim import (
    ErrorKind,
    QuantumError,
    default_rng,
    format_matrix,
    format_scalar,
    format_sequence,
    load,
    norm,
    save,
)


def test_format_scalar_real_trimming():
    assert format_scalar(1 + 0j) == "1"
    assert format_scalar(0.70710678 + 0j) == "0.7071"
    assert format_scalar(0.5) == "0.5"
    assert format_scalar(-2.25) == "-2.25"


def test_format_scalar_chop():
    assert format_scalar(1e-12 + 1j) == "1i"  # real part below chop
    assert format_scalar(1 + 1e-11j) == "1"
    assert format_scalar(1e-11 + 1e-11j) == "0"
    # chop is adjustable
    assert format_scalar(1e-11, chop=1e-12) == "0"  # rounds away at precision 4
    assert format_scalar(0.001, precision=2) == "0"


def test_format_scalar_complex_forms():
    assert format_scalar(0.5 + 0.5j) == "0.5+0.5i"
    assert format_scalar(0.5 - 0.5j) == "0.5-0.5i"
    assert format_scalar(-1j) == "-1i"
    assert format_scalar(3 + 1j) == "3+1i"


def test_format_matrix_alignment():
    s = 1 / np.sqrt(2)
    out = format_matrix(np.array([[s], [0], [0], [s]]))
    assert out.splitlines() == ["0.7071", "     0", "     0", "0.7071"]
    out = format_matrix(np.array([[1, 0.5], [-1, 10]]))
    assert out.splitlines() == [" 1 0.5", "-1  10"]


def test_format_matrix_empty_marker():
    assert format_matrix(np.zeros((0, 0))) == "[]"


def test_format_matrix_precision():
    x = 0.123456789
    assert format_matrix(np.array([[x]]), precision=8) == "0.12345679"
    assert format_matrix(np.array([[x]]), precision=2) == "0.12"


def test_format_sequence():
    assert format_sequence([2, 0, 1]) == "2 0 1"
    assert format_sequence([]) == ""
    assert format_sequence([0.5, 0.5], ", ") == "0.5, 0.5"
    assert format_sequence(["a", 1, 0.25], "|") == "a|1|0.25"


def test_save_load_roundtrip_bitwise():
    rng = default_rng(0)
    for _ in range(100):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        A = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        buf = io.BytesIO()
        save(A, buf)
        B = load(io.BytesIO(buf.getvalue()))
        assert B.shape == A.shape
        assert np.array_equal(A.view(np.float64), B.view(np.float64))
        assert norm(A - B) == 0.0


def test_save_load_path_interface(tmp_path):
    rng = default_rng(1)
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    p = tmp_path / "m.qsim"
    save(A, p)
    assert norm(load(p) - A) == 0.0


def test_record_layout():
    buf = io.BytesIO()
    save(np.eye(2), buf)
    data = buf.getvalue()
    # 4 magic + 1 version + 8 rows + 8 cols + 4 entries * 16 bytes
    assert len(data) == 21 + 64
    assert data[:4] == b"QSIM"
    assert data[4] == 1
    rows, cols = struct.unpack_from("<QQ", data, 5)
    assert (rows, cols) == (2, 2)
    # first entry is 1.0 + 0.0i, little-endian doubles
    assert struct.unpack_from("<dd", data, 21) == (1.0, 0.0)


def test_save_special_float_values_bitwise():
    A = np.zeros((2, 2), dtype=np.complex128)
    A.real = [[-0.0, 1e-308], [np.pi, -1.5e300]]
    A.imag = [[0.0, -1e-308], [np.e, 5e-324]]
    buf = io.BytesIO()
    save(A, buf)
    B = load(io.BytesIO(buf.getvalue()))
    assert np.array_equal(A.view(np.float64), B.view(np.float64))
    # signed zero preserved bit for bit
    assert np.signbit(B[0, 0].real)


def test_save_empty_raises():
    with pytest.raises(QuantumError) as ei:
        save(np.zeros((0, 3)), io.BytesIO())
    assert ei.value.kind is ErrorKind.ZERO_SIZE


def test_load_bad_magic():
    buf = io.BytesIO()
    save(np.eye(2), buf)
    data = bytearray(buf.getvalue())
    data[0:4] = b"NOPE"
    with pytest.raises(QuantumError) as ei:
        load(bytes(data))
    assert ei.value.kind is ErrorKind.IO_ERROR


def test_load_unsupported_version():
    buf = io.BytesIO()
    save(np.eye(2), buf)
    data = bytearray(buf.getvalue())
    data[4] = 2
    with pytest.raises(QuantumError) as ei:
        load(bytes(data))
    assert ei.value.kind is ErrorKind.IO_ERROR


def test_load_truncated():
    buf = io.BytesIO()
    save(np.eye(2), buf)
    data = buf.getvalue()
    for cut in (0, 3, 20, len(data) - 1):
        with pytest.raises(QuantumError) as ei:
            load(data[:cut])
        assert ei.value.kind is ErrorKind.IO_ERROR
    # a header claiming ~2**64 bytes fails on the missing data, not by
    # allocating what it claims
    huge = struct.pack("<4sBQQ", b"QSIM", 1, 2**31, 2**29) + bytes(64)
    with pytest.raises(QuantumError) as ei:
        load(io.BytesIO(huge))
    assert ei.value.detail == "truncated payload"


def test_load_reads_one_record_per_call():
    rng = default_rng(2)
    A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    B = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    buf = io.BytesIO()
    save(A, buf)
    save(B, buf)
    buf.seek(0)
    for M in (A, B):
        assert np.array_equal(load(buf).view(np.float64), M.view(np.float64))
    assert buf.read() == b""


def test_load_zero_dims_rejected():
    header = struct.pack("<4sBQQ", b"QSIM", 1, 0, 4)
    with pytest.raises(QuantumError) as ei:
        load(header)
    assert ei.value.kind is ErrorKind.IO_ERROR


def test_load_missing_file():
    with pytest.raises(QuantumError) as ei:
        load("/nonexistent/path/m.qsim")
    assert ei.value.kind is ErrorKind.IO_ERROR


def _closed_stream():
    fh = io.BytesIO()
    fh.close()
    return fh


# a path open() rejects with ValueError, and streams that cannot be used:
# a closed one, and a text stream, which takes and gives str, not bytes
@pytest.mark.parametrize(
    "target",
    ["a\0b", _closed_stream(), io.StringIO("QSIM")],
    ids=["nul_path", "closed_stream", "text_stream"],
)
def test_save_and_load_report_io_error(target):
    with pytest.raises(QuantumError) as ei:
        save(np.eye(2), target)
    assert ei.value.kind is ErrorKind.IO_ERROR and ei.value.op == "save"
    with pytest.raises(QuantumError) as ei:
        load(target)
    assert ei.value.kind is ErrorKind.IO_ERROR and ei.value.op == "load"
