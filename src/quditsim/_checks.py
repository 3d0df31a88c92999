"""Shared input validation and the one tolerance policy (internal).

Every public operation funnels its arguments through these, so the
"validate eagerly, fail with a kind + operation name" discipline lives in
one place. Every check that compares a measured error with a tolerance
goes through :func:`within`, which raises unless ``err <= tol``: NaN
compares false with everything, so NaN input fails every check. The
registries' read-only marker lives here too.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from .constants import EPS, MAXN
from .exceptions import ErrorKind, QuantumError

# How far a trace, a ket's squared norm or a probability sum may stray from 1.
TRACE_TOL = 1e-6
# How negative the smallest eigenvalue of a density matrix may be.
PSD_TOL = 1e-10


def within(
    err: float, tol: float, op: str, check: str, kind: ErrorKind = ErrorKind.DIMS_INVALID
) -> None:
    """Raise ``QuantumError(kind, op)`` naming the check unless err <= tol."""
    if not err <= tol:
        raise QuantumError(kind, op, f"{check}: error {err:.3g}, tolerance {tol:.3g}")


def as_int(x, op: str, what: str, lo=None, hi=None, kind=ErrorKind.OUT_OF_RANGE) -> int:
    """x as an int in [lo, hi], either bound optional.

    Python and numpy integers pass; a bool, float or string is
    OUT_OF_RANGE, and an integer outside the bounds is ``kind``.
    """
    try:
        if isinstance(x, bool):
            raise TypeError
        v = operator.index(x)
    except TypeError:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, op, f"{what}={x!r} is not an integer") from None
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        raise QuantumError(kind, op, f"{what}={v}")
    return v


@lru_cache(maxsize=4096, typed=True)
def _dims_info(*dims) -> tuple[tuple[int, ...], int]:
    """Validated dimension tuple and its total product.

    Memoized per argument types too, so 2.0 never hits the entry for 2.
    """
    ds = tuple(as_int(d, "validate_dims", "dimension") for d in dims)
    if len(ds) == 0:
        raise QuantumError(ErrorKind.DIMS_INVALID, "validate_dims", "empty dimension list")
    if len(ds) > MAXN:
        raise QuantumError(
            ErrorKind.DIMS_INVALID, "validate_dims", f"more than {MAXN} subsystems"
        )
    if any(d < 2 for d in ds):
        raise QuantumError(
            ErrorKind.DIMS_INVALID, "validate_dims", "every dimension must be >= 2"
        )
    return ds, prod(ds)


def as_matrix(A, op: str) -> np.ndarray:
    """Coerce to a nonempty 2-D complex128 array; 1-D input becomes a column.

    A complex128 input is returned as is or as a view, so callers must
    neither write the result nor return it without a copy.
    """
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, f"expected a matrix, got ndim={M.ndim}")
    if M.size == 0:
        raise QuantumError(ErrorKind.ZERO_SIZE, op)
    return M


def as_square(A, op: str) -> np.ndarray:
    """:func:`as_matrix` of a square matrix."""
    M = as_matrix(A, op)
    if M.shape[0] != M.shape[1]:
        raise QuantumError(ErrorKind.MATRIX_NOT_SQUARE, op, f"shape {M.shape}")
    return M


def hermitian_part(A, op: str, what: str = "matrix") -> np.ndarray:
    """(M + M^dag) / 2 for a square M that is Hermitian up to roundoff.

    The error max|M - M^dag| is taken relative to max(1, max|M|), so the
    same matrix passes at every scale; an inf entry makes it inf / inf,
    which is NaN and fails.
    """
    M = as_square(A, op)
    H = M.conj().T
    err = float(np.abs(M - H).max()) / max(1.0, float(np.abs(M).max()))
    within(err, EPS, op, f"{what} is not Hermitian")
    return (M + H) / 2


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a registry array read-only and return it."""
    a.setflags(write=False)
    return a


def check_dims(dims: Sequence[int], op: str) -> list[int]:
    """Validate a subsystem-dimension list: nonempty, integers >= 2, length <= MAXN."""
    try:
        ds, _ = _dims_info(*dims)
    except QuantumError as err:
        raise QuantumError(err.kind, op, err.detail) from None
    return list(ds)


def check_subsys(subsys: Sequence[int], n: int, op: str, allow_empty: bool = False) -> list[int]:
    """Validate a subsystem index list against an n-part composite space."""
    ss = [as_int(k, op, "subsystem index") for k in subsys]
    if not ss:
        if allow_empty:
            return ss
        raise QuantumError(ErrorKind.ZERO_SIZE, op, "empty subsystem list")
    if len(set(ss)) != len(ss):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "duplicate subsystem index")
    if any(k < 0 or k >= n for k in ss):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, f"index outside [0, {n})")
    return ss


def _targets(
    op: str, side: int, subsys: Sequence[int], ds: list[int], what: str, of: str = "targeted"
) -> list[int]:
    """Validated subsystem list whose dimensions multiply to ``side``."""
    ss = check_subsys(subsys, len(ds), op)
    p = prod(ds[k] for k in ss)
    if side != p:
        detail = f"{what} side {side} != product of {of} dimensions {p}"
        raise QuantumError(ErrorKind.DIMS_MISMATCH_MATRIX, op, detail)
    return ss


def as_state(state, D: int, op: str) -> tuple[np.ndarray, bool]:
    """Validate a ket (D x 1) or square matrix (D x D); returns (array, is_ket)."""
    M = as_matrix(state, op)
    if M.shape == (D, 1):
        return M, True
    if M.shape == (D, D):
        return M, False
    raise QuantumError(
        ErrorKind.NOT_SQUARE_NOR_KET, op, f"shape {M.shape} for total dimension {D}"
    )
