"""Shared input-validation helpers (internal).

Every public operation funnels its arguments through these, so the
"validate eagerly, fail with a kind + operation name" discipline lives in
one place. The registries' read-only marker lives here too.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from .constants import EPS
from .exceptions import ErrorKind, QuantumError
from .indexing import _dims_info


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


def hermitian_part(M: np.ndarray, op: str, what: str = "matrix") -> np.ndarray:
    """(M + M^dag) / 2 for a square M that is Hermitian up to roundoff.

    The tolerance scales with the entries, EPS * max(1, max|M|), so the
    same matrix passes at every scale.
    """
    H = M.conj().T
    if np.abs(M - H).max() > EPS * max(1.0, float(np.abs(M).max())):
        raise QuantumError(ErrorKind.DIMS_INVALID, op, f"{what} is not Hermitian")
    return (M + H) / 2


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a registry array read-only and return it."""
    a.setflags(write=False)
    return a


def check_square(M: np.ndarray, op: str) -> None:
    if M.shape[0] != M.shape[1]:
        raise QuantumError(ErrorKind.MATRIX_NOT_SQUARE, op, f"shape {M.shape}")


def check_dims(dims: Sequence[int], op: str) -> list[int]:
    """Validate a subsystem-dimension list: nonempty, entries >= 2, length <= MAXN."""
    try:
        ds, _ = _dims_info(tuple(dims))
    except QuantumError as err:
        raise QuantumError(err.kind, op, err.detail) from None
    return list(ds)


def check_dims_match(dims: Sequence[int], total: int, op: str) -> list[int]:
    ds = check_dims(dims, op)
    if prod(ds) != total:
        raise QuantumError(
            ErrorKind.DIMS_MISMATCH_MATRIX, op, f"prod(dims)={prod(ds)} != {total}"
        )
    return ds


def check_subsys(subsys: Sequence[int], n: int, op: str, allow_empty: bool = False) -> list[int]:
    """Validate a subsystem index list against an n-part composite space."""
    ss = [int(k) for k in subsys]
    if not ss:
        if allow_empty:
            return ss
        raise QuantumError(ErrorKind.ZERO_SIZE, op, "empty subsystem list")
    if len(set(ss)) != len(ss):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "duplicate subsystem index")
    if any(k < 0 or k >= n for k in ss):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, f"index outside [0, {n})")
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
