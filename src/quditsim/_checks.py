"""Shared input validation and the one tolerance policy (internal).

Every public operation funnels its arguments through these, so the
"validate eagerly, fail with a kind + operation name" discipline lives in
one place. A dimension list is validated only by :func:`as_dims`, the one
reader of the memoized lookup; it returns the dims with their product
and names its errors for the caller. Every check that compares a
measured error with a tolerance goes through :func:`within`, which raises
unless ``err <= tol``: NaN compares false with everything, so NaN input
fails every check. The registries' read-only marker lives here too.
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


def as_dims(dims: Sequence[int], op: str) -> tuple[tuple[int, ...], int]:
    """Validated dims and their product D, from the one memoized lookup:
    nonempty, integers >= 2, at most MAXN of them. Its errors are named for
    ``op``; dims that are not a sequence of hashable entries are DIMS_INVALID."""
    try:
        return _dims_info(*dims)
    except QuantumError as err:
        raise QuantumError(err.kind, op, err.detail) from None
    except TypeError:
        detail = f"dims={dims!r} is not a sequence of integers"
        raise QuantumError(ErrorKind.DIMS_INVALID, op, detail) from None


def allocate(op: str, make, shape, dtype=np.complex128) -> np.ndarray:
    """``make(shape, dtype=dtype)`` for ``make`` np.zeros, np.eye or a
    generator's draw.

    numpy's MemoryError, or its ValueError for a shape whose byte count
    overflows, becomes ``DIMS_INVALID``.
    """
    try:
        return make(shape, dtype=dtype)
    except (MemoryError, ValueError):
        raise QuantumError(
            ErrorKind.DIMS_INVALID, op, f"{make.__name__}({shape}) too large to allocate"
        ) from None


def as_matrix(A, op: str) -> np.ndarray:
    """Coerce to a nonempty 2-D complex128 array; 1-D input becomes a column.

    A complex128 input is returned as is or as a view, so callers must
    neither write the result nor return it without a copy. Input numpy
    cannot read as complex numbers is ``DIMS_INVALID``.
    """
    try:
        M = np.asarray(A, dtype=np.complex128)
    except (TypeError, ValueError) as err:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, f"not a complex array: {err}") from None
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
    same matrix passes at every scale. An inf entry makes it NaN (inf - inf
    or inf / inf) and an overflowing difference makes it inf; both fail the
    check instead of raising numpy's warning first.
    """
    M = as_square(A, op)
    H = M.conj().T
    with np.errstate(invalid="ignore", over="ignore"):
        err = float(np.abs(M - H).max()) / max(1.0, float(np.abs(M).max()))
    within(err, EPS, op, f"{what} is not Hermitian")
    return (M + H) / 2


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a registry array read-only and return it."""
    a.setflags(write=False)
    return a


def as_ints(xs: Sequence[int], op: str, what: str) -> list[int]:
    """Each entry of the index list xs through :func:`as_int`; xs that is not
    iterable is OUT_OF_RANGE, as a non-integer entry is."""
    try:
        return [as_int(x, op, what) for x in xs]
    except TypeError:
        detail = f"{what} list {xs!r} is not a sequence"
        raise QuantumError(ErrorKind.OUT_OF_RANGE, op, detail) from None


def check_subsys(subsys: Sequence[int], n: int, op: str, allow_empty: bool = False) -> list[int]:
    """Validate a subsystem index list against an n-part composite space."""
    ss = as_ints(subsys, op, "subsystem index")
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


def ctrl_targets(op: str, side: int, ctrl, target, ds: list[int]) -> tuple[list[int], list[int]]:
    """Validated (ctrl, target) of a controlled operator of side ``side``: the
    targets first, then controls disjoint from them and of one dimension."""
    tt = _targets(op, side, target, ds, "operator", "target")
    cc = check_subsys(ctrl, len(ds), op)
    if set(cc) & set(tt):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "ctrl and target overlap")
    if any(ds[c] != ds[cc[0]] for c in cc):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS, op, "control subsystems must share one dimension"
        )
    return cc, tt


def as_state(state, dims: Sequence[int], op: str) -> tuple[np.ndarray, list[int], bool]:
    """Validate ``dims`` and a ket (D x 1) or square matrix (D x D) over them,
    D = prod(dims); returns (array, validated dims, is_ket)."""
    ds, D = as_dims(dims, op)
    M = as_matrix(state, op)
    if M.shape != (D, 1) and M.shape != (D, D):
        raise QuantumError(
            ErrorKind.NOT_SQUARE_NOR_KET, op, f"shape {M.shape} for total dimension {D}"
        )
    return M, list(ds), M.shape[1] == 1


def _check_kraus(Ks, op: str) -> list[np.ndarray]:
    try:
        empty = Ks is None or len(Ks) == 0
    except TypeError:
        detail = f"Kraus list {Ks!r} is not a sequence"
        raise QuantumError(ErrorKind.DIMS_INVALID, op, detail) from None
    if empty:
        raise QuantumError(ErrorKind.ZERO_SIZE, op, "empty Kraus list")
    out = [as_square(K, op) for K in Ks]
    if any(K.shape != out[0].shape for K in out):
        raise QuantumError(ErrorKind.DIMS_MISMATCH_MATRIX, op, "Kraus operators differ in shape")
    return out


def _check_perm(perm: Sequence[int], op: str) -> list[int]:
    p = as_ints(perm, op, "permutation entry")
    if len(p) == 0 or sorted(p) != list(range(len(p))):
        raise QuantumError(ErrorKind.PERM_INVALID, op, f"{p}")
    return p
