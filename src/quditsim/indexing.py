"""Multi-index <-> linear-index arithmetic over composite spaces.

The convention is row-major: the leftmost subsystem is the most
significant digit, so the basis label |10> over dimensions [2, 2] is
linear index 2.

The converters are pure-Python helpers for callers that label basis
states; the kernels index through numpy reshapes and never call them.
Each reads the validated dimension tuple and its product from one
``_checks.as_dims`` call, whose lookup is memoized on the tuple. Digits
and indices go through ``as_int`` unless they are plain ints.
"""

from __future__ import annotations

from typing import Sequence

from ._checks import as_dims, as_int
from .exceptions import ErrorKind, QuantumError


def multiidx_to_n(midx: Sequence[int], dims: Sequence[int]) -> int:
    """Linear index of a multi-index: n = sum_k midx[k] * prod_{j>k} dims[j]."""
    ds, _ = as_dims(dims, "multiidx_to_n")
    try:
        k = len(midx)
    except TypeError:
        detail = f"digit list {midx!r} is not a sequence"
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "multiidx_to_n", detail) from None
    if k != len(ds):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS, "multiidx_to_n", f"{k} digits for {len(ds)} subsystems"
        )
    n = 0
    for digit, d in zip(midx, ds):
        if type(digit) is not int:
            digit = as_int(digit, "multiidx_to_n", "digit")
        if not 0 <= digit < d:
            raise QuantumError(
                ErrorKind.OUT_OF_RANGE, "multiidx_to_n", f"digit {digit} for dimension {d}"
            )
        n = n * d + digit
    return n


def n_to_multiidx(n: int, dims: Sequence[int]) -> list[int]:
    """Inverse of :func:`multiidx_to_n`."""
    ds, D = as_dims(dims, "n_to_multiidx")
    if type(n) is not int:
        n = as_int(n, "n_to_multiidx", "n")
    if not 0 <= n < D:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "n_to_multiidx", f"n={n}")
    out = []
    for d in ds[::-1]:
        out.append(n % d)
        n //= d
    out.reverse()
    return out


def validate_dims(dims: Sequence[int], total: int) -> None:
    """Check that ``dims`` is a valid decomposition of a space of size ``total``."""
    _, D = as_dims(dims, "validate_dims")
    if D != as_int(total, "validate_dims", "total"):
        raise QuantumError(
            ErrorKind.DIMS_MISMATCH_MATRIX, "validate_dims", f"prod(dims)={D} != {total}"
        )
