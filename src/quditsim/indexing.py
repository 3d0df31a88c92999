"""Multi-index <-> linear-index arithmetic over composite spaces.

The convention is row-major: the leftmost subsystem is the most
significant digit, so the basis label |10> over dimensions [2, 2] is
linear index 2.

The converters are pure-Python helpers for callers that label basis
states; the kernels index through numpy reshapes and never call them.
The per-dims validation they share is memoized on the dimension tuple.
"""

from __future__ import annotations

from typing import Sequence

from ._checks import _dims_info, as_int
from .exceptions import ErrorKind, QuantumError


def multiidx_to_n(midx: Sequence[int], dims: Sequence[int]) -> int:
    """Linear index of a multi-index: n = sum_k midx[k] * prod_{j>k} dims[j]."""
    ds, _ = _dims_info(*dims)
    if len(midx) != len(ds):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS,
            "multiidx_to_n",
            f"{len(midx)} digits for {len(ds)} subsystems",
        )
    n = 0
    for digit, d in zip(midx, ds):
        if not 0 <= digit < d:
            raise QuantumError(
                ErrorKind.OUT_OF_RANGE, "multiidx_to_n", f"digit {digit} for dimension {d}"
            )
        n = n * d + digit
    return int(n)


def n_to_multiidx(n: int, dims: Sequence[int]) -> list[int]:
    """Inverse of :func:`multiidx_to_n`."""
    ds, total = _dims_info(*dims)
    if not 0 <= n < total:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "n_to_multiidx", f"n={n}")
    n = int(n)
    out = [0] * len(ds)
    for k in range(len(ds) - 1, -1, -1):
        n, out[k] = divmod(n, ds[k])
    return out


def validate_dims(dims: Sequence[int], total: int) -> None:
    """Check that ``dims`` is a valid decomposition of a space of size ``total``."""
    _, p = _dims_info(*dims)
    if p != as_int(total, "validate_dims", "total"):
        raise QuantumError(
            ErrorKind.DIMS_MISMATCH_MATRIX, "validate_dims", f"prod(dims)={p} != {total}"
        )
