"""Standard states and multipartite basis-ket construction.

The module-level registry ``st`` holds the computational/Hadamard qubit
basis states and the four Bell states as read-only arrays. Functions
always return fresh writable arrays.
"""

from __future__ import annotations

from math import prod, sqrt
from typing import Sequence

import numpy as np

from ._checks import _frozen, as_int, check_dims
from .exceptions import QuantumError
from .indexing import multiidx_to_n
from .linalg import kron_pow


def _basis_ket(D: int, j: int) -> np.ndarray:
    v = np.zeros((D, 1), dtype=np.complex128)
    v[j, 0] = 1.0
    return v


class StatesRegistry:
    """Read-only table of frequently used pure states.

    Attributes:
        z0, z1: Z eigenstates |0>, |1>.
        x0, x1: X eigenstates (|0> +/- |1>)/sqrt(2).
        b00, b01, b10, b11: Bell states
            (|00>+|11>)/sqrt(2), (|01>+|10>)/sqrt(2),
            (|00>-|11>)/sqrt(2), (|01>-|10>)/sqrt(2).
    """

    def __init__(self):
        s = 1 / sqrt(2)
        self.z0 = _frozen(_basis_ket(2, 0))
        self.z1 = _frozen(_basis_ket(2, 1))
        self.x0 = _frozen(np.array([[s], [s]], dtype=np.complex128))
        self.x1 = _frozen(np.array([[s], [-s]], dtype=np.complex128))
        self.b00 = _frozen(np.array([[s], [0], [0], [s]], dtype=np.complex128))
        self.b01 = _frozen(np.array([[0], [s], [s], [0]], dtype=np.complex128))
        self.b10 = _frozen(np.array([[s], [0], [0], [-s]], dtype=np.complex128))
        self.b11 = _frozen(np.array([[0], [s], [-s], [0]], dtype=np.complex128))


st = StatesRegistry()


def mket(digits: Sequence[int], dims: Sequence[int] | None = None) -> np.ndarray:
    """Computational-basis ket |digits> over the given subsystem dimensions.

    With ``dims`` omitted every subsystem is a qubit. The amplitude 1 sits
    at the row-major linear index of ``digits``.
    """
    if dims is None:
        dims = [2] * len(digits)
    ds = check_dims(dims, "mket")
    midx = [as_int(x, "mket", "digit") for x in digits]
    ket = np.zeros((prod(ds), 1), dtype=np.complex128)
    try:
        ket[multiidx_to_n(midx, ds), 0] = 1.0
    except QuantumError as err:
        raise QuantumError(err.kind, "mket", err.detail) from None
    return ket


def bell00() -> np.ndarray:
    """The Bell state (|00> + |11>)/sqrt(2)."""
    return st.b00.copy()


def shor_codeword(logical: int) -> np.ndarray:
    """Codeword of the nine-qubit [[9,1,3]] repetition-of-GHZ code.

    ``logical=0`` gives ((|000>+|111>)/sqrt(2))^(x3), ``logical=1`` the
    same with a relative minus sign: a 512-dimensional unit ket with 8
    nonzero amplitudes of magnitude 1/(2*sqrt(2)).
    """
    logical = as_int(logical, "shor_codeword", "logical", 0, 1)
    s = 1 / sqrt(2)
    ghz = np.zeros((8, 1), dtype=np.complex128)
    ghz[0, 0] = s
    ghz[7, 0] = -s if logical else s
    return kron_pow(ghz, 3)
