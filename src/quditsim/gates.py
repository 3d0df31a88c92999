"""Standard gates, qudit generalizations, and controlled-gate construction.

The module-level registry ``gt`` holds the fixed qubit gates as read-only
arrays; ``Xd``/``Zd``/``Fd`` generalize to D-level systems and
:func:`ctrl_gate` builds generalized controlled unitaries on uniform-
dimension registers.
"""

from __future__ import annotations

from math import sqrt
from typing import Sequence

import numpy as np

from ._checks import _frozen, allocate, as_int, as_square, ctrl_targets
from .constants import MAXN, omega
from .exceptions import ErrorKind
from ._kernel import _controlled


def cnot() -> np.ndarray:
    """Controlled-NOT on two qubits, control = first (leftmost) qubit."""
    return gt.CNOT.copy()


def Xd(D: int) -> np.ndarray:
    """Cyclic shift |j> -> |j+1 mod D>; reduces to Pauli X for D=2."""
    D = as_int(D, "Xd", "D", 2, kind=ErrorKind.DIMS_INVALID)
    M = allocate("Xd", np.zeros, (D, D))
    j = np.arange(D)
    M[(j + 1) % D, j] = 1.0
    return M


def _roots(D: int) -> np.ndarray:
    """w^j for j < D, w = omega(D): Python powers, each within an ulp or so."""
    w = omega(D)
    return np.array([w**j for j in range(D)])


def Zd(D: int) -> np.ndarray:
    """Clock gate diag(1, w, w^2, ...), w the D-th root of unity."""
    D = as_int(D, "Zd", "D", 2, kind=ErrorKind.DIMS_INVALID)
    M = allocate("Zd", np.zeros, (D, D))
    np.fill_diagonal(M, _roots(D))
    return M


def Fd(D: int) -> np.ndarray:
    """Fourier gate F[j, k] = w^(j*k mod D)/sqrt(D), from the clock gate's
    table of powers; reduces to Hadamard for D=2."""
    D = as_int(D, "Fd", "D", 2, kind=ErrorKind.DIMS_INVALID)
    F = allocate("Fd", np.empty, (D, D))
    j = np.arange(D)
    # mode="wrap" reads index j*k mod D, and writes F unbuffered
    np.take(_roots(D) / sqrt(D), np.outer(j, j), out=F, mode="wrap")
    return F


def ctrl_gate(
    U, ctrl: Sequence[int], target: Sequence[int], n: int, d: int = 2
) -> np.ndarray:
    """Generalized controlled-U on n qudits of uniform dimension d.

    When every control qudit carries the value j the gate applies U^j to
    the target qudits (in the order listed in ``target``); on any other
    control configuration it acts as the identity. For qubits with a
    single control this is the ordinary controlled-U.

    Args:
        U: square matrix of side d**len(target).
        ctrl: control subsystem indices.
        target: target subsystem indices, disjoint from ``ctrl``.
        n: number of qudits in the register, 1 <= n <= MAXN.
        d: dimension of each qudit.

    Returns:
        The (d**n) x (d**n) controlled unitary.
    """
    op = "ctrl_gate"
    M = as_square(U, op)
    d = as_int(d, op, "d", 2, kind=ErrorKind.DIMS_INVALID)
    n = as_int(n, op, "n", 1, MAXN, kind=ErrorKind.DIMS_INVALID)
    ds = [d] * n
    cc, tt = ctrl_targets(op, M.shape[0], ctrl, target, ds)
    return _controlled(M, ds, cc, tt, op)


class GatesRegistry:
    """Read-only table of fixed gates (all unitary).

    Attributes:
        X, Y, Z, H, S, T: single-qubit gates.
        CNOT, CZ, SWAP: two-qubit gates (control first where applicable).
        TOF, FRED: Toffoli and Fredkin, controls before targets.
    """

    def __init__(self):
        s = 1 / sqrt(2)
        self.X = _frozen(np.array([[0, 1], [1, 0]], dtype=np.complex128))
        self.Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
        self.Z = _frozen(np.diag([1, -1]).astype(np.complex128))
        self.H = _frozen(np.array([[s, s], [s, -s]], dtype=np.complex128))
        self.S = _frozen(np.diag([1, 1j]).astype(np.complex128))
        self.T = _frozen(np.diag([1, np.exp(1j * np.pi / 4)]).astype(np.complex128))
        self.CNOT = _frozen(ctrl_gate(self.X, [0], [1], 2))
        self.CZ = _frozen(np.diag([1, 1, 1, -1]).astype(np.complex128))
        swap = np.eye(4, dtype=np.complex128)
        swap[[1, 2]] = swap[[2, 1]]
        self.SWAP = _frozen(swap)
        self.TOF = _frozen(ctrl_gate(self.X, [0, 1], [2], 3))
        self.FRED = _frozen(ctrl_gate(self.SWAP, [0], [1, 2], 3))

    @staticmethod
    def Id(D: int) -> np.ndarray:
        """D x D identity."""
        return allocate("Id", np.eye, as_int(D, "Id", "D", 1))


gt = GatesRegistry()
