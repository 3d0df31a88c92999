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

from ._checks import _frozen, as_int, as_square, check_subsys
from .constants import omega
from .exceptions import ErrorKind, QuantumError
from .operations import _contract


def cnot() -> np.ndarray:
    """Controlled-NOT on two qubits, control = first (leftmost) qubit."""
    return gt.CNOT.copy()


def Xd(D: int) -> np.ndarray:
    """Cyclic shift |j> -> |j+1 mod D>; reduces to Pauli X for D=2."""
    D = as_int(D, "Xd", "D", 2, kind=ErrorKind.DIMS_INVALID)
    M = np.zeros((D, D), dtype=np.complex128)
    for j in range(D):
        M[(j + 1) % D, j] = 1.0
    return M


def Zd(D: int) -> np.ndarray:
    """Clock gate diag(1, w, w^2, ...), w the D-th root of unity."""
    D = as_int(D, "Zd", "D", 2, kind=ErrorKind.DIMS_INVALID)
    w = omega(D)
    return np.diag([w**j for j in range(D)]).astype(np.complex128)


def Fd(D: int) -> np.ndarray:
    """Fourier gate F[j, k] = w^(j*k)/sqrt(D); reduces to Hadamard for D=2."""
    D = as_int(D, "Fd", "D", 2, kind=ErrorKind.DIMS_INVALID)
    w = omega(D)
    j, k = np.meshgrid(np.arange(D), np.arange(D), indexing="ij")
    return w ** (j * k) / sqrt(D)


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
        n: number of qudits in the register.
        d: dimension of each qudit.

    Returns:
        The (d**n) x (d**n) controlled unitary.
    """
    M = as_square(U, "ctrl_gate")
    d = as_int(d, "ctrl_gate", "d", 2, kind=ErrorKind.DIMS_INVALID)
    n = as_int(n, "ctrl_gate", "n", 1)
    ctrl = check_subsys(ctrl, n, "ctrl_gate")
    target = check_subsys(target, n, "ctrl_gate")
    if set(ctrl) & set(target):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS, "ctrl_gate", "ctrl and target overlap"
        )
    tdim = d ** len(target)
    if M.shape[0] != tdim:
        raise QuantumError(
            ErrorKind.DIMS_MISMATCH_MATRIX,
            "ctrl_gate",
            f"U side {M.shape[0]} != d**len(target) = {tdim}",
        )

    D = d**n
    # column k of the gate is its image of basis ket k: one batched pass
    # over the identity, the trailing axis indexing the columns
    K = _contract(np.eye(D, dtype=np.complex128).reshape([d] * n + [D]), M, target, ctrl, d)
    return K.reshape(D, D)


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
        return np.eye(as_int(D, "Id", "D", 1), dtype=np.complex128)


gt = GatesRegistry()
