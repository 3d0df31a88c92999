"""Shannon/von Neumann entropies and quantum mutual information.

All entropies use log base 2, so a maximally mixed qubit carries exactly
one bit. The 0*log(0) terms are dropped via the zero-comparison tolerance.
"""

from __future__ import annotations

from math import log2
from typing import Sequence

import numpy as np

from ._checks import as_matrix, check_dims_match, check_square, check_subsys
from .constants import EPS
from .exceptions import ErrorKind, QuantumError
from .linalg import _hermitian_input
from .operations import ptrace

# How far a trace, a ket's squared norm or a probability sum may stray from 1.
_TRACE_TOL = 1e-6


def shannon(probs: Sequence[float]) -> float:
    """Shannon entropy -sum p log2 p of a probability list, in bits."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0:
        raise QuantumError(ErrorKind.ZERO_SIZE, "shannon")
    if p.min() < -EPS:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "shannon", "negative probability")
    if abs(p.sum() - 1.0) > _TRACE_TOL:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "shannon", f"probabilities sum to {p.sum()}")
    return float(-sum(x * log2(x) for x in p if x > EPS))


def entropy(rho) -> float:
    """Von Neumann entropy of a density matrix, in bits; 0 for a ket."""
    op = "entropy"
    M = as_matrix(rho, op)
    if M.shape[0] > 1 and M.shape[1] == 1:
        if abs(np.vdot(M, M).real - 1.0) > _TRACE_TOL:
            raise QuantumError(ErrorKind.DIMS_INVALID, op, "ket norm is not 1")
        return 0.0
    H = _hermitian_input(M, op)
    if abs(np.trace(H).real - 1.0) > _TRACE_TOL:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, "trace is not 1")
    evals = np.linalg.eigvalsh(H)
    if evals[0] < -1e-10:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, "matrix is not positive semidefinite")
    return float(-sum(x * log2(x) for x in evals if x > EPS))


def qmutualinfo(rho, A: Sequence[int], B: Sequence[int], dims: Sequence[int]) -> float:
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB).

    Each reduced state is obtained by tracing out the complement of the
    corresponding index set. ``rho`` may be a density matrix or a ket.
    """
    op = "qmutualinfo"
    M = as_matrix(rho, op)
    if M.shape[1] != 1:
        check_square(M, op)
    ds = check_dims_match(dims, M.shape[0], op)
    n = len(ds)
    sa = check_subsys(A, n, op)
    sb = check_subsys(B, n, op)
    if set(sa) & set(sb):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "index sets overlap")

    def reduced(kept: set[int]):
        out = [k for k in range(n) if k not in kept]
        return ptrace(M, out, ds) if out else M

    a, b = set(sa), set(sb)
    return entropy(reduced(a)) + entropy(reduced(b)) - entropy(reduced(a | b))
