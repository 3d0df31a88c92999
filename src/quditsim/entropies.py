"""Shannon/von Neumann entropies and quantum mutual information.

All entropies use log base 2, so a maximally mixed qubit carries exactly
one bit. The 0*log(0) terms are dropped via the zero-comparison tolerance.
"""

from __future__ import annotations

from math import log2, prod
from typing import Sequence

import numpy as np

from ._checks import (
    PSD_TOL,
    TRACE_TOL,
    as_matrix,
    as_state,
    check_dims,
    check_subsys,
    hermitian_part,
    within,
)
from .constants import EPS
from .exceptions import ErrorKind, QuantumError
from .operations import ptrace


def shannon(probs: Sequence[float]) -> float:
    """Shannon entropy -sum p log2 p of a probability list, in bits."""
    op, kind = "shannon", ErrorKind.OUT_OF_RANGE
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0:
        raise QuantumError(ErrorKind.ZERO_SIZE, op)
    within(-p.min(), EPS, op, "negative probability", kind)
    within(abs(p.sum() - 1.0), TRACE_TOL, op, "probabilities do not sum to 1", kind)
    return float(-sum(x * log2(x) for x in p if x > EPS))


def _entropy(rho, op: str) -> float:
    M = as_matrix(rho, op)
    if M.shape[0] > 1 and M.shape[1] == 1:
        within(abs(np.vdot(M, M).real - 1.0), TRACE_TOL, op, "ket norm is not 1")
        return 0.0
    H = hermitian_part(M, op)
    within(abs(np.trace(H).real - 1.0), TRACE_TOL, op, "trace is not 1")
    evals = np.linalg.eigvalsh(H)
    within(-evals[0], PSD_TOL, op, "matrix is not positive semidefinite")
    return float(-sum(x * log2(x) for x in evals if x > EPS))


def entropy(rho) -> float:
    """Von Neumann entropy of a density matrix, in bits; 0 for a ket."""
    return _entropy(rho, "entropy")


def qmutualinfo(rho, A: Sequence[int], B: Sequence[int], dims: Sequence[int]) -> float:
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB).

    Each reduced state is obtained by tracing out the complement of the
    corresponding index set. ``rho`` may be a density matrix or a ket.
    """
    op = "qmutualinfo"
    ds = check_dims(dims, op)
    M, _ = as_state(rho, prod(ds), op)
    n = len(ds)
    sa = check_subsys(A, n, op)
    sb = check_subsys(B, n, op)
    if set(sa) & set(sb):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "index sets overlap")

    def reduced(kept: set[int]):
        out = [k for k in range(n) if k not in kept]
        return ptrace(M, out, ds) if out else M

    a, b = set(sa), set(sb)
    return _entropy(reduced(a), op) + _entropy(reduced(b), op) - _entropy(reduced(a | b), op)
