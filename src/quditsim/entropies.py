"""Shannon/von Neumann entropies and quantum mutual information.

All entropies use log base 2, so a maximally mixed qubit carries exactly
one bit. The 0*log(0) terms are dropped via the zero-comparison tolerance.
"""

from __future__ import annotations

from math import log2
from typing import Sequence

import numpy as np

from ._checks import as_matrix, check_dims_match, check_nonzero, check_square, check_subsys
from .constants import EPS
from .exceptions import ErrorKind, QuantumError
from .linalg import _hermitian_input
from .operations import ptrace


def shannon(probs: Sequence[float]) -> float:
    """Shannon entropy -sum p log2 p of a probability list, in bits."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0:
        raise QuantumError(ErrorKind.ZERO_SIZE, "shannon")
    if p.min() < -EPS:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "shannon", "negative probability")
    if abs(p.sum() - 1.0) > 1e-6:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "shannon", f"probabilities sum to {p.sum()}")
    return float(-sum(x * log2(x) for x in p if x > EPS))


def entropy(rho) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    op = "entropy"
    H = _hermitian_input(rho, op)
    if abs(np.trace(H).real - 1.0) > 1e-6:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, "trace is not 1")
    evals = np.linalg.eigvalsh(H)
    if evals[0] < -1e-10:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, "matrix is not positive semidefinite")
    return float(-sum(x * log2(x) for x in evals if x > EPS))


def qmutualinfo(rho, A: Sequence[int], B: Sequence[int], dims: Sequence[int]) -> float:
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB).

    Each reduced state is obtained by tracing out the complement of the
    corresponding index set.
    """
    op = "qmutualinfo"
    M = as_matrix(rho, op)
    check_nonzero(M, op)
    check_square(M, op)
    ds = check_dims_match(dims, M.shape[0], op)
    n = len(ds)
    sa = check_subsys(A, n, op)
    sb = check_subsys(B, n, op)
    if set(sa) & set(sb):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "index sets overlap")
    ab = set(sa) | set(sb)
    rho_a = ptrace(M, [k for k in range(n) if k not in set(sa)], ds)
    rho_b = ptrace(M, [k for k in range(n) if k not in set(sb)], ds)
    rho_ab = ptrace(M, [k for k in range(n) if k not in ab], ds)
    return entropy(rho_a) + entropy(rho_b) - entropy(rho_ab)
