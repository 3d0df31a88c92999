"""Projective measurement of arbitrary subsystems in a supplied basis.

Measurement here is destructive: the measured subsystems are removed from
the post-measurement states, which live on the remaining subsystems. A
measurement of everything leaves the trivial one-dimensional state [[1]].
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from ._checks import TRACE_TOL, _targets, as_square, as_state, check_dims, within
from .constants import EPS
from .exceptions import ErrorKind
from .randomness import thread_rng


class MeasurementOutcome(NamedTuple):
    """Sampled outcome index, all outcome probabilities, and every
    post-measurement state (kets for ket input, matrices for matrix input).

    The measured state must be normalized, to within the trace tolerance
    1e-6, so ``probs`` are Born probabilities that sum to 1. Outcomes with
    zero probability carry a zero-size sentinel state and are never
    sampled.
    """

    result: int
    probs: list[float]
    states: list[np.ndarray]


def _sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    # inverse CDF with one uniform draw; zero-probability entries collapse
    # to repeated cumulative values and can never be selected
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)


def measure(
    state,
    basis,
    subsys: Sequence[int],
    dims: Sequence[int],
    rng: np.random.Generator | None = None,
) -> MeasurementOutcome:
    """Measure ``subsys`` of a ket or density matrix in an orthonormal basis.

    Args:
        state: column ket of length prod(dims) or square matrix of that side,
            normalized: a ket's squared norm, or a matrix's trace, within
            1e-6 of 1 (``DIMS_INVALID`` otherwise).
        basis: square matrix whose COLUMNS are the measurement basis vectors,
            of side prod(dims[k] for k in subsys).
        subsys: distinct subsystem indices to measure (and remove).
        dims: dimension of each subsystem.
        rng: generator used for the single outcome draw; defaults to the
            per-thread generator.

    Returns:
        A :class:`MeasurementOutcome`; ``probs[i]`` is the Born probability
        of basis column i and ``states[i]`` the normalized state of the
        unmeasured subsystems given that outcome.
    """
    op = "measure"
    ds = check_dims(dims, op)
    D = prod(ds)
    M, is_ket = as_state(state, D, op)
    B = as_square(basis, op)
    ss = _targets(op, B.shape[0], subsys, ds, "basis", "measured")
    Dsub = B.shape[0]
    Bh = B.conj().T
    err = np.abs(Bh @ B - np.eye(Dsub)).max()
    within(err, EPS, op, "basis columns not orthonormal", ErrorKind.DIMS_MISMATCH_MATRIX)
    if rng is None:
        rng = thread_rng()

    n = len(ds)
    rest = D // Dsub
    order = ss + [k for k in range(n) if k not in ss]
    if is_ket:
        # One copy puts the measured axes first, one gemm applies B^dag:
        # row i is the unnormalized outcome-i ket. The copy is freed at once.
        blocks = Bh @ M.reshape(ds).transpose(order).reshape(Dsub, rest)
        probs = np.einsum("ij,ij->i", blocks.conj(), blocks).real
        blocks = blocks[:, :, None]
    else:
        # The same copy and gemm on the rows; outcome i's diagonal block then
        # needs only row i of B^dag, conjugated, on the columns.
        X = M.reshape(ds + ds).transpose(order + [n + k for k in order])
        Y = (Bh @ X.reshape(Dsub, -1)).reshape(Dsub, rest, Dsub, rest)
        blocks = np.einsum("irjs,ij->irs", Y, Bh.conj())
        probs = np.maximum(np.einsum("irr->i", blocks).real, 0.0)
    within(abs(probs.sum() - 1.0), TRACE_TOL, op, "state is not normalized")

    states: list[np.ndarray] = []
    for p, b in zip(probs, blocks):
        if p <= EPS:
            states.append(np.zeros((0, 1 if is_ket else 0), dtype=np.complex128))
        elif rest == 1:
            states.append(np.ones((1, 1), dtype=np.complex128))
        else:
            states.append(b / (np.sqrt(p) if is_ket else p))
    return MeasurementOutcome(_sample(probs, rng), probs.tolist(), states)
