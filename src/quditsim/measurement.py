"""Projective measurement of arbitrary subsystems in a supplied basis.

Measurement here is destructive: the measured subsystems are removed from
the post-measurement states, which live on the remaining subsystems. A
measurement of everything leaves the trivial one-dimensional state [[1]].
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ._checks import TRACE_TOL, _targets, as_square, as_state, within
from .constants import EPS
from .exceptions import ErrorKind
from .randomness import _as_rng


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


# The post-measurement state of a full-register outcome; only copies of it
# are returned.
_ONE = np.ones((1, 1), dtype=np.complex128)


def _sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    # inverse CDF with one uniform draw; zero-probability entries collapse
    # to repeated cumulative values and can never be selected
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)


def _monomial_rows(B: np.ndarray) -> np.ndarray | None:
    """Row of each column's one nonzero entry when B has exactly one nonzero
    per row and per column (a permutation matrix with any moduli and
    phases), else None. NaN and inf count as nonzero."""
    n = B.shape[0]
    # most dense bases fail on their first column, before a pass over B
    if np.count_nonzero(B[:, 0]) != 1:
        return None
    nz = B != 0
    if np.count_nonzero(nz) != n:
        return None
    r, c = np.divmod(np.flatnonzero(nz), n)
    # r ascends, so one nonzero per row means r == 0..n-1
    if not (np.array_equal(r, np.arange(n)) and np.array_equal(np.sort(c), r)):
        return None
    rows = np.empty(n, dtype=np.intp)
    rows[c] = r
    return rows


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
            of side prod(dims[k] for k in subsys), orthonormal: max|B^dag B - I|
            at most 1e-12 (``DIMS_MISMATCH_MATRIX`` otherwise). A monomial
            basis, one nonzero per row and per column (the identity, any
            relabelling of the computational basis, with any phases), is
            checked from its nonzeros in O(D^2) and applied as a gather and
            a scale; any other basis is checked and applied by gemm.
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
    M, ds, is_ket = as_state(state, dims, op)
    B = as_square(basis, op)
    ss = _targets(op, B.shape[0], subsys, ds, "basis", "measured")
    Dsub = B.shape[0]
    rows = _monomial_rows(B)
    # an inf or overflowing entry makes err inf or NaN, which fails the check
    # below instead of raising numpy's warning first
    with np.errstate(invalid="ignore", over="ignore"):
        if rows is None:
            Bh = B.conj().T
            err = np.abs(Bh @ B - np.eye(Dsub)).max()
        else:
            # B^dag B is diag(|v|^2): no gemm needed for the same error
            v = B[rows, np.arange(Dsub)]
            mod2 = v.real**2 + v.imag**2
            err = np.abs(mod2 - 1).max()
    within(err, EPS, op, "basis columns not orthonormal", ErrorKind.DIMS_MISMATCH_MATRIX)
    rng = _as_rng(rng, op)

    n = len(ds)
    rest = M.shape[0] // Dsub
    order = ss + [k for k in range(n) if k not in ss]
    if rows is not None:
        # B^dag maps e_rows[i] to conj(v_i) e_i: outcome i gathers the digits
        # of rows[i] on the measured axes, one copy of only what it keeps.
        digits = np.unravel_index(rows, [ds[k] for k in ss])
        if is_ket:
            blocks = M.reshape(ds).transpose(order)[digits].reshape(Dsub, rest)
            blocks *= v.conj()[:, None]
        else:
            X = M.reshape(ds + ds).transpose(order + [n + k for k in order])
            blocks = X[digits + (slice(None),) * (n - len(ss)) + digits].reshape(Dsub, rest, rest)
            blocks *= mod2[:, None, None]
    elif is_ket:
        # One copy puts the measured axes first, one gemm applies B^dag:
        # row i is the unnormalized outcome-i ket. The copy is freed at once.
        blocks = Bh @ M.reshape(ds).transpose(order).reshape(Dsub, rest)
    else:
        # The same copy and gemm on the rows; outcome i's diagonal block then
        # needs only row i of B^dag, conjugated, on the columns.
        X = M.reshape(ds + ds).transpose(order + [n + k for k in order])
        Y = (Bh @ X.reshape(Dsub, -1)).reshape(Dsub, rest, Dsub, rest)
        blocks = np.einsum("irjs,ij->irs", Y, Bh.conj())
    if is_ket:
        probs = np.einsum("ij,ij->i", blocks.conj(), blocks).real
        blocks = blocks[:, :, None]
    else:
        probs = np.maximum(np.einsum("irr->i", blocks).real, 0.0)
    within(abs(probs.sum() - 1.0), TRACE_TOL, op, "state is not normalized")

    states: list[np.ndarray] = []
    for p, b in zip(probs, blocks):
        if p <= EPS:
            states.append(np.zeros((0, 1 if is_ket else 0), dtype=np.complex128))
        elif rest == 1:
            states.append(_ONE.copy())
        else:
            states.append(b / (np.sqrt(p) if is_ket else p))
    return MeasurementOutcome(_sample(probs, rng), probs.tolist(), states)
