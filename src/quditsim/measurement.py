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
from ._kernel import _support
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
            basis, one nonzero per row and per column by the kernel's exact
            test (a 1e-300, NaN or inf is a nonzero), such as the identity or
            a phased relabelling of the computational basis, is checked in
            O(D^2) and applied by one gather; any other basis is checked and
            applied by one gemm. Kets and density matrices share both.
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
    ar = np.arange(Dsub)
    # most dense bases fail on their first column, before a pass over B
    nz = _support(B) if np.count_nonzero(B[:, 0]) == 1 else None
    # r ascends, so one nonzero per row and per column is r == 0..D-1 and
    # c a permutation of it: B is monomial, column i's nonzero in rows[i]
    rows = None
    if nz is not None and np.array_equal(nz[0], ar) and np.array_equal(np.sort(nz[1]), ar):
        rows = np.argsort(nz[1])
    # an inf or overflowing entry makes err inf or NaN, which fails the check
    # below instead of raising numpy's warning first
    with np.errstate(invalid="ignore", over="ignore"):
        if rows is None:
            Bh = B.conj().T
            err = np.abs(Bh @ B - np.eye(Dsub)).max()
        else:
            # B^dag B is diag(|v|^2): no gemm needed for the same error
            v = B[rows, ar]
            mod2 = v.real**2 + v.imag**2
            err = np.abs(mod2 - 1).max()
    within(err, EPS, op, "basis columns not orthonormal", ErrorKind.DIMS_MISMATCH_MATRIX)
    rng = _as_rng(rng, op)

    # the measured axes first, on the rows and, for rho, on the columns too
    n = len(ds)
    sides = 1 if is_ket else 2
    rest = M.shape[0] // Dsub
    order = ss + [k for k in range(n) if k not in ss]
    X = M.reshape(ds * sides).transpose([h * n + k for h in range(sides) for k in order])
    if rows is not None:
        # B^dag maps e_rows[i] to conj(v_i) e_i: outcome i gathers the digits
        # of rows[i] on the measured axes (of rho's rows and columns: its
        # diagonal block), one copy of only what it keeps.
        digits = np.unravel_index(rows, [ds[k] for k in ss])
        blocks = X[(digits + (slice(None),) * (n - len(ss))) * sides].reshape(Dsub, rest, -1)
        blocks *= (v.conj() if is_ket else mod2)[:, None, None]
    else:
        # One gemm applies B^dag to the rows: row i is the unnormalized
        # outcome i. On rho, outcome i's diagonal block then needs only
        # row i of B^dag, conjugated, on the columns.
        blocks = (Bh @ X.reshape(Dsub, -1)).reshape(Dsub, rest, -1)
        if not is_ket:
            blocks = np.einsum("irjs,ij->irs", blocks.reshape(Dsub, rest, Dsub, rest), Bh.conj())
    if is_ket:
        probs = np.einsum("irk,irk->i", blocks.conj(), blocks).real
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
