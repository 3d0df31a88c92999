"""Subsystem-targeted operator application, channels, and index surgery.

Conventions, fixed once for the whole library:

* Vectorization is column-stacking: ``vec(A)`` concatenates the columns
  of A, so ``vec(A @ rho @ B) == (B.T kron A) @ vec(rho)``.
* The Choi matrix is unnormalized: ``trace(choi) == D`` for a
  trace-preserving channel on a D-dimensional space.
* :func:`ptrace` takes the subsystems to REMOVE, not the ones to keep.

All functions return the result by value and never modify their inputs.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from ._checks import (
    _check_kraus,
    _check_perm,
    _targets,
    allocate,
    as_dims,
    as_int,
    as_matrix,
    as_square,
    as_state,
    check_subsys,
    ctrl_targets,
    hermitian_part,
    within,
)
from ._kernel import _apply, _channel, _gram, _kraus_sum, _super
from .constants import EPS
from .exceptions import ErrorKind, QuantumError


def apply(state, U, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Apply an operator to selected subsystems of a ket or density matrix.

    For a ket psi this computes (U on ``subsys``, identity elsewhere) psi;
    for a density matrix rho it conjugates, U_full rho U_full^dag. The
    order of ``subsys`` fixes the tensor-factor order U acts in. NaN or
    inf in the state or U gives an undefined, route-dependent result.

    Args:
        state: column ket of length prod(dims) or square matrix of that side.
        U: square operator of side prod(dims[k] for k in subsys).
        subsys: distinct subsystem indices U acts on.
        dims: dimension of each subsystem.

    Returns:
        A ket for ket input, a square matrix for matrix input.
    """
    op = "apply"
    M, ds, _ = as_state(state, dims, op)
    G = as_square(U, op)
    return _apply(M, G, ds, _targets(op, G.shape[0], subsys, ds, "operator"), op)


def apply_ctrl(
    state, U, ctrl: Sequence[int], target: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Apply a generalized controlled-U without building the full operator.

    When every control subsystem (all of one dimension d) carries the
    value j, U^j acts on the target subsystems; any other control
    configuration is left alone. Works on kets and density matrices. NaN
    or inf in the state or U gives an undefined, route-dependent result.
    """
    op = "apply_ctrl"
    M, ds, _ = as_state(state, dims, op)
    G = as_square(U, op)
    cc, tt = ctrl_targets(op, G.shape[0], ctrl, target, ds)
    return _apply(M, G, ds, tt, op, cc)


def apply_channel(rho, Ks, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Apply a Kraus-operator channel to selected subsystems of rho.

    Computes sum_i K_i_full rho K_i_full^dag with each K_i embedded on
    ``subsys``. Preserves the trace when the channel is trace preserving.
    NaN or inf in rho or a K_i gives an undefined, route-dependent result.
    """
    op = "apply_channel"
    ops = _check_kraus(Ks, op)
    M, ds, is_ket = as_state(rho, dims, op)
    if is_ket:
        raise QuantumError(ErrorKind.MATRIX_NOT_SQUARE, op, "a ket is not promoted to rho")
    ss = _targets(op, ops[0].shape[0], subsys, ds, "Kraus")
    return _channel(M.reshape(ds + ds), ops, ss, op).reshape(M.shape)


def vec(A) -> np.ndarray:
    """Column-stacking vectorization of a matrix, as a column vector."""
    M = as_matrix(A, "vec")
    return M.flatten(order="F").reshape(-1, 1)


def unvec(v, rows: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; by default assumes a square target."""
    M = as_matrix(v, "unvec")
    flat = M.reshape(-1, order="F")
    if rows is None:
        rows = int(round(len(flat) ** 0.5))
        if rows * rows != len(flat):
            raise QuantumError(
                ErrorKind.DIMS_INVALID, "unvec", f"length {len(flat)} is not a perfect square"
            )
    else:
        rows = as_int(rows, "unvec", "rows", 1)
    cols, rem = divmod(len(flat), rows)
    if rem:
        raise QuantumError(ErrorKind.DIMS_INVALID, "unvec", f"length {len(flat)} not divisible")
    return flat.reshape(rows, cols, order="F").copy()


def kraus2super(Ks) -> np.ndarray:
    """Superoperator matrix S = sum_i conj(K_i) kron K_i (column-stacking),
    so that vec(channel(rho)) == S @ vec(rho)."""
    return _super(_check_kraus(Ks, "kraus2super"), "kraus2super")


def kraus2choi(Ks) -> np.ndarray:
    """Unnormalized Choi matrix J = sum_i vec(K_i) vec(K_i)^dag.

    J is Hermitian PSD; for a trace-preserving channel trace(J) equals the
    space dimension D.
    """
    return _kraus_sum(_check_kraus(Ks, "kraus2choi"), "kraus2choi")


def choi2kraus(J) -> list[np.ndarray]:
    """Kraus operators of the channel with (unnormalized) Choi matrix J.

    Eigendecomposes J and emits sqrt(eigval) * unvec(eigvec) for every
    eigenvalue above EPS times the largest one, so the cutoff scales with
    J; the result satisfies ``kraus2choi(choi2kraus(J)) == J`` up to
    numerical error.
    """
    op = "choi2kraus"
    M = as_square(J, op)
    D = int(round(M.shape[0] ** 0.5))
    if D * D != M.shape[0]:
        raise QuantumError(ErrorKind.DIMS_INVALID, op, f"side {M.shape[0]} is not a perfect square")
    evals, V = np.linalg.eigh(hermitian_part(M, op, "Choi matrix"))
    within(-evals[0], EPS * evals[-1], op, "Choi matrix is not positive semidefinite")
    out = []
    for lam, v in zip(evals, V.T):
        if lam > EPS * evals[-1]:
            out.append(np.sqrt(lam) * v.reshape(D, D, order="F"))
    return out


def ptrace(rho, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Trace OUT the listed subsystems of a density matrix or a ket.

    The remaining subsystems keep their relative order, and NaN or inf in
    the state gives an undefined result. A density matrix is summed over a
    strided view of its traced diagonal, so only the entries that enter the
    sum are read and only the result is allocated (a copy of rho when
    nothing is traced). A ket psi gives A A^dag, with A the (kept, traced)
    matrix of its amplitudes, summed over blocks of A's columns, so neither
    its D x D projector nor a copy of it is formed.
    """
    op = "ptrace"
    M, ds, is_ket = as_state(rho, dims, op)
    ss = check_subsys(subsys, len(ds), op, allow_empty=True)
    n = len(ds)
    keep = [k for k in range(n) if k not in set(ss)]
    dk = prod(ds[k] for k in keep)
    if is_ket:
        return _gram(M.reshape(ds).transpose(keep + ss), len(keep))
    # a traced subsystem's column axis takes its row axis's label, so einsum
    # sums a strided diagonal view of rho. The labels stay below 2n <= 50,
    # within einsum's 52: rho over 26 or more subsystems would hold at
    # least 2^52 entries.
    cols = [k if k in ss else n + k for k in range(n)]
    out = np.einsum(M.reshape(ds + ds), list(range(n)) + cols, keep + [n + k for k in keep])
    out = out.reshape(dk, dk)
    return out if ss else out.copy()  # with nothing traced, out is a view of rho


def ptranspose(rho, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Transpose only the listed subsystems' indices; involution.

    Kets are promoted to their projectors, written once in the transposed
    layout.
    """
    op = "ptranspose"
    M, ds, is_ket = as_state(rho, dims, op)
    ss = check_subsys(subsys, len(ds), op, allow_empty=True)
    n, D = len(ds), M.shape[0]
    axes = list(range(2 * n))
    for k in ss:
        axes[k], axes[n + k] = axes[n + k], axes[k]
    if is_ket:
        # psi on the row axes times conj(psi) on the column axes, each with
        # the listed subsystems' row and column axes swapped
        out = allocate(op, np.empty, (D, D))
        row = M.reshape(ds + [1] * n).transpose(axes)
        col = M.conj().reshape([1] * n + ds).transpose(axes)
        np.multiply(row, col, out=out.reshape(ds + ds))
        return out
    return M.reshape(ds + ds).transpose(axes).copy().reshape(D, D)


def invperm(perm: Sequence[int]) -> list[int]:
    """Inverse of a permutation: result[perm[k]] == k."""
    p = _check_perm(perm, "invperm")
    return sorted(range(len(p)), key=p.__getitem__)


def syspermute(state, perm: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Relocate subsystem k of the input to position perm[k].

    For kets the amplitude at multi-index m moves to the multi-index m'
    with m'[perm[k]] = m[k]; for square matrices both indices permute. The
    output is laid out over the correspondingly permuted dimensions.
    """
    op = "syspermute"
    ds, _ = as_dims(dims, op)
    p = _check_perm(perm, op)
    if len(p) != len(ds):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS,
            op,
            f"permutation length {len(p)} != {len(ds)} subsystems",
        )
    M, _, is_ket = as_state(state, ds, op)
    n = len(ds)
    # output axis j holds input axis src[j], the k with p[k] == j
    src = sorted(range(n), key=p.__getitem__)
    if is_ket:
        return M.reshape(ds).transpose(src).copy().reshape(-1, 1)
    axes = src + [n + k for k in src]
    return M.reshape(ds + ds).transpose(axes).copy().reshape(M.shape)
