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
    _targets,
    as_int,
    as_matrix,
    as_square,
    as_state,
    check_dims,
    check_subsys,
    hermitian_part,
    within,
)
from .constants import EPS
from .exceptions import ErrorKind, QuantumError


# Elements in one block of the tensordot route: 256 KiB of complex128, so
# tensordot's transposed copy and product of a block stay within 512 KiB.
_BLOCK = 1 << 14
# numpy's batched matmul pays per batch item, so a run whose targets' side
# k times the free side R after them is at most this takes the blocked
# route instead.
_SHORT = 32


def _contract(
    t: np.ndarray, G: np.ndarray, axes: Sequence[int], ctrl: Sequence[int] = (), d: int = 2
) -> np.ndarray:
    """Apply the square matrix G to ``axes`` of tensor t, in that factor order.

    With ``ctrl`` set, G^j acts only on the slice where every control axis
    (each of dimension d) equals j, and every other slice is copied as is.
    Never writes t; the result is its one allocation of t's size and shares
    no memory with t. The controls are split off first, one sector at a
    time; each sector's targets then take one matmul when they are
    adjacent and the output's layout lets it be written in place, and run
    tensordot block by block otherwise.
    """
    out = np.empty_like(t, order="C")
    axes = list(axes)
    s = len(axes)
    order = sorted(range(s), key=axes.__getitem__)
    if order != list(range(s)):
        # G on the same axes, its factors reordered to ascending axis order
        dsub = [t.shape[a] for a in axes]
        G = G.reshape(dsub + dsub).transpose(order + [s + o for o in order]).reshape(G.shape)
        axes.sort()
    Gs = [None, G]
    while ctrl and len(Gs) < d:
        Gs.append(Gs[-1] @ G)
    _into(out, t, Gs, axes, sorted(ctrl), range(1, d) if ctrl else (1,))
    return out


def _into(y: np.ndarray, x: np.ndarray, Gs: list, axes: list[int], ctrl: list[int], js) -> None:
    """Gs[j] on ``axes`` of x where every control axis reads j in js, else a
    copy, written into y; ``axes`` and ``ctrl`` are ascending.

    Splits on the first control: sectors whose digit is in js recurse with
    that digit alone, the others are copied. Without controls, an adjacent
    target run with R elements after it is one matmul written straight into
    y when y's layout allows it; anything else goes to :func:`_blocked_into`.
    """
    if ctrl:
        a = ctrl[0]
        sub_axes = [b - (b > a) for b in axes]
        sub_ctrl = [c - 1 for c in ctrl[1:]]
        head = (slice(None),) * a
        for i in range(x.shape[a]):
            sl = head + (i,)
            if i in js:
                _into(y[sl], x[sl], Gs, sub_axes, sub_ctrl, (i,))
            else:
                y[sl] = x[sl]
        return
    G = Gs[js[0]]
    lo, s, k = axes[0], len(axes), G.shape[0]
    R = prod(x.shape[lo + s :])
    if axes[-1] == lo + s - 1:
        if R == 1 and y.flags.c_contiguous:
            np.matmul(x.reshape(-1, k), G.T, out=y.reshape(-1, k))
            return
        if k * R > _SHORT and y[(0,) * lo].flags.c_contiguous:
            shape = x.shape[:lo] + (k, R)
            np.matmul(G, x.reshape(shape), out=y.reshape(shape))
            return
    _blocked_into(y, x, G, axes)


def _blocked_into(y: np.ndarray, x: np.ndarray, G: np.ndarray, axes: list[int]) -> None:
    """G on ``axes`` of x, written into y block by block.

    Splits on the first non-target axis while x holds more than a block, so
    each tensordot works on at most _BLOCK elements (unless every axis is a
    target).
    """
    if x.size > _BLOCK and len(axes) < x.ndim:
        a = next(b for b in range(x.ndim) if b not in axes)
        sub_axes = [b - (b > a) for b in axes]
        head = (slice(None),) * a
        for i in range(x.shape[a]):
            _blocked_into(y[head + (i,)], x[head + (i,)], G, sub_axes)
        return
    s = len(axes)
    dsub = [x.shape[a] for a in axes]
    # tensordot puts the targets first and the other axes after them
    rest = iter(range(s, x.ndim))
    perm = [axes.index(b) if b in axes else next(rest) for b in range(x.ndim)]
    y[...] = np.tensordot(G.reshape(dsub + dsub), x, (list(range(s, 2 * s)), axes)).transpose(perm)


def _conjugate(
    t: np.ndarray, G: np.ndarray, axes: Sequence[int], ctrl: Sequence[int] = (), d: int = 2
) -> np.ndarray:
    """G_full rho G_full^dag on the row + column tensor t of a density matrix."""
    n = t.ndim // 2
    t = _contract(t, G, axes, ctrl, d)
    return _contract(t, G.conj(), [n + a for a in axes], [n + c for c in ctrl], d)


def _one_pass(dsub: int, r: int, D: int) -> bool:
    """Whether r Kraus terms of side dsub on a D x D rho take the superoperator.

    It costs dsub / (2 r) times the Kraus loop's arithmetic, so at most
    twice as much, and its (dsub^2, dsub^2) matrix is no bigger than rho.
    """
    return dsub <= 4 * r and dsub * dsub <= D


def _channel(t: np.ndarray, Ks: Sequence[np.ndarray], axes: Sequence[int]) -> np.ndarray:
    """sum_i K_i_full rho K_i_full^dag on the row + column tensor t of rho.

    Either one contraction with S = sum_i kron(K_i, conj(K_i)) on the row
    and column axes together (row-major pairs (i, j), unlike the
    column-stacking :func:`kraus2super`), or two passes per Kraus term.
    """
    n = t.ndim // 2
    dsub = Ks[0].shape[0]
    if _one_pass(dsub, len(Ks), prod(t.shape[:n])):
        S = np.kron(Ks[0], Ks[0].conj())
        for K in Ks[1:]:
            S += np.kron(K, K.conj())
        return _contract(t, S, list(axes) + [n + a for a in axes])
    out = _conjugate(t, Ks[0], axes)
    for K in Ks[1:]:
        out += _conjugate(t, K, axes)
    return out


def _apply(
    M: np.ndarray, G: np.ndarray, ds: list[int], axes: Sequence[int], ctrl=(), d: int = 2
) -> np.ndarray:
    """G on ``axes`` of the ket M, or conjugating the density matrix M."""
    if M.shape[1] == 1:
        return _contract(M.reshape(ds), G, axes, ctrl, d).reshape(M.shape)
    t = M.reshape(ds + ds)
    if not ctrl:
        return _channel(t, [G], axes).reshape(M.shape)
    local = [ds[a] for a in [*ctrl, *axes]]
    k = prod(local)
    if not _one_pass(k, 1, M.shape[0]):
        return _conjugate(t, G, axes, ctrl, d).reshape(M.shape)
    # the controlled gate on ctrl + target alone, its columns on the last axis
    nc = len(ctrl)
    eye = np.eye(k, dtype=np.complex128).reshape(local + [k])
    CU = _contract(eye, G, list(range(nc, len(local))), list(range(nc)), d).reshape(k, k)
    return _channel(t, [CU], [*ctrl, *axes]).reshape(M.shape)


def apply(state, U, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Apply an operator to selected subsystems of a ket or density matrix.

    For a ket psi this computes (U on ``subsys``, identity elsewhere) psi;
    for a density matrix rho it conjugates, U_full rho U_full^dag. The
    order of ``subsys`` fixes the tensor-factor order U acts in.

    Args:
        state: column ket of length prod(dims) or square matrix of that side.
        U: square operator of side prod(dims[k] for k in subsys).
        subsys: distinct subsystem indices U acts on.
        dims: dimension of each subsystem.

    Returns:
        A ket for ket input, a square matrix for matrix input.
    """
    op = "apply"
    ds = check_dims(dims, op)
    M, _ = as_state(state, prod(ds), op)
    G = as_square(U, op)
    return _apply(M, G, ds, _targets(op, G.shape[0], subsys, ds, "operator"))


def apply_ctrl(
    state, U, ctrl: Sequence[int], target: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Apply a generalized controlled-U without building the full operator.

    When every control subsystem (all of one dimension d) carries the
    value j, U^j acts on the target subsystems; any other control
    configuration is left alone. Works on kets and density matrices.
    """
    op = "apply_ctrl"
    ds = check_dims(dims, op)
    M, _ = as_state(state, prod(ds), op)
    G = as_square(U, op)
    tt = _targets(op, G.shape[0], target, ds, "operator", "target")
    cc = check_subsys(ctrl, len(ds), op)
    if set(cc) & set(tt):
        raise QuantumError(ErrorKind.SUBSYS_MISMATCH_DIMS, op, "ctrl and target overlap")
    d = ds[cc[0]]
    if any(ds[c] != d for c in cc):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS, op, "control subsystems must share one dimension"
        )
    return _apply(M, G, ds, tt, cc, d)


def _check_kraus(Ks, op: str) -> list[np.ndarray]:
    if Ks is None or len(Ks) == 0:
        raise QuantumError(ErrorKind.ZERO_SIZE, op, "empty Kraus list")
    out = [as_square(K, op) for K in Ks]
    if any(K.shape != out[0].shape for K in out):
        raise QuantumError(ErrorKind.DIMS_MISMATCH_MATRIX, op, "Kraus operators differ in shape")
    return out


def apply_channel(rho, Ks, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Apply a Kraus-operator channel to selected subsystems of rho.

    Computes sum_i K_i_full rho K_i_full^dag with each K_i embedded on
    ``subsys``. Preserves the trace when the channel is trace preserving.
    """
    op = "apply_channel"
    ops = _check_kraus(Ks, op)
    ds = check_dims(dims, op)
    M, is_ket = as_state(rho, prod(ds), op)
    if is_ket:
        raise QuantumError(ErrorKind.MATRIX_NOT_SQUARE, op, "a ket is not promoted to rho")
    ss = _targets(op, ops[0].shape[0], subsys, ds, "Kraus")
    return _channel(M.reshape(ds + ds), ops, ss).reshape(M.shape)


def vec(A) -> np.ndarray:
    """Column-stacking vectorization of a matrix, as a column vector."""
    M = as_matrix(A, "vec")
    return M.reshape(-1, 1, order="F").copy()


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
    ops = _check_kraus(Ks, "kraus2super")
    D = ops[0].shape[0]
    S = np.zeros((D * D, D * D), dtype=np.complex128)
    for K in ops:
        S += np.kron(K.conj(), K)
    return S


def kraus2choi(Ks) -> np.ndarray:
    """Unnormalized Choi matrix J = sum_i vec(K_i) vec(K_i)^dag.

    J is Hermitian PSD; for a trace-preserving channel trace(J) equals the
    space dimension D.
    """
    ops = _check_kraus(Ks, "kraus2choi")
    D = ops[0].shape[0]
    J = np.zeros((D * D, D * D), dtype=np.complex128)
    for K in ops:
        v = K.reshape(-1, 1, order="F")
        J += v @ v.conj().T
    return J


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

    The remaining subsystems keep their relative order. A ket psi gives
    A A^dag, with A the (kept, traced) matrix of its amplitudes, so its
    D x D projector is never formed.
    """
    op = "ptrace"
    ds = check_dims(dims, op)
    D = prod(ds)
    M, is_ket = as_state(rho, D, op)
    ss = check_subsys(subsys, len(ds), op, allow_empty=True)
    n = len(ds)
    keep = [k for k in range(n) if k not in set(ss)]
    dk = prod(ds[k] for k in keep) if keep else 1
    dt = prod(ds[k] for k in ss)
    if is_ket:
        A = M.reshape(ds).transpose(keep + ss).reshape(dk, dt)
        return A @ A.conj().T
    if not ss:
        return M.copy()
    t = M.reshape(ds + ds)
    t = t.transpose(keep + ss + [n + k for k in keep] + [n + k for k in ss])
    t = t.reshape(dk, dt, dk, dt)
    return np.einsum("icjc->ij", t)


def ptranspose(rho, subsys: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Transpose only the listed subsystems' indices; involution.

    Kets are promoted to their projectors, written once in the transposed
    layout.
    """
    op = "ptranspose"
    ds = check_dims(dims, op)
    D = prod(ds)
    M, is_ket = as_state(rho, D, op)
    ss = check_subsys(subsys, len(ds), op, allow_empty=True)
    n = len(ds)
    axes = list(range(2 * n))
    for k in ss:
        axes[k], axes[n + k] = axes[n + k], axes[k]
    if is_ket:
        # psi on the row axes times conj(psi) on the column axes, each with
        # the listed subsystems' row and column axes swapped
        row = M.reshape(ds + [1] * n).transpose(axes)
        col = M.conj().reshape([1] * n + ds).transpose(axes)
        return np.multiply(row, col, order="C").reshape(D, D)
    if not ss:
        return M.copy()
    return M.reshape(ds + ds).transpose(axes).copy().reshape(D, D)


def invperm(perm: Sequence[int]) -> list[int]:
    """Inverse of a permutation: result[perm[k]] == k."""
    p = _check_perm(perm, "invperm")
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v] = k
    return out


def _check_perm(perm: Sequence[int], op: str) -> list[int]:
    p = [as_int(x, op, "permutation entry") for x in perm]
    if len(p) == 0 or sorted(p) != list(range(len(p))):
        raise QuantumError(ErrorKind.PERM_INVALID, op, f"{p}")
    return p


def syspermute(state, perm: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Relocate subsystem k of the input to position perm[k].

    For kets the amplitude at multi-index m moves to the multi-index m'
    with m'[perm[k]] = m[k]; for square matrices both indices permute. The
    output is laid out over the correspondingly permuted dimensions.
    """
    op = "syspermute"
    ds = check_dims(dims, op)
    p = _check_perm(perm, op)
    if len(p) != len(ds):
        raise QuantumError(
            ErrorKind.SUBSYS_MISMATCH_DIMS,
            op,
            f"permutation length {len(p)} != {len(ds)} subsystems",
        )
    D = prod(ds)
    M, is_ket = as_state(state, D, op)
    n = len(ds)
    # output axis j holds input axis invperm(p)[j]
    src = invperm(p)
    if is_ket:
        return M.reshape(ds).transpose(src).copy().reshape(-1, 1)
    axes = src + [n + k for k in src]
    return M.reshape(ds + ds).transpose(axes).copy().reshape(D, D)
