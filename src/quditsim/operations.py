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

from bisect import bisect
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from ._checks import (
    _targets,
    allocate,
    as_dims,
    as_int,
    as_ints,
    as_matrix,
    as_square,
    as_state,
    check_subsys,
    ctrl_targets,
    hermitian_part,
    within,
)
from .constants import EPS
from .exceptions import ErrorKind, QuantumError


# Elements in one block of the targets-first route: 256 KiB of complex128,
# so a block's targets-first copy and its product stay within 512 KiB.
_BLOCK = 1 << 14
# numpy's batched matmul pays per batch item, so a run whose targets' side
# k times the free side R after them is at most this takes the
# targets-first route instead.
_SHORT = 32


def _contract(
    t: np.ndarray, G: np.ndarray, axes: Sequence[int], ctrl: Sequence[int] = ()
) -> np.ndarray:
    """Apply the square matrix G to ``axes`` of tensor t, in that factor order.

    Never writes t; the result is its one allocation of t's size and shares
    no memory with t. With ``ctrl`` set, G^j acts only on the slice where
    every control axis (all of one dimension d, read from t) equals j: the
    controlled G is block-diagonal there, with blocks I and G^j, so the
    controls are per-digit splits of :func:`_into`. Digit j of the first
    control splits each later control, keeping digit j alone, down to G^j;
    every other digit is a copy. On a t larger than one block, each G^j's
    zero structure is read into more such splits by :func:`_plan`; a dense G
    pays one check of O(k^2).
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
    if not ctrl:
        _into(out, t, _plan(G, axes, t.shape) if t.size > _BLOCK else (G, axes))
        return out
    ctrl = sorted(ctrl)
    # once the controls are split off, target a is axis a - (the number of
    # controls before it), and control l is axis ctrl[l] - l
    axes = [a - bisect(ctrl, a) for a in axes]
    d = t.shape[ctrl[0]]
    ops = [None]
    for j in range(1, d):
        Gj = G if j == 1 else Gj @ G
        op = (Gj, axes)
        if t.size > _BLOCK:
            op = _plan(Gj, axes, [n for b, n in enumerate(t.shape) if b not in ctrl])
        for level in range(len(ctrl) - 1, 0, -1):
            op = (ctrl[level] - level, [None] * j + [op] + [None] * (d - 1 - j))
        ops.append(op)
    _into(out, t, (ctrl[0], ops))
    return out


def _plan(G: np.ndarray, axes: list[int], shape: Sequence[int]):
    """G on the ascending ``axes`` of a tensor of ``shape`` as an op of
    :func:`_into`, read from G's zeros by exact tests (``!= 0`` and
    equality), so that a 1e-300 or a NaN keeps an axis dense.

    A diagonal G is a copy when it is the identity, and one multiply when
    its targets lie in the trailing block. Else, on the first axis where
    every entry whose row and column digits differ there is 0, G is
    sum_i |i><i| (x) B_i: equal blocks leave that axis free for B_0, and
    unequal ones split it, digit i taking B_i. Any other G stays dense.
    """
    k = G.shape[0]
    diag = np.diagonal(G)
    if np.count_nonzero(G) == np.count_nonzero(diag):
        if (diag == 1).all():
            return None
        # the axes from m on are the longest trailing run within one block
        m = len(shape)
        while m and prod(shape[m - 1 :]) <= _BLOCK:
            m -= 1
        if not axes or axes[0] >= m:
            # the diagonal tiled over that block, so that numpy's inner
            # loop runs over all of it, not over the last target alone
            tile = [shape[b] if b in axes else 1 for b in range(m, len(shape))]
            return np.broadcast_to(diag.reshape(tile), shape[m:]).copy(), None
    s = len(axes)
    dsub = [shape[a] for a in axes]
    T = G.reshape(dsub + dsub)
    for p, a in enumerate(axes):
        d = dsub[p]
        blocks = np.moveaxis(T, (p, s + p), (0, 1))
        if any(blocks[i, j].any() for i in range(d) for j in range(d) if i != j):
            continue
        Bs = [blocks[i, i].reshape(k // d, k // d) for i in range(d)]
        rest = axes[:p] + axes[p + 1 :]
        if all(np.array_equal(B, Bs[0]) for B in Bs[1:]):
            return _plan(Bs[0], rest, shape)
        sub = [b - (b > a) for b in rest]
        return a, [_plan(B, sub, shape[:a] + shape[a + 1 :]) for B in Bs]
    return G, axes


def _controlled(G: np.ndarray, dims: list[int], ctrl: list[int], target: list[int]) -> np.ndarray:
    """Matrix of G on ``target`` controlled by ``ctrl``, over subsystems ``dims``.

    Column k is its image of basis ket k: one pass of :func:`_contract`
    over the identity, whose trailing axis indexes the columns. Only
    ``ctrl_gate`` can ask for one too large to allocate: :func:`_channel`'s
    is at most sqrt(D) on a side.
    """
    k = prod(dims)
    eye = allocate("ctrl_gate", np.eye, k).reshape([*dims, k])
    return _contract(eye, G, target, ctrl).reshape(k, k)


def _kraus_sum(Ks: Sequence[np.ndarray], op: str) -> np.ndarray:
    """J = sum_i vec(K_i) vec(K_i)^dag for column-stacking vec: one gemm V V^dag,
    V's columns the vec(K_i), into a J allocated before V."""
    D = Ks[0].shape[0]
    J = allocate(op, np.empty, (D * D, D * D))
    V = np.stack([K.T for K in Ks], axis=-1).reshape(D * D, -1)
    np.matmul(V, V.conj().T, out=J)
    return J


def _super(Ks: Sequence[np.ndarray]) -> np.ndarray:
    """S = sum_i kron(conj(K_i), K_i): vec(sum_i K_i rho K_i^dag) == S vec(rho)
    for column-stacking vec, so conj(K_i) acts on rho's column index. As
    K[a, b] is entry b D + a of vec(K), S[(a, c), (b, d)] = J[(d, c), (b, a)]
    for J = :func:`_kraus_sum`. Only ``kraus2super`` can ask for an S too
    large to allocate: :func:`_channel`'s is no larger than rho."""
    D = Ks[0].shape[0]
    S = allocate("kraus2super", np.empty, (D * D, D * D))
    J = _kraus_sum(Ks, "kraus2super").reshape(D, D, D, D)
    S.reshape(D, D, D, D)[...] = J.transpose(3, 1, 2, 0)
    return S


def _into(y: np.ndarray, x: np.ndarray, op) -> None:
    """Apply ``op`` to x, written into y. ``op`` is ``None``, a copy;
    ``(a, ops)``, a split of axis a with ``ops[i]`` on digit i;
    ``(F, None)``, one multiply by F broadcast over x's trailing axes; or
    ``(G, axes)``, G on the ascending ``axes``. G takes one matmul straight
    into y for an adjacent target run when y's layout allows it, else a
    split on x's first free axis while x holds more than a block, else one
    matmul on a targets-first copy, scattered into y.
    """
    if op is None:
        y[...] = x
        return
    if op[1] is None:
        np.multiply(x, op[0], out=y)
        return
    if isinstance(op[0], np.ndarray):
        G, axes = op
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
        free = [b for b in range(x.ndim) if b not in axes]
        if x.size <= _BLOCK or not free:
            xt = x.transpose(axes + free)
            y.transpose(axes + free)[...] = (G @ xt.reshape(k, -1)).reshape(xt.shape)
            return
        a = free[0]
        op = a, [(G, [b - (b > a) for b in axes])] * x.shape[a]
    a, ops = op
    head = (slice(None),) * a
    for i, sub in enumerate(ops):
        sl = head + (i, ...)  # a view even when x has one axis
        if sub is None:  # a copy, inline: small controlled calls pay per call
            y[sl] = x[sl]
        else:
            _into(y[sl], x[sl], sub)


def _one_pass(dsub: int, r: int, D: int) -> bool:
    """Whether r Kraus terms of side dsub on a D x D rho take the superoperator.

    It costs dsub / (2 r) times the Kraus loop's arithmetic, so at most
    twice as much, and its (dsub^2, dsub^2) matrix is no bigger than rho.
    """
    return dsub <= 4 * r and dsub * dsub <= D


def _channel(t: np.ndarray, Ks: list[np.ndarray], axes: Sequence[int], ctrl=()) -> np.ndarray:
    """sum_i K_i_full rho K_i_full^dag on the row + column tensor t of rho,
    each K_i controlled by ``ctrl`` as in :func:`_contract`.

    The one place that picks rho's route, by :func:`_one_pass` on the side
    k of ``ctrl`` + ``axes``: one contraction with :func:`_super` of the
    k x k controlled K_i on the column and row axes together, or a row and
    a column pass per Kraus term.
    """
    n = t.ndim // 2
    sub = [*ctrl, *axes]
    local = [t.shape[a] for a in sub]
    if _one_pass(prod(local), len(Ks), prod(t.shape[:n])):
        if ctrl:
            nc = len(ctrl)
            Ks = [_controlled(K, local, list(range(nc)), list(range(nc, len(sub)))) for K in Ks]
        return _contract(t, _super(Ks), [n + a for a in sub] + sub)
    cols = [n + a for a in axes], [n + c for c in ctrl]
    terms = (_contract(_contract(t, K, axes, ctrl), K.conj(), *cols) for K in Ks)
    out = next(terms)
    for term in terms:
        out += term
    return out


def _apply(
    M: np.ndarray, G: np.ndarray, ds: list[int], axes: Sequence[int], ctrl: Sequence[int] = ()
) -> np.ndarray:
    """G on ``axes`` of the ket M, or conjugating the density matrix M."""
    if M.shape[1] == 1:
        return _contract(M.reshape(ds), G, axes, ctrl).reshape(M.shape)
    return _channel(M.reshape(ds + ds), [G], axes, ctrl).reshape(M.shape)


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
    return _apply(M, G, ds, _targets(op, G.shape[0], subsys, ds, "operator"))


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
    return _apply(M, G, ds, tt, cc)


def _check_kraus(Ks, op: str) -> list[np.ndarray]:
    try:
        empty = Ks is None or len(Ks) == 0
    except TypeError:
        detail = f"Kraus list {Ks!r} is not a sequence"
        raise QuantumError(ErrorKind.DIMS_INVALID, op, detail) from None
    if empty:
        raise QuantumError(ErrorKind.ZERO_SIZE, op, "empty Kraus list")
    out = [as_square(K, op) for K in Ks]
    if any(K.shape != out[0].shape for K in out):
        raise QuantumError(ErrorKind.DIMS_MISMATCH_MATRIX, op, "Kraus operators differ in shape")
    return out


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
    return _channel(M.reshape(ds + ds), ops, ss).reshape(M.shape)


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
    return _super(_check_kraus(Ks, "kraus2super"))


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
        # A A^dag = sum_b A_b A_b^dag over blocks A_b of A's columns, each
        # block one index of the leading traced axes. A block holds at most
        # max(_BLOCK, dk^2) entries, so its dk x dk product is no larger
        # than it, and a ket of one block is one gemm.
        t = M.reshape(ds).transpose(keep + ss)
        nk = m = len(keep)
        while dk * prod(t.shape[m:]) > max(_BLOCK, dk * dk):
            m += 1
        if m == nk:
            A = t.reshape(dk, -1)
            return A @ A.conj().T
        out = np.zeros((dk, dk), dtype=M.dtype)
        head = (slice(None),) * nk
        for idx in product(*map(range, t.shape[nk:m])):
            A = t[head + idx].reshape(dk, -1)
            out += A @ A.conj().T
        return out
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


def _check_perm(perm: Sequence[int], op: str) -> list[int]:
    p = as_ints(perm, op, "permutation entry")
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
