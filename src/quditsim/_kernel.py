"""The contraction kernel: operators and channels on subsystems of a state,
the blocked ket reduction, the size thresholds that pick their routes, and
the allocator of state-sized outputs.

Private. Public modules validate with :mod:`._checks`, then call in here; an
``op`` argument is the public call's name, which an allocation error carries."""

from __future__ import annotations

import sys
import threading
from bisect import bisect
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from ._checks import allocate


# Elements in one block of the targets-first route: 256 KiB of complex128,
# so a block's targets-first copy and its product stay within 512 KiB.
_BLOCK = 1 << 14
# numpy's batched matmul pays per batch item, so a run whose targets' side
# k times the free side R after them is at most this takes the
# targets-first route instead.
_SHORT = 32
# Outputs of at least this many elements, 32 MiB of complex128, reuse a
# buffer that an earlier output of the calling thread released. Above
# glibc's largest mmap threshold, 32 MiB, every fresh array is new pages,
# which the OS zeroes on first touch: one more pass over the state.
_RECYCLE = 1 << 21


def _refs(bufs: list[np.ndarray]) -> list[int]:
    return [sys.getrefcount(b) for b in bufs]


# What _refs reads for an object that only its list holds, measured through
# _refs itself, so that it holds however the interpreter counts references
# from its own stack.
_ALONE = _refs([object()])[0]


def _empty(shape: Sequence[int], op: str) -> np.ndarray:
    """An uninitialized complex128 array of ``shape``, for a kernel output.

    Below ``_RECYCLE`` elements, a fresh ``allocate``. At or above it, a
    buffer of the same size from the calling thread's list, when one is
    free: only the list holds it. A view, reshape, slice or memoryview of an
    array holds its base, so no live array can see a free buffer. Every
    other free buffer is dropped, and the list keeps at most two, the
    fewest with which ``psi = apply(psi, ...)`` alternates between two
    buffers. The list is an attribute of the thread, not of this module, so
    a re-import of the package starts no second one.
    """
    n = prod(shape)
    if n < _RECYCLE:
        return allocate(op, np.empty, shape)
    bufs = vars(threading.current_thread()).setdefault("_quditsim_buffers", [])
    refs = _refs(bufs)
    held = [b for b, r in zip(bufs, refs) if r > _ALONE]
    fits = [b for b, r in zip(bufs, refs) if r == _ALONE and b.size == n]
    buf = fits[0] if fits else allocate(op, np.empty, n)
    bufs[:] = (held + [buf])[-2:]
    return buf.reshape(shape)


def _contract(
    t: np.ndarray, G: np.ndarray, axes: Sequence[int], ctrl: Sequence[int], op: str
) -> np.ndarray:
    """Apply the square matrix G to ``axes`` of tensor t, in that factor order.

    Never writes t; the result, from :func:`_empty`, is its one array of
    t's size and shares no memory with t or with any live array. With
    ``ctrl`` set, G^j acts only on the slice where every control axis (all
    of one dimension d, read from t) equals j: the controlled G is
    block-diagonal there, with blocks I and G^j, so the controls are
    per-digit splits of :func:`_into`. Digit j of the first
    control splits each later control, keeping digit j alone, down to G^j;
    every other digit is a copy. On a t larger than one block, each G^j's
    zero structure is read into more such splits by :func:`_plan`; a G with
    no zero pays one O(k^2) pass, that of :func:`_support`.
    """
    out = _empty(t.shape, op)
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


def _support(G: np.ndarray):
    """Row and column of each nonzero of G, in row-major order, or None when
    G has more than one entry and no zero, so no structure to find. The
    library's one exact-zero test: a 1e-300, a NaN or an inf is an entry.
    A C-ordered G is read on its float64 view, at half the cost of a
    complex compare; any other layout takes the complex compare."""
    if G.dtype == np.complex128 and G.flags.c_contiguous:
        # an entry's two float tests, read as one uint16 of two bools, are
        # nonzero when either half is: its complex != 0 (-0.0 is a zero,
        # NaN an entry), without the complex compare's cost
        nz = (G.view(np.float64) != 0).view(np.uint16) != 0
    else:
        nz = G != 0
    if G.size > 1 and np.count_nonzero(nz) == G.size:
        return None
    return np.unravel_index(np.flatnonzero(nz), G.shape)  # np.nonzero is slower on 2-d


def _plan(G: np.ndarray, axes: list[int], shape: Sequence[int]):
    """G on the ascending ``axes`` of a tensor of ``shape`` as an op of
    :func:`_into`, read from the coordinates of G's nonzeros by
    :func:`_support`: a G with no zero leaves after that one pass.

    A diagonal G (each nonzero's row equal to its column) is a copy when it is
    the identity, and one multiply when its targets lie in the trailing block.
    Else, on the first axis where each nonzero's row and column digits agree,
    G is sum_i |i><i| (x) B_i: equal blocks leave that axis free for B_0, and
    unequal ones split it, digit i taking B_i. Any other G stays dense.
    """
    k = G.shape[0]
    nz = _support(G)
    if nz is None:
        return G, axes
    r, c = nz
    if not np.count_nonzero(r != c):
        diag = np.diagonal(G)
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
    rd, cd = np.unravel_index(r, dsub), np.unravel_index(c, dsub)
    T = G.reshape(dsub + dsub)
    for p, a in enumerate(axes):
        if np.count_nonzero(rd[p] != cd[p]):
            continue
        d = dsub[p]
        blocks = np.moveaxis(T, (p, s + p), (0, 1))
        Bs = [blocks[i, i].reshape(k // d, k // d) for i in range(d)]
        rest = axes[:p] + axes[p + 1 :]
        if all(np.array_equal(B, Bs[0]) for B in Bs[1:]):
            return _plan(Bs[0], rest, shape)
        sub = [b - (b > a) for b in rest]
        return a, [_plan(B, sub, shape[:a] + shape[a + 1 :]) for B in Bs]
    return G, axes


def _controlled(
    G: np.ndarray, dims: list[int], ctrl: list[int], target: list[int], op: str
) -> np.ndarray:
    """Matrix of G on ``target`` controlled by ``ctrl``, over subsystems ``dims``.

    Column k is its image of basis ket k: one pass of :func:`_contract`
    over the identity, whose trailing axis indexes the columns. Only
    ``ctrl_gate`` can ask for one too large to allocate: :func:`_channel`'s
    is at most sqrt(D) on a side.
    """
    k = prod(dims)
    eye = allocate(op, np.eye, k).reshape([*dims, k])
    return _contract(eye, G, target, ctrl, op).reshape(k, k)


def _kraus_sum(Ks: Sequence[np.ndarray], op: str) -> np.ndarray:
    """J = sum_i vec(K_i) vec(K_i)^dag for column-stacking vec: one gemm V V^dag,
    V's columns the vec(K_i), into a J allocated before V."""
    D = Ks[0].shape[0]
    J = allocate(op, np.empty, (D * D, D * D))
    V = np.stack([K.T for K in Ks], axis=-1).reshape(D * D, -1)
    np.matmul(V, V.conj().T, out=J)
    return J


def _super(Ks: Sequence[np.ndarray], op: str) -> np.ndarray:
    """S = sum_i kron(conj(K_i), K_i): vec(sum_i K_i rho K_i^dag) == S vec(rho)
    for column-stacking vec, so conj(K_i) acts on rho's column index. As
    K[a, b] is entry b D + a of vec(K), S[(a, c), (b, d)] = J[(d, c), (b, a)]
    for J = :func:`_kraus_sum`. Only ``kraus2super`` can ask for an S too
    large to allocate: :func:`_channel`'s is no larger than rho."""
    D = Ks[0].shape[0]
    S = allocate(op, np.empty, (D * D, D * D))
    J = _kraus_sum(Ks, op).reshape(D, D, D, D)
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


def _channel(
    t: np.ndarray, Ks: list[np.ndarray], axes: Sequence[int], op: str, ctrl=()
) -> np.ndarray:
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
            Ks = [_controlled(K, local, list(range(nc)), list(range(nc, len(sub))), op) for K in Ks]
        return _contract(t, _super(Ks, op), [n + a for a in sub] + sub, (), op)
    cols = [n + a for a in axes], [n + c for c in ctrl]
    terms = (_contract(_contract(t, K, axes, ctrl, op), K.conj(), *cols, op) for K in Ks)
    out = next(terms)
    for term in terms:
        out += term
    return out


def _apply(
    M: np.ndarray, G: np.ndarray, ds: list[int], axes: Sequence[int], op: str, ctrl=()
) -> np.ndarray:
    """G on ``axes`` of the ket M, or conjugating the density matrix M."""
    if M.shape[1] == 1:
        return _contract(M.reshape(ds), G, axes, ctrl, op).reshape(M.shape)
    return _channel(M.reshape(ds + ds), [G], axes, op, ctrl).reshape(M.shape)


def _gram(t: np.ndarray, nk: int) -> np.ndarray:
    """A A^dag for A the (first nk axes, the rest) matrix of the tensor t:
    sum_b A_b A_b^dag over blocks A_b of A's columns, each block one index
    of the leading axes after the first nk. A block holds at most
    max(_BLOCK, dk^2) entries, so its dk x dk product is no larger than
    it, and a t of one block is one gemm."""
    dk = prod(t.shape[:nk])
    m = nk
    while dk * prod(t.shape[m:]) > max(_BLOCK, dk * dk):
        m += 1
    if m == nk:
        A = t.reshape(dk, -1)
        return A @ A.conj().T
    out = np.zeros((dk, dk), dtype=t.dtype)
    head = (slice(None),) * nk
    for idx in product(*map(range, t.shape[nk:m])):
        A = t[head + idx].reshape(dk, -1)
        out += A @ A.conj().T
    return out
