"""Bare-numpy reference kernels and the output checker.

Nothing here imports quditsim. Each kernel does the same contraction as
the library call it checks, with no coercion, validation or defensive
copy, so that it serves twice: as the oracle the benchmark compares
outputs against, and as the denominator of every ``ref_ratio``.

Tensors follow the library's layout: a ket over ``dims`` reshapes to
``dims``, a square matrix to ``dims + dims`` (row axes first).
"""

from __future__ import annotations

from math import prod
from time import perf_counter

import numpy as np

# A checked output is in tolerance when max|out - ref| <= TOL * max(1, max|ref|).
TOL = 1e-9
# Comparisons walk big arrays in blocks of this many elements, so that a
# check never holds a second full-size temporary.
_BLOCK = 1 << 20


def contract(t: np.ndarray, U: np.ndarray, axes: list[int]) -> np.ndarray:
    """U (side prod of the axes' sizes) on ``axes`` of t: tensordot + moveaxis."""
    s = len(axes)
    dsub = [t.shape[a] for a in axes]
    Ut = U.reshape(dsub + dsub)
    out = np.tensordot(Ut, t, axes=(list(range(s, 2 * s)), axes))
    return np.moveaxis(out, list(range(s)), axes)


def _ctrl_sectors(out: np.ndarray, src: np.ndarray, U, ctrl: list[int], target: list[int]) -> None:
    """out[sector j] = U**j on ``target`` of src[sector j], for j = 1 .. d-1,
    where sector j is where every ``ctrl`` axis reads j. out may be src."""
    Uj = np.eye(U.shape[0], dtype=U.dtype)
    for j in range(1, src.shape[ctrl[0]]):
        Uj = Uj @ U
        sl = [slice(None)] * src.ndim
        for c in ctrl:
            sl[c] = j
        shifted = [a - sum(c < a for c in ctrl) for a in target]
        out[tuple(sl)] = contract(src[tuple(sl)], Uj, shifted)


def contract_ctrl(t: np.ndarray, U: np.ndarray, ctrl: list[int], target: list[int]) -> np.ndarray:
    """Controlled-U on a tensor; the j = 0 sector is copied unchanged."""
    out = t.copy()
    _ctrl_sectors(out, t, U, ctrl, target)
    return out


def two_sided(rho: np.ndarray, U: np.ndarray, targets: list[int], dims: list[int]) -> np.ndarray:
    """U rho U^dag with U on ``targets``: a left pass and a conjugate right pass."""
    n = len(dims)
    t = contract(rho.reshape(dims + dims), U, targets)
    return contract(t, U.conj(), [n + k for k in targets])


def two_sided_ctrl(
    rho: np.ndarray, U: np.ndarray, ctrl: list[int], target: list[int], dims: list[int]
) -> np.ndarray:
    n = len(dims)
    out = rho.reshape(dims + dims).copy()
    _ctrl_sectors(out, out, U, ctrl, target)
    _ctrl_sectors(out, out, U.conj(), [n + c for c in ctrl], [n + k for k in target])
    return out


def kraus_sum(rho: np.ndarray, Ks: list[np.ndarray], targets: list[int], dims: list[int]) -> np.ndarray:
    """Explicit sum over Kraus terms of K rho K^dag, each K on ``targets``."""
    out = two_sided(rho, Ks[0], targets, dims)
    for K in Ks[1:]:
        out += two_sided(rho, K, targets, dims)
    return out


def ptrace(rho: np.ndarray, remove: list[int], dims: list[int]) -> np.ndarray:
    """Partial trace with one einsum; ``remove`` lists the subsystems traced
    out. A ket is first promoted to its projector, as the library does."""
    if rho.shape[1] == 1:
        rho = rho @ rho.conj().T
    n = len(dims)
    rows = list(range(n))
    cols = [k if k in remove else n + k for k in range(n)]
    keep = [k for k in range(n) if k not in remove]
    dk = prod(dims[k] for k in keep)
    out = np.einsum(rho.reshape(dims + dims), rows + cols, keep + [n + k for k in keep])
    return out.reshape(dk, dk)


def ptranspose(rho: np.ndarray, subsys: list[int], dims: list[int]) -> np.ndarray:
    n = len(dims)
    axes = list(range(2 * n))
    for k in subsys:
        axes[k], axes[n + k] = n + k, k
    return rho.reshape(dims + dims).transpose(axes).reshape(rho.shape)


def _move_front(t: np.ndarray, axes: list[int]) -> np.ndarray:
    return np.moveaxis(t, axes, list(range(len(axes))))


def born_ket(psi: np.ndarray, B: np.ndarray, subsys: list[int], dims: list[int]):
    """Born probabilities |B^dag psi|^2 per basis column and the unnormalized
    post-measurement kets, from one matmul on the moved-axis reshape."""
    Dsub = B.shape[0]
    amps = B.conj().T @ _move_front(psi.reshape(dims), subsys).reshape(Dsub, -1)
    return np.einsum("ij,ij->i", amps.conj(), amps).real, amps


def born_rho(rho: np.ndarray, B: np.ndarray, subsys: list[int], dims: list[int]):
    """Probabilities and unnormalized post-measurement blocks b_i^dag rho b_i."""
    n = len(dims)
    Dsub = B.shape[0]
    t = _move_front(rho.reshape(dims + dims), subsys + [n + k for k in subsys])
    rest = rho.shape[0] // Dsub
    t = t.reshape(Dsub, Dsub, rest, rest)
    # t[a, b, r, c] = <a r| rho |b c>; the block of outcome i is sum B*_ai t[a,b] B_bi
    blocks = np.einsum("ai,abrc,bi->irc", B.conj(), t, B)
    return np.einsum("irr->i", blocks).real, blocks


def entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log2(lam)).sum())


def mutual_info(rho: np.ndarray, A: list[int], B: list[int], dims: list[int]) -> float:
    n = len(dims)

    def S(keep):
        return entropy(ptrace(rho, [k for k in range(n) if k not in keep], dims))

    return S(A) + S(B) - S(A + B)


def kraus2super(Ks: list[np.ndarray]) -> np.ndarray:
    return sum(np.kron(K.conj(), K) for K in Ks)


def kraus2choi(Ks: list[np.ndarray]) -> np.ndarray:
    vs = np.stack([K.reshape(-1, order="F") for K in Ks], axis=1)
    return vs @ vs.conj().T


def ctrl_gate(U: np.ndarray, ctrl: list[int], target: list[int], n: int, d: int) -> np.ndarray:
    """The full controlled-U matrix as the controlled contraction on the identity."""
    D = d**n
    eye = np.eye(D, dtype=np.complex128).reshape([d] * n + [D])
    return contract_ctrl(eye, U, ctrl, target).reshape(D, D)


def syspermute(psi: np.ndarray, perm: list[int], dims: list[int]) -> np.ndarray:
    src = [perm.index(j) for j in range(len(perm))]
    return psi.reshape(dims).transpose(src).reshape(-1, 1)


def basis_ket(digits: list[int], dims: list[int]) -> np.ndarray:
    ket = np.zeros((prod(dims), 1), dtype=np.complex128)
    ket[np.ravel_multi_index(digits, dims), 0] = 1.0
    return ket


def shor_codeword(logical: int) -> np.ndarray:
    ghz = np.zeros(8, dtype=np.complex128)
    ghz[0] = 2**-0.5
    ghz[7] = -(2**-0.5) if logical else 2**-0.5
    return np.einsum("i,j,k->ijk", ghz, ghz, ghz).reshape(-1, 1)


def hevals(H: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((H + H.conj().T) / 2)


def _blockwise_max(f, *arrays: np.ndarray) -> float:
    """max of f(*arrays) over same-shape arrays, one leading index at a
    time once they exceed _BLOCK elements."""
    a = arrays[0]
    if a.size == 0:
        return 0.0
    if a.size <= _BLOCK or a.ndim == 1:
        return float(f(*arrays).max())
    return max(_blockwise_max(f, *(x[i] for x in arrays)) for i in range(a.shape[0]))


def rel_error(out, ref) -> float:
    """max|out - ref| / max(1, max|ref|), with out viewed in ref's shape;
    inf when the sizes differ."""
    if np.size(out) != np.size(ref):
        return float("inf")
    ref = np.asarray(ref)
    out = np.asarray(out).reshape(ref.shape)
    diff = _blockwise_max(lambda o, r: np.abs(o - r), out, ref)
    return diff / max(1.0, _blockwise_max(np.abs, ref))


def timed(kernel, *args):
    """(kernel(*args), seconds): the reference's own time, for ref_ratio."""
    t0 = perf_counter()
    value = kernel(*args)
    return value, perf_counter() - t0


def check_sliced(out_t: np.ndarray, in_t: np.ndarray, axis: int, kernel) -> tuple[float, float]:
    """Compare out_t with kernel(in_t) one index of ``axis`` at a time.

    ``axis`` must be one the kernel does not touch; ``kernel`` gets the
    slice, whose later axes have shifted down by one. Holding one slice of
    the reference instead of all of it keeps a check's memory below the
    library call's, so ``peak_rss_mb`` measures the library.
    Returns (relative error, reference seconds).
    """
    err = seconds = 0.0
    for j in range(in_t.shape[axis]):
        idx = (slice(None),) * axis + (j,)
        ref, dt = timed(kernel, in_t[idx])
        seconds += dt
        err = max(err, rel_error(out_t[idx], ref))
    return err, seconds


def check_full(out, kernel, *args) -> tuple[float, float]:
    ref, dt = timed(kernel, *args)
    return rel_error(out, ref), dt


def measure_error(outcome, probs_ref: np.ndarray, post: np.ndarray, is_ket: bool) -> float:
    """Error of a measurement outcome against Born probabilities and the
    unnormalized post-measurement states ``post[i]``.

    The sampled result must have positive probability; zero-probability
    outcomes are skipped, as the library marks them with a sentinel.
    """
    result, probs, states = outcome
    if len(probs) != len(probs_ref) or not 0 <= result < len(probs) or probs_ref[result] <= 0:
        return float("inf")
    err = float(np.abs(np.asarray(probs) - probs_ref).max())
    for i, p in enumerate(probs_ref):
        if p <= 1e-12:
            continue
        if post[i].size == 1:
            want = np.ones((1, 1))  # measuring everything leaves the trivial state [[1]]
        else:
            want = post[i].reshape(-1, 1) / np.sqrt(p) if is_ket else post[i] / p
        err = max(err, rel_error(states[i], want))
    return err
