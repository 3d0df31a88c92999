"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles (explicit index
loops, kron embeddings, exact symbolic eigenvalues) and deliberately
avoids the code paths under test.
"""

import tracemalloc
from itertools import product
from math import log2, prod

import numpy as np

from quditsim import bell00, kron, syspermute


def ref_multiindex_enumeration(dims):
    """All multi-indices of ``dims`` in row-major order."""
    return list(product(*[range(d) for d in dims]))


def ref_ptrace(rho, subsys, dims):
    """Partial trace by explicit summation over the traced digits."""
    n = len(dims)
    keep = [k for k in range(n) if k not in set(subsys)]
    dk = prod(dims[k] for k in keep) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    kept_digits = ref_multiindex_enumeration([dims[k] for k in keep]) if keep else [()]
    traced_digits = ref_multiindex_enumeration([dims[k] for k in subsys]) if subsys else [()]

    def lin(km, tm):
        full = [0] * n
        for pos, digit in zip(keep, km):
            full[pos] = digit
        for pos, digit in zip(subsys, tm):
            full[pos] = digit
        idx = 0
        for pos in range(n):
            idx = idx * dims[pos] + full[pos]
        return idx

    for i, mi in enumerate(kept_digits):
        for j, mj in enumerate(kept_digits):
            out[i, j] = sum(rho[lin(mi, t), lin(mj, t)] for t in traced_digits)
    return out


def ref_qmutualinfo(rho, A, B, dims):
    """S(rho_A) + S(rho_B) - S(rho_AB), each reduced state by ``ref_ptrace``
    of the full state (a ket as its projector) and each entropy from
    eigenvalues."""
    M = np.asarray(rho, dtype=complex)
    if M.shape[1] == 1:
        M = M @ M.conj().T

    def S(kept):
        red = ref_ptrace(M, [k for k in range(len(dims)) if k not in kept], dims)
        return -sum(x * log2(x) for x in np.linalg.eigvalsh(red) if x > 1e-14)

    return S(set(A)) + S(set(B)) - S(set(A) | set(B))


def peak_bytes(fn, *args):
    """(fn(*args), the peak of the bytes allocated during the call, as
    tracemalloc counts them)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def ref_ptranspose(rho, subsys, dims):
    """Partial transpose by explicit digit swaps on entry coordinates."""
    n = len(dims)
    D = prod(dims)
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    mids = ref_multiindex_enumeration(dims)

    def lin(m):
        idx = 0
        for pos in range(n):
            idx = idx * dims[pos] + m[pos]
        return idx

    for mi in mids:
        for mj in mids:
            r, c = list(mi), list(mj)
            for k in subsys:
                r[k], c[k] = c[k], r[k]
            out[lin(r), lin(c)] = rho[lin(mi), lin(mj)]
    assert out.shape == (D, D)
    return out


def embed_operator(U, subsys, dims):
    """Full-space operator for U on ``subsys``: kron with identities on the
    leftover subsystems, then permute each factor to its home position."""
    rest = [k for k in range(len(dims)) if k not in set(subsys)]
    big = np.asarray(U, dtype=complex)
    for k in rest:
        big = kron(big, np.eye(dims[k]))
    order = list(subsys) + rest
    dims_ordered = [dims[k] for k in order]
    perm = [0] * len(dims)
    for i, home in enumerate(order):
        perm[i] = home
    return syspermute(big, perm, dims_ordered)


def embed_ctrl(U, ctrl, target, dims, d):
    """Full-space controlled-U^j as I + sum_j P_j (U^j - I), with P_j the
    projector on "every control reads j" and U^j embedded on ``target``."""
    D = prod(dims)
    G = np.eye(D, dtype=complex)
    Uj = np.eye(len(U), dtype=complex)
    for j in range(1, d):
        Uj = Uj @ U
        ket_j = np.zeros((d ** len(ctrl), 1))
        ket_j[sum(j * d**p for p in range(len(ctrl)))] = 1.0
        P = embed_operator(ket_j @ ket_j.T, ctrl, dims)
        G += P @ (embed_operator(Uj, target, dims) - np.eye(D))
    return G


def ref_kraus2super(Ks):
    """sum_i kron(conj(K_i), K_i) entry by entry: S[(p, q), (r, s)] =
    sum_i conj(K_i[p, r]) K_i[q, s]."""
    D = len(Ks[0])
    S = np.zeros((D * D, D * D), dtype=complex)
    for p, q, r, s in product(range(D), repeat=4):
        S[p * D + q, r * D + s] = sum(np.conj(K[p][r]) * K[q][s] for K in Ks)
    return S


def ref_kraus2choi(Ks):
    """sum_i vec(K_i) vec(K_i)^dag entry by entry, with K[a, b] at
    column-stacked index b D + a: J[(b, a), (d, c)] = sum_i K_i[a, b]
    conj(K_i[c, d])."""
    D = len(Ks[0])
    J = np.zeros((D * D, D * D), dtype=complex)
    for a, b, c, d in product(range(D), repeat=4):
        J[b * D + a, d * D + c] = sum(K[a][b] * np.conj(K[c][d]) for K in Ks)
    return J


def bell_projector():
    """|Phi+><Phi+|, the density matrix of the Bell state bell00."""
    return bell00() @ bell00().conj().T


def rand_gauss(k, rng):
    """A random complex k x k matrix with Gaussian entries: neither unitary,
    Hermitian nor real, so G and G^T differ, and a kernel that swaps
    kron(K, conj K) for kron(conj K, K) or drops a conjugate fails."""
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def rand_cptp(D, k, rng):
    """k Kraus operators forming a random CPTP channel on dimension D."""
    Gs = [rand_gauss(D, rng) for _ in range(k)]
    S = sum(G.conj().T @ G for G in Gs)
    w, V = np.linalg.eigh(S)
    S_inv_sqrt = V @ np.diag(1 / np.sqrt(w)) @ V.conj().T
    return [G @ S_inv_sqrt for G in Gs]


def channel_on_basis(Ks, D):
    """Action of a Kraus channel on every matrix unit, stacked; two channels
    are equal iff these stacks agree."""
    out = []
    for a in range(D):
        for b in range(D):
            E = np.zeros((D, D), dtype=complex)
            E[a, b] = 1.0
            out.append(sum(K @ E @ K.conj().T for K in Ks))
    return np.array(out)


def ref_ctrl_gate(U, ctrl, target, n, d):
    """Controlled-U^j on n qudits of dimension d, built column by column:
    each basis ket's digits decide which power of U (if any) rewrites its
    target digits."""
    U = np.asarray(U, dtype=complex)
    powers = [np.eye(d ** len(target), dtype=complex)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ U)

    def lin(digits):
        idx = 0
        for digit in digits:
            idx = idx * d + digit
        return idx

    K = np.zeros((d**n, d**n), dtype=complex)
    for col, midx in enumerate(ref_multiindex_enumeration([d] * n)):
        cvals = {midx[c] for c in ctrl}
        if len(cvals) != 1:
            K[col, col] = 1.0  # controls disagree: identity sector
            continue
        Uj = powers[cvals.pop()]
        tin = lin([midx[t] for t in target])
        for tout, tdigits in enumerate(ref_multiindex_enumeration([d] * len(target))):
            out = list(midx)
            for t, digit in zip(target, tdigits):
                out[t] = digit
            K[lin(out), col] = Uj[tout, tin]
    return K


def ref_contract(t, G, axes, ctrl=(), d=2):
    """G on ``axes`` of tensor t (in that factor order) by one tensordot over
    the whole tensor and a moveaxis; with ``ctrl``, G^j on the slice where
    every control axis reads j, by recursion on that slice, and a copy of t
    everywhere else."""
    if ctrl:
        out = np.array(t, dtype=complex)
        shifted = [a - sum(c < a for c in ctrl) for a in axes]
        Gj = np.asarray(G, dtype=complex)
        for j in range(1, d):
            sl = tuple(j if k in ctrl else slice(None) for k in range(t.ndim))
            out[sl] = ref_contract(t[sl], Gj, shifted)
            Gj = Gj @ G
        return out
    s = len(axes)
    dsub = [t.shape[a] for a in axes]
    out = np.tensordot(np.reshape(G, dsub + dsub), t, axes=(list(range(s, 2 * s)), list(axes)))
    return np.moveaxis(out, list(range(s)), list(axes))


def ref_conjugate(t, G, axes, ctrl=(), d=2):
    """G_full rho G_full^dag on the row + column tensor t of rho: G on the
    row axes and conj(G) on the column axes, each by ``ref_contract``."""
    n = t.ndim // 2
    t = ref_contract(t, G, axes, ctrl, d)
    return ref_contract(t, G.conj(), [n + a for a in axes], [n + c for c in ctrl], d)
