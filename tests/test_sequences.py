"""Seeded sequences of calls on one state, checked at every step against a
dense full-space reference.

Each sequence holds a ket psi, its density matrix rho = psi psi^dag and a
dense reference of each, and moves them in lockstep through ``apply``,
``apply_ctrl``, ``apply_channel`` on rho (after which psi is retired),
``ptrace`` and ``measure``, on mixed qubit and qutrit dims with rho above
one kernel block. Every kernel output recycles (``_RECYCLE`` at 1), and the
sequence keeps some earlier states alive to its end. So a buffer handed out
while an array still sees it, or a scratch aliased into a returned array,
changes a state this test still holds: a defect that only shows across
calls. Each call runs twice, bitwise equal, and leaves its inputs as they
were. The reference builds every full-space operator from basis states by
index arithmetic, never through the library.
"""

from math import prod

import numpy as np
import pytest

from _oracles import rand_cptp
from quditsim import (
    EPS,
    _kernel,
    apply,
    apply_channel,
    apply_ctrl,
    default_rng,
    measure,
    ptrace,
    rand_ket,
    rand_unitary,
)

SEQUENCES = 20
MAX_STEPS = 8
TOL = 1e-10


def _embed(G, targets, dims, ctrl=()):
    """Full-space matrix of G on ``targets``, in G's factor order: column x
    is G's image of basis state x. With ``ctrl`` (all of one dimension),
    column x takes G^j when every control digit of x is j, else it is e_x."""
    D = prod(dims)
    digits = np.array(np.unravel_index(np.arange(D), dims))  # (n, D)
    dsub = [dims[k] for k in targets]
    k = prod(dsub)
    sub = np.ravel_multi_index(digits[targets], dsub)  # x's target index
    power = np.ones(D, dtype=int)
    if ctrl:
        c = digits[list(ctrl)]
        power = np.where((c == c[0]).all(axis=0), c[0], 0)
    Gs = [np.eye(k, dtype=complex)]
    for _ in range(power.max()):
        Gs.append(Gs[-1] @ G)
    M = np.zeros((D, D), dtype=complex)
    cols = np.arange(D)
    for r in range(k):
        out = digits.copy()
        out[targets] = np.array(np.unravel_index(r, dsub))[:, None]
        rows = np.ravel_multi_index(out, dims)
        for j in np.unique(power):
            at = power == j
            M[rows[at], cols[at]] += Gs[j][r, sub[at]]
    return M


def _ref_ptrace(R, traced, dims):
    n = len(dims)
    keep = [k for k in range(n) if k not in traced]
    dk, dt = prod(dims[k] for k in keep), prod(dims[k] for k in traced)
    order = keep + traced
    T = R.reshape(dims + dims).transpose(order + [n + k for k in order])
    return np.trace(T.reshape(dk, dt, dk, dt), axis1=1, axis2=3)


def _ref_outcomes(R, B, ss, dims):
    """(p_i, the unnormalized rho post-states) of measuring ``ss`` of rho R
    in basis B: p_i from the full-space projector on column i."""
    n = len(dims)
    rest = [k for k in range(n) if k not in ss]
    k, dr = B.shape[0], prod(dims[j] for j in rest)
    probs = [np.trace(_embed(np.outer(b, b.conj()), ss, dims) @ R).real for b in B.T]
    order = ss + rest
    T = R.reshape(dims + dims).transpose(order + [n + j for j in order]).reshape(k, dr, k, dr)
    posts = [np.einsum("a,axby,b->xy", b.conj(), T, b) for b in B.T]
    return probs, posts


def _ref_ket_posts(psi, B, ss, dims):
    rest = [k for k in range(len(dims)) if k not in ss]
    T = psi.reshape(dims).transpose(ss + rest).reshape(B.shape[0], -1)
    return [(b.conj() @ T).reshape(-1, 1) for b in B.T]


def _operator(dsub, rng):
    """A unitary on factors ``dsub``: dense, diagonal, a phased
    permutation, the identity, or an identity factor times a dense one."""
    k = prod(dsub)
    kind = rng.integers(5)
    phases = np.exp(2j * np.pi * rng.random(k))
    if kind == 0:
        return rand_unitary(k, rng)
    if kind == 1:
        return np.diag(phases)
    if kind == 2:
        return np.eye(k)[rng.permutation(k)] * phases
    if kind == 3 or k == dsub[0]:
        return np.eye(k, dtype=complex)
    return np.kron(np.eye(dsub[0]), rand_unitary(k // dsub[0], rng))


def _bytes(out):
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return out.result, out.probs, [s.tobytes() for s in out.states]


def _checked(call, *inputs):
    """call() twice: its inputs unchanged, its two results bitwise equal.
    The second result is dropped, so its buffers are released."""
    arrays = [a for x in inputs for a in (x if isinstance(x, list) else [x])]
    before = [a.tobytes() for a in arrays]
    out = call()
    assert _bytes(call()) == _bytes(out)
    assert [a.tobytes() for a in arrays] == before
    return out


def _close(got, want, scale=1.0):
    assert got.shape == want.shape
    assert np.abs(got - want).max() < TOL * scale


def _step(rng, dims, psi, rho, ref_psi, ref_rho):
    """One random call on psi (if live) and rho; the new state and reference."""
    n = len(dims)
    pairs = [(t, [c for c in range(n) if c != t and dims[c] == dims[t]]) for t in range(n)]
    pairs = [(t, cs) for t, cs in pairs if cs]
    ops = ["apply", "channel"] + ["apply_ctrl"] * bool(pairs) + ["ptrace", "measure"] * (n > 1)
    op = ops[rng.integers(len(ops))]
    if op == "apply":
        targets = [int(t) for t in rng.permutation(n)[: rng.integers(1, min(2, n) + 1)]]
        U = _operator([dims[t] for t in targets], rng)
        E = _embed(U, targets, dims)
        if psi is not None:
            psi = _checked(lambda: apply(psi, U, targets, dims), psi, U)
            ref_psi = E @ ref_psi
        rho = _checked(lambda: apply(rho, U, targets, dims), rho, U)
        return dims, psi, rho, ref_psi, E @ ref_rho @ E.conj().T
    if op == "apply_ctrl":
        t, cs = pairs[rng.integers(len(pairs))]
        ctrl = [int(c) for c in rng.permutation(cs)[: rng.integers(1, len(cs) + 1)]]
        U = _operator([dims[t]], rng)
        E = _embed(U, [t], dims, ctrl)
        if psi is not None:
            psi = _checked(lambda: apply_ctrl(psi, U, ctrl, [t], dims), psi, U)
            ref_psi = E @ ref_psi
        rho = _checked(lambda: apply_ctrl(rho, U, ctrl, [t], dims), rho, U)
        return dims, psi, rho, ref_psi, E @ ref_rho @ E.conj().T
    if op == "channel":
        targets = [int(t) for t in rng.permutation(n)[: rng.integers(1, min(2, n) + 1)]]
        Ks = rand_cptp(prod(dims[t] for t in targets), int(rng.integers(1, 4)), rng)
        rho = _checked(lambda: apply_channel(rho, Ks, targets, dims), rho, Ks)
        Es = [_embed(K, targets, dims) for K in Ks]
        return dims, None, rho, None, sum(E @ ref_rho @ E.conj().T for E in Es)
    chosen = [int(k) for k in rng.permutation(n)[: rng.integers(1, n)]]
    rest = [k for k in range(n) if k not in chosen]
    if op == "ptrace":
        want = _ref_ptrace(ref_rho, chosen, dims)
        if psi is not None:
            _close(_checked(lambda: ptrace(psi, chosen, dims), psi), want)
        red = _checked(lambda: ptrace(rho, chosen, dims), rho)
        return [dims[k] for k in rest], None, red, None, want
    B = _operator([dims[k] for k in chosen], rng)
    seed = int(rng.integers(2**32))
    probs, posts = _ref_outcomes(ref_rho, B, chosen, dims)
    got = _checked(lambda: measure(rho, B, chosen, dims, default_rng(seed)), rho, B)
    r = got.result
    if psi is not None:
        kets = _ref_ket_posts(ref_psi, B, chosen, dims)
        got_psi = _checked(lambda: measure(psi, B, chosen, dims, default_rng(seed)), psi, B)
        _close(np.array(got_psi.probs), np.array(probs))
        for p, post, want in zip(got_psi.probs, got_psi.states, kets):
            if p > EPS:
                _close(post, want / np.sqrt(p), 1 / p)
            else:
                assert post.shape == (0, 1)
        r = got_psi.result
        psi, ref_psi = got_psi.states[r], kets[r] / np.sqrt(probs[r])
    _close(np.array(got.probs), np.array(probs))
    for p, post, want in zip(got.probs, got.states, posts):
        if p > EPS:
            _close(post, want / p, 1 / p)
        else:
            assert post.shape == (0, 0)
    assert got.probs[r] > EPS
    return [dims[k] for k in rest], psi, got.states[r], ref_psi, posts[r] / probs[r]


@pytest.mark.parametrize("seed", range(SEQUENCES))
def test_a_sequence_matches_the_dense_reference(seed, monkeypatch):
    monkeypatch.setattr(_kernel, "_RECYCLE", 1)
    rng = default_rng(seed)
    dims = [int(d) for d in rng.choice([2, 3], size=rng.integers(3, 6))]
    while prod(dims) <= 128:  # rho above one block of the kernel
        dims.append(int(rng.choice([2, 3])))
    psi = rand_ket(prod(dims), rng)
    rho = psi @ psi.conj().T
    ref_psi, ref_rho = psi.copy(), rho.copy()
    held = []  # earlier states kept alive, with their bytes
    for _ in range(rng.integers(4, MAX_STEPS + 1)):
        if rng.random() < 0.5:
            held += [(a, a.tobytes()) for a in (psi, rho) if a is not None]
        dims, psi, rho, ref_psi, ref_rho = _step(rng, dims, psi, rho, ref_psi, ref_rho)
        if psi is not None:
            _close(psi, ref_psi)
        _close(rho, ref_rho)
        for a, was in held:
            assert a.tobytes() == was
