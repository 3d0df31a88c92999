"""Every route of the contraction kernel, forced, on the same inputs.

The kernel picks its route from sizes: ``_BLOCK`` (when a state is split
into blocks, and when G's zero structure is read), ``_SHORT`` (when an
adjacent target run takes the batched matmul) and ``_one_pass`` (the
superoperator or the Kraus loop on rho). Each example patches all three,
so small states take the routes that large ones do, and draws mixed
dimensions, out-of-order targets, qudit controls and operators with the
shapes the structure check looks for: dense, diagonal, triangular,
block-diagonal, an identity factor on either side, the identity, and a
controlled gate given as a plain matrix. Controls and the zeros the
structure check finds both become per-digit splits of one writer, so
each shape is also drawn under controls. Results must match the
tensordot oracle of ``_oracles`` to roundoff, and the same call made
twice must be bitwise equal.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ref_conjugate, ref_contract
from quditsim import apply, apply_channel, apply_ctrl, default_rng, rand_ket, rand_rho, rand_unitary
from quditsim import operations

SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
TOL = 1e-10

BLOCKS = [2, operations._BLOCK, 2**40]  # tiny, default, huge
SHORTS = [0, operations._SHORT, 2**40]
ONE_PASS = [True, False]
KINDS = [
    "dense", "diagonal", "triangular", "block_diagonal", "eye_first", "eye_last", "identity",
    "controlled",
]


def _gauss(k, rng):
    """A random complex k x k matrix: not unitary, so G and G^T differ."""
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def _operator(kind, dsub, rng):
    """A k x k operator on factors ``dsub`` (in the listed target order)
    with the zero structure ``kind`` names."""
    k, d0, dl = prod(dsub), dsub[0], dsub[-1]
    if kind == "dense":
        return rand_unitary(k, rng)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    if kind == "triangular":
        # zero above the diagonal only: not block-diagonal on any factor
        return np.tril(_gauss(k, rng))
    if kind == "identity":
        return np.eye(k, dtype=complex)
    if kind == "eye_first":
        return np.kron(np.eye(d0), _gauss(k // d0, rng))
    if kind == "eye_last":
        return np.kron(_gauss(k // dl, rng), np.eye(dl))
    # block-diagonal on the first factor: random blocks, or I, U, U^2, ...
    U = rand_unitary(k // d0, rng)
    blocks = [_gauss(k // d0, rng) for _ in range(d0)]
    if kind == "controlled":
        blocks = [np.linalg.matrix_power(U, j) for j in range(d0)]
    G = np.zeros((k, k), dtype=complex)
    for i, B in enumerate(blocks):
        G[i * (k // d0) : (i + 1) * (k // d0), i * (k // d0) : (i + 1) * (k // d0)] = B
    return G


@st.composite
def setups(draw, max_D):
    """(dims, targets, controls, d): targets out of order, controls of one
    dimension d among the other subsystems, possibly none."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5).filter(lambda ds: prod(ds) <= max_D))
    order = draw(st.permutations(range(len(dims))))
    s = draw(st.integers(1, min(3, len(dims))))
    target, rest = list(order[:s]), list(order[s:])
    ctrl, d = [], 2
    if rest and draw(st.booleans()):
        d = dims[rest[0]]
        same = [c for c in rest if dims[c] == d]
        ctrl = same[: draw(st.integers(1, len(same)))]
    return dims, target, ctrl, d


routes = st.tuples(st.sampled_from(BLOCKS), st.sampled_from(SHORTS), st.sampled_from(ONE_PASS))


def _forced(route, call):
    """call() twice under ``route``; the results must be bitwise equal."""
    block, short, one_pass = route
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_BLOCK", block)
        mp.setattr(operations, "_SHORT", short)
        mp.setattr(operations, "_one_pass", lambda *_: one_pass)
        out = call()
        again = call()
    assert out.tobytes() == again.tobytes()
    return out


@SETTINGS
@given(setups(max_D=144), st.sampled_from(KINDS), routes, st.integers(0, 2**32 - 1))
def test_ket_routes_match_reference(setup, kind, route, seed):
    dims, target, ctrl, d = setup
    rng = default_rng(seed)
    psi = rand_ket(prod(dims), rng)
    G = _operator(kind, [dims[k] for k in target], rng)
    if ctrl:
        got = _forced(route, lambda: apply_ctrl(psi, G, ctrl, target, dims))
    else:
        got = _forced(route, lambda: apply(psi, G, target, dims))
    want = ref_contract(psi.reshape(dims), G, target, ctrl, d).reshape(-1, 1)
    assert np.abs(got - want).max() < TOL * max(1.0, np.abs(want).max())


@SETTINGS
@given(setups(max_D=36), st.sampled_from(KINDS), routes, st.integers(0, 2**32 - 1))
def test_density_matrix_routes_match_reference(setup, kind, route, seed):
    dims, target, ctrl, d = setup
    rng = default_rng(seed)
    D = prod(dims)
    rho = rand_rho(D, rng)
    t = rho.reshape(dims + dims)
    dsub = [dims[k] for k in target]
    G = _operator(kind, dsub, rng)
    if ctrl:
        got = _forced(route, lambda: apply_ctrl(rho, G, ctrl, target, dims))
    else:
        got = _forced(route, lambda: apply(rho, G, target, dims))
    want = ref_conjugate(t, G, target, ctrl, d).reshape(D, D)
    assert np.abs(got - want).max() < TOL * max(1.0, np.abs(want).max())
    Ks = [G, _operator(kind, dsub, rng)]
    got = _forced(route, lambda: apply_channel(rho, Ks, target, dims))
    want = sum(ref_conjugate(t, K, target) for K in Ks).reshape(D, D)
    assert np.abs(got - want).max() < TOL * max(1.0, np.abs(want).max())
