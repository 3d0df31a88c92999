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
twice must be bitwise equal. Two more tests check that the patches take:
the patched names are bound in ``_kernel`` alone, and a spy sees each
forced route taken. A last property test checks the exact-zero reader,
``_support``, against ``G != 0`` in every memory layout.
"""

import importlib
import pkgutil
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditsim
from _oracles import rand_cptp, rand_gauss, ref_conjugate, ref_contract
from quditsim import apply, apply_channel, apply_ctrl, default_rng, rand_ket, rand_rho, rand_unitary
from quditsim import _kernel

SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
TOL = 1e-10

BLOCKS = [2, _kernel._BLOCK, 2**40]  # tiny, default, huge
SHORTS = [0, _kernel._SHORT, 2**40]
ONE_PASS = [True, False]
KINDS = [
    "dense", "diagonal", "triangular", "block_diagonal", "eye_first", "eye_last", "identity",
    "controlled",
]


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
        return np.tril(rand_gauss(k, rng))
    if kind == "identity":
        return np.eye(k, dtype=complex)
    if kind == "eye_first":
        return np.kron(np.eye(d0), rand_gauss(k // d0, rng))
    if kind == "eye_last":
        return np.kron(rand_gauss(k // dl, rng), np.eye(dl))
    # block-diagonal on the first factor: random blocks, or I, U, U^2, ...
    U = rand_unitary(k // d0, rng)
    blocks = [rand_gauss(k // d0, rng) for _ in range(d0)]
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
        mp.setattr(_kernel, "_BLOCK", block)
        mp.setattr(_kernel, "_SHORT", short)
        mp.setattr(_kernel, "_one_pass", lambda *_: one_pass)
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


def test_patch_targets_are_bound_in_the_kernel_only():
    # ``from ._kernel import _BLOCK`` elsewhere would be a second binding,
    # which a patch of ``_kernel._BLOCK`` misses without a sign
    names = [m.name for m in pkgutil.iter_modules(quditsim.__path__)]
    modules = [quditsim] + [importlib.import_module(f"quditsim.{n}") for n in names]
    for target in ["_BLOCK", "_SHORT", "_one_pass", "_into"]:
        owners = [m.__name__ for m in modules if target in vars(m)]
        assert owners == ["quditsim._kernel"], target


def _spy(monkeypatch, name):
    """The list that each call to ``_kernel.<name>`` appends to, recursive
    calls included."""
    calls = []
    real = getattr(_kernel, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernel, name, spy)
    return calls


def test_forced_routes_are_taken(monkeypatch):
    rng = default_rng(11)
    dims = [2, 2, 2]
    psi, U = rand_ket(8, rng), rand_unitary(2, rng)
    into = _spy(monkeypatch, "_into")
    apply(psi, U, [1], dims)
    assert len(into) == 1  # within one block: one targets-first matmul
    into.clear()
    _forced((2, _kernel._SHORT, True), lambda: apply(psi, U, [1], dims))
    assert len(into) > 2  # two calls, each split into blocks
    supers = _spy(monkeypatch, "_super")
    rho, Ks = rand_rho(8, rng), rand_cptp(2, 2, rng)
    for one_pass in [True, False]:
        supers.clear()
        _forced((_kernel._BLOCK, _kernel._SHORT, one_pass), lambda: apply_channel(rho, Ks, [1], dims))
        assert bool(supers) is one_pass


# An exact zero, a signed zero and the entries that must not read as zero,
# planted in one half of an entry; the other half is zero or not.
PLANTED = [0.0, -0.0, 1e-300, np.nan, np.inf, -np.inf]
LAYOUTS = ["C", "F", "transposed", "strided"]


def _laid_out(V, layout):
    """V's values in the memory layout ``layout`` names."""
    if layout == "C":
        return V.copy()
    if layout == "F":
        return np.asfortranarray(V)
    if layout == "transposed":
        return V.T.copy().T
    wide = np.zeros((2 * V.shape[0], 3 * V.shape[1]), dtype=complex)
    wide[::2, 1::3] = V
    return wide[::2, 1::3]


@SETTINGS
@given(
    st.integers(1, 9),
    st.lists(
        st.tuples(st.integers(0, 80), st.booleans(), st.sampled_from(PLANTED), st.sampled_from([0.0, -0.0, 1.5])),
        max_size=12,
    ),
    st.booleans(),
    st.sampled_from(LAYOUTS),
    st.integers(0, 2**32 - 1),
)
def test_support_reads_the_zeros_of_g_not_equal_zero(k, plants, sparse, layout, seed):
    rng = default_rng(seed)
    V = rand_gauss(k, rng)
    if sparse:
        V[rng.random((k, k)) < 0.5] = 0
    for at, in_real, value, other in plants:
        V.flat[at % V.size] = complex(value, other) if in_real else complex(other, value)
    G = _laid_out(V, layout)
    assert np.array_equal(G, V, equal_nan=True)
    nz = G != 0
    got = _kernel._support(G)
    if G.size > 1 and nz.all():
        assert got is None
    else:
        want = np.unravel_index(np.flatnonzero(nz), G.shape)
        assert got is not None and all(np.array_equal(g, w) for g, w in zip(got, want))
