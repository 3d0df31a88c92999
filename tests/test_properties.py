"""Property tests: the subsystem kernels against full-space embeddings.

Each example draws mixed subsystem dimensions (2-4, up to four
subsystems), the subsystems to act on, and a seed for the random states
and operators; the library result must match the explicit kron/permute
embedding from ``_oracles``.
"""

from math import prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import embed_ctrl, embed_operator, rand_cptp, ref_multiindex_enumeration, ref_ptrace
from quditsim import (
    apply,
    apply_channel,
    apply_ctrl,
    default_rng,
    measure,
    rand_ket,
    rand_rho,
    rand_unitary,
)

TOL = 1e-10
SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)

seed_st = st.integers(0, 2**32 - 1)


def dims_st(min_size=1):
    """Subsystem dimensions in 2..4, at most four of them, D <= 128."""
    dims = st.lists(st.integers(2, 4), min_size=min_size, max_size=4)
    return dims.filter(lambda ds: prod(ds) <= 128)


@st.composite
def dims_and_subsys(draw):
    """Dimensions plus a nonempty ordered list of distinct subsystems."""
    dims = draw(dims_st())
    subsys = draw(st.permutations(range(len(dims))))
    k = draw(st.integers(1, len(dims)))
    return dims, list(subsys[:k])


@st.composite
def ctrl_setup(draw):
    """Dimensions, targets, and nonempty controls of one shared dimension."""
    dims = draw(dims_st(min_size=2))
    order = draw(st.permutations(range(len(dims))))
    k = draw(st.integers(1, len(dims) - 1))
    target, rest = list(order[:k]), list(order[k:])
    d = dims[rest[0]]
    same = [c for c in rest if dims[c] == d]
    ctrl = same[: draw(st.integers(1, len(same)))]
    return dims, ctrl, target, d


def _states(dims, rng):
    D = prod(dims)
    return rand_ket(D, rng), rand_rho(D, rng)


@SETTINGS
@given(dims_and_subsys(), seed_st)
def test_apply_matches_embedding(setup, seed):
    dims, subsys = setup
    rng = default_rng(seed)
    psi, rho = _states(dims, rng)
    U = rand_unitary(prod(dims[k] for k in subsys), rng)
    O = embed_operator(U, subsys, dims)
    assert np.abs(apply(psi, U, subsys, dims) - O @ psi).max() < TOL
    assert np.abs(apply(rho, U, subsys, dims) - O @ rho @ O.conj().T).max() < TOL


@SETTINGS
@given(ctrl_setup(), seed_st)
def test_apply_ctrl_matches_embedding(setup, seed):
    dims, ctrl, target, d = setup
    rng = default_rng(seed)
    psi, rho = _states(dims, rng)
    U = rand_unitary(prod(dims[k] for k in target), rng)
    G = embed_ctrl(U, ctrl, target, dims, d)
    assert np.abs(apply_ctrl(psi, U, ctrl, target, dims) - G @ psi).max() < TOL
    assert np.abs(apply_ctrl(rho, U, ctrl, target, dims) - G @ rho @ G.conj().T).max() < TOL


@SETTINGS
@given(dims_and_subsys(), st.integers(1, 4), seed_st)
def test_apply_channel_matches_embedding(setup, nkraus, seed):
    dims, subsys = setup
    rng = default_rng(seed)
    _, rho = _states(dims, rng)
    Ks = rand_cptp(prod(dims[k] for k in subsys), nkraus, rng)
    expected = sum(
        embed_operator(K, subsys, dims) @ rho @ embed_operator(K, subsys, dims).conj().T
        for K in Ks
    )
    assert np.abs(apply_channel(rho, Ks, subsys, dims) - expected).max() < TOL


def _check_measure(dims, subsys, B, seed):
    """measure of a random ket and rho in basis B against the projector
    oracle; a ket's post-states also keep the phase of (b_i^dag x I) psi."""
    rng = default_rng(seed)
    psi, rho = _states(dims, rng)
    dsub = len(B)
    # entries of the full space whose measured digits are all 0, in the
    # row-major order of the unmeasured digits
    home = [all(m[k] == 0 for k in subsys) for m in ref_multiindex_enumeration(dims)]
    for state in (psi, rho):
        is_ket = state.shape[1] == 1
        full = state @ state.conj().T if is_ket else state
        out = measure(state, B, subsys, dims, default_rng(seed))
        for i, (p, post) in enumerate(zip(out.probs, out.states)):
            b = B[:, [i]]
            P = embed_operator(b @ b.conj().T, subsys, dims)
            unnormalized = ref_ptrace(P @ full @ P, subsys, dims)
            expected_p = np.trace(unnormalized).real
            assert abs(p - expected_p) < TOL
            if expected_p > 1e-9:
                got = post @ post.conj().T if is_ket else post
                assert np.abs(got - unnormalized / expected_p).max() < 1e-8
                if is_ket and dsub < prod(dims):
                    e0 = np.eye(dsub)[:, [0]]
                    amps = (embed_operator(e0 @ b.conj().T, subsys, dims) @ psi)[home]
                    assert np.abs(post - amps / np.sqrt(expected_p)).max() < 1e-8


@SETTINGS
@given(dims_and_subsys(), seed_st)
def test_measure_matches_projector_embedding(setup, seed):
    dims, subsys = setup
    B = rand_unitary(prod(dims[k] for k in subsys), default_rng([seed, 1]))
    _check_measure(dims, subsys, B, seed)


@SETTINGS
@given(dims_and_subsys(), seed_st)
def test_measure_in_a_permutation_basis_matches_projector_embedding(setup, seed):
    # column j is a phase times e_perm[j]: the gather route, not the gemm
    dims, subsys = setup
    dsub = prod(dims[k] for k in subsys)
    rng = default_rng([seed, 2])
    B = np.zeros((dsub, dsub), dtype=complex)
    B[rng.permutation(dsub), np.arange(dsub)] = np.exp(2j * np.pi * rng.random(dsub))
    _check_measure(dims, subsys, B, seed)
