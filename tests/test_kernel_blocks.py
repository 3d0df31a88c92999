"""The contraction kernel on states larger than one cache block.

The property tests stay at or below 2^14 entries, one block of the
kernel; here every state is larger, so every route runs: the per-digit
split of a control (digits where the controls read j get U^j, the others
are copied), the split into blocks with one matmul each on a
targets-first copy (non-adjacent targets, or short runs after the
targets), the two matmul layouts an adjacent target run takes when the
output's slice is contiguous (the run last, or the run followed by a
longer tail), and the reading of G's zeros, with or without controls
(identity sectors copied, diagonal operators multiplied). Each result is
checked against ``ref_contract``, an independent oracle: one tensordot
over the whole tensor.
"""

from math import prod

import numpy as np
import pytest

from _oracles import peak_bytes, rand_cptp, rand_gauss, ref_conjugate, ref_contract
from quditsim import (
    Zd,
    apply,
    apply_channel,
    apply_ctrl,
    default_rng,
    rand_ket,
    rand_rho,
)
from quditsim import _kernel

# 110592 amplitudes; qubits at 1, 3, 5, 6, 8, 9, 11, 12, qutrits at 0, 4, 10
DIMS = [3, 2, 4, 2, 3, 2, 2, 4, 2, 2, 3, 2, 2]
# a 192 x 192 density matrix: 36864 entries
RHO_DIMS = [2, 3, 2, 4, 2, 2]
TOL = 1e-12


@pytest.mark.parametrize(
    "target",
    [
        [0],  # first axis, long run after it
        [12],  # last axis: no free axes after the targets
        [11, 12],  # adjacent run ending at the last axis
        [10],  # two qubits after the target
        [9],  # a short run after the target
        [7, 8],  # adjacent run in the middle
        [8, 7],  # the same axes listed out of order
        [6, 2],  # non-adjacent, out of order
        [0, 12],  # the first and the last axis
        [3, 1, 10],  # three non-adjacent targets
    ],
)
def test_apply_above_one_block_matches_reference(target):
    rng = default_rng(41)
    psi = rand_ket(prod(DIMS), rng)
    G = rand_gauss(prod(DIMS[k] for k in target), rng)
    want = ref_contract(psi.reshape(DIMS), G, target).reshape(-1, 1)
    assert np.abs(apply(psi, G, target, DIMS) - want).max() < TOL


@pytest.mark.parametrize(
    "ctrl, target",
    [
        ([1], [7]),  # control before the targets, long run after them
        ([5], [12]),  # control before a target on the last axis
        ([11], [12]),  # control right before a target on the last axis
        ([3, 6], [11]),  # two controls before, a short run after
        ([12], [2]),  # control after the target
        ([6], [1]),  # control after, on a qubit next to the target's block
        ([1, 11], [7, 8]),  # controls on both sides of a target run
        ([9], [6, 2]),  # non-adjacent targets, control after them
        ([1, 3, 5, 9], [12]),  # several controls
        ([0, 4], [7]),  # qutrit controls before the target: U and U^2 sectors
        ([0, 10], [4]),  # qutrit controls on both sides of the target
        ([4], [0, 1]),  # qutrit control after a qutrit-qubit target run
    ],
)
def test_apply_ctrl_above_one_block_matches_reference(ctrl, target):
    rng = default_rng(42)
    psi = rand_ket(prod(DIMS), rng)
    d = DIMS[ctrl[0]]
    G = rand_gauss(prod(DIMS[k] for k in target), rng)
    want = ref_contract(psi.reshape(DIMS), G, target, ctrl, d).reshape(-1, 1)
    assert np.abs(apply_ctrl(psi, G, ctrl, target, DIMS) - want).max() < TOL


@pytest.mark.parametrize(
    "ctrl, target",
    [([], [3, 1]), ([], [5]), ([2], [0]), ([0, 4], [2]), ([4], [1, 0])],
)
def test_density_matrix_above_one_block_matches_reference(ctrl, target):
    rng = default_rng(43)
    D = prod(RHO_DIMS)
    rho = rand_rho(D, rng)
    t = rho.reshape(RHO_DIMS + RHO_DIMS)
    G = rand_gauss(prod(RHO_DIMS[k] for k in target), rng)
    if ctrl:
        got = apply_ctrl(rho, G, ctrl, target, RHO_DIMS)
        want = ref_conjugate(t, G, target, ctrl, RHO_DIMS[ctrl[0]])
    else:
        got = apply(rho, G, target, RHO_DIMS)
        want = ref_conjugate(t, G, target)
    assert np.abs(got - want.reshape(D, D)).max() < TOL
    Ks = rand_cptp(G.shape[0], 2, rng)
    want = sum(ref_conjugate(t, K, target) for K in Ks).reshape(D, D)
    assert np.abs(apply_channel(rho, Ks, target, RHO_DIMS) - want).max() < TOL


@pytest.mark.parametrize(
    "dims, ctrl, target",
    [
        ([2] * 18, [], [14, 5]),  # non-adjacent qubits listed out of order
        ([3, 3] + [2] * 14, [1], [5]),  # qutrit control before a target with a long tail
        ([2] * 18, [14], [5]),  # control after the target
    ],
    ids=["pair", "ctrl_before", "ctrl_after"],
)
def test_apply_allocates_one_output(dims, ctrl, target):
    rng = default_rng(44)
    psi = rand_ket(prod(dims), rng)
    G = rand_gauss(prod(dims[k] for k in target), rng)

    def call():
        if ctrl:
            return apply_ctrl(psi, G, ctrl, target, dims)
        return apply(psi, G, target, dims)

    call()  # first call: numpy's lazy set-up
    out, peak = peak_bytes(call)
    # the result plus cache-sized blocks; a full-state temporary would
    # add another copy of the state
    assert peak <= psi.nbytes + 2**20
    d = dims[ctrl[0]] if ctrl else 2
    want = ref_contract(psi.reshape(dims), G, target, ctrl, d).reshape(-1, 1)
    assert np.abs(out - want).max() < TOL


def test_channel_on_rho_allocates_one_output():
    # amplitude damping on qubit 4 of a 512 x 512 rho: the one-pass route,
    # whose 4 x 4 superoperator acts on one row and one column axis, so
    # every block runs the targets-first matmul
    dims = [2] * 9
    rho = rand_rho(512, default_rng(45))
    g = 0.3
    Ks = [np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])]
    apply_channel(rho, Ks, [4], dims)  # first call: numpy's lazy set-up
    out, peak = peak_bytes(apply_channel, rho, Ks, [4], dims)
    assert peak <= rho.nbytes + 2**20
    t = rho.reshape(dims + dims)
    want = sum(ref_conjugate(t, K, [4]) for K in Ks).reshape(512, 512)
    assert np.abs(out - want).max() < TOL


# a 384 x 384 rho: every call below reads G's zero structure first
STRUCT_DIMS = [2] * 7 + [3]


def _dephasing(rng):
    Z = Zd(3)
    p = rng.dirichlet([1.0, 1.0, 1.0])
    return [np.sqrt(p[j]) * np.linalg.matrix_power(Z, j) for j in range(3)]


@pytest.mark.parametrize("case", ["apply_ctrl", "dephasing"])
def test_structured_call_on_rho_allocates_one_output(case):
    # apply_ctrl's superoperator is block-diagonal on both control axes;
    # dephasing's is diagonal, on the innermost row and column axes
    rng = default_rng(46)
    D = prod(STRUCT_DIMS)
    rho = rand_rho(D, rng)
    t = rho.reshape(STRUCT_DIMS + STRUCT_DIMS)
    if case == "apply_ctrl":
        U = rand_gauss(2, rng)
        args = (apply_ctrl, rho, U, [2], [5], STRUCT_DIMS)
        want = ref_conjugate(t, U, [5], [2])
    else:
        Ks = _dephasing(rng)
        args = (apply_channel, rho, Ks, [7], STRUCT_DIMS)
        want = sum(ref_conjugate(t, K, [7]) for K in Ks)
    args[0](*args[1:])  # first call: numpy's lazy set-up
    out, peak = peak_bytes(*args)
    assert peak <= rho.nbytes + 2**20
    assert np.abs(out - want.reshape(D, D)).max() < TOL


CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def test_identity_sector_is_a_bitwise_copy():
    rng = default_rng(47)
    psi = rand_ket(prod(DIMS), rng)
    # CNOT as a plain 4 x 4 on [9, 3]: control qubit 9, target qubit 3
    out = apply(psi, CNOT, [9, 3], DIMS).reshape(DIMS)
    t = psi.reshape(DIMS)
    assert out[(slice(None),) * 9 + (0,)].tobytes() == t[(slice(None),) * 9 + (0,)].tobytes()
    want = ref_contract(t, CNOT, [9, 3])
    assert np.abs(out - want).max() < TOL
    # on rho, the sector where the row and the column control both read 0
    D = prod(STRUCT_DIMS)
    rho = rand_rho(D, rng)
    got = apply_ctrl(rho, rand_gauss(2, rng), [2], [5], STRUCT_DIMS).reshape(STRUCT_DIMS * 2)
    zero = (slice(None),) * 2 + (0,) + (slice(None),) * 7 + (0,)
    assert got[zero].tobytes() == rho.reshape(STRUCT_DIMS * 2)[zero].tobytes()


def _dense_ops(monkeypatch):
    """The shapes of the matrices that reach ``_into``'s matmul route from
    now on: every ``(G, axes)`` op it is called with."""
    seen = []
    into = _kernel._into

    def spy(y, x, op):
        if op is not None and op[1] is not None and isinstance(op[0], np.ndarray):
            seen.append(op[0].shape)
        return into(y, x, op)

    monkeypatch.setattr(_kernel, "_into", spy)
    return seen


@pytest.mark.parametrize("tiny", [1e-300, np.nan], ids=["1e-300", "nan"])
def test_a_tiny_or_nan_entry_keeps_the_axis_dense(tiny, monkeypatch):
    # the entry couples control 0 to control 1, so the control axis is not
    # block-diagonal and the whole 4 x 4 goes to the gemm route
    G = CNOT.copy()
    G[0, 2] = tiny
    seen = _dense_ops(monkeypatch)
    psi = rand_ket(prod(DIMS), default_rng(48))
    out = apply(psi, G, [9, 3], DIMS)
    assert seen and set(seen) == {(4, 4)}
    want = ref_contract(psi.reshape(DIMS), G, [9, 3]).reshape(-1, 1)
    np.testing.assert_allclose(out, want, rtol=0, atol=TOL, equal_nan=True)
    assert np.isnan(out).any() == np.isnan(tiny)


PHASE = np.diag([1, np.exp(0.7j)])


@pytest.mark.parametrize("target", [[12], [5]], ids=["trailing", "middle"])
def test_controlled_phase_takes_no_matmul(target, monkeypatch):
    # a diagonal U under a control: its sector is read for zeros too, so it
    # is one multiply by the diagonal tiled over the trailing block, or a
    # copy and a multiply, one per digit of the target
    psi = rand_ket(prod(DIMS), default_rng(49))
    apply_ctrl(psi, PHASE, [3], target, DIMS)  # first call: numpy's lazy set-up
    seen = _dense_ops(monkeypatch)
    out, peak = peak_bytes(apply_ctrl, psi, PHASE, [3], target, DIMS)
    assert seen == []
    assert peak <= psi.nbytes + 2**20
    t = psi.reshape(DIMS)
    zero = (slice(None),) * 3 + (0,)
    assert out.reshape(DIMS)[zero].tobytes() == t[zero].tobytes()
    want = ref_contract(t, PHASE, target, [3]).reshape(-1, 1)
    assert np.abs(out - want).max() < TOL
