import numpy as np
import pytest

from quditsim import (
    MAXN,
    ErrorKind,
    Fd,
    QuantumError,
    Xd,
    Zd,
    apply_ctrl,
    cnot,
    ctrl_gate,
    default_rng,
    gt,
    measure,
    mket,
    omega,
    rand_ket,
    rand_unitary,
)

from _oracles import ref_ctrl_gate

FIXED_GATES = ("X", "Y", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP", "TOF", "FRED")


def test_fixed_gate_values():
    s = 1 / np.sqrt(2)
    assert np.array_equal(gt.X, [[0, 1], [1, 0]])
    assert np.array_equal(gt.Y, [[0, -1j], [1j, 0]])
    assert np.array_equal(gt.Z, np.diag([1, -1]))
    assert np.abs(gt.H - np.array([[s, s], [s, -s]])).max() < 1e-15
    assert np.array_equal(gt.S, np.diag([1, 1j]))
    assert np.abs(gt.T - np.diag([1, np.exp(1j * np.pi / 4)])).max() < 1e-15
    assert np.array_equal(gt.CZ, np.diag([1, 1, 1, -1]))
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(gt.SWAP, swap)


@pytest.mark.parametrize("name", FIXED_GATES)
def test_registry_gates_unitary(name):
    G = getattr(gt, name)
    assert np.abs(G.conj().T @ G - np.eye(G.shape[0])).max() <= 1e-12


def test_registry_read_only():
    with pytest.raises(ValueError):
        gt.X[0, 0] = 5


def test_identity():
    assert np.array_equal(gt.Id(3), np.eye(3))
    with pytest.raises(QuantumError):
        gt.Id(0)


def test_cnot_action():
    C = cnot()
    assert np.array_equal(C @ mket([1, 0]), mket([1, 1]))
    assert np.array_equal(C @ mket([0, 0]), mket([0, 0]))
    assert np.array_equal(C @ mket([0, 1]), mket([0, 1]))
    assert np.array_equal(C @ C, np.eye(4))


def test_qudit_gates_reduce_to_qubit_gates():
    assert np.abs(Xd(2) - gt.X).max() < 1e-15
    assert np.abs(Zd(2) - gt.Z).max() < 1e-15
    assert np.abs(Fd(2) - gt.H).max() < 1e-15


def test_zd3_diagonal_from_omega_powers():
    w = omega(3)
    expected = [1, w, w * w]
    assert np.abs(np.diagonal(Zd(3)) - expected).max() < 1e-15
    assert abs(w - (-0.5 + 0.8660254037844387j)) < 1e-12


@pytest.mark.parametrize("D", [140, 256, 1024])
def test_fd_unitary_to_roundoff_at_large_d(D):
    # w ** (j * k) loses accuracy as j * k grows; w^(j * k mod D) does not
    F = Fd(D)
    assert np.abs(F.conj().T @ F - np.eye(D)).max() <= 1e-14


def test_measure_accepts_the_fourier_basis_of_side_256():
    psi = rand_ket(256, default_rng(7))
    out = measure(psi, Fd(256), [0], [256], default_rng(8))
    assert abs(sum(out.probs) - 1) < 1e-12


@pytest.mark.parametrize("D", [2, 3, 7, 64, 300])
def test_zd_is_the_diagonal_of_python_powers_bit_for_bit(D):
    w = omega(D)
    want = np.diag(np.array([w**j for j in range(D)], dtype=complex))
    assert Zd(D).tobytes() == want.tobytes()


def test_xd3_cycles_basis():
    X3 = Xd(3)
    e = np.eye(3)
    for j in range(3):
        assert np.array_equal(X3 @ e[:, [j]], e[:, [(j + 1) % 3]])


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_qudit_gates_unitary(D):
    for G in (Xd(D), Zd(D), Fd(D)):
        assert np.abs(G.conj().T @ G - np.eye(D)).max() < 1e-12


def test_qudit_gate_dimension_validation():
    for f in (Xd, Zd, Fd):
        with pytest.raises(QuantumError) as ei:
            f(1)
        assert ei.value.kind is ErrorKind.DIMS_INVALID


def test_ctrl_gate_cnot():
    assert np.abs(ctrl_gate(gt.X, [0], [1], 2, 2) - cnot()).max() < 1e-15


def test_ctrl_gate_identity_target():
    assert np.array_equal(ctrl_gate(np.eye(2), [0], [1], 2, 2), np.eye(4))


def test_ctrl_gate_reversed_control():
    # enumerate action on all 4 basis kets: flips qubit 0 when qubit 1 is 1
    G = ctrl_gate(gt.X, [1], [0], 2, 2)
    assert np.array_equal(G @ mket([0, 0]), mket([0, 0]))
    assert np.array_equal(G @ mket([1, 0]), mket([1, 0]))
    assert np.array_equal(G @ mket([0, 1]), mket([1, 1]))
    assert np.array_equal(G @ mket([1, 1]), mket([0, 1]))


def test_ctrl_gate_matches_registry_three_qubit_gates():
    assert np.array_equal(ctrl_gate(gt.X, [0, 1], [2], 3, 2), gt.TOF)
    assert np.array_equal(ctrl_gate(gt.SWAP, [0], [1, 2], 3, 2), gt.FRED)


def test_ctrl_gate_unitary_random():
    rng = default_rng(11)
    for d, n in ((2, 2), (2, 4), (3, 2), (3, 3)):
        U = rand_unitary(d, rng)
        G = ctrl_gate(U, [0], [n - 1], n, d)
        assert np.abs(G.conj().T @ G - np.eye(d**n)).max() < 1e-10


def test_ctrl_gate_control_sectors_apply_powers():
    # control value j applies U^j to the target, qutrit case
    rng = default_rng(12)
    U = rand_unitary(3, rng)
    G = ctrl_gate(U, [0], [1], 2, 3)
    e = np.eye(3, dtype=complex)
    for j in range(3):
        Uj = np.linalg.matrix_power(U, j)
        for t in range(3):
            inp = np.kron(e[:, [j]], e[:, [t]])
            expected = np.kron(e[:, [j]], Uj @ e[:, [t]])
            assert np.abs(G @ inp - expected).max() < 1e-12


def test_ctrl_gate_multi_control_disagreeing_controls_identity():
    rng = default_rng(13)
    U = rand_unitary(2, rng)
    G = ctrl_gate(U, [0, 1], [2], 3, 2)
    for c0, c1, t in ((0, 1, 0), (1, 0, 1), (0, 1, 1)):
        v = mket([c0, c1, t])
        assert np.abs(G @ v - v).max() < 1e-15


@pytest.mark.parametrize(
    "d, n, ctrl, target",
    [
        (2, 3, [1], [0]),
        (2, 4, [3, 0], [2, 1]),
        (2, 4, [1, 2], [3, 0]),
        (3, 3, [1], [2, 0]),
        (3, 4, [3, 0], [2, 1]),
        (3, 3, [2, 0], [1]),
    ],
)
def test_ctrl_gate_matches_reference_loop(d, n, ctrl, target):
    # a non-unitary U, so that every power U^j is distinct and checked
    rng = default_rng(d * 100 + n)
    side = d ** len(target)
    U = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    expected = ref_ctrl_gate(U, ctrl, target, n, d)
    assert np.abs(ctrl_gate(U, ctrl, target, n, d) - expected).max() < 1e-12


def test_ctrl_gate_errors():
    with pytest.raises(QuantumError) as ei:
        ctrl_gate(gt.X, [0], [0], 2, 2)
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    with pytest.raises(QuantumError) as ei:
        ctrl_gate(gt.X, [0], [2], 2, 2)
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    with pytest.raises(QuantumError) as ei:
        ctrl_gate(np.eye(3), [0], [1], 2, 2)
    assert ei.value.kind is ErrorKind.DIMS_MISMATCH_MATRIX
    with pytest.raises(QuantumError) as ei:
        ctrl_gate(np.ones((2, 3)), [0], [1], 2, 2)
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE
    with pytest.raises(QuantumError) as ei:
        ctrl_gate(gt.X, [0], [1], 2, 1)
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    # n is bounded before the n dimensions are listed and the gate is built
    with pytest.raises(QuantumError) as ei:
        ctrl_gate(gt.X, [0], [1], MAXN + 1)
    assert ei.value.kind is ErrorKind.DIMS_INVALID


# U, ctrl, target on three qubits, each faulty
BAD_CTRL_TARGET = {
    "overlap": (gt.X, [0], [0]),
    "target_out_of_range": (gt.X, [0], [3]),
    "control_out_of_range": (gt.X, [3], [1]),
    "side_mismatch": (np.eye(3), [0], [1]),
    "overlap_and_side_mismatch": (np.eye(4), [1], [1]),  # targets are checked first
}


@pytest.mark.parametrize("case", list(BAD_CTRL_TARGET))
def test_ctrl_gate_and_apply_ctrl_reject_alike(case):
    U, ctrl, target = BAD_CTRL_TARGET[case]
    with pytest.raises(QuantumError) as built:
        ctrl_gate(U, ctrl, target, 3)
    with pytest.raises(QuantumError) as applied:
        apply_ctrl(mket([0, 0, 0]), U, ctrl, target, [2, 2, 2])
    assert built.value.kind is applied.value.kind
    assert built.value.detail == applied.value.detail
