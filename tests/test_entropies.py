import numpy as np
import pytest

from _oracles import bell_projector, ref_qmutualinfo
from quditsim import (
    ErrorKind,
    QuantumError,
    bell00,
    default_rng,
    entropy,
    kron,
    ptrace,
    qmutualinfo,
    rand_ket,
    rand_rho,
    rand_unitary,
    shannon,
)


def test_shannon_values():
    assert shannon([1.0]) == 0
    assert abs(shannon([0.5, 0.5]) - 1.0) < 1e-15
    assert abs(shannon([0.25] * 4) - 2.0) < 1e-15


def test_shannon_ignores_zero_entries():
    assert abs(shannon([0.5, 0.5, 0.0]) - 1.0) < 1e-15


def test_shannon_errors():
    with pytest.raises(QuantumError) as ei:
        shannon([])
    assert ei.value.kind is ErrorKind.ZERO_SIZE
    with pytest.raises(QuantumError) as ei:
        shannon([0.7, -0.3, 0.6])
    assert ei.value.kind is ErrorKind.OUT_OF_RANGE
    with pytest.raises(QuantumError) as ei:
        shannon([0.5, 0.2])
    assert ei.value.kind is ErrorKind.OUT_OF_RANGE


def test_entropy_pure_state_is_zero():
    rng = default_rng(0)
    psi = rand_ket(5, rng)
    assert abs(entropy(psi @ psi.conj().T)) < 1e-10


def test_entropy_of_ket_is_zero():
    psi = rand_ket(6, default_rng(8))
    assert entropy(psi) == 0.0
    assert entropy(psi.ravel()) == 0.0
    with pytest.raises(QuantumError) as ei:
        entropy(2 * psi)
    assert ei.value.kind is ErrorKind.DIMS_INVALID


def test_entropy_maximally_mixed_qubit():
    assert abs(entropy(np.eye(2) / 2) - 1.0) < 1e-10


def test_entropy_reduced_bell_state():
    assert abs(entropy(ptrace(bell_projector(), [1], [2, 2])) - 1.0) < 1e-10


def test_entropy_bounds_random():
    rng = default_rng(1)
    for D in (2, 3, 8, 16):
        S = entropy(rand_rho(D, rng))
        assert -1e-9 <= S <= np.log2(D) + 1e-9


def test_entropy_unitary_invariance():
    rng = default_rng(2)
    rho = rand_rho(6, rng)
    U = rand_unitary(6, rng)
    assert abs(entropy(U @ rho @ U.conj().T) - entropy(rho)) <= 1e-9


def test_entropy_rejects_non_density_matrices():
    with pytest.raises(QuantumError) as ei:
        entropy(np.eye(2))  # trace 2
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    with pytest.raises(QuantumError) as ei:
        entropy(np.array([[0.5, 1], [0, 0.5]], dtype=complex))  # not Hermitian
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    with pytest.raises(QuantumError) as ei:
        entropy(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    with pytest.raises(QuantumError) as ei:
        # rho_B = diag(1.5, -0.5): the failing entropy reports its caller
        qmutualinfo(np.diag([1.5, -0.5, 0, 0]), [0], [1], [2, 2])
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    assert ei.value.op == "qmutualinfo"
    with pytest.raises(QuantumError) as ei:
        entropy(np.ones((2, 3)))
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE


def test_qmutualinfo_product_state():
    rng = default_rng(3)
    rho = kron(rand_rho(2, rng), rand_rho(3, rng))
    assert abs(qmutualinfo(rho, [0], [1], [2, 3])) < 1e-9


def test_qmutualinfo_bell():
    assert abs(qmutualinfo(bell_projector(), [0], [1], [2, 2]) - 2.0) < 1e-9


def test_qmutualinfo_symmetric_and_nonnegative():
    rng = default_rng(4)
    for _ in range(5):
        rho = rand_rho(8, rng)
        a = qmutualinfo(rho, [0], [2], [2, 2, 2])
        b = qmutualinfo(rho, [2], [0], [2, 2, 2])
        assert abs(a - b) <= 1e-12
        assert a >= -1e-9


def test_qmutualinfo_subsystem_out_of_range():
    rng = default_rng(5)
    rho = rand_rho(16, rng)
    with pytest.raises(QuantumError) as ei:
        qmutualinfo(rho, [0], [4], [2, 2, 2, 2])
    err = ei.value
    assert err.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    assert "qmutualinfo" in str(err)


def test_qmutualinfo_overlapping_sets_rejected():
    rng = default_rng(6)
    rho = rand_rho(4, rng)
    with pytest.raises(QuantumError) as ei:
        qmutualinfo(rho, [0], [0], [2, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS


def test_qmutualinfo_of_ket_matches_its_projector():
    rng = default_rng(9)
    dims = [2, 3, 2]
    psi = rand_ket(12, rng)
    proj = psi @ psi.conj().T
    for A, B in (([0], [2]), ([1], [0, 2]), ([2, 0], [1])):
        assert abs(qmutualinfo(psi, A, B, dims) - qmutualinfo(proj, A, B, dims)) < 1e-9
    assert abs(qmutualinfo(bell00(), [0], [1], [2, 2]) - 2.0) < 1e-9


def test_qmutualinfo_multi_index_groups():
    # I(A:B) for a pure 3-qubit state with A = {0,1}, B = {2}: 2 * S(rho_B)
    rng = default_rng(7)
    psi = rand_ket(8, rng)
    rho = psi @ psi.conj().T
    sb = entropy(ptrace(rho, [0, 1], [2, 2, 2]))
    assert abs(qmutualinfo(rho, [0, 1], [2], [2, 2, 2]) - 2 * sb) < 1e-9


@pytest.mark.parametrize("is_ket", [False, True], ids=["rho", "ket"])
def test_qmutualinfo_matches_reference(is_ket):
    rng = default_rng(10)
    dims = [2, 3, 2, 2]
    state = rand_ket(24, rng) if is_ket else rand_rho(24, rng)
    groups = [
        ([0], [2]),  # subsystems 1 and 3 traced out
        ([3], [1, 0]),
        ([2, 0], [3, 1]),  # A | B is every subsystem
        ([3, 2, 1], [0]),
        ([1], [3]),
    ]
    for A, B in groups:
        want = ref_qmutualinfo(state, A, B, dims)
        assert abs(qmutualinfo(state, A, B, dims) - want) < 1e-9


def _with_b_only_entry(M, v):
    # the entry between |000> and |100>: of the reduced states, only rho_B
    # (subsystem 0) sums it
    M = np.array(M, dtype=complex)
    M[0, 4] = v
    return M


_ZZ = np.diag([1.0, -1.0, -1.0, 1.0])
_NAN_KET = kron(bell00(), np.array([[1.0], [0.0]]))
_NAN_KET[3, 0] = np.nan
# (state on three qubits, A, B, the detail at the first failing check)
_BAD_INPUTS = {
    "not_hermitian": (
        _with_b_only_entry(np.eye(8) / 8, 0.5), [2], [0],
        "matrix is not Hermitian: error 0.5, tolerance 1e-12",
    ),
    # rho_A = diag(1.5, -0.5) fails before the non-Hermitian rho_B
    "a_checked_before_b": (
        _with_b_only_entry(np.diag([0.375, -0.125] * 4), 0.5), [2], [0],
        "matrix is not positive semidefinite: error 0.5, tolerance 1e-10",
    ),
    # rho_A = rho_B = I/2, but rho_AB = I/4 + Z x Z / 2 has eigenvalue -1/4
    "ab_not_psd": (
        kron(np.eye(4) / 4 + _ZZ / 2, np.eye(2) / 2), [1], [0],
        "matrix is not positive semidefinite: error 0.25, tolerance 1e-10",
    ),
    "nan_in_b_only": (
        _with_b_only_entry(np.eye(8) / 8, np.nan), [2], [0],
        "matrix is not Hermitian: error nan, tolerance 1e-12",
    ),
    "nan_ket": (_NAN_KET, [0], [1], "matrix is not Hermitian: error nan, tolerance 1e-12"),
    "ket_of_norm_2": (
        2 * kron(bell00(), np.array([[0.6], [0.8]])), [2, 1], [0],
        "trace is not 1: error 3, tolerance 1e-06",
    ),
}


@pytest.mark.parametrize("name", list(_BAD_INPUTS))
def test_qmutualinfo_rejects_bad_states_at_the_first_failing_check(name):
    state, A, B, detail = _BAD_INPUTS[name]
    with pytest.raises(QuantumError) as ei:
        qmutualinfo(state, A, B, [2, 2, 2])
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    assert ei.value.op == "qmutualinfo"
    assert ei.value.detail == detail
