from itertools import permutations
from math import prod, sqrt

import numpy as np
import pytest

from quditsim import (
    ErrorKind,
    QuantumError,
    apply,
    apply_channel,
    apply_ctrl,
    bell00,
    choi2kraus,
    ctrl_gate,
    default_rng,
    gt,
    invperm,
    kraus2choi,
    kraus2super,
    kron,
    mket,
    norm,
    ptrace,
    ptranspose,
    qmutualinfo,
    rand_ket,
    rand_perm,
    rand_rho,
    rand_unitary,
    st,
    syspermute,
    unvec,
    vec,
)

from quditsim._kernel import _one_pass

from _oracles import (
    bell_projector,
    channel_on_basis,
    embed_ctrl,
    embed_operator,
    peak_bytes,
    rand_cptp,
    rand_gauss,
    ref_ctrl_gate,
    ref_kraus2choi,
    ref_kraus2super,
    ref_ptrace,
    ref_ptranspose,
)

DEPHASING = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


# ---------------------------------------------------------------- apply


def test_apply_x_on_second_qubit_of_bell():
    out = apply(bell00(), gt.X, [1], [2, 2])
    expected = (mket([0, 1]) + mket([1, 0])) / sqrt(2)
    assert np.abs(out - expected).max() < 1e-15


def test_apply_identity_fixes_state():
    rng = default_rng(0)
    psi = rand_ket(12, rng)
    for k, dims in ((0, [2, 2, 3]), (1, [2, 2, 3]), (2, [2, 2, 3])):
        assert np.abs(apply(psi, np.eye(dims[k]), [k], dims) - psi).max() < 1e-15


def test_apply_x_on_first_qubit():
    # hand matvec of X (x) I
    out = apply(mket([1, 0]), gt.X, [0], [2, 2])
    assert np.array_equal(out, mket([0, 0]))


def test_apply_density_matrix_is_conjugation():
    rng = default_rng(1)
    rho = rand_rho(4, rng)
    U = rand_unitary(2, rng)
    full = kron(U, np.eye(2))
    out = apply(rho, U, [0], [2, 2])
    assert np.abs(out - full @ rho @ full.conj().T).max() < 1e-12


def test_apply_subsystem_order_defines_factor_order():
    rng = default_rng(2)
    psi = rand_ket(4, rng)
    U = rand_unitary(4, rng)
    swapped = gt.SWAP @ U @ gt.SWAP
    assert np.abs(apply(psi, U, [1, 0], [2, 2]) - apply(psi, swapped, [0, 1], [2, 2])).max() < 1e-12


def test_apply_preserves_norm_random_unitaries():
    rng = default_rng(3)
    for n in range(1, 6):
        psi = rand_ket(2**n, rng)
        k = int(rng.integers(1, n + 1))
        subsys = list(rng.permutation(n)[:k])
        U = rand_unitary(2**k, rng)
        assert abs(norm(apply(psi, U, subsys, [2] * n)) - 1) < 1e-10


def test_apply_matches_embed_oracle_small():
    rng = default_rng(4)
    for dims in ([2, 3], [3, 2], [2, 2, 3]):
        n = len(dims)
        psi = rand_ket(prod(dims), rng)
        rho = rand_rho(prod(dims), rng)
        for r in range(1, n + 1):
            for subsys in permutations(range(n), r):
                U = rand_unitary(prod(dims[k] for k in subsys), rng)
                O = embed_operator(U, list(subsys), dims)
                assert np.abs(apply(psi, U, list(subsys), dims) - O @ psi).max() < 1e-12
                assert (
                    np.abs(apply(rho, U, list(subsys), dims) - O @ rho @ O.conj().T).max() < 1e-12
                )


def test_apply_errors():
    with pytest.raises(QuantumError) as ei:
        apply(np.ones((3, 1)), gt.X, [0], [2, 2])
    assert ei.value.kind is ErrorKind.NOT_SQUARE_NOR_KET
    with pytest.raises(QuantumError) as ei:
        apply(mket([0, 0]), np.eye(3), [0], [2, 2])
    assert ei.value.kind is ErrorKind.DIMS_MISMATCH_MATRIX
    with pytest.raises(QuantumError) as ei:
        apply(mket([0, 0]), np.eye(4), [0, 0], [2, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    with pytest.raises(QuantumError) as ei:
        apply(mket([0, 0]), gt.X, [2], [2, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    with pytest.raises(QuantumError) as ei:
        apply(mket([0, 0]), np.zeros((0, 0)), [0], [2, 2])
    assert ei.value.kind is ErrorKind.ZERO_SIZE


def test_apply_accepts_flat_kets():
    out = apply(np.array([0, 0, 1, 0], dtype=complex), gt.X, [0], [2, 2])
    assert out.shape == (4, 1)
    assert np.array_equal(out, mket([0, 0]))


# ----------------------------------------------------------- apply_ctrl


def test_apply_ctrl_fires_on_control_one():
    rng = default_rng(5)
    U = rand_unitary(2, rng)
    out = apply_ctrl(mket([1, 0]), U, [0], [1], [2, 2])
    expected = kron(st.z1, U @ st.z0)
    assert np.abs(out - expected).max() < 1e-12


def test_apply_ctrl_control_off_is_identity():
    rng = default_rng(6)
    U = rand_unitary(2, rng)
    psi = mket([0, 0])
    assert np.abs(apply_ctrl(psi, U, [0], [1], [2, 2]) - psi).max() < 1e-15


def test_apply_ctrl_bell_enumeration():
    # equals CNOT * bell00, written out by hand
    out = apply_ctrl(bell00(), gt.X, [0], [1], [2, 2])
    expected = (mket([0, 0]) + mket([1, 0])) / sqrt(2)
    assert np.abs(out - expected).max() < 1e-15


def test_apply_ctrl_equals_ctrl_gate_uniform_dims():
    rng = default_rng(7)
    for d, n, ctrl, target in (
        (2, 2, [0], [1]),
        (2, 3, [2], [0]),
        (2, 3, [0, 2], [1]),
        (3, 2, [1], [0]),
        (3, 3, [0], [1, 2]),
    ):
        U = rand_unitary(d ** len(target), rng)
        G = ref_ctrl_gate(U, ctrl, target, n, d)
        assert np.abs(ctrl_gate(U, ctrl, target, n, d) - G).max() < 1e-12
        psi = rand_ket(d**n, rng)
        assert np.abs(apply_ctrl(psi, U, ctrl, target, [d] * n) - G @ psi).max() < 1e-12
        rho = rand_rho(d**n, rng)
        assert (
            np.abs(apply_ctrl(rho, U, ctrl, target, [d] * n) - G @ rho @ G.conj().T).max() < 1e-12
        )


def test_apply_ctrl_mixed_target_dimension():
    # qubit controls a qutrit: block diag(I3, U) in the natural basis order
    rng = default_rng(8)
    U = rand_unitary(3, rng)
    G = np.zeros((6, 6), dtype=complex)
    G[:3, :3] = np.eye(3)
    G[3:, 3:] = U
    psi = rand_ket(6, rng)
    assert np.abs(apply_ctrl(psi, U, [0], [1], [2, 3]) - G @ psi).max() < 1e-12
    rho = rand_rho(6, rng)
    assert np.abs(apply_ctrl(rho, U, [0], [1], [2, 3]) - G @ rho @ G.conj().T).max() < 1e-12


def test_apply_ctrl_spectator_subsystem_untouched():
    rng = default_rng(9)
    U = rand_unitary(2, rng)
    psi = rand_ket(12, rng)
    G = ctrl_gate(U, [0], [1], 2, 2)
    # embed the 2-qubit controlled gate alongside a qutrit spectator
    expected = apply(psi, G, [0, 2], [2, 3, 2])
    assert np.abs(apply_ctrl(psi, U, [0], [2], [2, 3, 2]) - expected).max() < 1e-12


def test_apply_ctrl_errors():
    with pytest.raises(QuantumError) as ei:
        apply_ctrl(mket([0, 0]), gt.X, [0], [0], [2, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    with pytest.raises(QuantumError) as ei:
        apply_ctrl(mket([0, 0], [2, 3]), gt.X, [0, 1], [0], [2, 3])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS  # overlap checked first
    with pytest.raises(QuantumError) as ei:
        apply_ctrl(rand_ket(6), gt.X, [0, 1], [2], [2, 3, 2])
    assert ei.value.kind is ErrorKind.NOT_SQUARE_NOR_KET  # wrong state size
    with pytest.raises(QuantumError) as ei:
        apply_ctrl(rand_ket(12), rand_unitary(2), [0, 1], [2], [2, 3, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS  # non-uniform control dims


# --------------------------------------------------------- apply_channel


def test_apply_channel_dephasing_on_bell():
    out = apply_channel(bell_projector(), DEPHASING, [0], [2, 2])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.5
    expected[3, 3] = 0.5
    assert np.abs(out - expected).max() < 1e-15


def test_apply_channel_identity():
    rng = default_rng(10)
    rho = rand_rho(6, rng)
    assert np.abs(apply_channel(rho, [np.eye(2)], [1], [3, 2]) - rho).max() < 1e-15


def test_apply_channel_full_system_unitary_reduces_to_apply():
    rng = default_rng(11)
    rho = rand_rho(4, rng)
    U = rand_unitary(4, rng)
    out = apply_channel(rho, [U], [0, 1], [2, 2])
    assert np.abs(out - apply(rho, U, [0, 1], [2, 2])).max() < 1e-12


def test_apply_channel_cptp_preserves_structure():
    rng = default_rng(12)
    for D, subsys, dims in ((2, [0], [2, 3]), (3, [1], [2, 3])):
        Ks = rand_cptp(D, 3, rng)
        rho = rand_rho(6, rng)
        out = apply_channel(rho, Ks, subsys, dims)
        assert abs(np.trace(out).real - 1) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_apply_channel_errors():
    with pytest.raises(QuantumError) as ei:
        apply_channel(bell00(), DEPHASING, [0], [2, 2])
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE  # kets are not promoted here
    with pytest.raises(QuantumError) as ei:
        apply_channel(bell_projector(), [], [0], [2, 2])
    assert ei.value.kind is ErrorKind.ZERO_SIZE
    with pytest.raises(QuantumError) as ei:
        apply_channel(bell_projector(), [np.eye(2), np.eye(3)], [0], [2, 2])
    assert ei.value.kind is ErrorKind.DIMS_MISMATCH_MATRIX


# dims, subsys, number of Kraus operators, whether the superoperator pass runs
CHANNEL_ROUTES = [
    ([2, 3, 2], [2], 2, True),  # d_sub 2, r 2
    ([2, 3, 2], [1], 3, True),  # d_sub 3, r 3
    ([2, 3, 2, 2], [3, 0], 1, True),  # d_sub 4, r 1
    ([2, 3, 2], [2, 0, 1], 2, False),  # every subsystem: d_sub^2 > D
    ([2] * 8, [5, 0, 3, 7], 1, False),  # d_sub 16 > 4 r
]


@pytest.mark.parametrize("dims, subsys, r, one_pass", CHANNEL_ROUTES)
def test_channel_routes_match_embedding(dims, subsys, r, one_pass):
    rng = np.random.default_rng(prod(dims) + r)
    D, dsub = prod(dims), prod(dims[k] for k in subsys)
    assert _one_pass(dsub, r, D) is one_pass
    rho = rand_gauss(D, rng)
    Ks = [rand_gauss(dsub, rng) for _ in range(r)]
    Os = [embed_operator(K, subsys, dims) for K in Ks]
    expected = sum(O @ rho @ O.conj().T for O in Os)
    scale = np.abs(expected).max()
    assert np.abs(apply_channel(rho, Ks, subsys, dims) - expected).max() < 1e-12 * scale
    if r == 1:
        assert np.abs(apply(rho, Ks[0], subsys, dims) - expected).max() < 1e-12 * scale


# dims, ctrl, target, whether the controlled gate is built locally for one pass
CTRL_ROUTES = [
    ([2, 3, 2, 2], [3], [0], True),  # qubit control and target, 4^2 <= 24
    ([2, 3, 2, 2], [0, 2], [3], False),  # two controls: ctrl + target side 8 > 4
    ([3, 2, 3], [2], [1], False),  # qutrit control
    ([2, 2, 3], [1], [0], False),  # side 4, but 4^2 > 12
]


@pytest.mark.parametrize("dims, ctrl, target, one_pass", CTRL_ROUTES)
def test_apply_ctrl_rho_routes_match_embedding(dims, ctrl, target, one_pass):
    rng = np.random.default_rng(prod(dims) + len(ctrl))
    D, d = prod(dims), dims[ctrl[0]]
    assert _one_pass(prod(dims[k] for k in ctrl + target), 1, D) is one_pass
    rho = rand_gauss(D, rng)
    U = rand_gauss(prod(dims[k] for k in target), rng)
    G = embed_ctrl(U, ctrl, target, dims, d)
    expected = G @ rho @ G.conj().T
    got = apply_ctrl(rho, U, ctrl, target, dims)
    assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()


# ------------------------------------------------- representation changes


def test_vec_is_column_stacking():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(A).ravel(), [1, 3, 2, 4])
    assert np.array_equal(unvec(vec(A)), A)


@pytest.mark.parametrize("rows", [0, -1, -4])
def test_unvec_rejects_a_row_count_below_one(rows):
    with pytest.raises(QuantumError) as ei:
        unvec(np.arange(4), rows)
    assert ei.value.kind is ErrorKind.OUT_OF_RANGE
    assert ei.value.op == "unvec"


def test_vec_copies_once():
    A = default_rng(4).standard_normal((512, 512)) * (1 + 1j)
    for M in (A, A.T):  # for A.T the column stacking is a view, still copied
        out, peak = peak_bytes(vec, M)
        assert peak <= 1.1 * out.nbytes  # a second 4 MiB copy would double it
        assert np.array_equal(out, M.reshape(-1, 1, order="F"))
        assert not np.shares_memory(out, M)


def test_vec_of_sandwich_identity():
    rng = default_rng(13)
    A, rho, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    lhs = vec(A @ rho @ B)
    rhs = kron(B.T, A) @ vec(rho)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_kraus2super_examples():
    assert np.array_equal(kraus2super([np.eye(2)]), np.eye(4))
    X = np.array(gt.X)
    assert np.array_equal(kraus2super([X]), kron(X, X))
    assert np.array_equal(kraus2super(DEPHASING), np.diag([1.0, 0, 0, 1.0]))


def test_kraus2super_action_matches_channel():
    rng = default_rng(14)
    for D in (2, 3):
        Ks = rand_cptp(D, 2, rng)
        S = kraus2super(Ks)
        rho = rand_rho(D, rng)
        lhs = unvec(S @ vec(rho))
        rhs = apply_channel(rho, Ks, [0], [D])
        assert np.abs(lhs - rhs).max() < 1e-10


def test_kraus2choi_examples():
    J = kraus2choi([np.eye(2)])
    expected = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 1.0
    assert np.array_equal(J, expected)
    assert np.array_equal(kraus2choi(DEPHASING), np.diag([1.0, 0, 0, 1.0]))


@pytest.mark.parametrize("D", range(2, 9))
def test_kraus_sums_match_index_loop_oracles(D):
    # random complex Kraus sets, neither unitary nor trace preserving
    rng = default_rng(100 + D)
    for r in range(1, 5):
        Ks = [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for _ in range(r)]
        Ks = [K / np.abs(K).max() for K in Ks]
        assert np.abs(kraus2super(Ks) - ref_kraus2super(Ks)).max() <= 1e-14
        assert np.abs(kraus2choi(Ks) - ref_kraus2choi(Ks)).max() <= 1e-14


def test_kraus2choi_trace_and_structure_random_cptp():
    rng = default_rng(15)
    for D in (2, 3):
        Ks = rand_cptp(D, 4, rng)
        J = kraus2choi(Ks)
        assert abs(np.trace(J).real - D) < 1e-10
        assert np.abs(J - J.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(J).min() > -1e-10


def test_choi2kraus_identity_channel():
    Ks = choi2kraus(kraus2choi([np.eye(2)]))
    assert len(Ks) == 1
    K = Ks[0]
    phase = K[0, 0] / abs(K[0, 0])
    assert np.abs(K / phase - np.eye(2)).max() < 1e-12


def test_choi2kraus_dephasing_same_channel_action():
    Ks = choi2kraus(kraus2choi(DEPHASING))
    assert np.abs(channel_on_basis(Ks, 2) - channel_on_basis(DEPHASING, 2)).max() < 1e-12


def test_choi_roundtrip_preserves_channel_action():
    rng = default_rng(16)
    for D in (2, 3):
        for k in (1, 2, 4):
            Ks = rand_cptp(D, k, rng)
            Ks2 = choi2kraus(kraus2choi(Ks))
            rho = rand_rho(D, rng)
            a = apply_channel(rho, Ks, [0], [D])
            b = apply_channel(rho, Ks2, [0], [D])
            assert np.abs(a - b).max() < 1e-9
            assert np.abs(kraus2choi(Ks2) - kraus2choi(Ks)).max() < 1e-9


@pytest.mark.parametrize("c", [1e-13, 1.0, 1e6])
def test_choi2kraus_cutoff_scales_with_the_choi_matrix(c):
    # rank 2 on a 4-dimensional Choi space: two zero eigenvalues to drop
    J = c * kraus2choi(rand_cptp(2, 2, default_rng(20)))
    Ks = choi2kraus(J)
    assert len(Ks) == 2
    assert np.abs(kraus2choi(Ks) - J).max() < 1e-10 * c
    with pytest.raises(QuantumError) as ei:
        choi2kraus(c * np.diag([1.0, 1, 1, -1]))
    assert ei.value.kind is ErrorKind.DIMS_INVALID  # not PSD at any scale


def test_choi2kraus_errors():
    with pytest.raises(QuantumError) as ei:
        choi2kraus(np.eye(3))
    assert ei.value.kind is ErrorKind.DIMS_INVALID  # side not a perfect square
    with pytest.raises(QuantumError) as ei:
        choi2kraus(np.array([[0, 1], [0, 0]], dtype=complex))
    assert ei.value.kind is ErrorKind.DIMS_INVALID  # not Hermitian
    with pytest.raises(QuantumError) as ei:
        choi2kraus(np.diag([1.0, 1, 1, -1]))
    assert ei.value.kind is ErrorKind.DIMS_INVALID  # not PSD
    with pytest.raises(QuantumError) as ei:
        choi2kraus(np.ones((2, 4)))
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE


def test_kraus_conversion_errors():
    for f in (kraus2super, kraus2choi):
        with pytest.raises(QuantumError) as ei:
            f([])
        assert ei.value.kind is ErrorKind.ZERO_SIZE
        with pytest.raises(QuantumError) as ei:
            f([np.ones((2, 3))])
        assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE


# ------------------------------------------------------ ptrace/ptranspose


def test_ptrace_bell_gives_maximally_mixed():
    # hand 4x4 partial trace: sum of the two diagonal 2x2 blocks' mirror
    rho = bell_projector()
    out = ptrace(rho, [1], [2, 2])
    assert np.abs(out - np.eye(2) / 2).max() < 1e-15
    out0 = ptrace(rho, [0], [2, 2])
    assert np.abs(out0 - np.eye(2) / 2).max() < 1e-15


def test_ptrace_product_state():
    rng = default_rng(17)
    rho_a = rand_rho(2, rng)
    rho_b = rand_rho(3, rng)
    assert np.abs(ptrace(kron(rho_a, rho_b), [1], [2, 3]) - rho_a).max() < 1e-12
    assert np.abs(ptrace(kron(rho_a, rho_b), [0], [2, 3]) - rho_b).max() < 1e-12


def test_ptrace_empty_subsys_is_identity_map():
    rng = default_rng(18)
    rho = rand_rho(4, rng)
    assert np.array_equal(ptrace(rho, [], [2, 2]), rho)


def test_ptrace_promotes_kets():
    out = ptrace(bell00(), [1], [2, 2])
    assert np.abs(out - np.eye(2) / 2).max() < 1e-15


def test_ptrace_of_ket_matches_reference_on_mixed_dims():
    rng = default_rng(22)
    dims = [2, 3, 2]
    psi = rand_ket(12, rng)
    proj = psi @ psi.conj().T
    for subsys in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [2, 0], [0, 1, 2]):
        want = ref_ptrace(proj, subsys, dims)
        assert np.abs(ptrace(psi, subsys, dims) - want).max() < 1e-12


def test_ptrace_of_ket_never_forms_the_projector():
    n = 11
    psi = rand_ket(2**n, default_rng(23))
    subsys = list(range(1, n))
    out, peak = peak_bytes(ptrace, psi, subsys, [2] * n)
    assert peak < 2**20  # the 2048 x 2048 projector alone is 64 MiB
    want = ref_ptrace(psi @ psi.conj().T, subsys, [2] * n)
    assert np.abs(out - want).max() < 1e-12


def test_ptrace_matches_reference_on_mixed_dims():
    rng = default_rng(19)
    dims = [2, 3, 2]
    rho = rand_rho(12, rng)
    for subsys in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [2, 0]):
        got = ptrace(rho, subsys, dims)
        want = ref_ptrace(rho, subsys, dims)
        assert np.abs(got - want).max() < 1e-12
        assert abs(np.trace(got) - np.trace(rho)) < 1e-12
    # a complex matrix that is not Hermitian, so a row index summed against
    # a column index of another subsystem would show
    dims = [3, 2, 2, 3]
    M = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    for subsys in ([], [1], [3], [2, 0], [0, 3], [3, 1, 0], [2, 3, 1, 0]):
        got = ptrace(M, subsys, dims)
        want = ref_ptrace(M, subsys, dims)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def test_ptrace_of_rho_never_copies_rho():
    # a 10-qubit rho is 16 MiB; a 2 x 2 or 4 x 4 result needs 256 bytes
    n = 10
    dims = [2] * n
    rho = rand_rho(2**n, default_rng(26))
    for kept in ([4], [1, 6]):
        subsys = [k for k in range(n) if k not in kept]
        out, peak = peak_bytes(ptrace, rho, subsys, dims)
        assert peak < 2**16
        assert np.abs(out - ref_ptrace(rho, subsys, dims)).max() < 1e-12
    _, peak = peak_bytes(qmutualinfo, rho, [4], [9], dims)
    assert peak < 2**20


def test_ptrace_of_a_ket_never_copies_the_ket():
    # an 18-qubit ket is 4 MiB; it is summed one block of traced columns
    # at a time, so a 2 x 2 result needs no ket-sized temporary
    n = 18
    dims = [2] * n
    psi = rand_ket(2**n, default_rng(27))
    for kept in (0, n - 1):
        subsys = [k for k in range(n) if k != kept]
        out, peak = peak_bytes(ptrace, psi, subsys, dims)
        assert peak <= 2**20
        A = np.moveaxis(psi.reshape(dims), kept, 0).reshape(2, -1)
        assert np.abs(out - A @ A.conj().T).max() < 1e-12


def test_ptrace_of_a_ket_above_one_block_matches_reference():
    # mixed dims, kept subsystems on both sides of the traced ones
    dims = [3, 2, 4, 2, 3, 2, 2, 4, 2, 2, 3]
    psi = rand_ket(prod(dims), default_rng(28))
    for kept in ([4], [0, 10], [1, 7, 9], [2, 5, 6, 8]):
        subsys = [k for k in range(len(dims)) if k not in kept]
        dk = prod(dims[k] for k in kept)
        A = np.moveaxis(psi.reshape(dims), kept, list(range(len(kept)))).reshape(dk, -1)
        assert np.abs(ptrace(psi, subsys, dims) - A @ A.conj().T).max() < 1e-12


def test_ptranspose_bell_spectrum():
    pt = ptranspose(bell_projector(), [0], [2, 2])
    assert np.abs(np.sort(np.linalg.eigvalsh(pt)) - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-10


def test_ptranspose_all_subsys_is_full_transpose():
    rng = default_rng(20)
    rho = rand_rho(6, rng)
    assert np.abs(ptranspose(rho, [0, 1], [2, 3]) - rho.T).max() < 1e-15


def test_ptranspose_diagonal_fixed():
    d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.array_equal(ptranspose(d, [0], [2, 2]), d)
    assert np.array_equal(ptranspose(d, [1], [2, 2]), d)


def test_ptranspose_of_ket_matches_reference_on_mixed_dims():
    rng = default_rng(24)
    dims = [2, 3, 2]
    psi = rand_ket(12, rng)
    proj = psi @ psi.conj().T
    for subsys in ([], [0], [1], [2], [0, 2], [2, 0], [0, 1, 2]):
        want = ref_ptranspose(proj, subsys, dims)
        assert np.abs(ptranspose(psi, subsys, dims) - want).max() < 1e-15


def test_ptranspose_of_ket_writes_its_projector_once():
    n = 10
    psi = rand_ket(2**n, default_rng(25))
    subsys = [1, 4, 7]
    out, peak = peak_bytes(ptranspose, psi, subsys, [2] * n)
    assert peak <= 1.1 * out.nbytes  # a second D x D copy would double it
    assert np.abs(out - ptranspose(psi @ psi.conj().T, subsys, [2] * n)).max() < 1e-15


def test_ptranspose_involution_and_trace():
    rng = default_rng(21)
    dims = [2, 2, 3]
    rho = rand_rho(12, rng)
    for subsys in ([0], [2], [0, 2]):
        pt = ptranspose(rho, subsys, dims)
        assert np.abs(ptranspose(pt, subsys, dims) - rho).max() < 1e-15
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
        assert np.abs(pt - ref_ptranspose(rho, subsys, dims)).max() < 1e-12


# --------------------------------------------------- syspermute/invperm


def test_syspermute_swaps_two_qubits():
    assert np.array_equal(syspermute(mket([1, 0]), [1, 0], [2, 2]), mket([0, 1]))


def test_syspermute_identity():
    rng = default_rng(22)
    psi = rand_ket(8, rng)
    assert np.array_equal(syspermute(psi, [0, 1, 2], [2, 2, 2]), psi)


def test_syspermute_kron_factors_relocate():
    rng = default_rng(23)
    a = rand_ket(2, rng)
    b = rand_ket(3, rng)
    assert np.abs(syspermute(kron(a, b), [1, 0], [2, 3]) - kron(b, a)).max() < 1e-15
    A = rand_rho(2, rng)
    B = rand_rho(3, rng)
    assert np.abs(syspermute(kron(A, B), [1, 0], [2, 3]) - kron(B, A)).max() < 1e-15


def test_syspermute_amplitude_relocation_oracle():
    rng = default_rng(24)
    dims = [2, 3, 2]
    psi = rand_ket(12, rng)
    perm = [2, 0, 1]  # subsystem k moves to position perm[k]
    out = syspermute(psi, perm, dims)
    out_dims = [0] * 3
    for k, p in enumerate(perm):
        out_dims[p] = dims[k]
    t_in = psi.reshape(dims)
    t_out = out.reshape(out_dims)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                dst = [0, 0, 0]
                dst[perm[0]], dst[perm[1]], dst[perm[2]] = i, j, k
                assert t_out[tuple(dst)] == t_in[i, j, k]


def test_syspermute_composition():
    rng = default_rng(25)
    dims = [2, 2, 2, 2]
    psi = rand_ket(16, rng)
    p = rand_perm(4, rng)
    qp = rand_perm(4, rng)
    comp = [qp[p[k]] for k in range(4)]
    a = syspermute(syspermute(psi, p, dims), qp, dims)
    b = syspermute(psi, comp, dims)
    assert np.abs(a - b).max() < 1e-15


def test_syspermute_shor_codeword_roundtrip():
    from quditsim import shor_codeword

    c0 = shor_codeword(0)
    rng = default_rng(26)
    for _ in range(10):
        p = rand_perm(9, rng)
        back = syspermute(syspermute(c0, p, [2] * 9), invperm(p), [2] * 9)
        assert norm(back - c0) <= 1e-12


def test_syspermute_errors():
    with pytest.raises(QuantumError) as ei:
        syspermute(mket([0, 0]), [0, 0], [2, 2])
    assert ei.value.kind is ErrorKind.PERM_INVALID
    with pytest.raises(QuantumError) as ei:
        syspermute(mket([0, 0]), [0, 1, 2], [2, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS


def test_invperm():
    assert invperm([0, 1, 2]) == [0, 1, 2]
    assert invperm([2, 0, 1]) == [1, 2, 0]
    rng = default_rng(27)
    for n in (1, 2, 5, 17, 64):
        p = rand_perm(n, rng)
        assert invperm(invperm(p)) == p
        assert [p[k] for k in invperm(p)] == list(range(n))
    with pytest.raises(QuantumError) as ei:
        invperm([0, 2])
    assert ei.value.kind is ErrorKind.PERM_INVALID
