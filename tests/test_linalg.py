import numpy as np
import pytest
import sympy

from quditsim import (
    ErrorKind,
    QuantumError,
    adjoint,
    bell00,
    default_rng,
    hevals,
    hevects,
    kron,
    kron_pow,
    mket,
    norm,
    ptranspose,
    rand_unitary,
    st,
    trace,
    transpose,
)

from _oracles import peak_bytes


def rand_hermitian(D, rng):
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return G + G.conj().T


def test_transpose():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(transpose(A), np.array([[1, 3], [2, 4]]))
    assert np.array_equal(transpose([[5j]]), np.array([[5j]]))


def test_transpose_empty_raises_zero_size():
    with pytest.raises(QuantumError) as ei:
        transpose(np.zeros((0, 0)))
    assert ei.value.kind is ErrorKind.ZERO_SIZE
    assert "transpose" in str(ei.value)


def test_transpose_involution_and_no_mutation():
    rng = default_rng(0)
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    before = A.copy()
    assert np.array_equal(transpose(transpose(A)), A)
    assert np.array_equal(A, before)


def test_adjoint():
    assert np.array_equal(adjoint([[1j]]), np.array([[-1j]]))
    H = np.array([[1, 1 - 2j], [1 + 2j, 3]], dtype=complex)
    assert np.array_equal(adjoint(H), H)
    # hand conjugate-transpose
    A = np.array([[0, 1], [1j, 0]], dtype=complex)
    assert np.array_equal(adjoint(A), np.array([[0, -1j], [1, 0]]))
    assert np.array_equal(adjoint(adjoint(A)), A)


def test_adjoint_copies_once():
    A = default_rng(4).standard_normal((512, 512)) * (1 + 1j)
    for M in (A, A.T):  # C- and F-ordered input
        out, peak = peak_bytes(adjoint, M)
        assert peak <= 1.1 * out.nbytes  # a second 4 MiB copy would double it
        assert np.array_equal(out, M.conj().T) and out.flags.c_contiguous


def test_trace():
    assert trace(np.eye(4)) == 4
    assert trace(np.array([[1, 9], [9, 2]])) == 3
    rho = bell00() @ bell00().conj().T  # projector onto a unit vector
    assert abs(trace(rho) - 1) < 1e-15
    with pytest.raises(QuantumError) as ei:
        trace(np.ones((2, 3)))
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE


def test_norm():
    assert abs(norm(st.z0) - 1) < 1e-15
    assert abs(norm([[3, 4]]) - 5) < 1e-15
    assert abs(norm(bell00()) - 1) < 1e-15


def test_kron():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    K = kron(X, np.eye(2))
    expected = np.zeros((4, 4))
    expected[0:2, 2:4] = np.eye(2)
    expected[2:4, 0:2] = np.eye(2)
    assert np.array_equal(K, expected)
    assert np.array_equal(kron(st.z0, st.z1), mket([0, 1]))


def test_kron_hadamard_on_first_qubit():
    # 4x4 matvec done by hand: (H (x) I)|00> = (|00> + |10>)/sqrt(2)
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = kron(H, np.eye(2)) @ mket([0, 0])
    expected = (mket([0, 0]) + mket([1, 0])) / np.sqrt(2)
    assert np.abs(out - expected).max() < 1e-15


def test_kron_mixed_product_property():
    rng = default_rng(1)
    for _ in range(10):
        A, B, C, D = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = kron(A, B) @ kron(C, D)
        rhs = kron(A @ C, B @ D)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_kron_associative():
    rng = default_rng(2)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(kron(kron(A, B), C) - kron(A, kron(B, C))).max() < 1e-12


def test_kron_pow():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(kron_pow(A, 1), A)
    assert np.array_equal(kron_pow(np.eye(2), 3), np.eye(8))
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = kron_pow(H, 2) @ mket([0, 0])
    assert np.abs(out - 0.5 * np.ones((4, 1))).max() < 1e-15
    with pytest.raises(QuantumError) as ei:
        kron_pow(A, 0)
    assert ei.value.kind is ErrorKind.OUT_OF_RANGE


def test_hevals_simple():
    Z = np.diag([1.0, -1.0])
    assert np.allclose(hevals(Z), [-1, 1])
    assert np.allclose(hevals(np.eye(4) / 2), [0.5] * 4)


def test_hevals_bell_partial_transpose_charpoly_oracle():
    # exact eigenvalues via sympy's symbolic characteristic polynomial
    rho = bell00() @ bell00().conj().T
    pt = ptranspose(rho, [0], [2, 2])
    exact = sympy.Matrix(4, 4, lambda i, j: sympy.nsimplify(pt[i, j].real)).eigenvals()
    expected = sorted(float(v) for v, mult in exact.items() for _ in range(mult))
    assert expected == [-0.5, 0.5, 0.5, 0.5]
    assert np.abs(hevals(pt) - np.array(expected)).max() < 1e-10


def test_hevals_rejects_non_hermitian():
    with pytest.raises(QuantumError) as ei:
        hevals(np.array([[0, 1], [0, 0]], dtype=complex))
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    with pytest.raises(QuantumError) as ei:
        hevals(np.ones((2, 3)))
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE


def test_hevals_tolerance_scales_with_the_matrix():
    # Hermitian of max-norm 1e6 plus an anti-Hermitian part of one unit in
    # the last place: valid input up to roundoff at any scale
    rng = default_rng(12)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    E = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    H = (A + A.conj().T) / 2
    E = (E - E.conj().T) / 2
    scale = 1e6
    M = H * (scale / np.abs(H).max()) + E * (np.finfo(float).eps * scale / np.abs(E).max())
    expected = np.linalg.eigvalsh((M + M.conj().T) / 2)
    assert np.abs(hevals(M) - expected).max() < 1e-12 * scale
    # a genuinely non-Hermitian part is still rejected at that scale
    with pytest.raises(QuantumError) as ei:
        hevals(M + 1e-3 * E / np.abs(E).max())
    assert ei.value.kind is ErrorKind.DIMS_INVALID


def test_hevects_z_and_x():
    evals, V = hevects(np.diag([1.0, -1.0]))
    assert np.allclose(evals, [-1, 1])
    assert np.abs(np.abs(V[:, 0]) - [0, 1]).max() < 1e-12  # |1> up to phase
    assert np.abs(np.abs(V[:, 1]) - [1, 0]).max() < 1e-12  # |0> up to phase

    X = np.array([[0, 1], [1, 0]], dtype=complex)
    evals, V = hevects(X)
    assert np.allclose(evals, [-1, 1])
    s = 1 / np.sqrt(2)
    for col, target in ((0, np.array([s, -s])), (1, np.array([s, s]))):
        v = V[:, col]
        phase = v[np.argmax(np.abs(v))] / target[np.argmax(np.abs(v))]
        assert np.abs(v - phase * target).max() < 1e-12


def test_hevects_degenerate_orthonormal_only():
    evals, V = hevects(np.eye(2))
    assert np.allclose(evals, [1, 1])
    assert np.abs(V.conj().T @ V - np.eye(2)).max() < 1e-12


def test_hevects_reconstruction_random():
    rng = default_rng(3)
    for D in (2, 3, 8, 16):
        H = rand_hermitian(D, rng)
        evals, V = hevects(H)
        assert np.all(np.diff(evals) >= -1e-12)
        assert np.abs(V @ np.diag(evals) @ V.conj().T - H).max() < 1e-10
        assert np.abs(V.conj().T @ V - np.eye(D)).max() < 1e-10
        assert abs(evals.sum() - np.trace(H).real) < 1e-10
        # eigenpair residuals
        assert np.abs(H @ V - V @ np.diag(evals)).max() < 1e-10


def test_hevals_tolerates_unitary_conjugation():
    rng = default_rng(4)
    H = rand_hermitian(6, rng)
    U = rand_unitary(6, rng)
    a = hevals(H)
    b = hevals(U @ H @ U.conj().T)
    assert np.abs(a - b).max() < 1e-9
