from collections import Counter

import numpy as np
import pytest

from quditsim import (
    ErrorKind,
    QuantumError,
    default_rng,
    rand_ket,
    rand_perm,
    rand_rho,
    rand_unitary,
    thread_rng,
)


def test_rand_unitary_is_unitary():
    rng = default_rng(0)
    for D in (1, 2, 3, 5, 8):
        U = rand_unitary(D, rng)
        assert np.linalg.norm(U.conj().T @ U - np.eye(D)) <= 1e-10


def test_rand_unitary_scalar_case():
    u = rand_unitary(1, default_rng(1))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1) < 1e-12


def test_rand_unitary_seed_determinism():
    a = rand_unitary(2, default_rng(42))
    b = rand_unitary(2, default_rng(42))
    assert np.array_equal(a, b)
    c = rand_unitary(2, default_rng(43))
    assert not np.array_equal(a, c)


def test_rand_unitary_haar_marginal():
    rng = default_rng(2)
    vals = [abs(rand_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_rand_ket_norm_and_scalar():
    rng = default_rng(3)
    for D in (1, 2, 7, 32):
        psi = rand_ket(D, rng)
        assert psi.shape == (D, 1)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
    one = rand_ket(1, default_rng(4))
    assert abs(abs(one[0, 0]) - 1) < 1e-12


@pytest.mark.parametrize("D", [1, 2, 7, 4096])
def test_rand_ket_is_the_normalized_ginibre_column_bitwise(D):
    # the draws, real parts then imaginary parts, through the Ginibre
    # column's own arithmetic; rand_ket writes them into its output in place
    rng = np.random.default_rng(8)
    v = (rng.standard_normal((D, 1)) + 1j * rng.standard_normal((D, 1))) / np.sqrt(2.0)
    want = v / np.linalg.norm(v)
    got = rand_ket(D, default_rng(8))
    assert got.shape == (D, 1) and got.tobytes() == want.tobytes()


def test_rand_ket_uniform_marginal():
    rng = default_rng(5)
    vals = [abs(rand_ket(4, rng)[0, 0]) ** 2 for _ in range(10_000)]
    assert abs(np.mean(vals) - 0.25) < 0.02


def test_rand_rho_structure():
    rng = default_rng(6)
    for D in (1, 2, 4, 16):
        rho = rand_rho(D, rng)
        assert abs(np.trace(rho).real - 1) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_rand_perm_bijection():
    rng = default_rng(7)
    assert rand_perm(1, rng) == [0]
    for n in (2, 5, 64):
        p = rand_perm(n, rng)
        assert sorted(p) == list(range(n))


def test_rand_perm_uniform_frequencies():
    rng = default_rng(8)
    counts = Counter(tuple(rand_perm(3, rng)) for _ in range(6000))
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - 1000) <= 100


def test_equal_seeds_reproduce_everything():
    for f, arg in ((rand_unitary, 4), (rand_ket, 4), (rand_rho, 4)):
        a = f(arg, default_rng(99))
        b = f(arg, default_rng(99))
        assert np.array_equal(a, b)
    assert rand_perm(10, default_rng(99)) == rand_perm(10, default_rng(99))


def test_distinct_generators_are_independent():
    r1 = default_rng(1)
    r2 = default_rng(1)
    a = rand_ket(8, r1)
    _ = rand_ket(8, r2)  # advancing r2 must not affect r1
    b = rand_ket(8, r2)
    c = rand_ket(8, r1)
    assert np.array_equal(b, c)


def test_thread_rng_exists_and_draws():
    psi = rand_ket(3, thread_rng())
    assert psi.shape == (3, 1)


def test_out_of_range():
    for f in (rand_unitary, rand_ket, rand_rho, rand_perm):
        with pytest.raises(QuantumError) as ei:
            f(0)
        assert ei.value.kind is ErrorKind.OUT_OF_RANGE
