import warnings
from math import sqrt

import numpy as np
import pytest

from quditsim import measurement
from quditsim import (
    EPS,
    ErrorKind,
    Fd,
    QuantumError,
    apply,
    bell00,
    default_rng,
    gt,
    measure,
    mket,
    rand_ket,
    rand_unitary,
    st,
)
from test_properties import _check_measure


def up_to_phase(a, b, tol=1e-12):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    k = int(np.argmax(np.abs(b)))
    phase = a[k] / b[k]
    assert abs(abs(phase) - 1) < tol
    return np.abs(a - phase * b).max() < tol


def test_measure_bell_scenario():
    psi = apply(bell00(), gt.X, [1], [2, 2])
    out = measure(psi, gt.H, [0], [2, 2], default_rng(0))
    assert np.abs(np.array(out.probs) - 0.5).max() < 1e-12
    # Born-rule projection by hand: outcomes |+> and -|->
    s = 1 / sqrt(2)
    assert up_to_phase(out.states[0], [s, s])
    assert up_to_phase(out.states[1], [-s, s])
    assert out.result in (0, 1)
    assert out.probs[out.result] > 0


def test_measure_eigenstate_deterministic():
    out = measure(st.z0, np.eye(2), [0], [2], default_rng(1))
    assert out.result == 0
    assert abs(out.probs[0] - 1) < 1e-12
    assert abs(out.probs[1]) < 1e-12


def test_measure_density_matrix_input():
    rho = bell00() @ bell00().conj().T
    out = measure(rho, np.eye(2), [0], [2, 2], default_rng(2))
    assert np.abs(np.array(out.probs) - 0.5).max() < 1e-12
    # post states via the partial-trace oracle on the projected states
    z0 = st.z0 @ st.z0.conj().T
    z1 = st.z1 @ st.z1.conj().T
    assert np.abs(out.states[0] - z0).max() < 1e-12
    assert np.abs(out.states[1] - z1).max() < 1e-12
    # consistency: each is a valid 1-qubit density matrix
    for s in out.states:
        assert abs(np.trace(s).real - 1) < 1e-12


def test_measure_full_system():
    psi = st.x0
    out = measure(psi, gt.H, [0], [2], default_rng(3))
    assert abs(out.probs[0] - 1) < 1e-12
    assert out.states[0].shape == (1, 1) and out.states[0][0, 0] == 1
    assert out.states[1].size == 0  # zero-probability sentinel
    assert out.result == 0
    # probs equal |<b_i|psi>|^2
    amps = gt.H.conj().T @ psi
    assert np.abs(np.abs(amps.ravel()) ** 2 - np.array(out.probs)).max() < 1e-12


def test_measure_probs_sum_to_one_random():
    rng = default_rng(4)
    for dims, subsys in (([2, 3], [1]), ([2, 2, 2], [0, 2]), ([3, 2], [0])):
        D = int(np.prod(dims))
        psi = rand_ket(D, rng)
        dsub = int(np.prod([dims[k] for k in subsys]))
        basis = rand_unitary(dsub, rng)
        out = measure(psi, basis, subsys, dims, rng)
        assert abs(sum(out.probs) - 1) < 1e-10
        assert len(out.probs) == len(out.states) == dsub


def test_measure_post_state_matches_reduced_state():
    # measuring qubit 0 of |0>|phi> in the computational basis leaves |phi>
    rng = default_rng(5)
    phi = rand_ket(3, rng)
    psi = np.kron(st.z0, phi)
    out = measure(psi, np.eye(2), [0], [2, 3], rng)
    assert out.result == 0
    assert up_to_phase(out.states[0], phi)


def test_measure_qutrit_fourier_basis():
    rng = default_rng(6)
    psi = mket([1], [3])
    out = measure(psi, Fd(3), [0], [3], rng)
    # |<f_i|1>|^2 = 1/3 for every Fourier column
    assert np.abs(np.array(out.probs) - 1 / 3).max() < 1e-12


def test_measure_does_not_mutate_input():
    psi = bell00()
    before = psi.copy()
    measure(psi, gt.H, [0], [2, 2], default_rng(7))
    assert np.array_equal(psi, before)
    rho = bell00() @ bell00().conj().T
    before = rho.copy()
    measure(rho, np.eye(2), [0], [2, 2], default_rng(8))
    assert np.array_equal(rho, before)


def test_measure_seeded_determinism():
    psi = apply(bell00(), gt.X, [1], [2, 2])
    a = measure(psi, gt.H, [0], [2, 2], default_rng(42))
    b = measure(psi, gt.H, [0], [2, 2], default_rng(42))
    assert a.result == b.result
    assert a.probs == b.probs


def test_zero_probability_outcome_never_sampled():
    rng = default_rng(9)
    for _ in range(200):
        out = measure(st.z0, np.eye(2), [0], [2], rng)
        assert out.result == 0


class _LastUniform(np.random.Generator):
    """A generator whose uniform draw is the largest double below 1."""

    def random(self, *args, **kwargs):
        return 1 - 2.0**-53


def test_an_outcome_at_or_below_eps_is_never_sampled():
    # outcome 1 has 0 < p <= EPS, so it carries the sentinel; a draw at the
    # top of [0, 1) must still land on outcome 0
    psi = np.array([[sqrt(1 - 1e-13)], [sqrt(1e-13)]])
    out = measure(psi, np.eye(2), [0], [2], _LastUniform(np.random.PCG64(0)))
    assert 0 < out.probs[1] <= EPS and out.states[1].shape == (0, 1)
    assert out.result == 0


def _with_dead_outcomes(B, subsys, dims, rng):
    """A random ket whose measured part is B's column 0 plus random columns
    from 3 on: outcome 1 has probability 0 and outcome 2 1e-18 <= EPS."""
    a = rng.standard_normal(len(B)) + 1j * rng.standard_normal(len(B))
    a[1], a[2] = 0, 1e-9 * np.linalg.norm(a)
    c = B @ (a / np.linalg.norm(a))
    rest = [k for k in range(len(dims)) if k not in subsys]
    phi = rand_ket(int(np.prod([dims[k] for k in rest])), rng)
    t = np.multiply.outer(c, phi.ravel()).reshape([dims[k] for k in subsys + rest])
    return t.transpose(np.argsort(subsys + rest)).reshape(-1, 1)


@pytest.mark.parametrize("subsys", [[2, 0], [0, 1, 2]], ids=["partial", "full_register"])
@pytest.mark.parametrize("basis", ["dense", "monomial"])
@pytest.mark.parametrize("kind", ["ket", "rho"])
def test_post_states_are_disjoint_and_dead_outcomes_keep_the_sentinel(kind, basis, subsys):
    dims = [2, 3, 2]
    rng = default_rng(31)
    dsub = int(np.prod([dims[k] for k in subsys]))
    B = rand_unitary(dsub, rng) if basis == "dense" else _perm_basis(dsub, rng)
    psi = _with_dead_outcomes(B, subsys, dims, rng)
    if kind == "ket":
        state = psi
    else:
        other = _with_dead_outcomes(B, subsys, dims, rng)
        state = 0.5 * (psi @ psi.conj().T + other @ other.conj().T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = measure(state, B, subsys, dims, rng)
    side = 1 if dsub == 12 else 3
    empty = (0, 1) if kind == "ket" else (0, 0)
    for i, (p, post) in enumerate(zip(out.probs, out.states)):
        if i in (1, 2):
            assert p <= EPS and post.shape == empty
        else:
            assert p > EPS and post.shape == ((side, 1) if kind == "ket" else (side, side))
        assert not np.shares_memory(post, state) and not np.shares_memory(post, B)
        for other_post in out.states[:i]:
            assert not np.shares_memory(post, other_post)
    before = [post.copy() for post in out.states]
    for i, post in enumerate(out.states):
        post[...] = 7
        for j, other_post in enumerate(out.states):
            if j != i:
                assert np.array_equal(other_post, before[j])
        post[...] = before[i]


def test_measure_matches_projector_oracle_mixed_dims():
    # independent oracle: embed the rank-1 projector |b_i><b_i| on the
    # measured subsystems, project, ptrace them out, renormalize
    from _oracles import embed_operator
    from quditsim import ptrace

    rng = default_rng(10)
    dims = [2, 3, 2]
    subsys = [2, 0]  # deliberately unsorted
    basis = rand_unitary(4, rng)
    psi = rand_ket(12, rng)
    rho = psi @ psi.conj().T

    out_ket = measure(psi, basis, subsys, dims, default_rng(0))
    out_dm = measure(rho, basis, subsys, dims, default_rng(0))
    for i in range(4):
        b = basis[:, [i]]
        proj = embed_operator(b @ b.conj().T, subsys, dims)
        projected = proj @ rho @ proj.conj().T
        p = float(np.trace(projected).real)
        assert abs(out_ket.probs[i] - p) < 1e-12
        assert abs(out_dm.probs[i] - p) < 1e-12
        if p > 1e-12:
            expected = ptrace(projected, subsys, dims) / p
            assert np.abs(out_dm.states[i] - expected).max() < 1e-12
            ket_proj = out_ket.states[i] @ out_ket.states[i].conj().T
            assert np.abs(ket_proj - expected).max() < 1e-12


def test_measure_errors():
    with pytest.raises(QuantumError) as ei:
        measure(bell00(), np.array([[1, 1], [0, 1]], dtype=complex), [0], [2, 2])
    assert ei.value.kind is ErrorKind.DIMS_MISMATCH_MATRIX  # not orthonormal
    with pytest.raises(QuantumError) as ei:
        measure(bell00(), np.eye(4), [0], [2, 2])
    assert ei.value.kind is ErrorKind.DIMS_MISMATCH_MATRIX  # wrong side
    with pytest.raises(QuantumError) as ei:
        measure(bell00(), np.ones((2, 3)), [0], [2, 2])
    assert ei.value.kind is ErrorKind.MATRIX_NOT_SQUARE
    with pytest.raises(QuantumError) as ei:
        measure(bell00(), np.eye(2), [2], [2, 2])
    assert ei.value.kind is ErrorKind.SUBSYS_MISMATCH_DIMS
    with pytest.raises(QuantumError) as ei:
        measure(np.ones((3, 1)), np.eye(2), [0], [2, 2])
    assert ei.value.kind is ErrorKind.NOT_SQUARE_NOR_KET


def _perm_basis(d, rng):
    """A permutation-times-phase basis: column j is a phase times e_perm[j]."""
    B = np.zeros((d, d), dtype=complex)
    B[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.random(d))
    return B


def _gemm_detail(B):
    err = np.abs(B.conj().T @ B - np.eye(len(B))).max()
    return f"basis columns not orthonormal: error {err:.3g}, tolerance {EPS:.3g}"


def _rejected_basis(B, dims=(2, 2), subsys=(0, 1)):
    psi = rand_ket(int(np.prod(dims)), default_rng(11))
    with pytest.raises(QuantumError) as ei:
        measure(psi, B, list(subsys), list(dims), default_rng(0))
    assert ei.value.kind is ErrorKind.DIMS_MISMATCH_MATRIX
    return ei.value.detail


def test_permutation_basis_off_by_1e_10_is_rejected_with_the_gemm_error():
    rng = default_rng(12)
    for k in range(4):
        B = _perm_basis(4, rng)
        B[:, k] *= 1 + 1e-10
        assert _rejected_basis(B) == _gemm_detail(B)


def test_permutation_basis_with_nan_or_inf_is_rejected():
    for bad in (np.nan, np.inf, complex(np.nan, 1.0)):
        B = _perm_basis(4, default_rng(13))
        B[np.flatnonzero(B[:, 2])[0], 2] = bad
        detail = _rejected_basis(B)
        assert "error nan" in detail or "error inf" in detail


def test_dense_basis_with_inf_or_huge_entry_is_rejected_without_a_warning():
    for bad in (np.inf, 1e200):
        B = gt.H.copy()
        B[0, 0] = bad
        detail = _rejected_basis(B, [2], [0])
        assert "error nan" in detail or "error inf" in detail


def test_nonzeros_sharing_a_row_are_not_a_permutation_basis():
    # exactly one nonzero per column, but both in row 0: B^dag B = ones(2, 2)
    B = np.array([[1, 1], [0, 0]], dtype=complex)
    assert _rejected_basis(B, [2], [0]) == _gemm_detail(B)
    B = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 1]], dtype=complex)
    assert _rejected_basis(B, [3], [0]) == _gemm_detail(B)


@pytest.mark.parametrize("col", [0, 3], ids=["first_column", "later_column"])
def test_a_1e_300_entry_makes_a_permutation_basis_dense(col, monkeypatch):
    # the exact-zero test counts 1e-300 as an entry, as the kernel does, so
    # the basis is not monomial: it passes the gemm's orthonormality check
    # and matches the projector oracle. In column 0 the first-column look
    # sends it on before the reader; in column 3 the reader sees 5 nonzeros.
    B = _perm_basis(4, default_rng(15))
    B[(np.flatnonzero(B[:, col])[0] + 1) % 4, col] = 1e-300
    seen = []
    support = measurement._support

    def spy(G):
        seen.append(support(G))
        return seen[-1]

    monkeypatch.setattr(measurement, "_support", spy)
    _check_measure([2, 3, 2], [2, 0], B, 16)
    assert [len(r) for r, _ in seen] == ([] if col == 0 else [5, 5])


def test_basis_plus_quarter_identity_is_rejected():
    # the benchmark's invalid basis, on a permutation and on a dense basis
    rng = default_rng(14)
    for B in (np.eye(4), _perm_basis(4, rng), rand_unitary(4, rng)):
        bad = B + 0.25 * np.eye(4)
        assert _rejected_basis(bad) == _gemm_detail(bad)

