"""The four benchmark workloads.

Each workload draws every input from its seed in ``setup`` (through
quditsim's own ``randomness`` layer, with an explicit seeded generator)
and issues a fixed sequence of library calls per task. Why each one
exists is recorded in ``BENCHMARK.json``; in short:

* ``ket_circuit`` - gates on a 36 MiB mixed qutrit/qubit ket; the kernel
  is memory-bound, so copies and axis moves show.
* ``density_noise`` - gates, Kraus channels and diagnostics on a 768x768
  density matrix: the two-pass matrix path on a cache-sized operand.
* ``measure_readout`` - projective measurement only: the basis check
  (full register) and the per-outcome loop (Haar basis, 64 outcomes).
* ``small_calls`` - about 30 calls on spaces of dimension <= 64, where
  per-call overhead dominates, with a fixed share of invalid input.
"""

from __future__ import annotations

import io
from math import prod

import numpy as np

import reference as R

CPLX = np.dtype(np.complex128).itemsize

# small_calls' hevals inputs, as powers of ten of their max-norm. Every
# workload must run without a failing call, so the norm stops at 1e3: at
# 1e6 the library rejects this valid input (the absolute 1e-12 Hermiticity
# tolerance listed in the ROADMAP). Add 6 here once hevals accepts it.
HERMITIAN_NORM_EXPONENTS = (0, 3)

# Which subsystems each call targets, and the small_calls dimensions, are
# fixed: the seed draws only numbers (states, unitaries, channel
# parameters), and every task of a workload has the same shape. Each task
# then costs the same and every seed asks for the same work, so the
# spread across tasks and seeds measures the machine, not the inputs.


def _sliced(dims: list[int], inp: np.ndarray, busy: list[int], kernel):
    """A check that rebuilds ``kernel`` on one free axis slice at a time.

    ``kernel(t, shift)`` computes the reference on a slice ``t`` where
    ``shift`` maps full-tensor axes to slice axes.
    """
    free = next(a for a in range(len(dims)) if a not in busy)

    def shift(axes):
        return [a - (a > free) for a in axes]

    def check(out):
        return R.check_sliced(out.reshape(dims), inp.reshape(dims), free, lambda t: kernel(t, shift))

    return check


class KetCircuit:
    """Pure state over dims [3, 3] + [2] * 18, evolved across tasks.

    A task is a Haar 1-qutrit apply, a Haar 2-qubit apply on a
    non-adjacent pair, and a qutrit-controlled qubit apply_ctrl (U and U^2
    sectors).
    """

    name = "ket_circuit"
    warmup = 1

    def setup(self, run, qs, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        self.dims = [3, 3] + [2] * (4 if tiny else 18)
        D = prod(self.dims)
        self.psi = run.call("randomness.rand_ket", qs.rand_ket, D, rng)
        self.u3 = [run.call("randomness.rand_unitary", qs.rand_unitary, 3, rng) for _ in range(4)]
        self.u4 = [run.call("randomness.rand_unitary", qs.rand_unitary, 4, rng) for _ in range(4)]
        self.u2 = [run.call("randomness.rand_unitary", qs.rand_unitary, 2, rng) for _ in range(4)]
        # a non-adjacent qubit pair listed out of order, and a qubit target
        self.pair, self.target = ([4, 2], [5]) if tiny else ([14, 5], [9])
        self.qs = qs

    def task(self, run, i: int) -> None:
        qs, dims = self.qs, self.dims
        moved = 2 * prod(dims) * CPLX
        qutrit = 0
        U3 = self.u3[i % 4]
        # hold one state between calls, not two, so that peak_rss_mb counts
        # the library's copies only
        psi, self.psi = self.psi, None
        try:
            psi = run.call(
                "operations.apply", qs.apply, psi, U3, [qutrit], dims, moved=moved,
                check=_sliced(dims, psi, [qutrit], lambda t, sh: R.contract(t, U3, sh([qutrit]))),
            )
            pair, U4 = self.pair, self.u4[i % 4]
            psi = run.call(
                "operations.apply", qs.apply, psi, U4, pair, dims, moved=moved,
                check=_sliced(dims, psi, pair, lambda t, sh: R.contract(t, U4, sh(pair))),
            )
            ctrl, target, U2 = [1], self.target, self.u2[i % 4]
            psi = run.call(
                "operations.apply_ctrl", qs.apply_ctrl, psi, U2, ctrl, target, dims, moved=moved,
                check=_sliced(
                    dims, psi, ctrl + target,
                    lambda t, sh: R.contract_ctrl(t, U2, sh(ctrl), sh(target)),
                ),
            )
        finally:
            self.psi = psi


class DensityNoise:
    """Density matrix over dims [2] * 8 + [3], evolved across tasks.

    A task is a 2-qubit gate (apply), a controlled qubit gate
    (apply_ctrl), amplitude damping on one qubit and qutrit dephasing
    (apply_channel), then diagnostics: the entropy of a 4-qubit reduced
    state, the mutual information of two qubits and the negativity of a
    2-qubit reduced state.
    """

    name = "density_noise"
    warmup = 1

    def setup(self, run, qs, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        self.nq = 4 if tiny else 8
        self.dims = [2] * self.nq + [3]
        self.rho = run.call("randomness.rand_rho", qs.rand_rho, prod(self.dims), rng)
        self.u4 = [run.call("randomness.rand_unitary", qs.rand_unitary, 4, rng) for _ in range(4)]
        self.u2 = [run.call("randomness.rand_unitary", qs.rand_unitary, 2, rng) for _ in range(4)]
        # gate pair (also the mutual-information and negativity pair), then
        # the control and target qubits of the controlled gate
        self.pair, self.ctrl = ([3, 1], [2, 0]) if tiny else ([6, 1], [2, 5])
        gamma = float(rng.uniform(0.05, 0.2))
        self.damping = [
            np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128),
            np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128),
        ]
        Z = run.call("gates.Zd", qs.Zd, 3)
        p = rng.dirichlet([1.0, 1.0, 1.0])
        self.dephasing = [np.sqrt(p[j]) * np.linalg.matrix_power(Z, j) for j in range(3)]
        self.qs = qs

    def task(self, run, i: int) -> None:
        qs, dims, nq = self.qs, self.dims, self.nq
        D = prod(dims)
        moved = 2 * D * D * CPLX
        rho = self.rho
        pair, U4 = self.pair, self.u4[i % 4]
        rho = run.call(
            "operations.apply", qs.apply, rho, U4, pair, dims, moved=moved,
            check=lambda out, r=rho: R.check_full(out, R.two_sided, r, U4, pair, dims),
        )
        c, t = self.ctrl
        U2 = self.u2[i % 4]
        rho = run.call(
            "operations.apply_ctrl", qs.apply_ctrl, rho, U2, [c], [t], dims, moved=moved,
            check=lambda out, r=rho: R.check_full(out, R.two_sided_ctrl, r, U2, [c], [t], dims),
        )
        q = nq // 2
        rho = run.call(
            "operations.apply_channel", qs.apply_channel, rho, self.damping, [q], dims,
            moved=moved,
            check=lambda out, r=rho: R.check_full(out, R.kraus_sum, r, self.damping, [q], dims),
        )
        rho = run.call(
            "operations.apply_channel", qs.apply_channel, rho, self.dephasing, [nq], dims,
            moved=moved,
            check=lambda out, r=rho: R.check_full(out, R.kraus_sum, r, self.dephasing, [nq], dims),
        )
        self.rho = rho

        half = list(range(nq // 2, nq + 1))
        dk = 2 ** (nq // 2)
        red = run.call(
            "operations.ptrace", qs.ptrace, rho, half, dims, moved=(D * D + dk * dk) * CPLX,
            check=lambda out: R.check_full(out, R.ptrace, rho, half, dims),
        )
        run.call(
            "entropies.entropy", qs.entropy, red,
            check=lambda out: R.check_full(out, R.entropy, red),
        )
        a, b = pair
        run.call(
            "entropies.qmutualinfo", qs.qmutualinfo, rho, [a], [b], dims,
            check=lambda out: R.check_full(out, R.mutual_info, rho, [a], [b], dims),
        )
        rest = [k for k in range(nq + 1) if k not in pair]
        two = run.call(
            "operations.ptrace", qs.ptrace, rho, rest, dims, moved=(D * D + 16) * CPLX,
            check=lambda out: R.check_full(out, R.ptrace, rho, rest, dims),
        )  # kept in index order: qubit min(pair), then max(pair)
        pt = run.call(
            "operations.ptranspose", qs.ptranspose, two, [1], [2, 2],
            check=lambda out: R.check_full(out, R.ptranspose, two, [1], [2, 2]),
        )
        evals = run.call(
            "linalg.hevals", qs.hevals, pt, check=lambda out: R.check_full(out, R.hevals, pt)
        )
        self.negativity = float(-evals[evals < 0].sum())


class MeasureReadout:
    """Three measurements of fixed, pre-drawn inputs per task.

    All 9 qubits of a ket in the identity basis (the basis check
    dominates); 6 of 16 qubits of a ket in a Haar 64-dimensional basis (the
    per-outcome loop dominates); 3 of 8 qubits of a density matrix.
    """

    name = "measure_readout"
    warmup = 1

    def setup(self, run, qs, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        n_full, n_part, n_rho = (5, 8, 4) if tiny else (9, 16, 8)
        part, mixed = ([6, 1, 4], [3, 0]) if tiny else ([13, 2, 7, 10, 0, 5], [6, 1, 3])
        self.full = ([2] * n_full, list(range(n_full)))
        self.ket_full = run.call("randomness.rand_ket", qs.rand_ket, 2**n_full, rng)
        self.eye = np.eye(2**n_full, dtype=np.complex128)
        self.part = ([2] * n_part, part)
        self.ket_part = run.call("randomness.rand_ket", qs.rand_ket, 2**n_part, rng)
        self.b_part = run.call("randomness.rand_unitary", qs.rand_unitary, 2 ** len(part), rng)
        self.mixed = ([2] * n_rho, mixed)
        self.rho = run.call("randomness.rand_rho", qs.rand_rho, 2**n_rho, rng)
        self.b_rho = run.call("randomness.rand_unitary", qs.rand_unitary, 2 ** len(mixed), rng)
        self.rng = np.random.default_rng([seed, 1])
        self.qs = qs

    def _measure(self, run, state, B, space, is_ket: bool, case: str) -> None:
        dims, subsys = space
        D = prod(dims)
        moved = 2 * D * CPLX if is_ket else (D * D + D * D // B.shape[0]) * CPLX
        born = R.born_ket if is_ket else R.born_rho

        def check(out):
            (probs, post), ref_s = R.timed(born, state, B, subsys, dims)
            return R.measure_error(out, probs, post, is_ket), ref_s

        run.call(
            "measurement.measure", self.qs.measure, state, B, subsys, dims, self.rng,
            moved=moved, check=check, case=case,
        )

    def task(self, run, i: int) -> None:
        self._measure(run, self.ket_full, self.eye, self.full, True, "measure:full_register")
        self._measure(run, self.ket_part, self.b_part, self.part, True, "measure:haar_basis")
        self._measure(run, self.rho, self.b_rho, self.mixed, False, "measure:density")


class SmallCalls:
    """A fixed batch of about 30 calls on spaces of dimension <= 64.

    Two configurations, dims [3, 4, 5] and [2, 5, 2, 3], each through
    apply, apply_ctrl, apply_channel, measure and ptrace on kets and
    density matrices; then channel representation
    round trips, ctrl_gate with n = 6, syspermute of a Shor codeword, mket,
    a save/load round trip, three inputs that must be rejected (a
    non-orthonormal basis, overlapping ctrl and target, bad dims), and
    hevals on a Hermitian matrix, up to roundoff, whose norm alternates
    between 1 and 1e3.
    """

    name = "small_calls"
    warmup = 3

    def setup(self, run, qs, seed: int, tiny: bool) -> None:
        rng = np.random.default_rng(seed)
        # (dims, target subsystem k, control subsystem c): every size 2..5
        # appears, as a target and as a control
        self.configs = [
            self._config(run, qs, rng, [3, 4, 5], k=1, c=0),
            self._config(run, qs, rng, [2, 5, 2, 3], k=1, c=2),
        ]
        self.u_qubit = [run.call("randomness.rand_unitary", qs.rand_unitary, 2, rng) for _ in range(4)]
        self.perm = run.call("randomness.rand_perm", qs.rand_perm, 9, rng)
        self.hermitian = [self._roundoff_hermitian(rng, 8, 10.0**e) for e in HERMITIAN_NORM_EXPONENTS]
        self.rng = np.random.default_rng([seed, 1])
        self.qs = qs

    @staticmethod
    def _config(run, qs, rng, dims: list[int], k: int, c: int) -> dict:
        D = prod(dims)
        dk = dims[k]
        iso = run.call("randomness.rand_unitary", qs.rand_unitary, 2 * dk, rng)[:, :dk]
        basis = run.call("randomness.rand_unitary", qs.rand_unitary, dk, rng)
        return {
            "dims": dims,
            "k": k,
            "c": c,
            "ket": run.call("randomness.rand_ket", qs.rand_ket, D, rng),
            "rho": run.call("randomness.rand_rho", qs.rand_rho, D, rng),
            "U": run.call("randomness.rand_unitary", qs.rand_unitary, dk, rng),
            "kraus": [iso[:dk], iso[dk:]],
            "basis": basis,
            "bad_basis": basis + 0.25 * np.eye(dk),
            "digits": [int(rng.integers(0, d)) for d in dims],
        }

    @staticmethod
    def _roundoff_hermitian(rng, n: int, scale: float) -> np.ndarray:
        """A Hermitian matrix of max-norm ``scale`` plus an anti-Hermitian
        part of one unit in the last place: valid input up to roundoff."""
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (A + A.conj().T) / 2
        E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        E = (E - E.conj().T) / 2
        eps = np.finfo(float).eps
        return H * (scale / np.abs(H).max()) + E * (eps * scale / np.abs(E).max())

    def _kernels(self, run, cfg: dict) -> None:
        qs = self.qs
        dims, k, c = cfg["dims"], cfg["k"], cfg["c"]
        ket, rho, U, Ks, B = cfg["ket"], cfg["rho"], cfg["U"], cfg["kraus"], cfg["basis"]
        D = prod(dims)
        ket_moved, rho_moved = 2 * D * CPLX, 2 * D * D * CPLX

        def ket_check(kernel, *args):
            return lambda out: R.check_full(out, lambda: kernel(*args).reshape(-1, 1))

        run.call(
            "operations.apply", qs.apply, ket, U, [k], dims, moved=ket_moved,
            check=ket_check(R.contract, ket.reshape(dims), U, [k]),
        )
        run.call(
            "operations.apply", qs.apply, rho, U, [k], dims, moved=rho_moved,
            check=lambda out: R.check_full(out, R.two_sided, rho, U, [k], dims),
        )
        run.call(
            "operations.apply_ctrl", qs.apply_ctrl, ket, U, [c], [k], dims, moved=ket_moved,
            check=ket_check(R.contract_ctrl, ket.reshape(dims), U, [c], [k]),
        )
        run.call(
            "operations.apply_ctrl", qs.apply_ctrl, rho, U, [c], [k], dims, moved=rho_moved,
            check=lambda out: R.check_full(out, R.two_sided_ctrl, rho, U, [c], [k], dims),
        )
        run.call(
            "operations.apply_channel", qs.apply_channel, rho, Ks, [k], dims, moved=rho_moved,
            check=lambda out: R.check_full(out, R.kraus_sum, rho, Ks, [k], dims),
        )
        for state, is_ket, born in ((ket, True, R.born_ket), (rho, False, R.born_rho)):

            def check(out, state=state, is_ket=is_ket, born=born):
                (probs, post), ref_s = R.timed(born, state, B, [k], dims)
                return R.measure_error(out, probs, post, is_ket), ref_s

            run.call(
                "measurement.measure", qs.measure, state, B, [k], dims, self.rng,
                moved=(2 * D if is_ket else D * D + D * D // dims[k]) * CPLX, check=check,
            )
        dk = D // dims[k]
        for state in (rho, ket):
            run.call(
                "operations.ptrace", qs.ptrace, state, [k], dims,
                moved=(state.size + dk * dk) * CPLX,
                check=lambda out, s=state: R.check_full(out, R.ptrace, s, [k], dims),
            )

    def task(self, run, i: int) -> None:
        qs = self.qs
        cfg = self.configs[0]
        self._kernels(run, cfg)
        self._kernels(run, self.configs[1])

        Ks = cfg["kraus"]
        run.call(
            "operations.kraus2super", qs.kraus2super, Ks,
            check=lambda out: R.check_full(out, R.kraus2super, Ks),
        )
        J = run.call(
            "operations.kraus2choi", qs.kraus2choi, Ks,
            check=lambda out: R.check_full(out, R.kraus2choi, Ks),
        )
        run.call(
            "operations.choi2kraus", qs.choi2kraus, J,
            check=lambda out: (R.rel_error(R.kraus2choi(out), J), 0.0),
        )
        ctrl, target = [1], [4]
        Ug = self.u_qubit[i % 4]
        run.call(
            "gates.ctrl_gate", qs.ctrl_gate, Ug, ctrl, target, 6,
            check=lambda out: R.check_full(out, R.ctrl_gate, Ug, ctrl, target, 6, 2),
        )
        logical = i % 2
        code = run.call(
            "states.shor_codeword", qs.shor_codeword, logical,
            check=lambda out: R.check_full(out, R.shor_codeword, logical),
        )
        run.call(
            "operations.syspermute", qs.syspermute, code, self.perm, [2] * 9,
            check=lambda out: R.check_full(out, R.syspermute, code, self.perm, [2] * 9),
        )
        run.call(
            "states.mket", qs.mket, cfg["digits"], cfg["dims"],
            check=lambda out: R.check_full(out, R.basis_ket, cfg["digits"], cfg["dims"]),
        )
        buf = io.BytesIO()
        run.call("iofmt.save", qs.save, cfg["rho"], buf)
        buf.seek(0)
        run.call(
            "iofmt.load", qs.load, buf,
            check=lambda out: (0.0 if np.array_equal(out, cfg["rho"]) else float("inf"), 0.0),
        )

        kind = qs.ErrorKind
        dims, k, c = cfg["dims"], cfg["k"], cfg["c"]
        run.expect(
            "measurement.measure", kind.DIMS_MISMATCH_MATRIX, qs.measure, cfg["ket"],
            cfg["bad_basis"], [k], dims, self.rng, case="invalid:nonorthonormal_basis",
        )
        run.expect(
            "operations.apply_ctrl", kind.SUBSYS_MISMATCH_DIMS, qs.apply_ctrl, cfg["ket"],
            cfg["U"], [k], [k], dims, case="invalid:ctrl_target_overlap",
        )
        run.expect(
            "operations.apply", kind.DIMS_INVALID, qs.apply, cfg["ket"], cfg["U"], [k],
            dims + [1], case="invalid:bad_dims",
        )

        # Checked on every task, so that every norm is checked whatever the
        # sampling of the other calls.
        e = i % len(HERMITIAN_NORM_EXPONENTS)
        H = self.hermitian[e]
        run.call(
            "linalg.hevals", qs.hevals, H, case=f"hevals:norm_1e{HERMITIAN_NORM_EXPONENTS[e]}",
            check=lambda out: R.check_full(out, R.hevals, H), check_always=True,
        )


WORKLOADS = {w.name: w for w in (KetCircuit, DensityNoise, MeasureReadout, SmallCalls)}
