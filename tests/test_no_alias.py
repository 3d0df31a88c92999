"""Every public function that takes arrays reads them without writing them
and returns results that share no memory with them.

Inputs are read-only complex128 arrays: coercion passes such arrays
through without a copy, so any write raises and any returned view of an
input shows up as shared memory.
"""

import io

import numpy as np
import pytest

import quditsim as q
from _oracles import rand_cptp


def _ro(a, dtype=np.complex128):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


_rng = q.default_rng(21)
DIMS = [2, 3, 2]
KET = _ro(q.rand_ket(12, _rng))
RHO = _ro(q.rand_rho(12, _rng))
U2 = _ro(q.rand_unitary(2, _rng))
U3 = _ro(q.rand_unitary(3, _rng))
U4 = _ro(q.rand_unitary(4, _rng))
U12 = _ro(q.rand_unitary(12, _rng))
I3 = _ro(np.eye(3))
# a phase gate, and CNOT as a plain 4 x 4: above one block, both copy the
# sectors they leave alone
PHASE2 = _ro(np.diag([1, 1j]))
CNOT4 = _ro(np.eye(4)[[0, 1, 3, 2]])
# a permutation-times-phase basis on [2, 0]: the measure route without gemm
PHASE_PERM4 = _ro(np.diag(np.exp(1j * np.arange(4)))[[2, 0, 3, 1]])
KRAUS = [_ro(K) for K in rand_cptp(2, 2, _rng)]
KRAUS12 = [_ro(K) for K in rand_cptp(12, 2, _rng)]
RHO24 = _ro(q.rand_rho(24, _rng))
CHOI = _ro(q.kraus2choi(KRAUS))
# above one cache block of the kernel: 2^16 amplitudes, a 256 x 256 rho
KET_BIG = _ro(q.rand_ket(2**16, _rng))
RHO_BIG = _ro(q.rand_rho(2**8, _rng))
VEC = _ro(q.vec(RHO))
# measure's full-register outcomes in the identity basis, and the diagonal
# outcome blocks of a 256 x 256 rho in a dense basis on three qubits
I12 = _ro(np.eye(12))
U8 = _ro(q.rand_unitary(8, _rng))

CASES = {
    "apply_ket": (q.apply, KET, U3, [1], DIMS),
    "apply_rho": (q.apply, RHO, U4, [2, 0], DIMS),
    "apply_identity_ket": (q.apply, KET, I3, [1], DIMS),
    "apply_identity_rho": (q.apply, RHO, I3, [1], DIMS),
    "apply_flat_ket": (q.apply, KET.reshape(-1), U2, [0], DIMS),
    "apply_ctrl_ket": (q.apply_ctrl, KET, U2, [0], [2], DIMS),
    "apply_ket_above_block": (q.apply, KET_BIG, U4, [12, 3], [2] * 16),
    "apply_ctrl_phase_ket_above_block": (q.apply_ctrl, KET_BIG, PHASE2, [3], [9], [2] * 16),
    "apply_cnot_ket_above_block": (q.apply, KET_BIG, CNOT4, [9, 3], [2] * 16),
    "apply_ctrl_rho_above_block": (q.apply_ctrl, RHO_BIG, U2, [6, 1], [4], [2] * 8),
    "apply_ctrl_rho": (q.apply_ctrl, RHO, U2, [2], [0], DIMS),
    "apply_ctrl_rho_multi": (q.apply_ctrl, RHO24, U2, [0, 2], [3], [2, 3, 2, 2]),
    "apply_ctrl_rho_one_pass": (q.apply_ctrl, RHO24, U2, [3], [0], [2, 3, 2, 2]),
    "apply_channel": (q.apply_channel, RHO, KRAUS, [0], DIMS),
    "apply_channel_kraus_route": (q.apply_channel, RHO, KRAUS12, [0, 1, 2], DIMS),
    "measure_ket": (q.measure, KET, U2, [2], DIMS, q.default_rng(0)),
    "measure_ket_all": (q.measure, KET, U12, [0, 1, 2], DIMS, q.default_rng(0)),
    "measure_ket_full_register": (q.measure, KET, I12, [0, 1, 2], DIMS, q.default_rng(0)),
    "measure_rho": (q.measure, RHO, U3, [1], DIMS, q.default_rng(0)),
    "measure_rho_all": (q.measure, RHO, U12, [0, 1, 2], DIMS, q.default_rng(0)),
    "measure_ket_monomial": (q.measure, KET, PHASE_PERM4, [2, 0], DIMS, q.default_rng(0)),
    "measure_rho_monomial": (q.measure, RHO, PHASE_PERM4, [2, 0], DIMS, q.default_rng(0)),
    "measure_rho_dense_above_block": (q.measure, RHO_BIG, U8, [6, 1, 3], [2] * 8, q.default_rng(0)),
    "ptrace_ket_empty": (q.ptrace, KET, [], DIMS),
    "ptrace_rho_empty": (q.ptrace, RHO, [], DIMS),
    "ptrace_rho": (q.ptrace, RHO, [1], DIMS),
    "ptranspose_rho_empty": (q.ptranspose, RHO, [], DIMS),
    "ptranspose_rho": (q.ptranspose, RHO, [0, 2], DIMS),
    "syspermute_ket_identity": (q.syspermute, KET, [0, 1, 2], DIMS),
    "syspermute_rho_identity": (q.syspermute, RHO, [0, 1, 2], DIMS),
    "syspermute_ket": (q.syspermute, KET, [2, 0, 1], DIMS),
    "syspermute_rho": (q.syspermute, RHO, [1, 2, 0], DIMS),
    "vec": (q.vec, RHO),
    "unvec": (q.unvec, VEC),
    "kraus2super": (q.kraus2super, KRAUS),
    "kraus2choi": (q.kraus2choi, KRAUS),
    "choi2kraus": (q.choi2kraus, CHOI),
    "ctrl_gate": (q.ctrl_gate, U2, [0], [1], 2),
    "transpose": (q.transpose, RHO),
    "adjoint": (q.adjoint, RHO),
    "trace": (q.trace, RHO),
    "norm": (q.norm, KET),
    "kron": (q.kron, U2, U3),
    "kron_pow_1": (q.kron_pow, U2, 1),
    "kron_pow_2": (q.kron_pow, U2, 2),
    "hevals": (q.hevals, RHO),
    "hevects": (q.hevects, RHO),
    "entropy": (q.entropy, RHO),
    "entropy_ket": (q.entropy, KET),
    "ptrace_ket": (q.ptrace, KET, [0, 2], DIMS),
    "qmutualinfo_ket": (q.qmutualinfo, KET, [0], [2], DIMS),
    "qmutualinfo": (q.qmutualinfo, RHO, [0], [2], DIMS),
    "shannon": (q.shannon, _ro([0.25, 0.75], dtype=float)),
    "format_matrix": (q.format_matrix, U2),
    "save": (q.save, RHO, io.BytesIO()),
}


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (list, tuple)):
        for item in x:
            yield from _arrays(item)


@pytest.mark.parametrize("name", sorted(CASES))
def test_inputs_are_read_not_written_and_never_aliased(name):
    fn, *args = CASES[name]
    inputs = list(_arrays(args))
    before = [a.copy() for a in inputs]
    out = fn(*args)
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    for o in _arrays(out):
        for a in inputs:
            assert not np.shares_memory(o, a)
