"""The shared validation policy: NaN fails every tolerance check, a state
must be normalized to be measured, and integer parameters must be
integers (a numpy integer is one; a bool, float or string is not)."""

from pathlib import Path

import numpy as np
import pytest

import quditsim
from quditsim import (
    ErrorKind,
    Fd,
    QuantumError,
    Xd,
    Zd,
    apply,
    apply_channel,
    apply_ctrl,
    bell00,
    choi2kraus,
    ctrl_gate,
    default_rng,
    entropy,
    format_matrix,
    format_scalar,
    format_sequence,
    gt,
    hevals,
    hevects,
    invperm,
    kraus2choi,
    kraus2super,
    kron,
    kron_pow,
    load,
    measure,
    mket,
    multiidx_to_n,
    n_to_multiidx,
    ptrace,
    ptranspose,
    qmutualinfo,
    rand_ket,
    rand_perm,
    rand_rho,
    rand_unitary,
    save,
    shannon,
    shor_codeword,
    syspermute,
    unvec,
    validate_dims,
)


def _one_nan(A, at):
    """A copy of a valid input with a single entry set to NaN."""
    B = np.array(A, dtype=complex)
    B[at] = np.nan
    return B


RHO = np.diag([0.5, 0.5]).astype(complex)
BELL_RHO = bell00() @ bell00().conj().T
X = gt.X

# op, call, expected kind: each input is valid but for one NaN entry
NAN_CASES = {
    "entropy_matrix": (
        "entropy", lambda: entropy(_one_nan(RHO, (1, 1))), ErrorKind.DIMS_INVALID
    ),
    "entropy_ket": (
        "entropy", lambda: entropy(_one_nan(bell00(), (3, 0))), ErrorKind.DIMS_INVALID
    ),
    "hevals": ("hevals", lambda: hevals(_one_nan(RHO, (0, 1))), ErrorKind.DIMS_INVALID),
    "hevects": ("hevects", lambda: hevects(_one_nan(RHO, (1, 1))), ErrorKind.DIMS_INVALID),
    "choi2kraus": (
        "choi2kraus", lambda: choi2kraus(_one_nan(np.eye(4), (2, 2))), ErrorKind.DIMS_INVALID
    ),
    "qmutualinfo": (
        "qmutualinfo",
        lambda: qmutualinfo(_one_nan(BELL_RHO, (3, 3)), [0], [1], [2, 2]),
        ErrorKind.DIMS_INVALID,
    ),
    "shannon": ("shannon", lambda: shannon([np.nan, 1.0]), ErrorKind.OUT_OF_RANGE),
    "measure_state": (
        "measure",
        lambda: measure(_one_nan(bell00(), (3, 0)), np.eye(2), [0], [2, 2], default_rng(0)),
        ErrorKind.DIMS_INVALID,
    ),
    "measure_basis": (
        "measure",
        lambda: measure(bell00(), _one_nan(np.eye(2), (0, 0)), [0], [2, 2], default_rng(0)),
        ErrorKind.DIMS_MISMATCH_MATRIX,
    ),
}


@pytest.mark.parametrize("case", list(NAN_CASES))
def test_nan_input_fails_the_tolerance_check(case):
    op, call, kind = NAN_CASES[case]
    with pytest.raises(QuantumError) as ei:
        call()
    assert ei.value.kind is kind
    assert ei.value.op == op
    assert "error nan" in ei.value.detail and "tolerance" in ei.value.detail


def test_an_inf_entry_fails_the_scaled_hermitian_check():
    # max|M| = inf scales the tolerance to inf unless the error is divided
    # by it; an inf on the diagonal makes M - M^dag inf - inf, which is NaN
    for M in ([[0.5, np.inf], [0, 0.5]], np.diag([np.inf, 0])):
        for call in (hevals, hevects, entropy):
            with pytest.raises(QuantumError) as ei:
                call(np.array(M))
            assert ei.value.kind is ErrorKind.DIMS_INVALID


def test_an_overflowing_difference_fails_the_hermitian_check():
    with pytest.raises(QuantumError) as ei:
        hevals(np.array([[1e308, 1e308], [-1e308, 0]]))
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    assert "error inf" in ei.value.detail


def test_measure_rejects_a_state_that_is_not_normalized():
    # every outcome of this state has probability 5e-15 <= EPS, so without
    # the normalization check the sampled state is a zero-size sentinel
    with pytest.raises(QuantumError) as ei:
        measure(1e-7 * bell00(), np.eye(2), [0], [2, 2], default_rng(0))
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    with pytest.raises(QuantumError) as ei:
        measure(2 * rand_rho(4, default_rng(1)), np.eye(2), [1], [2, 2], default_rng(0))
    assert ei.value.kind is ErrorKind.DIMS_INVALID


def test_measure_accepts_a_norm_within_the_trace_tolerance():
    for scale in (1 - 9e-7, 1 + 9e-7):
        psi = np.sqrt(scale) * bell00()
        for state in (psi, psi @ psi.conj().T):
            out = measure(state, np.eye(2), [0], [2, 2], default_rng(0))
            assert abs(sum(out.probs) - scale) < 1e-15
            assert out.states[out.result].size > 0


# each call passes a non-integer where an integer is required
NON_INTEGER_CASES = {
    "unvec_bool": lambda: unvec(np.arange(4), True),
    "unvec_str": lambda: unvec(np.arange(4), "2"),
    "unvec_float": lambda: unvec(np.arange(4), 2.5),
    "Xd": lambda: Xd(2.5),
    "rand_unitary": lambda: rand_unitary(2.7),
    "kron_pow": lambda: kron_pow(np.eye(2), 2.5),
    "Id": lambda: gt.Id(3.0),
    "ctrl_gate_n": lambda: ctrl_gate(X, [0], [1], 2.0),
    "ctrl_gate_d": lambda: ctrl_gate(X, [0], [1], 2, True),
    "shor_codeword": lambda: shor_codeword(1.0),
    "mket_digit": lambda: mket([0.5, 0]),
    "dims": lambda: mket([1, 0], [2.9, 2]),
    "dims_equal_to_ints": lambda: apply(bell00(), X, [0], [2.0, 2]),
    "dims_bool": lambda: mket([0, 0], [True, 2]),
    "validate_dims_total": lambda: validate_dims([2, 2], 4.5),
    "subsys": lambda: apply(bell00(), X, [0.7], [2, 2]),
    "subsys_bool": lambda: apply(bell00(), X, [True], [2, 2]),
    "invperm": lambda: invperm([1.7, 0.2]),
    "multiidx_to_n_float": lambda: multiidx_to_n([0.5, 0], [2, 2]),
    "multiidx_to_n_bool": lambda: multiidx_to_n([True, 0], [2, 2]),
    "n_to_multiidx_float": lambda: n_to_multiidx(2.5, [2, 2]),
    "n_to_multiidx_bool": lambda: n_to_multiidx(True, [2, 2]),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_CASES))
def test_integer_parameters_reject_non_integers(case):
    apply(bell00(), X, [0], [2, 2])  # [2, 2] is now memoized; [2.0, 2] must not hit it
    with pytest.raises(QuantumError) as ei:
        NON_INTEGER_CASES[case]()
    assert ei.value.kind is ErrorKind.OUT_OF_RANGE
    assert "is not an integer" in ei.value.detail


def test_integer_parameters_accept_numpy_integers():
    i = np.int64
    assert unvec(np.arange(4), i(2)).shape == (2, 2)
    assert Xd(np.int32(3)).shape == (3, 3)
    assert rand_unitary(np.uint8(2), default_rng(0)).shape == (2, 2)
    assert kron_pow(np.eye(2), np.int16(2)).shape == (4, 4)
    assert gt.Id(i(3)).shape == (3, 3)
    assert ctrl_gate(X, np.array([0]), [1], i(2), i(2)).shape == (4, 4)
    assert shor_codeword(i(1)).shape == (512, 1)
    assert mket([np.int8(1), 0], np.array([2, 3])).shape == (6, 1)
    validate_dims([2, 3], i(6))
    assert multiidx_to_n([np.int8(1), i(2)], [2, 3]) == 5
    assert n_to_multiidx(i(5), [2, 3]) == [1, 2]
    out = apply(bell00(), X, np.array([1]), np.array([2, 2]))
    assert np.abs(out - apply(bell00(), X, [1], [2, 2])).max() == 0.0


def _huge(*shape):
    """A complex128 array of ``shape`` that takes no memory: one zero-stride
    view of a single entry."""
    return np.broadcast_to(np.complex128(0.5), shape)


# numpy rejects each of these shapes before it allocates anything: the byte
# count overflows, or a side exceeds numpy's maximum dimension. Each result
# is allocated before any temporary the size of its input.
TOO_LARGE_CASES = {
    "ctrl_gate": ("ctrl_gate", lambda: ctrl_gate(X, [0], [1], 33)),
    "mket_62": ("mket", lambda: mket([0] * 62)),
    "mket_63": ("mket", lambda: mket([0] * 63)),
    "Id": ("Id", lambda: gt.Id(2**40)),
    "Xd": ("Xd", lambda: Xd(2**40)),
    # fails before it builds anything of length D
    "Zd": ("Zd", lambda: Zd(2**62)),
    "rand_ket": ("rand_ket", lambda: rand_ket(2**62, default_rng(0))),
    "rand_unitary": ("rand_unitary", lambda: rand_unitary(2**40, default_rng(0))),
    "rand_rho": ("rand_rho", lambda: rand_rho(2**40, default_rng(0))),
    "Fd": ("Fd", lambda: Fd(2**40)),
    "kraus2choi": ("kraus2choi", lambda: kraus2choi([_huge(2**16, 2**16)])),
    "kraus2super": ("kraus2super", lambda: kraus2super([_huge(2**16, 2**16)])),
    "kron": ("kron", lambda: kron(_huge(2**16, 2**16), _huge(2**16, 2**16))),
    "kron_pow": ("kron_pow", lambda: kron_pow(X, 40)),
    "ptranspose_ket": ("ptranspose", lambda: ptranspose(_huge(2**32), [0], [2] * 32)),
}


@pytest.mark.parametrize("case", list(TOO_LARGE_CASES))
def test_a_space_too_large_to_allocate_is_dims_invalid(case):
    op, call = TOO_LARGE_CASES[case]
    with pytest.raises(QuantumError) as ei:
        call()
    assert ei.value.kind is ErrorKind.DIMS_INVALID
    assert ei.value.op == op
    assert "too large to allocate" in ei.value.detail


PSI = bell00()

# op, call, expected kind: each passes an argument of the wrong type, which
# the argument's own coercion rejects with the kind its other bad values get
MALFORMED_TYPE_CASES = {
    "apply_dims_int": ("apply", lambda: apply(PSI, X, [0], 4), ErrorKind.DIMS_INVALID),
    "ptranspose_dims_int": (
        "ptranspose", lambda: ptranspose(BELL_RHO, [0], 2), ErrorKind.DIMS_INVALID
    ),
    "validate_dims_int": ("validate_dims", lambda: validate_dims(4, 4), ErrorKind.DIMS_INVALID),
    "dims_unhashable": ("apply", lambda: apply(PSI, X, [0], [[2], 2]), ErrorKind.DIMS_INVALID),
    "apply_subsys_int": ("apply", lambda: apply(PSI, X, 0, [2, 2]), ErrorKind.OUT_OF_RANGE),
    "measure_subsys_int": (
        "measure", lambda: measure(PSI, np.eye(2), 0, [2, 2]), ErrorKind.OUT_OF_RANGE
    ),
    "ptrace_subsys_int": ("ptrace", lambda: ptrace(PSI, 0, [2, 2]), ErrorKind.OUT_OF_RANGE),
    "apply_ctrl_ctrl_int": (
        "apply_ctrl", lambda: apply_ctrl(PSI, X, 1, [0], [2, 2]), ErrorKind.OUT_OF_RANGE
    ),
    "syspermute_perm_int": (
        "syspermute", lambda: syspermute(PSI, 1, [2, 2]), ErrorKind.OUT_OF_RANGE
    ),
    "invperm_none": ("invperm", lambda: invperm(None), ErrorKind.OUT_OF_RANGE),
    "mket_digits_int": ("mket", lambda: mket(0), ErrorKind.OUT_OF_RANGE),
    "mket_digits_int_with_dims": ("mket", lambda: mket(0, [2]), ErrorKind.OUT_OF_RANGE),
    "multiidx_to_n_digits_int": (
        "multiidx_to_n", lambda: multiidx_to_n(5, [2]), ErrorKind.OUT_OF_RANGE
    ),
    "ctrl_gate_ctrl_int": (
        "ctrl_gate", lambda: ctrl_gate(X, 0, [1], 2), ErrorKind.OUT_OF_RANGE
    ),
    "qmutualinfo_subsys_int": (
        "qmutualinfo", lambda: qmutualinfo(BELL_RHO, 0, [1], [2, 2]), ErrorKind.OUT_OF_RANGE
    ),
    "apply_operator_str": ("apply", lambda: apply(PSI, "x", [0], [2, 2]), ErrorKind.DIMS_INVALID),
    "apply_operator_ragged": (
        "apply", lambda: apply(PSI, [[1, 0], [0]], [0], [2, 2]), ErrorKind.DIMS_INVALID
    ),
    "entropy_str": ("entropy", lambda: entropy("a"), ErrorKind.DIMS_INVALID),
    "unvec_str": ("unvec", lambda: unvec("ab"), ErrorKind.DIMS_INVALID),
    "rand_ket_rng_int": ("rand_ket", lambda: rand_ket(4, 42), ErrorKind.OUT_OF_RANGE),
    "rand_perm_random_state": (
        "rand_perm", lambda: rand_perm(3, np.random.RandomState(0)), ErrorKind.OUT_OF_RANGE
    ),
    "measure_rng_int": (
        "measure", lambda: measure(PSI, np.eye(2), [0], [2, 2], rng=7), ErrorKind.OUT_OF_RANGE
    ),
    "kraus2super_int": ("kraus2super", lambda: kraus2super(5), ErrorKind.DIMS_INVALID),
    "kraus2choi_int": ("kraus2choi", lambda: kraus2choi(5), ErrorKind.DIMS_INVALID),
    "apply_channel_kraus_int": (
        "apply_channel", lambda: apply_channel(RHO, 5, [0], [2]), ErrorKind.DIMS_INVALID
    ),
    "format_matrix_str": ("format_matrix", lambda: format_matrix("x"), ErrorKind.DIMS_INVALID),
    "format_matrix_ragged": (
        "format_matrix", lambda: format_matrix([[1, 0], [0]]), ErrorKind.DIMS_INVALID
    ),
    "format_scalar_str": ("format_scalar", lambda: format_scalar("x"), ErrorKind.DIMS_INVALID),
    "format_sequence_none": (
        "format_sequence", lambda: format_sequence([None]), ErrorKind.DIMS_INVALID
    ),
    "format_sequence_int": ("format_sequence", lambda: format_sequence(5), ErrorKind.DIMS_INVALID),
    "shannon_str": ("shannon", lambda: shannon("ab"), ErrorKind.OUT_OF_RANGE),
    "load_int": ("load", lambda: load(5), ErrorKind.IO_ERROR),
    "save_int": ("save", lambda: save(X, 5), ErrorKind.IO_ERROR),
}


@pytest.mark.parametrize("case", list(MALFORMED_TYPE_CASES))
def test_a_malformed_argument_type_raises_quantum_error(case):
    op, call, kind = MALFORMED_TYPE_CASES[case]
    with pytest.raises(QuantumError) as ei:
        call()
    assert ei.value.kind is kind
    assert ei.value.op == op


# every public caller of _checks.as_dims, as a function of the dims it gets
DIMS_CALLERS = {
    "apply": lambda dims: apply(PSI, X, [0], dims),
    "apply_ctrl": lambda dims: apply_ctrl(PSI, X, [0], [1], dims),
    "apply_channel": lambda dims: apply_channel(BELL_RHO, [X], [0], dims),
    "measure": lambda dims: measure(PSI, np.eye(2), [0], dims),
    "ptrace": lambda dims: ptrace(BELL_RHO, [0], dims),
    "ptranspose": lambda dims: ptranspose(BELL_RHO, [0], dims),
    "qmutualinfo": lambda dims: qmutualinfo(BELL_RHO, [0], [1], dims),
    "syspermute": lambda dims: syspermute(PSI, [1, 0], dims),
    "mket": lambda dims: mket([0, 0], dims),
    "validate_dims": lambda dims: validate_dims(dims, 4),
    "multiidx_to_n": lambda dims: multiidx_to_n([0, 0], dims),
    "n_to_multiidx": lambda dims: n_to_multiidx(0, dims),
}

# dims and the detail of their error: DIMS_INVALID for every caller
BAD_DIMS = [
    (5, "dims=5 is not a sequence of integers"),
    ([[2], 2], "dims=[[2], 2] is not a sequence of integers"),
    ([], "empty dimension list"),
    ([1], "every dimension must be >= 2"),
    ([2] * 65, "more than 64 subsystems"),
]


def test_the_index_converters_name_themselves_for_bad_dims():
    for op, call in DIMS_CALLERS.items():
        for dims, detail in BAD_DIMS:
            with pytest.raises(QuantumError) as ei:
                call(dims)
            got = (ei.value.kind, ei.value.op, ei.value.detail)
            assert got == (ErrorKind.DIMS_INVALID, op, detail), (op, dims)


def test_only_checks_reads_the_memoized_dims_lookup():
    src = Path(quditsim.__file__).parent
    readers = sorted(f.name for f in src.glob("*.py") if "_dims_info" in f.read_text())
    assert readers == ["_checks.py"]
