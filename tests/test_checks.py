"""The shared validation policy: NaN fails every tolerance check, a state
must be normalized to be measured, and integer parameters must be
integers (a numpy integer is one; a bool, float or string is not)."""

import numpy as np
import pytest

from quditsim import (
    ErrorKind,
    QuantumError,
    Xd,
    apply,
    bell00,
    choi2kraus,
    ctrl_gate,
    default_rng,
    entropy,
    gt,
    hevals,
    hevects,
    invperm,
    kron_pow,
    measure,
    mket,
    qmutualinfo,
    rand_rho,
    rand_unitary,
    shannon,
    shor_codeword,
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
    # max|M| = inf scales the tolerance to inf unless the error is divided by it
    for call in (hevals, hevects, entropy):
        with pytest.raises(QuantumError) as ei:
            call(np.array([[0.5, np.inf], [0, 0.5]]))
        assert ei.value.kind is ErrorKind.DIMS_INVALID


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
    out = apply(bell00(), X, np.array([1]), np.array([2, 2]))
    assert np.abs(out - apply(bell00(), X, [1], [2, 2])).max() == 0.0
