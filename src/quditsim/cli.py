"""Command-line demos: each subcommand walks one library capability
end to end and prints formatted results.

All subcommands are deterministic for a fixed ``--seed`` (default 0);
the only exception is wall-clock times, which are labelled ``elapsed:``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from .entropies import entropy, qmutualinfo
from .exceptions import QuantumError
from .gates import gt
from .iofmt import format_matrix, format_sequence, load, save
from .linalg import hevals, kron, norm
from .measurement import measure
from .operations import (
    apply,
    apply_channel,
    apply_ctrl,
    invperm,
    kraus2choi,
    kraus2super,
    ptrace,
    ptranspose,
    syspermute,
)
from .randomness import default_rng, rand_perm, rand_rho, rand_unitary
from .states import mket, shor_codeword, st
from .timer import Timer


def _cmd_minimal(args) -> int:
    print("Hello, quantum world!")
    print("The state |0>:")
    print(format_matrix(st.z0, args.precision))
    return 0


def _cmd_gates_states(args) -> int:
    rng = default_rng(args.seed)
    print("X|0> =")
    print(format_matrix(gt.X @ st.z0, args.precision))
    psi = mket([1, 0])
    print("CNOT|10> =")
    print(format_matrix(gt.CNOT @ psi, args.precision))
    U = rand_unitary(2, rng)
    print("random unitary U =")
    print(format_matrix(U, args.precision))
    print("controlled-U on |10> (control 0, target 1) =")
    print(format_matrix(apply_ctrl(psi, U, [0], [1], [2, 2]), args.precision))
    return 0


def _cmd_measurements(args) -> int:
    rng = default_rng(args.seed)
    psi = apply(mket([0, 0]), gt.CNOT @ kron(gt.H, gt.Id(2)), [0, 1], [2, 2])
    print("Bell state:")
    print(format_matrix(psi, args.precision))
    psi = apply(psi, gt.X, [1], [2, 2])
    print("after X on qubit 1:")
    print(format_matrix(psi, args.precision))
    print("measuring qubit 0 in the X basis (Hadamard columns)")
    result, probs, states = measure(psi, gt.H, [0], [2, 2], rng)
    print(f"result: {result}")
    print("probabilities:", format_sequence(probs, ", ", args.precision))
    for i, state in enumerate(states):
        print(f"post-measurement state {i}:")
        print(format_matrix(state, args.precision))
    return 0


def _cmd_channels(args) -> int:
    psi = st.b00
    rho = psi @ psi.conj().T
    print("rho = Bell projector:")
    print(format_matrix(rho, args.precision))
    print("eigenvalues after partially transposing qubit 0:")
    print(format_sequence(hevals(ptranspose(rho, [0], [2, 2])), ", ", args.precision))
    Ks = [st.z0 @ st.z0.conj().T, st.z1 @ st.z1.conj().T]
    for i, K in enumerate(Ks):
        print(f"Kraus operator {i}:")
        print(format_matrix(K, args.precision))
    print("superoperator matrix:")
    print(format_matrix(kraus2super(Ks), args.precision))
    print("Choi matrix:")
    print(format_matrix(kraus2choi(Ks), args.precision))
    rho_out = apply_channel(rho, Ks, [0], [2, 2])
    print("rho after the channel on qubit 0:")
    print(format_matrix(rho_out, args.precision))
    rho_a = ptrace(rho_out, [1], [2, 2])
    print("reduced state after tracing out qubit 1:")
    print(format_matrix(rho_a, args.precision))
    print("entropy:", format_sequence([entropy(rho_a)], precision=args.precision))
    return 0


def _cmd_timing(args) -> int:
    rng = default_rng(args.seed)
    c0 = shor_codeword(0)
    t = Timer()
    perm = rand_perm(9, rng)
    permuted = syspermute(c0, perm, [2] * 9)
    t.toc()
    print("permutation:", format_sequence(perm))
    print(f"elapsed: {t.elapsed_seconds():.6f} s")
    t.tic()
    inv = invperm(perm)
    restored = syspermute(permuted, inv, [2] * 9)
    t.toc()
    print("inverse permutation:", format_sequence(inv))
    print(f"elapsed: {t.elapsed_seconds():.6f} s")
    print("norm difference:", format_sequence([norm(restored - c0)], precision=args.precision))
    return 0


def _cmd_io(args) -> int:
    rng = default_rng(args.seed)
    rho = rand_rho(16, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rho.qsim"
        save(rho, path)
        loaded = load(path)
    print("saved and loaded a random 16x16 density matrix")
    print("norm difference:", format_sequence([norm(rho - loaded)], precision=args.precision))
    return 0


def _cmd_exceptions(args) -> int:
    rng = default_rng(args.seed)
    rho = rand_rho(16, rng)
    print("rho is a random density matrix on four qubits")
    print("computing the mutual information between subsystems 0 and 4")
    try:
        qmutualinfo(rho, [0], [4], [2, 2, 2, 2])
    except QuantumError as err:
        print(f"caught: {err}")
    return 0


_COMMANDS = {
    "minimal": _cmd_minimal,
    "gates-states": _cmd_gates_states,
    "measurements": _cmd_measurements,
    "channels": _cmd_channels,
    "timing": _cmd_timing,
    "io": _cmd_io,
    "exceptions": _cmd_exceptions,
}


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("precision must be non-negative")
    return value


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_u64, default=0, help="random seed (default 0)")
    common.add_argument(
        "--precision", type=_nonneg, default=4, help="digits after the decimal point (default 4)"
    )
    parser = argparse.ArgumentParser(
        prog="quditsim", description="qudit simulation demos"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - demos report and fail cleanly
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
