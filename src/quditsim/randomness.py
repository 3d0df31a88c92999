"""Seedable random states, unitaries, and permutations.

Every function takes an explicit ``numpy.random.Generator``; passing the
same seeded generator reproduces draws exactly. When ``rng`` is omitted a
per-thread default generator is used, so unseeded use is safe across
threads without shared state.
"""

from __future__ import annotations

import threading

import numpy as np

from . import _kernel
from ._checks import allocate, as_int
from .exceptions import ErrorKind, QuantumError

_tls = threading.local()


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Fresh seedable generator (PCG64, numpy's default bit generator)."""
    return np.random.default_rng(seed)


def thread_rng() -> np.random.Generator:
    """The calling thread's own lazily created generator."""
    rng = getattr(_tls, "rng", None)
    if rng is None:
        rng = np.random.default_rng()
        _tls.rng = rng
    return rng


def _as_rng(rng, op: str) -> np.random.Generator:
    """rng, or the calling thread's generator when it is None; anything but
    a ``numpy.random.Generator`` is OUT_OF_RANGE."""
    if rng is None:
        return thread_rng()
    if not isinstance(rng, np.random.Generator):
        detail = f"rng={rng!r} is not a numpy.random.Generator"
        raise QuantumError(ErrorKind.OUT_OF_RANGE, op, detail)
    return rng


def _ginibre(D: int, rng: np.random.Generator, op: str) -> np.ndarray:
    real = allocate(op, rng.standard_normal, (D, D), np.float64)
    return (real + 1j * rng.standard_normal((D, D))) / np.sqrt(2.0)


def rand_unitary(D: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-distributed D x D unitary.

    Draws a Ginibre matrix, QR-factorizes, and multiplies Q by the phases
    of R's diagonal; without that phase fix plain QR is not Haar.
    """
    D = as_int(D, "rand_unitary", "D", 1)
    rng = _as_rng(rng, "rand_unitary")
    Q, R = np.linalg.qr(_ginibre(D, rng, "rand_unitary"))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def rand_ket(D: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-uniform pure state: normalized vector of i.i.d. complex Gaussians.

    D real parts, then D imaginary parts, each of variance 1/2 as in
    :func:`_ginibre`, are written into the output and scaled in place, so
    the only array of its size is the output: from 32 MiB on, like a
    kernel output, a buffer that an earlier output of the calling thread
    released.
    """
    D = as_int(D, "rand_ket", "D", 1)
    rng = _as_rng(rng, "rand_ket")
    v = _kernel._empty((D, 1), "rand_ket")
    f = v.view(np.float64)
    f[:, 0] = rng.standard_normal(D)
    f[:, 1] = rng.standard_normal(D)
    v /= np.sqrt(2.0)
    v /= np.linalg.norm(v)
    return v


def rand_rho(D: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Random density matrix G G^dag / trace(G G^dag) for Ginibre G."""
    D = as_int(D, "rand_rho", "D", 1)
    rng = _as_rng(rng, "rand_rho")
    G = _ginibre(D, rng, "rand_rho")
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def rand_perm(n: int, rng: np.random.Generator | None = None) -> list[int]:
    """Uniformly random permutation of {0, ..., n-1} (Fisher-Yates shuffle)."""
    n = as_int(n, "rand_perm", "n", 1)
    rng = _as_rng(rng, "rand_perm")
    return [int(k) for k in rng.permutation(n)]
