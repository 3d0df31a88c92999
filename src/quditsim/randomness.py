"""Seedable random states, unitaries, and permutations.

Every function takes an explicit ``numpy.random.Generator``; passing the
same seeded generator reproduces draws exactly. When ``rng`` is omitted a
per-thread default generator is used, so unseeded use is safe across
threads without shared state.
"""

from __future__ import annotations

import threading

import numpy as np

from ._checks import as_int

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


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(
        2.0
    )


def rand_unitary(D: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-distributed D x D unitary.

    Draws a Ginibre matrix, QR-factorizes, and multiplies Q by the phases
    of R's diagonal; without that phase fix plain QR is not Haar.
    """
    D = as_int(D, "rand_unitary", "D", 1)
    if rng is None:
        rng = thread_rng()
    Q, R = np.linalg.qr(_ginibre(D, D, rng))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def rand_ket(D: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-uniform pure state: normalized vector of i.i.d. complex Gaussians."""
    D = as_int(D, "rand_ket", "D", 1)
    if rng is None:
        rng = thread_rng()
    v = _ginibre(D, 1, rng)
    return v / np.linalg.norm(v)


def rand_rho(D: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Random density matrix G G^dag / trace(G G^dag) for Ginibre G."""
    D = as_int(D, "rand_rho", "D", 1)
    if rng is None:
        rng = thread_rng()
    G = _ginibre(D, D, rng)
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def rand_perm(n: int, rng: np.random.Generator | None = None) -> list[int]:
    """Uniformly random permutation of {0, ..., n-1} (Fisher-Yates shuffle)."""
    n = as_int(n, "rand_perm", "n", 1)
    if rng is None:
        rng = thread_rng()
    return [int(k) for k in rng.permutation(n)]
