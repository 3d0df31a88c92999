"""Dense linear-algebra helpers with eager input validation.

All functions return the result by value and never modify their inputs.
The eigensolver is Hermitian-only and reports eigenvalues in ascending
order; that covers every use in this library (partial-transpose spectra,
entropies, Choi decompositions).
"""

from __future__ import annotations

import numpy as np

from ._checks import allocate, as_int, as_matrix, as_square, hermitian_part


def transpose(A) -> np.ndarray:
    """Matrix transpose."""
    M = as_matrix(A, "transpose")
    return M.T.copy()


def adjoint(A) -> np.ndarray:
    """Conjugate transpose."""
    M = as_matrix(A, "adjoint")
    return np.conjugate(M.T, order="C")


def trace(A) -> complex:
    """Sum of diagonal entries of a square matrix."""
    return complex(np.trace(as_square(A, "trace")))


def norm(A) -> float:
    """Frobenius norm; coincides with the Euclidean norm on kets."""
    M = as_matrix(A, "norm")
    return float(np.linalg.norm(M))


def _kron_into(out: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron(A, B), entry for entry, written into ``out`` of its shape."""
    (ra, ca), (rb, cb) = A.shape, B.shape
    np.multiply(A[:, None, :, None], B[None, :, None, :], out=out.reshape(ra, rb, ca, cb))
    return out


def kron(A, B) -> np.ndarray:
    """Kronecker (tensor) product."""
    MA = as_matrix(A, "kron")
    MB = as_matrix(B, "kron")
    shape = (MA.shape[0] * MB.shape[0], MA.shape[1] * MB.shape[1])
    return _kron_into(allocate("kron", np.empty, shape), MA, MB)


def kron_pow(A, n: int) -> np.ndarray:
    """n-fold Kronecker power A (x) A (x) ... (n >= 1 factors).

    The result is allocated first, so a power too large to hold fails
    before any intermediate power is built.
    """
    M = as_matrix(A, "kron_pow")
    n = as_int(n, "kron_pow", "n", 1)
    out = allocate("kron_pow", np.empty, (M.shape[0] ** n, M.shape[1] ** n))
    if n == 1:
        out[...] = M
        return out
    P = M
    for _ in range(n - 2):
        P = np.kron(P, M)
    return _kron_into(out, P, M)


def hevals(H) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and ascending."""
    return np.linalg.eigvalsh(hermitian_part(H, "hevals"))


def hevects(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""
    evals, V = np.linalg.eigh(hermitian_part(H, "hevects"))
    return evals, V
