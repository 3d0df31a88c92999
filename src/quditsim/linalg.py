"""Dense linear-algebra helpers with eager input validation.

All functions return the result by value and never modify their inputs.
The eigensolver is Hermitian-only and reports eigenvalues in ascending
order; that covers every use in this library (partial-transpose spectra,
entropies, Choi decompositions).
"""

from __future__ import annotations

import numpy as np

from ._checks import as_int, as_matrix, as_square, hermitian_part


def transpose(A) -> np.ndarray:
    """Matrix transpose."""
    M = as_matrix(A, "transpose")
    return M.T.copy()


def adjoint(A) -> np.ndarray:
    """Conjugate transpose."""
    M = as_matrix(A, "adjoint")
    return M.conj().T.copy()


def trace(A) -> complex:
    """Sum of diagonal entries of a square matrix."""
    return complex(np.trace(as_square(A, "trace")))


def norm(A) -> float:
    """Frobenius norm; coincides with the Euclidean norm on kets."""
    M = as_matrix(A, "norm")
    return float(np.linalg.norm(M))


def kron(A, B) -> np.ndarray:
    """Kronecker (tensor) product."""
    MA = as_matrix(A, "kron")
    MB = as_matrix(B, "kron")
    return np.kron(MA, MB)


def kron_pow(A, n: int) -> np.ndarray:
    """n-fold Kronecker power A (x) A (x) ... (n >= 1 factors)."""
    M = as_matrix(A, "kron_pow")
    n = as_int(n, "kron_pow", "n", 1)
    out = M.copy()
    for _ in range(n - 1):
        out = np.kron(out, M)
    return out


def hevals(H) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and ascending."""
    return np.linalg.eigvalsh(hermitian_part(H, "hevals"))


def hevects(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""
    evals, V = np.linalg.eigh(hermitian_part(H, "hevects"))
    return evals, V
