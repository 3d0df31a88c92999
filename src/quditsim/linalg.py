"""Dense linear-algebra helpers with eager input validation.

All functions return the result by value and never modify their inputs.
The eigensolver is Hermitian-only and reports eigenvalues in ascending
order; that covers every use in this library (partial-transpose spectra,
entropies, Choi decompositions).
"""

from __future__ import annotations

import numpy as np

from ._checks import as_matrix, check_square, hermitian_part
from .exceptions import ErrorKind, QuantumError


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
    M = as_matrix(A, "trace")
    check_square(M, "trace")
    return complex(np.trace(M))


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
    n = int(n)
    if n < 1:
        raise QuantumError(ErrorKind.OUT_OF_RANGE, "kron_pow", f"n={n}")
    out = M.copy()
    for _ in range(n - 1):
        out = np.kron(out, M)
    return out


def _hermitian_input(A, op: str) -> np.ndarray:
    M = as_matrix(A, op)
    check_square(M, op)
    # symmetrize to stabilize roundoff before the decomposition
    return hermitian_part(M, op)


def hevals(H) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and ascending."""
    return np.linalg.eigvalsh(_hermitian_input(H, "hevals"))


def hevects(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""
    evals, V = np.linalg.eigh(_hermitian_input(H, "hevects"))
    return evals, V
