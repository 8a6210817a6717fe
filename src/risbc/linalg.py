"""Complex-matrix primitives shared by the spectral-efficiency formulas.

All routines operate on dense complex numpy arrays (noise-normalized channel
units) and are pure functions, safe to call concurrently.
"""

import numpy as np

# Singular values below RANK_TOL * sigma_max are treated as zero.
RANK_TOL = 1e-10


def check_finite(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return A as a complex ndarray, rejecting NaN/Inf entries."""
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def eigh_descending(A: np.ndarray):
    """Hermitian eigendecomposition with eigenvalues in decreasing order.

    The decomposition is made deterministic by rotating each eigenvector so
    that its largest-magnitude entry is real and positive.  Zero eigenvalues
    are kept (singular inputs still return n pairs).

    Args:
        A: [n, n] Hermitian matrix.

    Returns:
        (w, U): w [n] real eigenvalues descending, U [n, n] orthonormal
        columns with A = U diag(w) U^H.
    """
    A = check_finite(A, "A")
    w, U = np.linalg.eigh(A)
    w = w[::-1].copy()
    U = U[:, ::-1].copy()
    for k in range(U.shape[1]):
        piv = U[np.argmax(np.abs(U[:, k])), k]
        if np.abs(piv) > 0:
            U[:, k] *= np.abs(piv) / piv
    return w, U
