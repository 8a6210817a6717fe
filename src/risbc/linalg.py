"""Complex-matrix primitives shared by the spectral-efficiency formulas.

All routines operate on dense complex numpy arrays (noise-normalized channel
units), are pure functions, and broadcast over leading batch axes: a stack
of draws [..., n, n] is handled exactly as each of its matrices would be on
its own.
"""

import numpy as np


def check_finite(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return A as a complex ndarray, rejecting NaN/Inf entries (a complex
    entry is finite exactly when both of its parts are)."""
    A = np.asarray(A, dtype=complex)
    # one pass: a sum of finite entries is finite unless it overflows, and
    # only then (or on a non-finite entry) are the entries tested one by one
    with np.errstate(over="ignore", invalid="ignore"):
        total = A.sum()
    if not np.isfinite(total) and not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def out_array(out, shape, dtype=complex) -> np.ndarray:
    """The array a function with an optional caller-owned `out` writes its
    result into: `out` itself, which must be an ndarray of exactly `shape`
    and `dtype` (ValueError otherwise), or a new one when it is None."""
    shape, dtype = tuple(shape), np.dtype(dtype)
    if out is None:
        return np.empty(shape, dtype)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype:
        got = getattr(out, "dtype", type(out).__name__)
        raise ValueError(
            f"out must be a {dtype} array of shape {shape}, got {got} of shape "
            f"{np.shape(out)}"
        )
    return out


def herm(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, [..., m, n] -> [..., n, m]."""
    return np.swapaxes(A, -1, -2).conj()


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for A [..., m, n] and x [..., n]; the result is [..., m]."""
    return (A @ x[..., None])[..., 0]


def eigh_descending(A: np.ndarray):
    """Hermitian eigendecomposition with eigenvalues in decreasing order.

    Each eigenvector keeps the arbitrary phase `eigh` gives it: every
    formula that reads U (solves, diag(C_s^{-1}), |U^H x|^2) is invariant
    under U -> U diag(e^{j phi}).  Zero eigenvalues are kept (singular
    inputs still return n pairs).

    Args:
        A: [..., n, n] Hermitian matrices.

    Returns:
        (w, U): w [..., n] real eigenvalues descending, U [..., n, n]
        orthonormal columns with A = U diag(w) U^H.
    """
    A = check_finite(A, "A")
    w, U = np.linalg.eigh(A)
    return w[..., ::-1], U[..., ::-1]
