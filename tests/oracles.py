"""Independent dense-matrix oracles that the tests compare the runtime
closed forms against.

Nothing in `risbc` imports this module: each routine here builds the full
matrix that the runtime code avoids (projectors, bordered Gram inverses,
per-user covariance matrices), so that a test can check a shortcut against
the textbook formula.
"""

import numpy as np

from risbc.bounds import EULER_GAMMA
from risbc.linalg import RANK_TOL, check_finite


def orth_projector(b: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of a unit vector.

    Args:
        b: [n] unit-norm complex vector.

    Returns:
        [n, n] matrix P = I - b b^H with P @ b = 0 and P @ P = P.
    """
    b = check_finite(b, "b").ravel()
    if abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError("unnormalized direction")
    return np.eye(b.size, dtype=complex) - np.outer(b, b.conj())


def range_projector(M: np.ndarray) -> np.ndarray:
    """Projector onto the row space of M, i.e. onto range(M^H).

    Equals M^H (M M^H)^{-1} M for full-row-rank M; computed via SVD.

    Args:
        M: [k, n] complex matrix with linearly independent rows.

    Returns:
        [n, n] Hermitian idempotent projector.
    """
    M = check_finite(M, "M")
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise ValueError("rank deficient")
    return Vh.conj().T @ Vh


def gram_block_inverse(C_s: np.ndarray, d_s: np.ndarray, g: float) -> np.ndarray:
    """Closed-form inverse of the bordered Gram matrix of the composite channel.

    The (K+1)x(K+1) Gram matrix H H^H of the composite channel takes the form

        [[C_s + d_s d_s^H / g,  d_s],
         [d_s^H,                g  ]]

    where C_s is the strong users' projected Gram matrix, d_s couples the
    strong users to the weak user's reflected link, and g > 0 is the weak
    user's channel gain.  The Schur complement w.r.t. g is exactly C_s, so
    the inverse has C_s^{-1} as its top-left block and

        [H H^H]^{-1}_{K+1,K+1} = (1 + d_s^H C_s^{-1} d_s / g) / g.

    Args:
        C_s: [K, K] Hermitian positive definite.
        d_s: [K] complex coupling vector.
        g: positive scalar.

    Returns:
        [K+1, K+1] inverse of the assembled Gram matrix.
    """
    C_s = check_finite(C_s, "C_s")
    d_s = check_finite(d_s, "d_s").ravel()
    if g <= 0:
        raise ValueError("weak user unreachable")
    K = C_s.shape[0]
    Cinv_ds = np.linalg.solve(C_s, d_s)
    mit = np.real(np.vdot(d_s, Cinv_ds)) / g
    out = np.empty((K + 1, K + 1), dtype=complex)
    out[:K, :K] = np.linalg.inv(C_s)
    out[:K, K] = -Cinv_ds / g
    out[K, :K] = out[:K, K].conj()
    out[K, K] = (1.0 + mit) / g
    return out


def projected_gram(H_d_strong: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_s = H (I - b b^H) H^H with the dense N_B x N_B projector."""
    return H_d_strong @ orth_projector(b) @ H_d_strong.conj().T


def dense_reflected_rate_upper_bound(theta, h_c_weak_draws, n_bs, a, pl, p_bar):
    """The ergodic upper bound on the weak user's high-SNR ZF rate from the
    full per-user covariance matrices,

        E[ log2( |h_c,K+1^H theta|^2 p_bar
                 / (e^{-gamma} sum_k theta^H R_c,k theta / tr(R_d,k)) ) ],

    with R_d,k = L_d,k I_{N_B} and R_c,k = diag(a*) L_r,k I_{N_R} diag(a)
    L_G N_B over the K strong users.
    """
    rows = np.atleast_2d(np.asarray(h_c_weak_draws, dtype=complex))
    Th = np.atleast_2d(np.asarray(theta, dtype=complex))
    if Th.shape[0] == 1:
        Th = np.broadcast_to(Th, rows.shape)
    Da = np.diag(np.asarray(a, dtype=complex).ravel())
    n_ris = Da.shape[0]
    gain = np.abs(np.sum(rows * Th, axis=1)) ** 2
    denom = np.zeros(rows.shape[0])
    for L_d, L_r in zip(pl.L_d[:-1], pl.L_r[:-1]):
        R_d = L_d * np.eye(n_bs)
        R_c = Da.conj().T @ (L_r * np.eye(n_ris)) @ Da * pl.L_G * n_bs
        quad = np.real(np.einsum("ia,ab,ib->i", Th.conj(), R_c, Th))
        denom += quad / np.real(np.trace(R_d))
    denom *= np.exp(-EULER_GAMMA)
    return float(np.mean(np.log2(gain * p_bar / denom)))
