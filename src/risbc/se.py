"""Exact and high-SNR sum spectral efficiency for ZF and DPC.

The composite broadcast channel of K strong users plus one RIS-served weak
user is H = H_d + H_c theta b^H (rows h_k^H).  With the weak user's direct
row idealized to zero, the Gram matrix splits into

    H H^H = blkdiag(C_s, 0) + (D theta_bar)(D theta_bar)^H

with C_s = H_d^s P_b_perp H_d^{s,H} the strong users' projected Gram matrix,
D = [H_c, H_d b] and theta_bar = [theta; 1].  Every closed form in this
module is a pure function of that decomposition, apart from the two
independent SVD cross-checks and the generic-matrix oracles at the end; all
SE values are in bits per channel use (log2), with unit noise (channels are
noise-normalized at generation).
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .linalg import RANK_TOL, check_finite, eigh_descending

LOG2 = np.log(2.0)

# b^H P_perp b below this is treated as "b inside the strong users' row
# space" and the orthogonality-split DPC form is flagged -inf / +inf.
BPP_TOL = 1e-12


@dataclass
class ExtendedPhase:
    """RIS phase configuration theta and its extension theta_bar = [theta; 1]."""

    theta: np.ndarray  # [N_R] unit-modulus entries
    theta_bar: np.ndarray  # [N_R + 1]


def extended_phase(theta) -> ExtendedPhase:
    """Validate unit-modulus phases and append the fixed direct-link entry."""
    theta = check_finite(theta, "theta").ravel()
    if np.max(np.abs(np.abs(theta) - 1.0)) > 1e-12:
        raise ValueError("phase entries must be unit modulus")
    return ExtendedPhase(theta=theta, theta_bar=np.append(theta, 1.0))


@dataclass
class SEBreakdown:
    """Sum SE with its direct (strong users) and reflected (weak user) parts."""

    method: str  # "ZF" | "DPC"
    se_total: float
    se_direct: float
    se_reflect: float
    mode: str  # "exact" | "asymptotic"


@dataclass
class DecompositionCache:
    """Channel-independent-of-theta pieces of the Gram decomposition.

    The eigendecomposition C_s = U diag(lambda) U^H is the only
    factorization of C_s: every formula reads C_s^{-1} through `solve` and
    `inv_diag` (both require an invertible C_s; check `cond` first).
    """

    C_s: np.ndarray  # [K, K] Hermitian PSD
    D: np.ndarray  # [K+1, N_R+1], last column H_d b (weak entry 0)
    D_s: np.ndarray  # [K, N_R+1] strong-user rows of D
    eigvals: np.ndarray  # [K] eigenvalues of C_s, descending
    eigvecs: np.ndarray  # [K, K] matching orthonormal eigenvectors
    b_proj_perp: float  # b^H P_perp_{H_d^{s,H}} b in [0, 1]

    def cond(self) -> float:
        """Condition number of C_s (inf when singular)."""
        if self.eigvals[-1] <= 0:
            return np.inf
        return float(self.eigvals[0] / self.eigvals[-1])

    def solve(self, X: np.ndarray) -> np.ndarray:
        """C_s^{-1} X = U diag(1/lambda) U^H X for X of shape [K] or [K, M]."""
        Y = self.eigvecs.conj().T @ X
        scale = self.eigvals[:, None] if Y.ndim == 2 else self.eigvals
        return self.eigvecs @ (Y / scale)

    def inv_diag(self) -> np.ndarray:
        """[C_s^{-1}]_kk = sum_j |U_kj|^2 / lambda_j, real, shape [K]."""
        return np.abs(self.eigvecs) ** 2 @ (1.0 / self.eigvals)


def weak_cascaded_row(real: ChannelRealization) -> np.ndarray:
    """The weak user's cascaded channel row h_c,K+1^H."""
    return real.H_c[-1]


def decompose(real: ChannelRealization) -> DecompositionCache:
    """Build the Gram decomposition for the idealized (zero weak row) channel.

    C_s = H_d^s H_d^{s,H} - c c^H with c = H_d^s b (the rank-one projection
    of b applied without forming I - b b^H), factorized once by eigh.
    b^H P_perp b comes from the same factor through the no-reflection
    identity 1 + c^H C_s^{-1} c = 1 / (b^H P_perp b); it is 0 when C_s is
    singular (b inside the strong users' row space).
    """
    b = check_finite(real.b, "b").ravel()
    if abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError("unnormalized direction")
    H = real.H_d_strong
    K = H.shape[0]
    n_ris = real.H_c.shape[1]
    D = np.zeros((K + 1, n_ris + 1), dtype=complex)
    D[:, :n_ris] = real.H_c
    c = D[:K, n_ris] = H @ b
    C_s = H @ H.conj().T - np.outer(c, c.conj())
    C_s = 0.5 * (C_s + C_s.conj().T)
    w, U = eigh_descending(C_s)
    cache = DecompositionCache(
        C_s=C_s, D=D, D_s=D[:K], eigvals=w, eigvecs=U, b_proj_perp=0.0
    )
    if w[-1] > 0:
        cache.b_proj_perp = 1.0 / (1.0 + float(np.real(np.vdot(c, cache.solve(c)))))
    return cache


# =========================================================================
# theta-dependent scalars
# =========================================================================


def weak_gain(phase: ExtendedPhase, h_c_weak: np.ndarray) -> float:
    """|h_c,K+1^H theta|^2 (h_c_weak is the stored conjugated row)."""
    return float(np.abs(h_c_weak @ phase.theta) ** 2)


def mitigation_term(cache: DecompositionCache, phase: ExtendedPhase) -> float:
    """theta_bar^H D_s^H C_s^{-1} D_s theta_bar, the weak user's ZF penalty."""
    u = cache.D_s @ phase.theta_bar
    return float(np.real(np.vdot(u, cache.solve(u))))


# Raise threshold is looser than the Monte Carlo flag threshold (1e12), so
# sweeps flag and skip degenerate instances before any formula raises.
COND_RAISE = 1e14


def _require_invertible(cache: DecompositionCache):
    if cache.cond() > COND_RAISE:
        raise ValueError("direct channels rank-deficient after projection")


# =========================================================================
# exact SE
# =========================================================================


def zf_inverted_gains(
    cache: DecompositionCache, phase: ExtendedPhase, h_c_weak: np.ndarray
) -> np.ndarray:
    """Inverted channel gains e_k^T (H H^H)^{-1} e_k of zero-forcing.

    Strong users get the diagonal of C_s^{-1}; the weak user gets
    (1 + mitigation) / |h_c,K+1^H theta|^2.
    """
    g = weak_gain(phase, h_c_weak)
    if g <= 0.0:
        raise ValueError("weak user unreachable")
    _require_invertible(cache)
    return np.append(cache.inv_diag(), (1.0 + mitigation_term(cache, phase)) / g)


def se_zf_exact(
    cache: DecompositionCache,
    phase: ExtendedPhase,
    h_c_weak: np.ndarray,
    p_bar: float,
) -> SEBreakdown:
    """Zero-forcing sum SE with uniform per-user power p_bar."""
    gains = zf_inverted_gains(cache, phase, h_c_weak)
    per_user = np.log2(1.0 + p_bar / gains)
    return SEBreakdown(
        method="ZF",
        se_total=float(np.sum(per_user)),
        se_direct=float(np.sum(per_user[:-1])),
        se_reflect=float(per_user[-1]),
        mode="exact",
    )


def se_dpc_exact(
    cache: DecompositionCache,
    phase: ExtendedPhase,
    h_c_weak: np.ndarray,
    p_bar: float,
) -> SEBreakdown:
    """DPC sum SE via the eigen-expansion of the Gram decomposition.

    Equals log2 det(I + p_bar H H^H); the direct part collects the strong
    users' eigenmode terms, the reflected part the weak user's log term.
    """
    g = weak_gain(phase, h_c_weak)
    lam = cache.eigvals
    u = cache.D_s @ phase.theta_bar
    cross = np.abs(cache.eigvecs.conj().T @ u) ** 2
    one_plus = 1.0 + lam * p_bar
    se_direct = float(np.sum(np.log2(one_plus)))
    se_reflect = float(np.log2(1.0 + g * p_bar + p_bar * np.sum(cross / one_plus)))
    return SEBreakdown(
        method="DPC",
        se_total=se_direct + se_reflect,
        se_direct=se_direct,
        se_reflect=se_reflect,
        mode="exact",
    )


# =========================================================================
# high-SNR SE
# =========================================================================


def _svd_row_space_split(H_d_strong: np.ndarray, b: np.ndarray) -> tuple:
    """(singular values of H_d^s, b^H P_perp b) from one thin SVD of H_d^s."""
    _, s, Vh = np.linalg.svd(H_d_strong, full_matrices=False)
    proj = Vh @ np.asarray(b, dtype=complex).ravel()
    return s, 1.0 - float(np.real(np.vdot(proj, proj)))


def se_asymptotic(
    cache: DecompositionCache,
    phase: ExtendedPhase,
    h_c_weak: np.ndarray,
    p_bar: float,
    method: str,
) -> SEBreakdown:
    """High-SNR sum SE (power-offset form, additive direct/reflected split).

    ZF:  sum_k log2(p_bar / [C_s^{-1}]_kk) + log2(g p_bar / (1 + mitigation))
    DPC: log2 det(C_s p_bar) + log2(g p_bar)

    A singular C_s under DPC yields -inf in the direct part (flagged value)
    instead of raising.
    """
    g = weak_gain(phase, h_c_weak)
    if g <= 0.0:
        raise ValueError("weak user unreachable")
    if method == "ZF":
        _require_invertible(cache)
        se_direct = float(np.sum(np.log2(p_bar / cache.inv_diag())))
        se_reflect = float(np.log2(g * p_bar / (1.0 + mitigation_term(cache, phase))))
    elif method == "DPC":
        if cache.eigvals[-1] <= 0.0:
            se_direct = -np.inf
        else:
            se_direct = float(np.sum(np.log2(cache.eigvals * p_bar)))
        se_reflect = float(np.log2(g * p_bar))
    else:
        raise ValueError(f"unknown method {method!r}")
    return SEBreakdown(
        method=method,
        se_total=se_direct + se_reflect,
        se_direct=se_direct,
        se_reflect=se_reflect,
        mode="asymptotic",
    )


def se_dpc_orthogonal_form(
    real: ChannelRealization, phase: ExtendedPhase, p_bar: float
) -> float:
    """High-SNR DPC sum SE split along the BS-RIS direction b.

    log2 det(H_d^s H_d^{s,H} p_bar) + log2(b^H P_perp b) + log2(g p_bar),
    where P_perp projects onto the complement of the strong users' row
    space.  Computed by its own SVD, independently of `decompose`, so it
    can serve as a cross-check of the Gram form.  Returns -inf (flagged)
    when b lies inside that row space.
    """
    s, bpp = _svd_row_space_split(real.H_d_strong, real.b)
    if bpp <= BPP_TOL:
        return -np.inf
    g = weak_gain(phase, weak_cascaded_row(real))
    K = len(s)
    return float(
        2.0 * np.sum(np.log2(s))
        + K * np.log2(p_bar)
        + np.log2(bpp)
        + np.log2(g * p_bar)
    )


# =========================================================================
# DPC - ZF gap terms
# =========================================================================


def delta_se(
    cache: DecompositionCache, phase: ExtendedPhase, h_c_weak: np.ndarray
) -> tuple:
    """High-SNR DPC-over-ZF gap, split into direct and reflected parts.

    delta_d = log2 det(C_s) + sum_k log2([C_s^{-1}]_kk)   (>= 0)
    delta_r = log2(1 + mitigation)                        (>= 0)
    """
    _require_invertible(cache)
    delta_d = float(np.sum(np.log2(cache.eigvals)) + np.sum(np.log2(cache.inv_diag())))
    delta_r = float(np.log2(1.0 + mitigation_term(cache, phase)))
    return delta_d, delta_r


def mitigation_no_reflection(H_d_strong: np.ndarray, b: np.ndarray) -> float:
    """1 + mitigation in the no-usable-reflection case H_c^s theta = 0.

    Collapses to 1 / (b^H P_perp b), evaluated by SVD independently of
    `decompose`; returns +inf (flagged) when b lies in the strong users' row
    space.
    """
    s, bpp = _svd_row_space_split(check_finite(H_d_strong, "H_d_strong"), b)
    if s[-1] <= RANK_TOL * s[0]:
        raise ValueError("rank deficient")
    if bpp <= BPP_TOL:
        return np.inf
    return 1.0 / bpp


# =========================================================================
# generic-matrix oracles
# =========================================================================
#
# Textbook evaluations from the assembled composite channel, by direct
# inversion and log-determinant.  They bypass the Gram decomposition
# entirely: the tests check the closed forms above against them, and
# se_zf_generic also evaluates the non-idealized channel whose weak user
# keeps its attenuated direct row.


def compose_channel(
    real: ChannelRealization, phase: ExtendedPhase, idealized: bool = True
) -> np.ndarray:
    """Assemble the composite channel H = H_d + H_c theta b^H, rows h_k^H.

    With idealized=True the weak user's direct row is zero; otherwise the
    attenuated direct channel is kept.
    """
    weak_direct = np.zeros_like(real.h_d_weak) if idealized else real.h_d_weak
    H_d = np.vstack([real.H_d_strong, weak_direct[None, :]])
    return H_d + (real.H_c @ phase.theta)[:, None] * real.b.conj()[None, :]


def se_zf_generic(H: np.ndarray, p_bar: float) -> float:
    """Zero-forcing sum SE from a generic channel matrix (rows h_k^H).

    Evaluates sum_k log2(1 + p_bar / [(H H^H)^{-1}]_kk) by direct inversion;
    oracle form of the closed-form gains, and the evaluation path for the
    non-idealized channel with the weak user's attenuated direct row.
    """
    G = H @ H.conj().T
    inv_diag = np.real(np.diag(np.linalg.inv(G)))
    return float(np.sum(np.log2(1.0 + p_bar / inv_diag)))


def se_dpc_logdet(H: np.ndarray, p_bar: float) -> float:
    """DPC sum SE log2 det(I + p_bar H H^H) from a generic channel matrix."""
    G = H @ H.conj().T
    _, logdet = np.linalg.slogdet(np.eye(G.shape[0]) + p_bar * G)
    return float(logdet / LOG2)
