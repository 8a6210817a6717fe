"""Exact and high-SNR sum spectral efficiency for ZF and DPC.

The composite broadcast channel of K strong users plus one RIS-served weak
user is H = H_d + H_c theta b^H (rows h_k^H).  With the weak user's direct
row idealized to zero, the Gram matrix splits into

    H H^H = blkdiag(C_s, 0) + (D theta_bar)(D theta_bar)^H

with C_s = H_d^s P_b_perp H_d^{s,H} the strong users' projected Gram matrix,
D = [H_c, H_d b] and theta_bar = [theta; 1].  Every closed form in this
module is a pure function of that decomposition, of which the cache keeps
the strong users' rows D_s of D and the eigendecomposition of C_s; all SE
values are in bits per channel use (log2), with unit noise (channels are
noise-normalized at generation).  The tests check these forms against
generic-matrix and SVD oracles (tests/oracles.py).

p_bar enters only at the last step: every rate is a function of the p_bar-free
terms eigvals(C_s), diag(C_s^{-1}), the weak gain g = |h_c,K+1^H theta|^2, the
mitigation term and the DPC cross terms |U^H D_s theta_bar|^2.  `zf_sum_se` and
`dpc_sum_se` are the rate formulas over those terms; `sum_se` forms the terms
of a precoder from a draw's cache and phases and calls them, and the batched
sweep calls them on the terms it keeps.  The decomposition, the terms and the
rates broadcast over leading batch axes, so one call serves one draw or a
stack of draws.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .linalg import check_finite, eigh_descending, herm, matvec


@dataclass
class ExtendedPhase:
    """RIS phase configuration theta and its extension theta_bar = [theta; 1]."""

    theta: np.ndarray  # [..., N_R] unit-modulus entries
    theta_bar: np.ndarray  # [..., N_R + 1]


def extended_phase(theta) -> ExtendedPhase:
    """Validate unit-modulus phases [..., N_R] and append the direct-link 1."""
    theta = np.atleast_1d(check_finite(theta, "theta"))
    if np.max(np.abs(np.abs(theta) - 1.0)) > 1e-12:
        raise ValueError("phase entries must be unit modulus")
    one = np.ones(theta.shape[:-1] + (1,))
    return ExtendedPhase(theta=theta, theta_bar=np.concatenate([theta, one], axis=-1))


@dataclass
class DecompositionCache:
    """Channel-independent-of-theta pieces of the Gram decomposition.

    The eigendecomposition C_s = U diag(lambda) U^H is the only
    factorization of C_s: every formula reads C_s^{-1} through `solve` and
    `inv_diag` (both require an invertible C_s; check `cond` first).  The
    cache of a stack of draws carries their leading batch axes on every
    field; indexing it (`cache[i]`, `cache[mask]`) selects draws.
    """

    D_s: np.ndarray  # [..., K, N_R+1] strong-user rows [H_c^s, H_d^s b] of D
    eigvals: np.ndarray  # [..., K] eigenvalues of C_s, descending
    eigvecs: np.ndarray  # [..., K, K] matching orthonormal eigenvectors

    def __getitem__(self, index) -> "DecompositionCache":
        return DecompositionCache(
            D_s=self.D_s[index],
            eigvals=self.eigvals[index],
            eigvecs=self.eigvecs[index],
        )

    def cond(self) -> float:
        """Condition number of C_s (inf when singular), per draw."""
        low = self.eigvals[..., -1]
        out = np.full(low.shape, np.inf)
        return np.divide(self.eigvals[..., 0], low, out=out, where=low > 0)[()]

    def solve(self, X: np.ndarray) -> np.ndarray:
        """C_s^{-1} X = U diag(1/lambda) U^H X.

        X is [..., K] (one vector per draw) or [..., K, M] (M columns).
        """
        vector = X.ndim == self.eigvals.ndim
        Y = herm(self.eigvecs) @ (X[..., None] if vector else X)
        Z = self.eigvecs @ (Y / self.eigvals[..., None])
        return Z[..., 0] if vector else Z

    def inv_diag(self) -> np.ndarray:
        """[C_s^{-1}]_kk = sum_j |U_kj|^2 / lambda_j, real, shape [..., K]."""
        return matvec(np.abs(self.eigvecs) ** 2, 1.0 / self.eigvals)


def weak_cascaded_row(real: ChannelRealization) -> np.ndarray:
    """The weak user's cascaded channel row h_c,K+1^H, [..., N_R]."""
    return real.H_c[..., -1, :]


def decompose(real: ChannelRealization) -> DecompositionCache:
    """Build the Gram decomposition for the idealized (zero weak row) channel.

    C_s = H_d^s H_d^{s,H} - c c^H with c = H_d^s b (the rank-one projection
    of b applied without forming I - b b^H), factorized once by eigh.

    A stack of draws (channel arrays with leading batch axes, b shared
    [N_B] or per draw [..., N_B]) is decomposed in one pass, with one
    stacked eigh.
    """
    b = check_finite(real.b, "b")
    if np.any(np.abs(np.linalg.norm(b, axis=-1) - 1.0) > 1e-12):
        raise ValueError("unnormalized direction")
    H = check_finite(real.H_d_strong, "H_d_strong")
    H_c = check_finite(real.H_c, "H_c")
    K = H.shape[-2]
    n_ris = H_c.shape[-1]
    c = matvec(H, b)
    D_s = np.empty(c.shape + (n_ris + 1,), dtype=complex)
    D_s[..., :n_ris] = H_c[..., :K, :]
    D_s[..., n_ris] = c
    C_s = H @ herm(H) - c[..., :, None] * c.conj()[..., None, :]
    C_s = 0.5 * (C_s + herm(C_s))
    w, U = eigh_descending(C_s)
    return DecompositionCache(D_s=D_s, eigvals=w, eigvecs=U)


# =========================================================================
# theta-dependent scalars
# =========================================================================


def weak_gain(phase: ExtendedPhase, h_c_weak: np.ndarray) -> float:
    """|h_c,K+1^H theta|^2 per draw (h_c_weak is the stored conjugated row)."""
    return np.abs(matvec(h_c_weak[..., None, :], phase.theta)[..., 0]) ** 2


def dpc_cross_terms(cache: DecompositionCache, phase: ExtendedPhase) -> np.ndarray:
    """|U^H D_s theta_bar|^2, [..., K]: the weak user's weight per eigenmode."""
    u = matvec(cache.D_s, phase.theta_bar)
    return np.abs(matvec(herm(cache.eigvecs), u)) ** 2


def mitigation_term(cache: DecompositionCache, phase: ExtendedPhase) -> float:
    """theta_bar^H D_s^H C_s^{-1} D_s theta_bar, the weak user's ZF penalty.

    Formed as sum_k cross_k / lambda_k from the `dpc_cross_terms`, so it
    needs no solve of its own.
    """
    return np.sum(dpc_cross_terms(cache, phase) / cache.eigvals, axis=-1)


# Raise threshold is looser than the Monte Carlo flag threshold (1e12), so
# sweeps flag and skip degenerate instances before any formula raises.
COND_RAISE = 1e14


def _require_invertible(cache: DecompositionCache):
    if np.any(cache.cond() > COND_RAISE):
        raise ValueError("direct channels rank-deficient after projection")


def _require_reachable(g):
    if np.any(g <= 0.0):
        raise ValueError("weak user unreachable")


# =========================================================================
# sum SE from the p_bar-free terms
# =========================================================================


def _zf_gains(inv_diag, g, mit):
    """[..., K+1] ZF inverted gains: diag(C_s^{-1}), then (1 + mit) / g."""
    _require_reachable(g)
    return np.concatenate([inv_diag, np.asarray((1.0 + mit) / g)[..., None]], axis=-1)


def zf_sum_se(inv_diag, g, mit, p_bar: float, mode: str) -> tuple:
    """ZF sum SE (total, direct, reflected) from its p_bar-free terms.

    exact:      sum_k log2(1 + p_bar / e_k), e = [diag(C_s^{-1}), (1 + mit) / g]
    asymptotic: sum_k log2(p_bar / [C_s^{-1}]_kk) + log2(g p_bar / (1 + mit))

    inv_diag [..., K], weak gain g [...] and mitigation term mit [...] share
    their leading batch axes; so do the three results (numpy scalars for
    one draw).
    """
    if mode == "exact":
        per_user = np.log2(1.0 + p_bar / _zf_gains(inv_diag, g, mit))
        return (
            np.sum(per_user, axis=-1),
            np.sum(per_user[..., :-1], axis=-1),
            per_user[..., -1][()],
        )
    if mode != "asymptotic":
        raise ValueError(f"unknown mode {mode!r}")
    _require_reachable(g)
    direct = np.sum(np.log2(p_bar / inv_diag), axis=-1)
    reflect = np.log2(g * p_bar / (1.0 + mit))
    return direct + reflect, direct, reflect


def dpc_sum_se(eigvals, g, cross, p_bar: float, mode: str) -> tuple:
    """DPC sum SE (total, direct, reflected) from its p_bar-free terms.

    exact:      sum_k log2(1 + lambda_k p_bar)
                + log2(1 + g p_bar + p_bar sum_k cross_k / (1 + lambda_k p_bar))
                (= log2 det(I + p_bar H H^H))
    asymptotic: log2 det(C_s p_bar) + log2(g p_bar), with -inf in the direct
                part where C_s is singular (a flagged value, not an error)

    eigvals [..., K], weak gain g [...] and the cross terms [..., K] (unused
    by the asymptotic form) share their leading batch axes; so do the three
    results (numpy scalars for one draw).
    """
    if mode == "exact":
        one_plus = 1.0 + eigvals * p_bar
        direct = np.sum(np.log2(one_plus), axis=-1)
        reflect = np.log2(1.0 + g * p_bar + p_bar * np.sum(cross / one_plus, axis=-1))
        return direct + reflect, direct, reflect
    if mode != "asymptotic":
        raise ValueError(f"unknown mode {mode!r}")
    _require_reachable(g)
    regular = eigvals[..., -1] > 0.0
    safe = np.where(regular[..., None], eigvals, 1.0)
    direct = np.where(regular, np.sum(np.log2(safe * p_bar), axis=-1), -np.inf)[()]
    reflect = np.log2(g * p_bar)
    return direct + reflect, direct, reflect


# =========================================================================
# sum SE of a draw or a stack of draws
# =========================================================================


def zf_inverted_gains(
    cache: DecompositionCache, phase: ExtendedPhase, h_c_weak: np.ndarray
) -> np.ndarray:
    """Inverted channel gains e_k^T (H H^H)^{-1} e_k of zero-forcing.

    Strong users get the diagonal of C_s^{-1}; the weak user gets
    (1 + mitigation) / |h_c,K+1^H theta|^2.
    """
    g = weak_gain(phase, h_c_weak)
    _require_invertible(cache)
    return _zf_gains(cache.inv_diag(), g, mitigation_term(cache, phase))


def sum_se(cache, phase, h_c_weak, p_bar: float, precoder: str, mode: str) -> tuple:
    """Sum SE (total, direct, reflected) of precoder "ZF" or "DPC" in mode
    "exact" or "asymptotic", with uniform per-user power p_bar.

    The direct part is the strong users' rate, the reflected part the weak
    user's.  ZF needs an invertible C_s; an asymptotic DPC rate on a
    singular C_s is -inf in its direct part (a flagged value) instead.  A
    cache, phase and h_c_weak with leading batch axes give one rate per draw.
    """
    g = weak_gain(phase, h_c_weak)
    if precoder == "ZF":
        _require_invertible(cache)
        mit = mitigation_term(cache, phase)
        return zf_sum_se(cache.inv_diag(), g, mit, p_bar, mode)
    if precoder == "DPC":
        return dpc_sum_se(cache.eigvals, g, dpc_cross_terms(cache, phase), p_bar, mode)
    raise ValueError(f"unknown precoder {precoder!r}")


# =========================================================================
# DPC - ZF gap terms
# =========================================================================


def delta_se(cache: DecompositionCache, phase: ExtendedPhase) -> tuple:
    """High-SNR DPC-over-ZF gap, split into direct and reflected parts.

    delta_d = log2 det(C_s) + sum_k log2([C_s^{-1}]_kk)   (>= 0)
    delta_r = log2(1 + mitigation)                        (>= 0)
    """
    _require_invertible(cache)
    delta_d = float(np.sum(np.log2(cache.eigvals)) + np.sum(np.log2(cache.inv_diag())))
    delta_r = float(np.log2(1.0 + mitigation_term(cache, phase)))
    return delta_d, delta_r
