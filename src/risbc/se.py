"""Exact and high-SNR sum spectral efficiency for ZF and DPC.

The composite broadcast channel of K strong users plus one RIS-served weak
user is H = H_d + H_c theta b^H (rows h_k^H).  With the weak user's direct
row idealized to zero, the Gram matrix splits into

    H H^H = blkdiag(C_s, 0) + (D theta_bar)(D theta_bar)^H

with C_s = H_d^s P_b_perp H_d^{s,H} the strong users' projected Gram matrix,
D = [H_c, H_d b] and theta_bar = [theta; 1].  Every closed form in this
module is a pure function of that decomposition and of theta.  The cache
is the whole draw: the strong users' rows D_s of D, the weak user's row
h_c,K+1^H (D's last row is [h_c,K+1^H, 0]) and the eigendecomposition of
C_s, so every theta-dependent function takes (cache, theta).  All SE values
are in bits per channel use (log2), with unit noise (channels are
noise-normalized at generation).  The tests check these forms against
generic-matrix and SVD oracles (tests/oracles.py).

The BS-RIS direction b enters only through its feed c = H_d^s b, the last
column of D_s (`decompose_feed`); at orthogonality xi the feed is
c(0) / sqrt(1 + xi^2), with c(0) from `row_space_feed`.

p_bar enters only at the last step: every rate is a function of the p_bar-free
terms eigvals(C_s), diag(C_s^{-1}), the weak gain g = |h_c,K+1^H theta|^2, the
mitigation term and the DPC cross terms |U^H D_s theta_bar|^2.  `zf_sum_se` and
`dpc_sum_se` are the rate formulas over those terms; `sum_se` forms the terms
of a precoder from a draw's cache and phases and calls them, and the batched
sweep calls them on the terms it keeps.  The decomposition, the phases, the
terms and the rates broadcast over leading batch axes, so one call serves
one draw or a stack of draws.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .linalg import check_finite, eigh_descending, herm, matvec


@dataclass
class DecompositionCache:
    """A draw's Gram decomposition: everything its rates need but theta.

    The eigendecomposition C_s = U diag(lambda) U^H is the only
    factorization of C_s: every formula reads C_s^{-1} through `solve` and
    `inv_diag` (both require an invertible C_s; check `cond` first).  The
    weak user's row of D is [h_c,K+1^H, 0], so h_c_weak completes D.  The
    cache of a stack of draws carries their leading batch axes on every
    field; indexing it (`cache[i]`, `cache[mask]`) selects draws.
    """

    D_s: np.ndarray  # [..., K, N_R+1] strong-user rows [H_c^s, H_d^s b] of D
    eigvals: np.ndarray  # [..., K] eigenvalues of C_s, descending
    eigvecs: np.ndarray  # [..., K, K] matching orthonormal eigenvectors
    h_c_weak: np.ndarray  # [..., N_R] weak user's cascaded row h_c,K+1^H

    def __getitem__(self, index) -> "DecompositionCache":
        return DecompositionCache(
            D_s=self.D_s[index],
            eigvals=self.eigvals[index],
            eigvecs=self.eigvecs[index],
            h_c_weak=self.h_c_weak[index],
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


def row_space_feed(H_d_strong: np.ndarray) -> np.ndarray:
    """The feed c(0) = H_d^s u / ||u|| of u = V_s 1, [..., K].

    V_s holds the first K right singular vectors of H_d^s [..., K, N_B]
    (full SVD, whose phases fix u).  The direction at orthogonality xi adds
    xi v_perp / ||v_perp||, with v_perp in the null space of H_d^s, and is
    normalized, so its feed H_d^s b(xi) is c(0) / sqrt(1 + xi^2).
    """
    K = H_d_strong.shape[-2]
    _, _, Vh = np.linalg.svd(H_d_strong, full_matrices=True)
    u = herm(Vh)[..., :K] @ np.ones(K)
    return matvec(H_d_strong, u / np.linalg.norm(u, axis=-1)[..., None])


def decompose_feed(H_d_strong, H_c, c) -> DecompositionCache:
    """Gram decomposition of the strong rows H_d^s [..., K, N_B] and
    cascaded rows H_c [..., K+1, N_R] for the BS-RIS feed c = H_d^s b [..., K].

    C_s = H_d^s H_d^{s,H} - c c^H (b's rank-one projection, without forming
    I - b b^H), factorized by one stacked eigh; D_s = [H_c^s, c].  The weak
    row is copied, so the cache does not keep the H_c stack alive.
    """
    H = check_finite(H_d_strong, "H_d_strong")
    H_c = check_finite(H_c, "H_c")
    K = H.shape[-2]
    n_ris = H_c.shape[-1]
    D_s = np.empty(c.shape + (n_ris + 1,), dtype=complex)
    D_s[..., :n_ris] = H_c[..., :K, :]
    D_s[..., n_ris] = c
    C_s = H @ herm(H) - c[..., :, None] * c.conj()[..., None, :]
    C_s = 0.5 * (C_s + herm(C_s))
    w, U = eigh_descending(C_s)
    return DecompositionCache(
        D_s=D_s, eigvals=w, eigvecs=U, h_c_weak=H_c[..., K, :].copy()
    )


def decompose(real: ChannelRealization) -> DecompositionCache:
    """Build the Gram decomposition for the idealized (zero weak row) channel
    of a draw or a stack of draws (b shared [N_B] or per draw [..., N_B]):
    `decompose_feed` of its feed c = H_d^s b."""
    b = check_finite(real.b, "b")
    if np.any(np.abs(np.linalg.norm(b, axis=-1) - 1.0) > 1e-12):
        raise ValueError("unnormalized direction")
    return decompose_feed(real.H_d_strong, real.H_c, matvec(real.H_d_strong, b))


# =========================================================================
# theta-dependent scalars
# =========================================================================


def _theta_bar(theta) -> np.ndarray:
    """theta_bar = [theta; 1] of phases theta [..., N_R], which must be finite
    and unit modulus (ValueError otherwise)."""
    theta = np.atleast_1d(check_finite(theta, "theta"))
    if np.max(np.abs(np.abs(theta) - 1.0)) > 1e-12:
        raise ValueError("phase entries must be unit modulus")
    one = np.ones(theta.shape[:-1] + (1,))
    return np.concatenate([theta, one], axis=-1)


def weak_gain(cache: DecompositionCache, theta) -> np.ndarray:
    """|h_c,K+1^H theta|^2 per draw (cache.h_c_weak is the conjugated row)."""
    theta = _theta_bar(theta)[..., :-1]
    return np.abs(matvec(cache.h_c_weak[..., None, :], theta)[..., 0]) ** 2


def dpc_cross_terms(cache: DecompositionCache, theta) -> np.ndarray:
    """|U^H D_s theta_bar|^2, [..., K]: the weak user's weight per eigenmode."""
    u = matvec(cache.D_s, _theta_bar(theta))
    return np.abs(matvec(herm(cache.eigvecs), u)) ** 2


def mitigation_term(cache: DecompositionCache, theta) -> np.ndarray:
    """theta_bar^H D_s^H C_s^{-1} D_s theta_bar, the weak user's ZF penalty.

    Formed as sum_k cross_k / lambda_k from the `dpc_cross_terms`, so it
    needs no solve of its own.
    """
    return np.sum(dpc_cross_terms(cache, theta) / cache.eigvals, axis=-1)


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


def zf_inverted_gains(cache: DecompositionCache, theta) -> np.ndarray:
    """Inverted channel gains e_k^T (H H^H)^{-1} e_k of zero-forcing.

    Strong users get the diagonal of C_s^{-1}; the weak user gets
    (1 + mitigation) / |h_c,K+1^H theta|^2.
    """
    g = weak_gain(cache, theta)
    _require_invertible(cache)
    return _zf_gains(cache.inv_diag(), g, mitigation_term(cache, theta))


def sum_se(cache, theta, p_bar: float, precoder: str, mode: str) -> tuple:
    """Sum SE (total, direct, reflected) of precoder "ZF" or "DPC" in mode
    "exact" or "asymptotic", with uniform per-user power p_bar.

    The direct part is the strong users' rate, the reflected part the weak
    user's.  ZF needs an invertible C_s; an asymptotic DPC rate on a
    singular C_s is -inf in its direct part (a flagged value) instead.  A
    cache and phases with leading batch axes give one rate per draw.
    """
    g = weak_gain(cache, theta)
    if precoder == "ZF":
        _require_invertible(cache)
        mit = mitigation_term(cache, theta)
        return zf_sum_se(cache.inv_diag(), g, mit, p_bar, mode)
    if precoder == "DPC":
        return dpc_sum_se(cache.eigvals, g, dpc_cross_terms(cache, theta), p_bar, mode)
    raise ValueError(f"unknown precoder {precoder!r}")


# =========================================================================
# DPC - ZF gap terms
# =========================================================================


def delta_se(cache: DecompositionCache, theta) -> tuple:
    """High-SNR DPC-over-ZF gap, split into direct and reflected parts.

    delta_d = log2 det(C_s) + sum_k log2([C_s^{-1}]_kk)   (>= 0)
    delta_r = log2(1 + mitigation)                        (>= 0)
    A stack of draws gives one pair per draw.
    """
    _require_invertible(cache)
    delta_d = np.sum(np.log2(cache.eigvals) + np.log2(cache.inv_diag()), axis=-1)
    delta_r = np.log2(1.0 + mitigation_term(cache, theta))
    return delta_d, delta_r
