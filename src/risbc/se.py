"""Exact and high-SNR sum spectral efficiency for ZF and DPC.

The composite broadcast channel of K strong users plus one RIS-served weak
user is H = H_d + H_c theta b^H (rows h_k^H).  With the weak user's direct
row idealized to zero, the Gram matrix splits into

    H H^H = blkdiag(C_s, 0) + (D theta_bar)(D theta_bar)^H

with C_s = H_d^s P_b_perp H_d^{s,H} the strong users' projected Gram matrix,
D = [H_c, (c; 0)] with the feed c = H_d^s b, and theta_bar = [theta; 1].
Every closed form in this module is a pure function of that decomposition
and of theta.  The cache is the whole draw: the cascaded rows H_c (the weak
user's row h_c,K+1^H last), the feed c and the eigendecomposition of C_s,
so every theta-dependent function takes (cache, theta).  All SE values are
in bits per channel use (log2), with unit noise (channels are
noise-normalized at generation).  The tests check these forms against
generic-matrix and SVD oracles (tests/oracles.py).

The BS-RIS direction b enters only through its feed c (`decompose_feed`);
at orthogonality xi the feed is c(0) / sqrt(1 + xi^2), with c(0) from
`row_space_feed`.  A draw's cache at another N_R keeps its factor of C_s and
its feed (`DecompositionCache.with_cascade`).

p_bar enters only at the last step.  Every rate is a function of a draw's
`RateTerms`, which do not depend on it: eigvals(C_s), diag(C_s^{-1}), the
weak gain g = |h_c,K+1^H theta|^2 and the DPC cross terms
cross = |U^H (H_c^s theta + c)|^2, whose sum_k cross_k / lambda_k is the
mitigation term that only linear precoding pays.  `rate_terms(cache, theta)`
forms them once per draw and phases; `rates(terms, p_bar, precoder, mode)`
holds the four rate formulas and `delta_se(terms)` the DPC-over-ZF gap, so
every rate quantity of a draw reads one record.  The batched sweep keeps
each strategy's terms and calls `rates` once per method on the vector of
its powers.  The decomposition, the phases, the terms and the rates
broadcast over leading batch axes, so one call serves one draw or a stack
of draws.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization
from .linalg import check_finite, eigh_descending, herm, matvec


@dataclass
class DecompositionCache:
    """A draw's Gram decomposition: everything its rates need but theta.

    The eigendecomposition C_s = U diag(lambda) U^H is the only
    factorization of C_s: every formula reads C_s^{-1} through U and lambda
    (an invertible C_s is required; check `cond` first).  H_c and c are
    the draw's own arrays, not copies; D_s and h_c_weak are derived from
    them.  The cache of a stack of draws carries their leading batch axes
    on every field; indexing it (`cache[i]`, `cache[mask]`) selects draws.
    """

    H_c: np.ndarray  # [..., K+1, N_R] cascaded rows, the weak row h_c,K+1^H last
    c: np.ndarray  # [..., K] feed H_d^s b
    eigvals: np.ndarray  # [..., K] eigenvalues of C_s, descending
    eigvecs: np.ndarray  # [..., K, K] matching orthonormal eigenvectors

    def __getitem__(self, index) -> "DecompositionCache":
        return DecompositionCache(
            H_c=self.H_c[index],
            c=self.c[index],
            eigvals=self.eigvals[index],
            eigvecs=self.eigvecs[index],
        )

    @property
    def D_s(self) -> np.ndarray:
        """[..., K, N_R+1] the strong rows [H_c^s, c] of D, built per call."""
        return np.concatenate([self.H_c[..., :-1, :], self.c[..., None]], axis=-1)

    @property
    def h_c_weak(self) -> np.ndarray:
        """[..., N_R] the weak user's row h_c,K+1^H of H_c, a view."""
        return self.H_c[..., -1, :]

    def cond(self) -> float:
        """Condition number of C_s (inf when singular), per draw."""
        return _cond(self.eigvals)

    def with_cascade(self, H_c) -> "DecompositionCache":
        """The same draws with cascaded rows H_c [..., K+1, N_R]: C_s and the
        feed c do not depend on the RIS, so nothing else changes."""
        return replace(self, H_c=check_finite(H_c, "H_c"))


def _cond(eigvals):
    """Condition number of C_s from its descending eigenvalues [..., K]."""
    low = eigvals[..., -1]
    out = np.full(low.shape, np.inf)
    return np.divide(eigvals[..., 0], low, out=out, where=low > 0)[()]


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
    I - b b^H), factorized by one stacked eigh.  The cache holds H_c and c
    themselves, not copies.
    """
    H = check_finite(H_d_strong, "H_d_strong")
    C_s = H @ herm(H) - c[..., :, None] * c.conj()[..., None, :]
    C_s = 0.5 * (C_s + herm(C_s))
    return DecompositionCache(check_finite(H_c, "H_c"), c, *eigh_descending(C_s))


def decompose(real: ChannelRealization) -> DecompositionCache:
    """Build the Gram decomposition for the idealized (zero weak row) channel
    of a draw or a stack of draws (b shared [N_B] or per draw [..., N_B]):
    `decompose_feed` of its feed c = H_d^s b."""
    b = check_finite(real.b, "b")
    if np.any(np.abs(np.linalg.norm(b, axis=-1) - 1.0) > 1e-12):
        raise ValueError("unnormalized direction")
    return decompose_feed(real.H_d_strong, real.H_c, matvec(real.H_d_strong, b))


# =========================================================================
# the p_bar-free rate terms of a draw
# =========================================================================


def unit_phases(theta) -> np.ndarray:
    """Phases theta [..., N_R] as a complex array, which must be finite and
    unit modulus (ValueError otherwise)."""
    theta = np.atleast_1d(check_finite(theta, "theta"))
    if np.max(np.abs(np.abs(theta) - 1.0)) > 1e-12:
        raise ValueError("phase entries must be unit modulus")
    return theta


def extended_phases(theta) -> np.ndarray:
    """theta_bar = [theta; 1] of phases theta [..., N_R] (`unit_phases`)."""
    theta = unit_phases(theta)
    return np.concatenate([theta, np.ones(theta.shape[:-1] + (1,))], axis=-1)


class RateTerms(NamedTuple):
    """The p_bar-free terms of a draw's rates at its phases; a stack of draws
    carries its leading batch axes on every field."""

    eigvals: np.ndarray  # [..., K] eigenvalues lambda of C_s, descending
    inv_diag: np.ndarray  # [..., K] [C_s^{-1}]_kk = sum_j |U_kj|^2 / lambda_j
    g: np.ndarray  # [...] weak gain |h_c,K+1^H theta|^2
    cross: np.ndarray  # [..., K] DPC cross terms |U^H (H_c^s theta + c)|^2

    def mitigation(self) -> np.ndarray:
        """theta_bar^H D_s^H C_s^{-1} D_s theta_bar, the weak user's ZF
        penalty, as sum_k cross_k / lambda_k (no solve of its own)."""
        return np.sum(self.cross / self.eigvals, axis=-1)


def check_phase_shape(cache: DecompositionCache, theta):
    """ValueError unless phases theta have the shape of the cache's draws:
    its batch shape, then N_R."""
    want, got = cache.h_c_weak.shape, np.shape(theta)
    if got != want:
        raise ValueError(
            f"theta has shape {got}, but the cache needs {want} "
            f"(its batch shape, then N_R = {want[-1]})"
        )


def rate_terms(cache: DecompositionCache, theta) -> RateTerms:
    """The RateTerms of a draw's cache at phases theta, from one check of
    theta and one product y = H_c theta: g = |y_K|^2 (H_c's rows are the
    conjugated rows h^H) and cross = |U^H (y_{:K} + c)|^2."""
    check_phase_shape(cache, theta)
    y = matvec(cache.H_c, unit_phases(theta))
    g = np.abs(y[..., -1]) ** 2
    cross = np.abs(matvec(herm(cache.eigvecs), y[..., :-1] + cache.c)) ** 2
    # only ZF and delta_se read inv_diag, after their invertibility check,
    # so a singular C_s (whose asymptotic DPC rate is a flagged -inf) must
    # not warn here
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_diag = matvec(np.abs(cache.eigvecs) ** 2, 1.0 / cache.eigvals)
    return RateTerms(cache.eigvals, inv_diag, g, cross)


# Raise threshold is looser than the Monte Carlo flag threshold (1e12), so
# sweeps flag and skip degenerate instances before any formula raises.
COND_RAISE = 1e14


def require_invertible(eigvals):
    """ValueError unless every C_s, of descending eigenvalues [..., K], has a
    condition number of at most COND_RAISE."""
    if np.any(_cond(eigvals) > COND_RAISE):
        raise ValueError("direct channels rank-deficient after projection")


def _require_reachable(g):
    if np.any(g <= 0.0):
        raise ValueError("weak user unreachable")


def _zf_gains(terms: RateTerms) -> np.ndarray:
    """[..., K+1] ZF inverted gains: diag(C_s^{-1}), then (1 + mit) / g."""
    _require_reachable(terms.g)
    weak = np.asarray((1.0 + terms.mitigation()) / terms.g)
    return np.concatenate([terms.inv_diag, weak[..., None]], axis=-1)


# =========================================================================
# sum SE of a draw or a stack of draws
# =========================================================================


def _sum_log2(x):
    """sum(log2(x), axis=-1), with log2 taken in place: x must be an array
    nothing else refers to, which is freed on return."""
    return np.sum(np.log2(x, out=x), axis=-1)


def rates(terms: RateTerms, p_bar, precoder: str, mode: str) -> tuple:
    """Sum SE (total, direct, reflected) of precoder "ZF" or "DPC" in mode
    "exact" or "asymptotic" from a draw's terms, with uniform per-user
    power p_bar (mit = terms.mitigation()):

    ZF exact:       sum_k log2(1 + p_bar / e_k), e = [diag(C_s^{-1}), (1 + mit) / g]
    ZF asymptotic:  sum_k log2(p_bar / [C_s^{-1}]_kk) + log2(g p_bar / (1 + mit))
    DPC exact:      sum_k log2(1 + lambda_k p_bar)
                    + log2(1 + g p_bar + p_bar sum_k cross_k / (1 + lambda_k p_bar))
                    (= log2 det(I + p_bar H H^H))
    DPC asymptotic: log2 det(C_s p_bar) + log2(g p_bar)

    The direct part is the strong users' rate, the reflected part the weak
    user's.  ZF needs an invertible C_s; an asymptotic DPC rate on a
    singular C_s is -inf in its direct part (a flagged value) instead.
    Terms with leading batch axes give one rate per draw (numpy scalars for
    one draw).  p_bar is a non-negative float or a 1-D array of them [P],
    which becomes the leading axis of each rate: rates[j] equals, bit for
    bit, the rates at the float p_bar[j] (ValueError for any other p_bar).
    The per-user arrays [P, ..., K] are formed in place, one at a time.
    """
    if precoder not in ("ZF", "DPC"):
        raise ValueError(f"unknown precoder {precoder!r}")
    if mode not in ("exact", "asymptotic"):
        raise ValueError(f"unknown mode {mode!r}")
    p = np.asarray(p_bar, dtype=float)
    if p.ndim > 1:
        raise ValueError(f"p_bar must be a float or 1-D, got shape {p.shape}")
    bad = p[~(p >= 0.0)]
    if bad.size:
        raise ValueError(f"p_bar must be non-negative, got {bad[0]}")
    eigvals, inv_diag, g, cross = terms
    # the powers on their own axis: p against [..., K] arrays, p_1 against [...]
    p = p.reshape(p.shape + (1,) * eigvals.ndim)
    p_1 = p[..., 0]
    if precoder == "ZF":
        require_invertible(eigvals)
        if mode == "exact":
            per_user = p / _zf_gains(terms)
            per_user += 1.0
            np.log2(per_user, out=per_user)
            return (
                np.sum(per_user, axis=-1),
                np.sum(per_user[..., :-1], axis=-1),
                per_user[..., -1].copy()[()],
            )
        _require_reachable(g)
        direct = _sum_log2(p / inv_diag)
        reflect = np.log2(g * p_1 / (1.0 + terms.mitigation()))
    elif mode == "exact":
        one_plus = eigvals * p
        one_plus += 1.0
        direct = np.sum(np.log2(one_plus), axis=-1)
        weighted = np.sum(np.divide(cross, one_plus, out=one_plus), axis=-1)
        del one_plus
        reflect = np.log2(1.0 + g * p_1 + p_1 * weighted)
    else:
        _require_reachable(g)
        regular = eigvals[..., -1] > 0.0
        safe = np.where(regular[..., None], eigvals, 1.0)
        direct = np.where(regular, _sum_log2(safe * p), -np.inf)[()]
        reflect = np.log2(g * p_1)
    return direct + reflect, direct, reflect


# =========================================================================
# DPC - ZF gap terms
# =========================================================================


def delta_se(terms: RateTerms) -> tuple:
    """High-SNR DPC-over-ZF gap of a draw's terms, split into direct and
    reflected parts (C_s must be invertible, `require_invertible`):

    delta_d = log2 det(C_s) + sum_k log2([C_s^{-1}]_kk)   (>= 0)
    delta_r = log2(1 + mitigation)                        (>= 0)

    It is, up to rounding, the asymptotic DPC rate minus the asymptotic ZF
    rate at any p_bar.  Terms of a stack of draws give one pair per draw.
    """
    require_invertible(terms.eigvals)
    delta_d = np.sum(np.log2(terms.eigvals) + np.log2(terms.inv_diag), axis=-1)
    delta_r = np.log2(1.0 + terms.mitigation())
    return delta_d, delta_r
