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

p_bar enters only at the last step: every rate is a function of the p_bar-free
terms eigvals(C_s), diag(C_s^{-1}), the weak gain g = |h_c,K+1^H theta|^2, the
mitigation term and the DPC cross terms |U^H D_s theta_bar|^2.  `zf_sum_se` and
`dpc_sum_se` are the rate formulas over those terms; the per-draw `se_*`
evaluators and the batched sweep both call them.  The decomposition and the
terms broadcast over leading batch axes, so a stack of draws is reduced in one
pass.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .linalg import RANK_TOL, check_finite, eigh_descending, herm, inner, matvec

LOG2 = np.log(2.0)

# b^H P_perp b below this is treated as "b inside the strong users' row
# space" and the orthogonality-split DPC form is flagged -inf / +inf.
BPP_TOL = 1e-12


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
    `inv_diag` (both require an invertible C_s; check `cond` first).  The
    cache of a stack of draws carries their leading batch axes on every
    field; indexing it (`cache[i]`, `cache[mask]`) selects draws.
    """

    C_s: np.ndarray  # [..., K, K] Hermitian PSD
    D: np.ndarray  # [..., K+1, N_R+1], last column H_d b (weak entry 0)
    D_s: np.ndarray  # [..., K, N_R+1] strong-user rows of D
    eigvals: np.ndarray  # [..., K] eigenvalues of C_s, descending
    eigvecs: np.ndarray  # [..., K, K] matching orthonormal eigenvectors

    def __getitem__(self, index) -> "DecompositionCache":
        D = self.D[index]
        return DecompositionCache(
            C_s=self.C_s[index],
            D=D,
            D_s=D[..., :-1, :],
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

    def b_proj_perp(self) -> float:
        """b^H P_perp_{H_d^{s,H}} b in [0, 1], per draw.

        From the no-reflection identity 1 + c^H C_s^{-1} c = 1 / (b^H P_perp b)
        with c = H_d^s b, the last column of D_s; 0 where C_s is singular
        (b inside the strong users' row space).
        """
        c = self.D_s[..., -1]
        # singular draws get 0; their solve is discarded, so its overflow is moot
        with np.errstate(all="ignore"):
            bpp = 1.0 / (1.0 + np.real(inner(c, self.solve(c))))
        return np.where(self.eigvals[..., -1] > 0, bpp, 0.0)[()]


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
    D = np.zeros(c.shape[:-1] + (K + 1, n_ris + 1), dtype=complex)
    D[..., :n_ris] = H_c
    D[..., :K, n_ris] = c
    C_s = H @ herm(H) - c[..., :, None] * c.conj()[..., None, :]
    C_s = 0.5 * (C_s + herm(C_s))
    w, U = eigh_descending(C_s)
    return DecompositionCache(C_s=C_s, D=D, D_s=D[..., :K, :], eigvals=w, eigvecs=U)


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
    their leading batch axes; so do the three results.
    """
    if mode == "exact":
        per_user = np.log2(1.0 + p_bar / _zf_gains(inv_diag, g, mit))
        return (
            np.sum(per_user, axis=-1),
            np.sum(per_user[..., :-1], axis=-1),
            per_user[..., -1],
        )
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
    by the asymptotic form) share their leading batch axes.
    """
    if mode == "exact":
        one_plus = 1.0 + eigvals * p_bar
        direct = np.sum(np.log2(one_plus), axis=-1)
        reflect = np.log2(1.0 + g * p_bar + p_bar * np.sum(cross / one_plus, axis=-1))
        return direct + reflect, direct, reflect
    _require_reachable(g)
    regular = eigvals[..., -1] > 0.0
    safe = np.where(regular[..., None], eigvals, 1.0)
    direct = np.where(regular, np.sum(np.log2(safe * p_bar), axis=-1), -np.inf)
    reflect = np.log2(g * p_bar)
    return direct + reflect, direct, reflect


def _zf_terms(cache: DecompositionCache, phase: ExtendedPhase, h_c_weak) -> tuple:
    """(diag(C_s^{-1}), g, mitigation) of a draw; C_s must be invertible."""
    g = weak_gain(phase, h_c_weak)
    _require_invertible(cache)
    return cache.inv_diag(), g, mitigation_term(cache, phase)


def _breakdown(method: str, mode: str, rates: tuple) -> "SEBreakdown":
    total, direct, reflect = (float(x) for x in rates)
    return SEBreakdown(
        method=method, se_total=total, se_direct=direct, se_reflect=reflect, mode=mode
    )


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
    return _zf_gains(*_zf_terms(cache, phase, h_c_weak))


def se_zf_exact(
    cache: DecompositionCache,
    phase: ExtendedPhase,
    h_c_weak: np.ndarray,
    p_bar: float,
) -> SEBreakdown:
    """Zero-forcing sum SE with uniform per-user power p_bar."""
    rates = zf_sum_se(*_zf_terms(cache, phase, h_c_weak), p_bar, "exact")
    return _breakdown("ZF", "exact", rates)


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
    rates = dpc_sum_se(cache.eigvals, g, dpc_cross_terms(cache, phase), p_bar, "exact")
    return _breakdown("DPC", "exact", rates)


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
    if method == "ZF":
        rates = zf_sum_se(*_zf_terms(cache, phase, h_c_weak), p_bar, "asymptotic")
    elif method == "DPC":
        g = weak_gain(phase, h_c_weak)
        rates = dpc_sum_se(cache.eigvals, g, None, p_bar, "asymptotic")
    else:
        raise ValueError(f"unknown method {method!r}")
    return _breakdown(method, "asymptotic", rates)


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
