"""RIS phase-shift selection strategies.

Four strategies are provided: uniform random phases, statistical phases
(identical to random under i.i.d. Rayleigh fading), weak-user alignment
theta_n = exp(j arg(h_c,K+1,n)), and an element-wise coordinate-ascent
optimizer of the weak user's high-SNR ZF rate argument

    f(theta) = |h_c,K+1^H theta|^2 / (1 + theta_bar^H D_s^H C_s^{-1} D_s theta_bar)

which trades channel gain against the mitigation penalty.  Each element
update maximizes a ratio of two sinusoids in that element's phasor x,
(A + 2 Re(ctil x)) / (B + 2 Re(dtil x)), exactly, in closed form (the
Dinkelbach root of a quadratic).  The element loop works on Python scalars:
with t = D_s theta_bar, e_n = (C_s^{-1} D_s)[:, n], q_n = d_n^H e_n,
v = t^H C_s^{-1} t and u_n = t^H e_n, the denominator coefficients are
B = 1 + v - 2 Re(theta_n u_n) + 2 q_n and dtil = u_n - conj(theta_n) q_n,
so one element costs one K-length inner product and one K-length update.
Also here: the construction of the BS-side direction b that interpolates
between lying inside the strong users' row space (xi = 0) and being
orthogonal to it (xi -> inf).
"""

import math
from operator import mul

import numpy as np

from .linalg import check_finite, herm, matvec
from .se import DecompositionCache, _require_invertible, extended_phase, mitigation_term


STRATEGIES = ("random", "statistical", "align_weak", "mitigation_aware")

# Coordinate ascent stops after MAX_SWEEPS sweeps, or once a full sweep
# raises the objective by less than REL_TOLERANCE (relative).
MAX_SWEEPS = 100
REL_TOLERANCE = 1e-8


def random_phases(n_ris: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus phases with angles uniform on [0, 2*pi)."""
    if n_ris < 1:
        raise ValueError("need at least one element")
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_ris))


def align_weak_user(h_c_weak: np.ndarray) -> np.ndarray:
    """Phases maximizing the weak user's channel gain |h_c,K+1^H theta|^2.

    h_c_weak is the stored conjugated row h_c,K+1^H, so the aligned phases
    are exp(-j arg(row)) = exp(j arg(h_c,K+1)) and the resulting inner
    product is sum_n |h_c,K+1,n| (real and maximal).  Zero entries get
    phase 0 by convention.  Rows [..., N_R] give phases [..., N_R].
    """
    h_c_weak = check_finite(h_c_weak, "h_c_weak")
    return np.exp(-1j * np.angle(h_c_weak))


# =========================================================================
# mitigation-aware element-wise optimizer
# =========================================================================


def mitigation_aware_objective(
    cache: DecompositionCache, h_c_weak: np.ndarray, theta: np.ndarray
) -> float:
    """f(theta) = weak gain / (1 + mitigation); p_bar-independent."""
    mit = mitigation_term(cache, extended_phase(theta))
    return float(np.abs(h_c_weak @ theta) ** 2 / (1.0 + mit))


def _best_phase(theta_n, A, ctil, B, dtil):
    """Maximize (A + 2 Re(ctil x)) / (B + 2 Re(dtil x)) over unit phasors x.

    The maximum lambda* is the value at which max_x of the Dinkelbach
    numerator A - lambda B + 2 Re((ctil - lambda dtil) x) is zero, i.e. the
    larger root of
        (B^2 - 4|dtil|^2) lambda^2 - 2 (A B - 4 Re(ctil dtil*)) lambda
            + (A^2 - 4|ctil|^2) = 0,
    whose leading coefficient is positive since B - 2|dtil| >= 1; the
    maximizer is x* = conj(z) / |z| with z = ctil - lambda* dtil.  The
    current phasor theta_n is kept when z = 0 (every phase is optimal) or
    unless x* is at least as good, so a step never lowers the ratio.
    """
    a = B * B - 4.0 * abs(dtil) ** 2
    half_b = A * B - 4.0 * (ctil * dtil.conjugate()).real
    c = A * A - 4.0 * abs(ctil) ** 2
    disc = half_b * half_b - a * c
    lam = (half_b + (math.sqrt(disc) if disc > 0.0 else 0.0)) / a
    z = ctil - lam * dtil
    r = abs(z)
    if r == 0.0:
        return theta_n
    x = z.conjugate() / r
    f_new = (A + 2.0 * (ctil * x).real) / (B + 2.0 * (dtil * x).real)
    f_cur = (A + 2.0 * (ctil * theta_n).real) / (B + 2.0 * (dtil * theta_n).real)
    return x if f_new >= f_cur else theta_n


def optimize_mitigation_aware(
    cache: DecompositionCache,
    h_c_weak: np.ndarray,
    init: np.ndarray,
) -> np.ndarray:
    """Element-wise coordinate ascent on the mitigation-aware objective.

    Sweeps the elements in ascending index order; each 1-D update is the
    closed-form maximizer of a ratio of two sinusoids in the element's phase
    (`_best_phase`) and never decreases the objective.  Terminates when a full
    sweep improves the objective by less than REL_TOLERANCE (relative) or
    after MAX_SWEEPS sweeps.

    The element loop runs on Python scalars.  With t = D_s theta_bar,
    e_n = (C_s^{-1} D_s)[:, n], q_n = d_n^H e_n, v = t^H C_s^{-1} t (real)
    and u_n = t^H e_n, element n's ratio has
        A = |s0|^2 + |h_n|^2,  ctil = conj(s0) h_n  (s0 = s - h_n theta_n),
        B = 1 + v - 2 Re(theta_n u_n) + 2 q_n,  dtil = u_n - conj(theta_n) q_n,
    and a step Delta updates t += d_n Delta and
    v += 2 Re(Delta u_n) + |Delta|^2 q_n.  So an element costs one K-length
    inner product (u_n) and one K-length update (t); C_s^{-1} t is never
    formed.  t, v and s = h_c,K+1^H theta are recomputed from numpy at the
    start of every sweep, so rounding does not accumulate across sweeps.

    Args:
        cache: Gram decomposition of the strong users (C_s invertible).
        h_c_weak: [N_R] weak user's cascaded row h_c,K+1^H.
        init: [N_R] unit-modulus starting point.

    Returns:
        [N_R] unit-modulus phases with objective >= objective(init).
    """
    _require_invertible(cache)
    h_c_weak = check_finite(h_c_weak, "h_c_weak").ravel()
    theta = check_finite(init, "init").ravel().copy()
    n_ris = theta.size

    D_s = cache.D_s
    E = cache.solve(D_s)  # C_s^{-1} D_s
    q = np.real(np.sum(D_s.conj() * E, axis=0))  # q_n = d_n^H e_n
    # per-element columns as Python scalars; u_n = t^H e_n = conj(t . conj(e_n))
    h = h_c_weak.tolist()
    h_sq = (np.abs(h_c_weak) ** 2).tolist()
    d_cols = D_s[:, :n_ris].T.tolist()
    e_conj_cols = E[:, :n_ris].T.conj().tolist()
    q = q.tolist()

    obj_prev = None
    for _ in range(MAX_SWEEPS):
        theta_bar = np.append(theta, 1.0)
        t = D_s @ theta_bar
        v = float(np.real(np.vdot(t, E @ theta_bar)))
        s = complex(h_c_weak @ theta)
        t, th = t.tolist(), theta.tolist()
        for n in range(n_ris):
            th_n, h_n, q_n = th[n], h[n], q[n]
            u = sum(map(mul, t, e_conj_cols[n])).conjugate()
            s0 = s - h_n * th_n
            new = _best_phase(
                th_n,
                abs(s0) ** 2 + h_sq[n],
                s0.conjugate() * h_n,
                1.0 + v - 2.0 * (th_n * u).real + 2.0 * q_n,
                u - th_n.conjugate() * q_n,
            )
            delta = new - th_n
            th[n] = new
            s = s0 + h_n * new
            t = [tk + dk * delta for tk, dk in zip(t, d_cols[n])]
            v += 2.0 * (delta * u).real + abs(delta) ** 2 * q_n
        theta = np.array(th)
        obj = abs(s) ** 2 / (1.0 + v)
        if obj_prev is not None and obj - obj_prev <= REL_TOLERANCE * max(
            obj_prev, 1e-300
        ):
            break
        obj_prev = obj
    return theta


def select_phases(
    kind: str,
    cache: DecompositionCache,
    h_c_weak: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Phases of strategy `kind` (one of STRATEGIES) for one channel draw.

    A stack of B draws (cache and h_c_weak [B, N_R] with a leading batch
    axis, rng an iterable of B generators, one per draw) gives [B, N_R]
    phases, row i being what draw i gets on its own.

    "statistical" is an alias of "random": under i.i.d. Rayleigh fading every
    unit-modulus vector gives the same ergodic rates.
    """
    if kind not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {kind!r}")
    stacked = h_c_weak.ndim == 2
    if kind in ("random", "statistical"):
        n_ris = h_c_weak.shape[-1]
        if stacked:
            return np.stack([random_phases(n_ris, r) for r in rng])
        return random_phases(n_ris, rng)
    aligned = align_weak_user(h_c_weak)
    if kind == "align_weak":
        return aligned
    if stacked:
        return np.stack(
            [
                optimize_mitigation_aware(cache[i], h_c_weak[i], aligned[i])
                for i in range(len(aligned))
            ]
        )
    return optimize_mitigation_aware(cache, h_c_weak, aligned)


# =========================================================================
# BS-RIS orthogonality construction
# =========================================================================


def construct_b_orthogonality(
    V_s: np.ndarray, v_perp: np.ndarray, xi: float
) -> np.ndarray:
    """Unit vector b at prescribed orthogonality xi to the strong row space.

    b' = V_s 1 / ||V_s 1|| + xi * v_perp / ||v_perp||, b = b' / ||b'||, so
    that b^H P_perp b = xi^2 / (1 + xi^2): xi = 0 places b inside
    range(V_s) (worst case), large xi makes b orthogonal to it.

    Args:
        V_s: [..., N_B, K] orthonormal basis of the strong users' row space.
        v_perp: [..., N_B] vector orthogonal to the columns of V_s.
        xi: non-negative orthogonality parameter.

    Returns:
        [..., N_B] unit vectors, one per leading index.
    """
    V_s = check_finite(V_s, "V_s")
    v_perp = check_finite(v_perp, "v_perp")
    if xi < 0:
        raise ValueError("xi must be non-negative")
    if V_s.shape[-2] <= V_s.shape[-1]:
        raise ValueError("no orthogonal complement")
    nv = np.linalg.norm(v_perp, axis=-1)
    leak = np.linalg.norm(matvec(herm(V_s), v_perp), axis=-1)
    if np.any(nv == 0) or np.any(leak > 1e-10 * nv):
        raise ValueError("v_perp not orthogonal to the strong row space")
    u = V_s @ np.ones(V_s.shape[-1])
    b = u / np.linalg.norm(u, axis=-1)[..., None] + xi * v_perp / nv[..., None]
    return b / np.linalg.norm(b, axis=-1)[..., None]


def b_from_xi(H_d_strong: np.ndarray, xi: float) -> np.ndarray:
    """Convenience wrapper deriving V_s and a complement direction via SVD.

    H_d_strong [..., K, N_B] gives one direction per draw, [..., N_B].
    """
    K = H_d_strong.shape[-2]
    _, _, Vh = np.linalg.svd(H_d_strong, full_matrices=True)
    V = herm(Vh)
    return construct_b_orthogonality(V[..., :K], V[..., K], xi)
