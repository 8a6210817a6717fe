"""RIS phase-shift selection strategies.

Four strategies are provided: uniform random phases, statistical phases
(identical to random under i.i.d. Rayleigh fading), weak-user alignment
theta_n = exp(j arg(h_c,K+1,n)), and an element-wise coordinate-ascent
optimizer of the weak user's high-SNR ZF rate argument

    f(theta) = |h_c,K+1^H theta|^2 / (1 + theta_bar^H D_s^H C_s^{-1} D_s theta_bar)

which trades channel gain against the mitigation penalty.  Also here: the
construction of the BS-side direction b that interpolates between lying
inside the strong users' row space (xi = 0) and being orthogonal to it
(xi -> inf).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import check_finite
from .se import DecompositionCache, _require_invertible, extended_phase, mitigation_term


@dataclass
class StrategySpec:
    """Phase-strategy identity plus optimizer parameters."""

    kind: str  # random | statistical | align_weak | mitigation_aware
    max_sweeps: int = 100
    rel_tolerance: float = 1e-8
    grid_points: int = 1024

    def __post_init__(self):
        if self.kind not in ("random", "statistical", "align_weak", "mitigation_aware"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be positive")


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
    phase 0 by convention.
    """
    h_c_weak = check_finite(h_c_weak, "h_c_weak").ravel()
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


def _ratio(phi, A, ctil, B, dtil):
    """(A + 2 Re(ctil e^{j phi})) / (B + 2 Re(dtil e^{j phi})); B-part >= 1."""
    e = np.exp(1j * np.asarray(phi))
    return (A + 2.0 * np.real(ctil * e)) / (B + 2.0 * np.real(dtil * e))


def _best_phi(phi_cur, A, ctil, B, dtil, grid_points):
    """Maximize the 1-D phase ratio; never below the current angle's value.

    The stationary points solve Im(z e^{j phi}) = kappa with
    z = 2 (A dtil - B ctil) and kappa = -4 Im(dtil conj(ctil)), giving two
    arcsin candidates; z = 0 means the ratio is constant.  A dense grid
    plus golden-section refinement backs up the analytic step in case it
    ever regresses.
    """
    f_cur = _ratio(phi_cur, A, ctil, B, dtil)
    z = 2.0 * (A * dtil - B * ctil)
    if np.abs(z) == 0.0:
        return phi_cur, f_cur
    kappa = -4.0 * np.imag(dtil * np.conj(ctil))
    base = np.arcsin(np.clip(kappa / np.abs(z), -1.0, 1.0))
    zeta = np.angle(z)
    cand = np.array([base - zeta, np.pi - base - zeta])
    f_cand = _ratio(cand, A, ctil, B, dtil)
    best = int(np.argmax(f_cand))
    if f_cand[best] >= f_cur:
        return float(cand[best]), float(f_cand[best])
    # analytic step regressed (should not happen): grid + local refinement
    phi, f = _grid_refine(A, ctil, B, dtil, grid_points)
    if f >= f_cur:
        return phi, f
    return phi_cur, f_cur


def _grid_refine(A, ctil, B, dtil, grid_points):
    """Dense-grid maximization of the phase ratio with golden-section polish."""
    grid = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    values = _ratio(grid, A, ctil, B, dtil)
    i = int(np.argmax(values))
    step = 2.0 * np.pi / grid_points
    lo, hi = grid[i] - step, grid[i] + step
    inv_gold = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        m1 = hi - inv_gold * (hi - lo)
        m2 = lo + inv_gold * (hi - lo)
        if _ratio(m1, A, ctil, B, dtil) >= _ratio(m2, A, ctil, B, dtil):
            hi = m2
        else:
            lo = m1
    phi = 0.5 * (lo + hi)
    return float(phi), float(_ratio(phi, A, ctil, B, dtil))


def optimize_mitigation_aware(
    cache: DecompositionCache,
    h_c_weak: np.ndarray,
    init: np.ndarray,
    spec: StrategySpec = None,
) -> np.ndarray:
    """Element-wise coordinate ascent on the mitigation-aware objective.

    Sweeps the elements in ascending index order; each 1-D update is solved
    analytically and never decreases the objective.  Terminates when a full
    sweep improves the objective by less than rel_tolerance (relative) or
    after max_sweeps sweeps.

    Args:
        cache: Gram decomposition of the strong users (C_s invertible).
        h_c_weak: [N_R] weak user's cascaded row h_c,K+1^H.
        init: [N_R] unit-modulus starting point.
        spec: optimizer parameters (defaults: 100 sweeps, 1e-8, 1024).

    Returns:
        [N_R] unit-modulus phases with objective >= objective(init).
    """
    if spec is None:
        spec = StrategySpec(kind="mitigation_aware")
    _require_invertible(cache)
    h_c_weak = check_finite(h_c_weak, "h_c_weak").ravel()
    theta = check_finite(init, "init").ravel().copy()
    n_ris = theta.size

    D_s = cache.D_s
    E = cache.solve(D_s)  # C_s^{-1} D_s
    q = np.real(np.sum(D_s.conj() * E, axis=0))  # q_n = d_n^H C_s^{-1} d_n

    obj_prev = None
    for _ in range(spec.max_sweeps):
        # refresh maintained quantities each sweep to kill fp drift
        theta_bar = np.append(theta, 1.0)
        t = D_s @ theta_bar  # D_s theta_bar
        w = E @ theta_bar  # C_s^{-1} D_s theta_bar
        s = h_c_weak @ theta  # h_c,K+1^H theta
        for n in range(n_ris):
            th_n = theta[n]
            s0 = s - h_c_weak[n] * th_n
            t0 = t - D_s[:, n] * th_n
            w0 = w - E[:, n] * th_n
            A = np.abs(s0) ** 2 + np.abs(h_c_weak[n]) ** 2
            ctil = np.conj(s0) * h_c_weak[n]
            B = 1.0 + np.real(np.vdot(t0, w0)) + q[n]
            dtil = np.vdot(t0, E[:, n])
            phi, _ = _best_phi(np.angle(th_n), A, ctil, B, dtil, spec.grid_points)
            new = np.exp(1j * phi)
            diff = new - th_n
            theta[n] = new
            s = s0 + h_c_weak[n] * new
            t += D_s[:, n] * diff
            w += E[:, n] * diff
        obj = np.abs(s) ** 2 / (1.0 + np.real(np.vdot(t, w)))
        if obj_prev is not None and obj - obj_prev <= spec.rel_tolerance * max(
            obj_prev, 1e-300
        ):
            break
        obj_prev = obj
    return theta


def select_phases(
    spec: StrategySpec,
    cache: DecompositionCache,
    h_c_weak: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dispatch a strategy to its phase vector for one channel realization.

    "statistical" is an alias of "random": under i.i.d. Rayleigh fading every
    unit-modulus vector gives the same ergodic rates.
    """
    if spec.kind in ("random", "statistical"):
        return random_phases(h_c_weak.size, rng)
    if spec.kind == "align_weak":
        return align_weak_user(h_c_weak)
    return optimize_mitigation_aware(cache, h_c_weak, align_weak_user(h_c_weak), spec)


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
        V_s: [N_B, K] orthonormal basis of the strong users' row space.
        v_perp: [N_B] vector orthogonal to the columns of V_s.
        xi: non-negative orthogonality parameter.
    """
    V_s = check_finite(V_s, "V_s")
    v_perp = check_finite(v_perp, "v_perp").ravel()
    if xi < 0:
        raise ValueError("xi must be non-negative")
    if V_s.shape[0] <= V_s.shape[1]:
        raise ValueError("no orthogonal complement")
    nv = np.linalg.norm(v_perp)
    if nv == 0 or np.linalg.norm(V_s.conj().T @ v_perp) > 1e-10 * nv:
        raise ValueError("v_perp not orthogonal to the strong row space")
    u = V_s @ np.ones(V_s.shape[1])
    b = u / np.linalg.norm(u) + xi * v_perp / nv
    return b / np.linalg.norm(b)


def b_from_xi(H_d_strong: np.ndarray, xi: float) -> np.ndarray:
    """Convenience wrapper deriving V_s and a complement direction via SVD."""
    K = H_d_strong.shape[0]
    _, _, Vh = np.linalg.svd(H_d_strong, full_matrices=True)
    V = Vh.conj().T
    return construct_b_orthogonality(V[:, :K], V[:, K], xi)
