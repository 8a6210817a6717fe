"""RIS phase-shift selection strategies.

Four strategies are provided: uniform random phases, statistical phases
(identical to random under i.i.d. Rayleigh fading), weak-user alignment
theta_n = exp(j arg(h_c,K+1,n)), and a batched optimizer of the weak user's
high-SNR ZF rate argument

    f(theta) = |a^H theta_bar|^2 / (1 + theta_bar^H Q theta_bar),
    a = [h_c,K+1; 0],  Q = D_s^H C_s^{-1} D_s (rank K),

which trades channel gain against the mitigation penalty: Dinkelbach with
majorization-minimization (MM) steps on the unit-modulus torus (Sun, Babu
& Palomar, IEEE TSP 2017), accelerated by SQUAREM (Varadhan & Roland,
Scand. J. Stat. 2008).  The random strategies return the caller's draw;
the others read a draw from its `se.DecompositionCache` alone, the weak
row h_c,K+1^H included.  The BS-RIS direction is set by xi in the sweep.
"""

import numpy as np

from .linalg import check_finite, herm, matvec
from .se import (
    DecompositionCache,
    check_phase_shape,
    extended_phases,
    rate_terms,
    require_invertible,
)


STRATEGIES = ("random", "statistical", "align_weak", "mitigation_aware")
# The strategies that draw their phases at random.
RANDOM_STRATEGIES = ("random", "statistical")

# The optimizer stops a draw after MAX_STEPS accelerated steps (two MM steps
# and an extrapolation each), or once a step raises its objective by less
# than REL_TOLERANCE (relative).
MAX_STEPS = 200
REL_TOLERANCE = 1e-8


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
# mitigation-aware MM optimizer
# =========================================================================


def mitigation_aware_objective(cache: DecompositionCache, theta: np.ndarray) -> float:
    """f(theta) = weak gain / (1 + mitigation); p_bar-independent."""
    terms = rate_terms(cache, theta)
    return float(terms.g / (1.0 + terms.mitigation()))


def _mm_operands(cache: DecompositionCache):
    """(M, M^H, mu, V) of a stack of draws.

    With the whitened rows G = Lambda^{-1/2} U^H D_s, Q = G^H G, so one
    product with M = [G; (h_c,K+1^H, 0)] [B, K+1, N_R+1] gives g = G theta_bar
    (theta_bar^H Q theta_bar = |g|^2) and s = h_c,K+1^H theta: Q is never
    formed.  G G^H = V diag(mu) V^H (K x K) holds Q's nonzero eigenvalues mu,
    ascending.
    """
    G = herm(cache.eigvecs) @ cache.D_s / np.sqrt(cache.eigvals)[..., None]
    M = np.concatenate([G, np.zeros_like(G[..., :1, :])], axis=-2)
    M[..., -1, :-1] = cache.h_c_weak
    mu, V = np.linalg.eigh(G @ herm(G))
    return M, herm(M).copy(), mu, V


def _relaxed_maximizer(M, mu, V) -> np.ndarray:
    """x = (Q + I/r)^{-1} a, r = N_R + 1, per draw [B, r].

    As ||theta_bar||^2 = r on the torus, f <= a^H (Q + I/r)^{-1} a, which x
    attains.  By Woodbury, x = r a - r^2 G^H V diag(1 / (1 + r mu)) V^H G a.
    """
    G, a, r = M[:, :-1], M[:, -1].conj(), M.shape[-1]
    w = matvec(herm(V), matvec(G, a)) / (1.0 + r * mu)
    return r * a - r * r * matvec(herm(G), matvec(V, w))


def _objective(M, theta_bar):
    """(f(theta_bar), M theta_bar) for a stack: f = |s|^2 / (1 + |g|^2)."""
    Mt = matvec(M, theta_bar)
    power = Mt.real**2 + Mt.imag**2
    return power[:, -1] / (1.0 + np.sum(power[:, :-1], axis=-1)), Mt


def _phase(x):
    """x / |x| per entry (1 where x is 0), rotated so that the last entry is
    1, which keeps f; a stack [B, N_R+1] of points on the torus."""
    r = np.abs(x)
    x = np.divide(x, r, out=np.ones_like(x), where=r > 0.0)
    x *= x[:, -1:].conj()
    x[:, -1] = 1.0
    return x


def _mm_step(MH, lam_max, theta_bar, f, Mt):
    """The next MM iterate of a stack theta_bar [B, N_R+1], from its
    f(theta_bar) and M theta_bar (`_objective`; Mt is overwritten).

    On the torus, Q <= lambda_max I gives a minorizer of |a^H x|^2 - f x^H Q x
    at theta_bar, maximized by phase(f lambda_max theta_bar + a s - f Q theta_bar)
    with s = a^H theta_bar: one product with M^H on [-f g, s].
    """
    Mt[:, :-1] *= -f[:, None]
    return _phase(matvec(MH, Mt) + (f * lam_max)[:, None] * theta_bar)


def _better(M, a, b):
    """Per draw of stacks a and b [B, N_R+1], the point of a where its f is
    at least b's, else b's point, with its f and M theta_bar (`_objective`)."""
    (f_a, Ma), (f_b, Mb) = _objective(M, a), _objective(M, b)
    pick = (f_a >= f_b)[:, None]
    return np.where(pick, a, b), np.where(pick[:, 0], f_a, f_b), np.where(pick, Ma, Mb)


def optimize_mitigation_aware(
    cache: DecompositionCache, init: np.ndarray
) -> np.ndarray:
    """Accelerated Dinkelbach-MM ascent of the mitigation-aware objective.

    Each draw starts from the better of `init` and phase(x / x_last) of the
    relaxed maximizer x (`_relaxed_maximizer`).  A step takes two MM steps
    theta_0 -> theta_1 -> theta_2 (`_mm_step`; in exact arithmetic neither
    lowers f) and moves to the SQUAREM point
    phase(theta_0 - 2 alpha r + alpha^2 v), r = theta_1 - theta_0,
    v = theta_2 - 2 theta_1 + theta_0, alpha = -max(1, ||r|| / ||v||), if
    its f is at least f(theta_2), else to theta_2; the point it moves to
    keeps its f and M theta_bar for the next step.  A draw stops once a step
    raises its f by less than REL_TOLERANCE (relative), or after MAX_STEPS
    steps, and keeps the better of its last two points, so its result does
    not depend on the other draws of its stack.

    Args:
        cache: one draw's decomposition, or a stack's (C_s invertible).
        init: [N_R] or [B, N_R] unit-modulus starting points.

    Returns:
        Unit-modulus phases shaped like init, with objective >= objective(init).
    """
    check_phase_shape(cache, init)
    require_invertible(cache.eigvals)
    init = extended_phases(init)
    one = init.ndim == 1
    if one:
        cache, init = cache[np.newaxis], init[np.newaxis]
    M, MH, mu, V = _mm_operands(cache)
    lam_max = mu[:, -1]
    relaxed = _phase(_relaxed_maximizer(M, mu, V))
    theta_bar, f, Mt = _better(M, init, relaxed)

    out = np.empty_like(theta_bar)
    index = np.arange(len(out))
    prev, f_prev = theta_bar, np.full(len(out), -np.inf)
    for step in range(MAX_STEPS + 1):
        stop = (f - f_prev <= REL_TOLERANCE * f_prev) | (step == MAX_STEPS)
        if stop.any():
            last = (f >= f_prev)[stop, None]
            out[index[stop]] = np.where(last, theta_bar[stop], prev[stop])
            go = ~stop
            if not go.any():
                break
            index, M, MH, lam_max = index[go], M[go], MH[go], lam_max[go]
            theta_bar, f, Mt = theta_bar[go], f[go], Mt[go]
        t1 = _mm_step(MH, lam_max, theta_bar, f, Mt)
        t2 = _mm_step(MH, lam_max, t1, *_objective(M, t1))
        r, v = t1 - theta_bar, t2 - 2.0 * t1 + theta_bar
        r_norm, v_norm = np.linalg.norm(r, axis=-1), np.linalg.norm(v, axis=-1)
        ratio = np.divide(r_norm, v_norm, out=np.ones_like(r_norm), where=v_norm > 0.0)
        alpha = -np.fmax(1.0, ratio)[:, None]
        jump = _phase(theta_bar - 2.0 * alpha * r + alpha**2 * v)
        prev, f_prev = theta_bar, f
        theta_bar, f, Mt = _better(M, jump, t2)
    return out[0, :-1] if one else out[:, :-1]


def select_phases(
    kind: str, cache: DecompositionCache, random_theta: np.ndarray
) -> np.ndarray:
    """Phases of strategy `kind` (one of STRATEGIES) for a channel draw or a
    stack of B draws ([B, N_R], row i being what draw i gets on its own).

    The RANDOM_STRATEGIES return `random_theta`, the draws' random phases
    shaped like theirs (a sweep's come from `channel.random_phase_block`);
    the others compute theirs from the cache and ignore it.

    "statistical" is an alias of "random": under i.i.d. Rayleigh fading every
    unit-modulus vector gives the same ergodic rates.
    """
    if kind not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {kind!r}")
    if kind in RANDOM_STRATEGIES:
        check_phase_shape(cache, random_theta)
        return random_theta
    aligned = align_weak_user(cache.h_c_weak)
    if kind == "align_weak":
        return aligned
    return optimize_mitigation_aware(cache, aligned)
