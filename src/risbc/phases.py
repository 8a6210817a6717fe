"""RIS phase-shift selection strategies.

Four strategies are provided: uniform random phases, statistical phases
(identical to random under i.i.d. Rayleigh fading), weak-user alignment
theta_n = exp(j arg(h_c,K+1,n)), and a batched optimizer of the weak user's
high-SNR ZF rate argument

    f(theta) = |a^H theta_bar|^2 / (1 + theta_bar^H Q theta_bar),
    a = [h_c,K+1; 0],  Q = D_s^H C_s^{-1} D_s (rank K),

which trades channel gain against the mitigation penalty.  The optimizer
starts each draw from the better of its given phases and the projected
relaxed maximizer, takes one SQUAREM step (Varadhan & Roland, Scand. J.
Stat. 2008) of Dinkelbach majorization-minimization (MM) steps on the
unit-modulus torus (Sun, Babu & Palomar, IEEE TSP 2017), and then hands the
draw to a Riemannian Newton ascent in the phases phi (theta_n = e^{j phi_n};
Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
2008; applied to RIS phases by Yu, Xu & Schober, IEEE ICCC 2019).  Each
Newton step is damped in the Levenberg-Marquardt way, solved by Woodbury
through a 2(K+1)-square system (f's negative Hessian is a diagonal plus a
rank-2(K+1) term), kept only where its damped matrix is positive definite
and it does not lower f, and followed by an MM step.  A draw stops once
max_n |df/dphi_n| <= GRAD_TOLERANCE f, a stationarity test, or after
MAX_STEPS steps.  The random strategies return the caller's draw; the
others read a draw from its `se.DecompositionCache` alone, the weak row
h_c,K+1^H included.  The BS-RIS direction is set by xi in the sweep.
"""

import numpy as np

from .linalg import check_finite, herm, matvec, out_array
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

# The optimizer stops a draw once its gradient in the phases is at most
# GRAD_TOLERANCE times its objective (max norm), or after MAX_STEPS steps.
MAX_STEPS = 200
GRAD_TOLERANCE = 1e-9

# The smallest normal float: 1 / |h| overflows on a nonzero |h| below it.
_TINY = np.finfo(float).tiny


def align_weak_user(h_c_weak: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Phases maximizing the weak user's channel gain |h_c,K+1^H theta|^2.

    h_c_weak is the stored conjugated row h_c,K+1^H, so the aligned phases
    are exp(-j arg(row)) = conj(row) / |row| and the resulting inner
    product is sum_n |h_c,K+1,n| (real and maximal).  Zero entries get 1
    (phase 0) by convention.  Rows [..., N_R] give phases [..., N_R],
    written into `out` if given (a caller-owned complex array of their
    shape, which is returned), else into a new array.
    """
    h_c_weak = check_finite(h_c_weak, "h_c_weak")
    r = np.abs(h_c_weak)
    # conj(row) / |row| in place, so a block holds no conjugated copy; the
    # complex divide forms 1 / |row|, which overflows below the smallest
    # normal float, so such entries (zero ones included), if any, are left
    # out of it and scaled up by a power of two (exactly) first
    out = np.conjugate(h_c_weak, out=out_array(out, h_c_weak.shape))
    if r.min(initial=np.inf) >= _TINY:
        return np.divide(out, r, out=out)
    small = r < _TINY
    np.divide(out, r, out=out, where=~small)
    scaled = out[small] * 2.0**64
    modulus = np.abs(scaled)
    out[small] = np.divide(scaled, modulus, out=np.ones_like(scaled), where=modulus > 0.0)
    return out


# =========================================================================
# mitigation-aware optimizer
# =========================================================================


def _mm_operands(cache: DecompositionCache):
    """(M, M^H, mu, V) of a stack of draws.

    With the whitened rows G = Lambda^{-1/2} U^H D_s, Q = G^H G, so one
    product with M = [G; (h_c,K+1^H, 0)] [B, K+1, N_R+1] gives g = G theta_bar
    (theta_bar^H Q theta_bar = |g|^2) and s = h_c,K+1^H theta: Q is never
    formed.  G G^H = V diag(mu) V^H (K x K) holds Q's nonzero eigenvalues mu,
    ascending.
    """
    G = cache.eigvecs_h @ cache.D_s / np.sqrt(cache.eigvals)[..., None]
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


def _squarem_step(M, MH, lam_max, theta_bar, f, Mt):
    """Two MM steps theta_0 -> theta_1 -> theta_2 (`_mm_step`; in exact
    arithmetic neither lowers f), then the SQUAREM point
    phase(theta_0 - 2 alpha r + alpha^2 v), r = theta_1 - theta_0,
    v = theta_2 - 2 theta_1 + theta_0, alpha = -max(1, ||r|| / ||v||), where
    its f is at least f(theta_2), else theta_2."""
    t1 = _mm_step(MH, lam_max, theta_bar, f, Mt)
    t2 = _mm_step(MH, lam_max, t1, *_objective(M, t1))
    r, v = t1 - theta_bar, t2 - 2.0 * t1 + theta_bar
    r_norm, v_norm = np.linalg.norm(r, axis=-1), np.linalg.norm(v, axis=-1)
    ratio = np.divide(r_norm, v_norm, out=np.ones_like(r_norm), where=v_norm > 0.0)
    alpha = -np.fmax(1.0, ratio)[:, None]
    jump = _phase(theta_bar - 2.0 * alpha * r + alpha**2 * v)
    return _better(M, jump, t2)[0]


def _newton_model(M, theta_bar):
    """f and its first two derivatives in the phases phi of a stack
    theta_bar [B, N_R+1] (theta_n = e^{j phi_n}, n < N_R; the last entry 1 is
    fixed).

    With y = M theta_bar, w_j = M_j o theta (row j of M times theta, entry by
    entry), coef = (-f, ..., -f, 1) and D = 1 + sum_{j<K} |y_j|^2:
        grad f = -2 sum_j coef_j Im(conj(y_j) w_j) / D,
        -hess f = diag(delta) + Z^T E Z,
        delta = 2 sum_j coef_j Re(conj(y_j) w_j) / D,
    with Z = [Re w; Im w] [B, 2(K+1), N_R] and
    E = (q p^T + p q^T - 2 diag(coef, coef)) / D, where grad f = Z^T q and
    grad D = Z^T p: q = 2 (coef, coef) o (Im y, -Re y) / D, and p is
    2 (Im y, -Re y) with the weak row's two entries set to 0.

    Returns (f [B], y [B, K+1], grad [B, N_R], delta [B, N_R], Z, E).
    """
    y = matvec(M, theta_bar)
    w = M[..., :-1] * theta_bar[:, None, :-1]
    power = y.real**2 + y.imag**2
    D = 1.0 + np.sum(power[:, :-1], axis=-1)
    f = power[:, -1] / D
    coef = np.empty_like(power)
    coef[:, :-1] = -f[:, None]
    coef[:, -1] = 1.0
    coef = np.concatenate([coef, coef], axis=-1) / D[:, None]
    turned = 2.0 * np.concatenate([y.imag, -y.real], axis=-1)  # grad |y_j|^2
    q = coef * turned
    Z = np.concatenate([w.real, w.imag], axis=-2)
    grad, delta = np.moveaxis(
        herm(Z) @ np.stack([q, 2.0 * coef * np.concatenate([y.real, y.imag], -1)], -1),
        -1, 0,
    )
    K = y.shape[-1] - 1
    p = turned
    p[:, [K, 2 * K + 1]] = 0.0
    E = (q[:, :, None] * p[:, None, :] + p[:, :, None] * q[:, None, :]) / D[:, None, None]
    diag = np.arange(2 * K + 2)
    E[:, diag, diag] -= 2.0 * coef
    return f, y, grad, delta, Z, E


def _damped_step(Z, E, grad, delta, damping):
    """The step d = (-hess f + damping I)^{-1} grad of each draw, with
    -hess f = diag(delta) + Z^T E Z (`_newton_model`), and whether that
    damped matrix is positive definite.

    With a = delta + damping, T = Z diag(a)^{-1} Z^T and X = E + E T E
    [B, 2(K+1), 2(K+1)], Woodbury gives d = (grad - Z^T E X^{-1} E Z
    (grad / a)) / a, and Haynsworth's inertia additivity gives the damped
    matrix #(a < 0) + #(eig X > 0) - #(eig E > 0) negative eigenvalues
    (diag(a) and E invertible), so one eigh of X serves both.
    """
    a = delta + damping[:, None]
    Za = Z / a[:, None, :]
    ET = E @ (Za @ herm(Z))
    s, P = np.linalg.eigh(E + ET @ E)
    u = matvec(E @ P, matvec(herm(P), matvec(E, matvec(Za, grad))) / s)
    d = (grad - matvec(herm(Z), u)) / a
    negative = np.count_nonzero(a < 0.0, axis=-1) + np.count_nonzero(s > 0.0, axis=-1)
    negative -= np.count_nonzero(np.linalg.eigvalsh(E) > 0.0, axis=-1)
    return d, negative == 0


def _gain(M, theta_bar, y, f, d):
    """(f(theta_bar e^{j d}) - f(theta_bar), M theta_bar e^{j d}) per draw,
    the gain formed from the change of M theta_bar, so that a gain far below
    f's rounding still has its sign."""
    change = np.zeros_like(theta_bar)
    change[:, :-1] = theta_bar[:, :-1] * (-2.0 * np.sin(0.5 * d) ** 2 + 1j * np.sin(d))
    dy = matvec(M, change)
    dpower = (dy * (2.0 * y + dy).conj()).real  # |y + dy|^2 - |y|^2
    D = 1.0 + np.sum(y.real[:, :-1] ** 2 + y.imag[:, :-1] ** 2, axis=-1)
    dD = np.sum(dpower[:, :-1], axis=-1)
    return (dpower[:, -1] - f * dD) / (D + dD), y + dy


def _ascend(cache: DecompositionCache, init: np.ndarray):
    """The optimizer's core on a stack: (theta_bar [B, N_R+1], steps [B],
    converged [B]), where steps counts each draw's steps, its SQUAREM step
    included, and converged says whether it met the gradient test.

    Each draw starts from the better of init [B, N_R+1] and phase(x / x_last)
    of the relaxed maximizer x (`_relaxed_maximizer`), and its first step is
    a SQUAREM step (`_squarem_step`).  Every later step tries the damped
    Newton step d (`_damped_step`, damping lambda max|grad f| with lambda
    starting at 1) and keeps theta e^{j d} if its damped matrix is positive
    definite and its f is not lower (`_gain`), dividing lambda by 3, else
    keeps theta and multiplies lambda by 10; then it takes an MM step.  A
    draw stops once max|grad f| <= GRAD_TOLERANCE f (converged) or after
    MAX_STEPS steps, and every operation acts on each draw alone, so its
    result does not depend on the other draws of its stack.
    """
    M, MH, mu, V = _mm_operands(cache)
    lam_max = mu[:, -1]
    relaxed = _phase(_relaxed_maximizer(M, mu, V))
    theta_bar, f, Mt = _better(M, init, relaxed)
    if MAX_STEPS > 0:
        theta_bar = _squarem_step(M, MH, lam_max, theta_bar, f, Mt)

    out = np.empty_like(theta_bar)
    steps = np.empty(len(out), dtype=int)
    converged = np.empty(len(out), dtype=bool)
    index = np.arange(len(out))
    lam = np.ones(len(out))
    for step in range(min(MAX_STEPS, 1), MAX_STEPS + 1):
        f, y, grad, delta, Z, E = _newton_model(M, theta_bar)
        slope = np.max(np.abs(grad), axis=-1)
        met = slope <= GRAD_TOLERANCE * f
        stop = met | (step == MAX_STEPS)
        if stop.any():
            out[index[stop]] = theta_bar[stop]
            steps[index[stop]], converged[index[stop]] = step, met[stop]
            go = ~stop
            if not go.any():
                break
            index, M, MH, lam_max, lam = index[go], M[go], MH[go], lam_max[go], lam[go]
            theta_bar, f, y, grad, delta = theta_bar[go], f[go], y[go], grad[go], delta[go]
            Z, E, slope = Z[go], E[go], slope[go]
        # a step that is not positive definite or overflows is refused
        with np.errstate(all="ignore"):
            d, concave = _damped_step(Z, E, grad, delta, lam * slope)
            gain, y_new = _gain(M, theta_bar, y, f, d)
        keep = concave & (gain >= 0.0)
        lam = np.where(keep, lam / 3.0, lam * 10.0)
        theta_bar[keep, :-1] *= np.exp(1j * d[keep])
        f = np.where(keep, f + gain, f)
        y = np.where(keep[:, None], y_new, y)
        theta_bar = _mm_step(MH, lam_max, theta_bar, f, y)
    return out, steps, converged


def optimize_mitigation_aware(
    cache: DecompositionCache, init: np.ndarray
) -> np.ndarray:
    """Maximize the mitigation-aware objective f from phases init
    (`_ascend`: a SQUAREM-MM step, then damped Newton steps to a stationary
    point).

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
    out = _ascend(cache, init)[0]
    return out[0, :-1] if one else out[:, :-1]


def select_phases(
    kind: str,
    cache: DecompositionCache,
    random_theta: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """Phases of strategy `kind` (one of STRATEGIES) for a channel draw or a
    stack of B draws ([B, N_R], row i being what draw i gets on its own).

    The RANDOM_STRATEGIES return `random_theta`, the draws' random phases
    shaped like theirs (a sweep's come from `channel.random_phase_block`);
    the others compute theirs from the cache and ignore it, and start from
    the aligned phases, written into `out` (`align_weak_user`).

    "statistical" is an alias of "random": under i.i.d. Rayleigh fading every
    unit-modulus vector gives the same ergodic rates.
    """
    if kind not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {kind!r}")
    if kind in RANDOM_STRATEGIES:
        check_phase_shape(cache, random_theta)
        return random_theta
    aligned = align_weak_user(cache.h_c_weak, out)
    if kind == "align_weak":
        return aligned
    return optimize_mitigation_aware(cache, aligned)


def strategy_terms(kinds, cache: DecompositionCache, random_theta, out) -> dict:
    """{kind: se.RateTerms} of strategies `kinds` on a stack of draws, each
    distinct phase set formed and reduced once (`select_phases`,
    `se.rate_terms`): "statistical" takes "random"'s terms, and
    mitigation_aware starts from align_weak's phases, which `out` (a
    caller-owned array of the phases' shape) holds, when kinds has both."""
    terms = {}
    for kind in sorted(kinds, key=STRATEGIES.index):
        if kind == "statistical" and "random" in terms:
            terms[kind] = terms["random"]
            continue
        if kind == "mitigation_aware" and "align_weak" in terms:
            theta = optimize_mitigation_aware(cache, out)
        else:
            theta = select_phases(kind, cache, random_theta, out)
        terms[kind] = rate_terms(cache, theta)
    return terms
