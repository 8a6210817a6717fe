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
Newton step is damped in the Levenberg-Marquardt way, kept only where its
damped matrix is positive definite and it does not lower f, and followed by
an MM step.  f's negative Hessian is a diagonal plus Z^T E Z, where E^{-1}
is a diagonal plus a rank-2 term, so a step is one Woodbury solve through a
2(K+1)-square eigh, whose eigenvalues also give the exact test (Haynsworth).
A draw stops once max_n |df/dphi_n| <= GRAD_TOLERANCE f, a stationarity
test, or after MAX_STEPS steps.

`strategy_terms` is the one dispatch on the strategy: for each strategy in
turn it takes that strategy's phases and reduces them to their rate terms.
The random strategies take the caller's draw; the others read a draw from
its `se.DecompositionCache` alone, the weak row h_c,K+1^H included.  The
BS-RIS direction is set by xi in the sweep.
"""

from collections import namedtuple

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


# A damped Newton trial of a stack (`_newton_trial`); the fields after met (the
# stop test) are None when every draw meets the stop test.
_Trial = namedtuple(
    "_Trial", "f met grad delta Z E_inv d concave gain change y y_new", defaults=(None,) * 10
)


def _newton_trial(M, MH, theta_bar, lam) -> _Trial:
    """The damped Newton trial of each draw of a stack theta_bar [B, N_R+1]
    in its phases phi (theta_n = e^{j phi_n}, n < N_R; the last entry 1 is
    fixed), damped by lam max|grad f| ([B] lam), with what it is formed of.

    Model: with y = M theta_bar [B, K+1], D = 1 + sum_{j<K} |y_j|^2, the rows
    Re w_0, Im w_0, ..., Re w_K, Im w_K of Z [B, 2(K+1), N_R] (w_j = M_j o
    theta, entry by entry) and c = 2 (-f, -f, ..., 1, 1) / D (one per row),
    z = conj(theta_bar) o M^H (c o y) gives grad f = Im z [B, N_R] and
    -hess f = diag(delta) + Z^T E Z, delta = Re z, E = -diag(c) + (q p^T + p q^T) / D,
    where grad f = Z^T q and grad D = Z^T p: with t = 2 (Im y_0, -Re y_0, ...),
    q = c t / 2 and p is t with its last (the weak user's) two entries 0.
    E's 2x2 Woodbury capacitance has determinant -D^2, and its inverse
    E_inv = -diag(1/c) + g u^T + u g^T, u = t - p, g = (t - u / D) / (4f).

    Step: with a = delta + damping and Y = E_inv + Z diag(a)^{-1} Z^T =
    P diag(s) P^T, Woodbury gives d = (grad - Z^T Y^{-1} Z (grad / a)) / a
    [B, N_R], and Haynsworth's inertia additivity gives the damped matrix
    #(a < 0) + #(s > 0) - #(eig E_inv > 0) negative eigenvalues (concave [B]
    where there are none).  E_inv has 2K positive ones where f > 0 (f = 0 is
    a minimum, which meets the stop test): its strong block D/(2f) I is
    positive definite and the complement of that block, -(D/2) I, negative.

    Gain [B]: f(theta_bar e^{j d}) - f(theta_bar) is formed from
    y_new - y = M change, change = theta (e^{j d} - 1) = theta (-2 sin^2(d/2)
    + j sin d), so that a gain far below f's rounding still has its sign.
    """
    y = matvec(M, theta_bar)
    power = y.view(float) ** 2  # (Re y_0)^2, (Im y_0)^2, ...
    D = 1.0 + power[:, :-2].sum(-1)
    f = power[:, -2:].sum(-1) / D
    c = np.empty_like(power)
    c[:, :-2] = (-2.0 * f / D)[:, None]
    c[:, -2:] = (2.0 / D)[:, None]
    z = theta_bar.conj() * matvec(MH, (c * y.view(float)).view(complex))
    grad, delta = z.imag[:, :-1], z.real[:, :-1]
    slope = np.abs(grad).max(-1)
    met = slope <= GRAD_TOLERANCE * f
    if met.all():
        return _Trial(f, met)

    t = (-2j * y).view(float)
    g = t / (4.0 * f[:, None])
    g[:, -2:] *= (1.0 - 1.0 / D)[:, None]
    E_inv = np.zeros(t.shape + t.shape[-1:])
    E_inv[:, :, -2:] = g[:, :, None] * t[:, None, -2:]
    E_inv = E_inv + np.swapaxes(E_inv, 1, 2)
    E_inv.reshape(len(t), -1)[:, :: t.shape[-1] + 1] -= 1.0 / c
    w = (M[..., :-1] * theta_bar[:, None, :-1]).view(float)
    Z = np.swapaxes(w.reshape(*w.shape[:2], -1, 2), 2, 3).reshape(len(w), -1, w.shape[-1] // 2)
    a = delta + (lam * slope)[:, None]
    Za = Z / a[:, None, :]
    Y = E_inv + Za @ np.swapaxes(Z, 1, 2)
    if met.any():  # their steps are not taken, and f = 0 leaves Y non-finite
        Y[met] = np.eye(len(Y[0]))
    s, P = np.linalg.eigh(Y)
    x = matvec(P, matvec(np.swapaxes(P, 1, 2), matvec(Za, grad)) / s)
    d = grad / a - (x[:, None, :] @ Za)[:, 0]
    concave = (a < 0.0).sum(-1) + (s > 0.0).sum(-1) == len(s[0]) - 2

    change = theta_bar[:, :-1] * (-2.0 * np.sin(0.5 * d) ** 2 + 1j * np.sin(d))
    dy = matvec(M[..., :-1], change)
    dpower = (dy * (2.0 * y + dy).conj()).real  # |y + dy|^2 - |y|^2
    dD = dpower[:, :-1].sum(-1)
    gain = (dpower[:, -1] - f * dD) / (D + dD)
    return _Trial(f, met, grad, delta, Z, E_inv, d, concave, gain, change, y, y + dy)


def _ascend(cache: DecompositionCache, init: np.ndarray):
    """The optimizer's core on a stack: (theta_bar [B, N_R+1], steps [B],
    converged [B]), where steps counts each draw's steps, its SQUAREM step
    included, and converged says whether it met the gradient test.

    Each draw starts from the better of init [B, N_R+1] and phase(x / x_last)
    of the relaxed maximizer x (`_relaxed_maximizer`), and its first step is
    a SQUAREM step (`_squarem_step`).  Every later step is a damped Newton
    trial (`_newton_trial`, lambda from 1), which keeps theta e^{j d} if its
    damped matrix is positive definite and its f is not lower, dividing
    lambda by 3, else keeps theta and multiplies lambda by 10, then an MM
    step.  A draw stops once max|grad f| <= GRAD_TOLERANCE f (converged) or
    after MAX_STEPS steps; each draw's result does not depend on the other
    draws of its stack.  An empty stack returns at once.
    """
    if len(init) == 0:
        return init.copy(), np.zeros(0, int), np.zeros(0, bool)
    M, MH, mu, V = _mm_operands(cache)
    lam_max = mu[:, -1]
    theta_bar, f, Mt = _better(M, init, _phase(_relaxed_maximizer(M, mu, V)))
    if MAX_STEPS > 0:
        theta_bar = _squarem_step(M, MH, lam_max, theta_bar, f, Mt)

    out = np.empty_like(theta_bar)
    steps, converged = np.empty(len(out), dtype=int), np.empty(len(out), dtype=bool)
    index, lam = np.arange(len(out)), np.ones(len(out))
    # a step that is not positive definite or overflows is refused
    with np.errstate(all="ignore"):
        for step in range(min(MAX_STEPS, 1), MAX_STEPS + 1):
            trial = _newton_trial(M, MH, theta_bar, lam)
            f, (concave, gain, change, y, y_new) = trial.f, trial[7:]
            stop = trial.met | (step == MAX_STEPS)
            if stop.any():
                out[index[stop]] = theta_bar[stop]
                steps[index[stop]], converged[index[stop]] = step, trial.met[stop]
                if stop.all():
                    break
                go = ~stop
                index, M, MH, lam_max, lam = index[go], M[go], MH[go], lam_max[go], lam[go]
                theta_bar, f, concave, gain = theta_bar[go], f[go], concave[go], gain[go]
                change, y, y_new = change[go], y[go], y_new[go]
            keep = concave & (gain >= 0.0)
            if keep.all():
                lam, f, y = lam / 3.0, f + gain, y_new
                theta_bar[:, :-1] += change
            else:
                lam = np.where(keep, lam / 3.0, lam * 10.0)
                f = np.where(keep, f + gain, f)
                y = np.where(keep[:, None], y_new, y)
                theta_bar[keep, :-1] += change[keep]
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


def strategy_terms(kinds, cache: DecompositionCache, random_theta, out=None) -> dict:
    """{kind: se.RateTerms} of strategies `kinds` (each one of STRATEGIES),
    in their order, for a channel draw or a stack of B draws (row i being
    what draw i gets on its own): `se.rate_terms` of each strategy's phases.

    The RANDOM_STRATEGIES take `random_theta`, the draws' random phases
    shaped like theirs (a sweep's come from `channel.random_phase_block`);
    "statistical" is an alias of "random": under i.i.d. Rayleigh fading
    every unit-modulus vector gives the same ergodic rates.  "align_weak"
    takes `align_weak_user`, written into `out` (a caller-owned complex
    array of the phases' shape) if given, and "mitigation_aware" the
    optimizer started from those aligned phases.  An unknown kind, or
    random phases shaped unlike the draws, raises ValueError.
    """
    terms = {}
    for kind in kinds:
        if kind in RANDOM_STRATEGIES:
            theta = random_theta
        elif kind == "align_weak":
            theta = align_weak_user(cache.h_c_weak, out)
        elif kind == "mitigation_aware":
            theta = optimize_mitigation_aware(cache, align_weak_user(cache.h_c_weak, out))
        else:
            raise ValueError(f"unknown strategy kind {kind!r}")
        terms[kind] = rate_terms(cache, theta)
    return terms
