"""Independent oracles that the tests compare the runtime closed forms against.

Nothing in `risbc` imports this module.  Each routine here either builds the
full matrix that the runtime code avoids (the assembled composite channel,
the weak user's attenuated direct row, which the runtime does not model,
projectors, bordered Gram inverses, per-user covariance matrices), takes a
factorization of its own (generic inversion and log-determinant, the SVD
cross-checks of the projection split, the SVD construction of the BS-RIS
direction b at orthogonality xi, the dense N_R+1 square matrix Q of the
mitigation-aware objective and the dense gradient and Hessian of that
objective in the phases), or takes a direct numpy route the runtime code
avoids (the element-wise coordinate ascent that the batched optimizer is
measured against, the one-draw random phases that the block draw is
measured against, numpy's own seeding of a replication's streams, each
strategy's phases from its own functions rather than through the one
dispatch `phases.strategy_terms`, the scenario checks on numpy arrays that
the runtime makes on Python floats, and the input checks of
`linalg.check_finite`, `se.unit_phases` and `phases.align_weak_user` as
they were before each took one pass, and the argparse parser that
`risbc.cli` read its command line with), so that a test can check a
shortcut against the textbook formula.
"""

import argparse
from dataclasses import fields

import numpy as np

from risbc.bounds import EULER_GAMMA, BoundReport
from risbc.channel import (
    MAX_REP,
    ChannelRealization,
    ScenarioConfig,
    db_to_lin,
    draw_user_positions,
    pathloss_db,
    variate_count,
)
from risbc.cli import cmd_bounds, cmd_figure, cmd_sweep
from risbc.linalg import check_finite, herm, matvec
from risbc.phases import RANDOM_STRATEGIES, align_weak_user, optimize_mitigation_aware
from risbc.se import DecompositionCache

LOG2 = np.log(2.0)

# Singular values below RANK_TOL * sigma_max are treated as zero.
RANK_TOL = 1e-10

# b^H P_perp b below this is treated as "b inside the strong users' row
# space" and the orthogonality-split DPC form is flagged -inf / +inf.
BPP_TOL = 1e-12


# =========================================================================
# generic-matrix oracles
# =========================================================================
#
# Textbook evaluations from the assembled composite channel, by direct
# inversion and log-determinant.  They bypass the Gram decomposition
# entirely; se_zf_generic and se_dpc_logdet also evaluate a channel whose
# weak user has an attenuated direct row, which the runtime does not model
# (`weak_direct_row`).


def compose_channel(
    real: ChannelRealization, theta: np.ndarray, weak_direct: np.ndarray = None
) -> np.ndarray:
    """Assemble the composite channel H = H_d + H_c theta b^H, rows h_k^H.

    The weak user's direct row is zero, the idealization the runtime
    models, unless `weak_direct` [N_B] gives one.
    """
    if weak_direct is None:
        weak_direct = np.zeros(real.b.shape, dtype=complex)
    H_d = np.vstack([real.H_d_strong, weak_direct[None, :]])
    return H_d + (real.H_c @ theta)[:, None] * real.b.conj()[None, :]


def weak_direct_row(
    cfg: ScenarioConfig, rng: np.random.Generator, extra_loss_db: float
) -> np.ndarray:
    """The weak user's direct row h_d,K+1^H [N_B] of the draw that
    sample_realization(cfg, rng) makes from the same generator state, had
    its direct link the pathloss model pl_direct at its position plus
    direct_extra_loss_db and extra_loss_db: the stream's position uniforms,
    then its normals, whose direct part holds the weak user's N_B real
    parts and N_B imaginary parts last among the K+1 users' (the runtime
    skips them)."""
    positions = draw_user_positions(cfg, rng)
    x = rng.standard_normal(variate_count(cfg))
    distance = np.linalg.norm(positions[-1] - np.asarray(cfg.bs_pos))
    loss_db = pathloss_db(cfg.pl_direct, distance) + cfg.direct_extra_loss_db
    gain = db_to_lin(-(loss_db + extra_loss_db)) / db_to_lin(cfg.noise_dbm)
    K, n = cfg.n_strong, cfg.n_bs
    re, im = x[K * n : (K + 1) * n], x[(2 * K + 1) * n : (2 * K + 2) * n]
    return np.sqrt(gain / 2.0) * (re + 1j * im)


def se_zf_generic(H: np.ndarray, p_bar: float) -> float:
    """Zero-forcing sum SE from a generic channel matrix (rows h_k^H).

    Evaluates sum_k log2(1 + p_bar / [(H H^H)^{-1}]_kk) by direct inversion.
    """
    G = H @ H.conj().T
    inv_diag = np.real(np.diag(np.linalg.inv(G)))
    return float(np.sum(np.log2(1.0 + p_bar / inv_diag)))


def se_dpc_logdet(H: np.ndarray, p_bar: float) -> float:
    """DPC sum SE log2 det(I + p_bar H H^H) from a generic channel matrix."""
    G = H @ H.conj().T
    _, logdet = np.linalg.slogdet(np.eye(G.shape[0]) + p_bar * G)
    return float(logdet / LOG2)


# =========================================================================
# projection-split cross-checks
# =========================================================================


def _svd_row_space_split(H_d_strong: np.ndarray, b: np.ndarray) -> tuple:
    """(singular values of H_d^s, b^H P_perp b) from one thin SVD of H_d^s."""
    _, s, Vh = np.linalg.svd(H_d_strong, full_matrices=False)
    proj = Vh @ np.asarray(b, dtype=complex).ravel()
    return s, 1.0 - float(np.real(np.vdot(proj, proj)))


def se_dpc_orthogonal_form(
    real: ChannelRealization, theta: np.ndarray, p_bar: float
) -> float:
    """High-SNR DPC sum SE split along the BS-RIS direction b.

    log2 det(H_d^s H_d^{s,H} p_bar) + log2(b^H P_perp b) + log2(g p_bar),
    where P_perp projects onto the complement of the strong users' row
    space and g = |h_c,K+1^H theta|^2.  Computed by its own SVD and from
    the realization's own weak row, independently of `decompose`, so it
    can serve as a cross-check of the Gram form.  Returns -inf (flagged)
    when b lies inside that row space.
    """
    s, bpp = _svd_row_space_split(real.H_d_strong, real.b)
    if bpp <= BPP_TOL:
        return -np.inf
    g = np.abs(real.H_c[-1] @ theta) ** 2
    K = len(s)
    return float(
        2.0 * np.sum(np.log2(s))
        + K * np.log2(p_bar)
        + np.log2(bpp)
        + np.log2(g * p_bar)
    )


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


def cache_solve(cache: DecompositionCache, X: np.ndarray) -> np.ndarray:
    """C_s^{-1} X = U diag(1/lambda) U^H X through the cache's eigenpairs.

    X is [..., K] (one vector per draw) or [..., K, M] (M columns).
    """
    vector = X.ndim == cache.eigvals.ndim
    Y = herm(cache.eigvecs) @ (X[..., None] if vector else X)
    Z = cache.eigvecs @ (Y / cache.eigvals[..., None])
    return Z[..., 0] if vector else Z


def b_proj_perp(cache: DecompositionCache) -> float:
    """b^H P_perp_{H_d^{s,H}} b in [0, 1] from a decomposition, per draw.

    From the no-reflection identity 1 + c^H C_s^{-1} c = 1 / (b^H P_perp b)
    with the cache's feed c = H_d^s b; 0 where C_s is singular (b inside
    the strong users' row space).
    """
    c = cache.c
    # singular draws get 0; their solve is discarded, so its overflow is moot
    with np.errstate(all="ignore"):
        quad = np.real(np.sum(c.conj() * cache_solve(cache, c), axis=-1))
        bpp = 1.0 / (1.0 + quad)
    return np.where(cache.eigvals[..., -1] > 0, bpp, 0.0)[()]


def construct_b_orthogonality(
    V_s: np.ndarray, v_perp: np.ndarray, xi: float
) -> np.ndarray:
    """Unit vector b at prescribed orthogonality xi to the strong row space.

    b' = V_s 1 / ||V_s 1|| + xi * v_perp / ||v_perp||, b = b' / ||b'||, so
    that b^H P_perp b = xi^2 / (1 + xi^2): xi = 0 places b inside
    range(V_s) (worst case), large xi makes b orthogonal to it.  The
    runtime never builds b: it scales the feed, c(xi) = c(0) / sqrt(1 + xi^2)
    (`risbc.se.row_space_feed`).

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
    """b(xi) with V_s and a complement direction from the full SVD of H_d^s.

    H_d_strong [..., K, N_B] gives one direction per draw, [..., N_B].
    """
    K = H_d_strong.shape[-2]
    _, _, Vh = np.linalg.svd(H_d_strong, full_matrices=True)
    V = herm(Vh)
    return construct_b_orthogonality(V[..., :K], V[..., K], xi)


# =========================================================================
# dense-matrix oracles
# =========================================================================


def orth_projector(b: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of a unit vector.

    Args:
        b: [n] unit-norm complex vector.

    Returns:
        [n, n] matrix P = I - b b^H with P @ b = 0 and P @ P = P.
    """
    b = check_finite(b, "b").ravel()
    if abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError("unnormalized direction")
    return np.eye(b.size, dtype=complex) - np.outer(b, b.conj())


def range_projector(M: np.ndarray) -> np.ndarray:
    """Projector onto the row space of M, i.e. onto range(M^H).

    Equals M^H (M M^H)^{-1} M for full-row-rank M; computed via SVD.

    Args:
        M: [k, n] complex matrix with linearly independent rows.

    Returns:
        [n, n] Hermitian idempotent projector.
    """
    M = check_finite(M, "M")
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise ValueError("rank deficient")
    return Vh.conj().T @ Vh


def gram_block_inverse(C_s: np.ndarray, d_s: np.ndarray, g: float) -> np.ndarray:
    """Closed-form inverse of the bordered Gram matrix of the composite channel.

    The (K+1)x(K+1) Gram matrix H H^H of the composite channel takes the form

        [[C_s + d_s d_s^H / g,  d_s],
         [d_s^H,                g  ]]

    where C_s is the strong users' projected Gram matrix, d_s couples the
    strong users to the weak user's reflected link, and g > 0 is the weak
    user's channel gain.  The Schur complement w.r.t. g is exactly C_s, so
    the inverse has C_s^{-1} as its top-left block and

        [H H^H]^{-1}_{K+1,K+1} = (1 + d_s^H C_s^{-1} d_s / g) / g.

    Args:
        C_s: [K, K] Hermitian positive definite.
        d_s: [K] complex coupling vector.
        g: positive scalar.

    Returns:
        [K+1, K+1] inverse of the assembled Gram matrix.
    """
    C_s = check_finite(C_s, "C_s")
    d_s = check_finite(d_s, "d_s").ravel()
    if g <= 0:
        raise ValueError("weak user unreachable")
    K = C_s.shape[0]
    Cinv_ds = np.linalg.solve(C_s, d_s)
    mit = np.real(np.vdot(d_s, Cinv_ds)) / g
    out = np.empty((K + 1, K + 1), dtype=complex)
    out[:K, :K] = np.linalg.inv(C_s)
    out[:K, K] = -Cinv_ds / g
    out[K, :K] = out[:K, K].conj()
    out[K, K] = (1.0 + mit) / g
    return out


def projected_gram(H_d_strong: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_s = H (I - b b^H) H^H with the dense N_B x N_B projector."""
    return H_d_strong @ orth_projector(b) @ H_d_strong.conj().T


def dense_reflected_rate_upper_bound(theta, h_c_weak_draws, n_bs, a, pl, p_bar):
    """The ergodic upper bound on the weak user's high-SNR ZF rate from the
    full per-user covariance matrices,

        E[ log2( |h_c,K+1^H theta|^2 p_bar
                 / (e^{-gamma} sum_k theta^H R_c,k theta / tr(R_d,k)) ) ],

    with R_d,k = L_d,k I_{N_B} and R_c,k = diag(a*) L_r,k I_{N_R} diag(a)
    L_G N_B over the K strong users.
    """
    rows = np.atleast_2d(np.asarray(h_c_weak_draws, dtype=complex))
    Th = np.atleast_2d(np.asarray(theta, dtype=complex))
    if Th.shape[0] == 1:
        Th = np.broadcast_to(Th, rows.shape)
    Da = np.diag(np.asarray(a, dtype=complex).ravel())
    n_ris = Da.shape[0]
    gain = np.abs(np.sum(rows * Th, axis=1)) ** 2
    denom = np.zeros(rows.shape[0])
    for L_d, L_r in zip(pl.L_d, pl.L_r[:-1]):
        R_d = L_d * np.eye(n_bs)
        R_c = Da.conj().T @ (L_r * np.eye(n_ris)) @ Da * pl.L_G * n_bs
        quad = np.real(np.einsum("ia,ab,ib->i", Th.conj(), R_c, Th))
        denom += quad / np.real(np.trace(R_d))
    denom *= np.exp(-EULER_GAMMA)
    return float(np.mean(np.log2(gain * p_bar / denom)))


def harmonic_mean_bound_check(h: np.ndarray, M: np.ndarray) -> BoundReport:
    """Check h^H M^{-1} h >= ||h||^4 / (h^H M h) for Hermitian PD M, as a
    one-row table."""
    h = np.asarray(h, dtype=complex).ravel()
    M = np.asarray(M, dtype=complex)
    lhs = float(np.real(np.vdot(h, np.linalg.solve(M, h))))
    rhs = float(np.linalg.norm(h) ** 4 / np.real(np.vdot(h, M @ h)))
    slack = lhs - rhs
    return BoundReport("harmonic_mean", float(h.size), lhs, rhs, slack >= -1e-12, slack)


# =========================================================================
# E1 one x at a time
# =========================================================================


def reference_e1(x: float, scaled: bool = False) -> float:
    """E1(x), or e^x E1(x) when scaled, by the scalar loops that the array
    E1 of `risbc.bounds` runs entry by entry: the power series for x <= 1,
    the modified-Lentz continued fraction of Numerical Recipes 6.3 above."""
    x = float(x)
    if x <= 1.0:
        total = -EULER_GAMMA - np.log(x)
        term = 1.0
        for k in range(1, 300):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * abs(total):
                return np.exp(x) * total if scaled else total
    else:
        tiny = 1e-300
        b = x + 1.0
        f = C = b
        D = 0.0
        for j in range(1, 300):
            a = -float(j * j)
            b += 2.0
            D = b + a * D
            D = 1.0 / (D if D != 0.0 else tiny)
            C = b + a / C
            if C == 0.0:
                C = tiny
            delta = C * D
            f *= delta
            if abs(delta - 1.0) < 1e-15:
                return 1.0 / f if scaled else np.exp(-x) * 1.0 / f
    raise RuntimeError(f"no convergence at x = {x!r}")


# =========================================================================
# numpy's seeding of a replication, and random phases of one draw
# =========================================================================


def rep_seeds(seed: int, rep: int) -> list:
    """[channel, phase] seed sequences of replication `rep` of a seeded run:
    numpy's own spawned children of SeedSequence([seed, rep]), the
    definition that `channel.stream_states` computes the starts of in one
    array pass.  A replication's channel draw and random phase draw are
    independent of each other and of every other replication."""
    return np.random.SeedSequence([seed, rep]).spawn(2)



def random_phases(n_ris: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus phases with angles uniform on [0, 2*pi), drawn one
    vector at a time (the sweep draws a block's with
    `channel.random_phase_block`)."""
    if n_ris < 1:
        raise ValueError("need at least one element")
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_ris))


def exp_aligned_phases(h_c_weak: np.ndarray) -> np.ndarray:
    """The weak-user-aligned phases exp(-j arg(h_c,K+1^H)) of stored rows
    [..., N_R], through the complex exponential (1 at zero entries, whose
    angle is 0)."""
    return np.exp(-1j * np.angle(h_c_weak))


def strategy_phases(kind: str, cache: DecompositionCache, random_theta) -> np.ndarray:
    """Strategy `kind`'s phases of a draw or a stack from the per-strategy
    functions, without `phases.strategy_terms`: the random draw for the
    random strategies, else the aligned phases, or the optimizer started
    from them."""
    if kind in RANDOM_STRATEGIES:
        return random_theta
    aligned = align_weak_user(cache.h_c_weak)
    if kind == "align_weak":
        return aligned
    return optimize_mitigation_aware(cache, aligned)


# =========================================================================
# rate terms through the extended phases
# =========================================================================


def extended_rate_terms(cache: DecompositionCache, theta: np.ndarray) -> tuple:
    """(g, cross) of a draw or a stack from D_s theta_bar, theta_bar =
    [theta; 1]: g = |h_c,K+1^H theta|^2 and cross = |U^H D_s theta_bar|^2,
    with D_s = [H_c^s, c] concatenated."""
    theta_bar = np.concatenate([theta, np.ones(theta.shape[:-1] + (1,))], axis=-1)
    g = np.abs(np.sum(cache.h_c_weak * theta, axis=-1)) ** 2
    cross = np.abs(matvec(herm(cache.eigvecs), matvec(cache.D_s, theta_bar))) ** 2
    return g, cross


# =========================================================================
# the mitigation-aware objective with a dense Q
# =========================================================================


def mitigation_matrix(cache: DecompositionCache) -> tuple:
    """(Q, a) of one draw, f(theta) = |a^H theta_bar|^2 / (1 + theta_bar^H Q theta_bar).

    Q = D_s^H C_s^{-1} D_s [N_R+1, N_R+1] by a dense solve with C_s
    reassembled from the cache's eigenpairs, and a = [h_c,K+1; 0].
    """
    C_s = (cache.eigvecs * cache.eigvals) @ cache.eigvecs.conj().T
    Q = cache.D_s.conj().T @ np.linalg.solve(C_s, cache.D_s)
    a = np.append(cache.h_c_weak.conj(), 0.0)
    return 0.5 * (Q + Q.conj().T), a


def dense_objective(cache: DecompositionCache, theta: np.ndarray) -> float:
    """f(theta) of one draw from the dense Q and a (`mitigation_matrix`)."""
    Q, a = mitigation_matrix(cache)
    tb = np.append(theta, 1.0)
    return abs(np.vdot(a, tb)) ** 2 / (1.0 + np.real(np.vdot(tb, Q @ tb)))


def relaxed_maximizer(cache: DecompositionCache) -> np.ndarray:
    """x = (Q + I/(N_R+1))^{-1} a by a dense solve, [N_R+1]."""
    Q, a = mitigation_matrix(cache)
    return np.linalg.solve(Q + np.eye(a.size) / a.size, a)


def relaxation_bound(cache: DecompositionCache) -> float:
    """a^H (Q + I/(N_R+1))^{-1} a: no unit-modulus theta has a larger f."""
    _, a = mitigation_matrix(cache)
    return float(np.real(np.vdot(a, relaxed_maximizer(cache))))


def reference_mm_step(cache: DecompositionCache, theta: np.ndarray) -> np.ndarray:
    """One Dinkelbach-MM step from theta with the dense Q:
    phase(f lambda_max(Q) theta_bar + a a^H theta_bar - f Q theta_bar),
    rotated so that its last entry is 1; returns the [N_R] phases."""
    Q, a = mitigation_matrix(cache)
    tb = np.append(theta, 1.0)
    f = abs(np.vdot(a, tb)) ** 2 / (1.0 + np.real(np.vdot(tb, Q @ tb)))
    x = f * np.linalg.eigvalsh(Q)[-1] * tb + a * np.vdot(a, tb) - f * (Q @ tb)
    x = x / np.abs(x)
    return x[:-1] * np.conj(x[-1])


def phase_derivatives(cache: DecompositionCache, theta: np.ndarray) -> tuple:
    """(f, grad f, hess f) of one draw in its phases phi (theta_n = e^{j phi_n}),
    [N_R] and [N_R, N_R], from the dense Q and a.

    A quadratic form F = theta_bar^H B theta_bar (B Hermitian, v = B theta_bar)
    has dF/dphi_n = 2 Im(conj(theta_n) v_n) and d^2F/dphi_n dphi_m =
    2 Re(conj(theta_n) B_nm theta_m) - [n = m] 2 Re(conj(theta_n) v_n).  With
    N = |a^H theta_bar|^2 (B = a a^H) and D = 1 + theta_bar^H Q theta_bar,
    f = N / D has grad f = (grad N - f grad D) / D and
    hess f = (hess N - f hess D - grad f grad D^T - grad D grad f^T) / D.
    """
    Q, a = mitigation_matrix(cache)
    tb = np.append(theta, 1.0)

    def form(B):
        v = B @ tb
        grad = 2.0 * np.imag(tb.conj() * v)
        hess = 2.0 * np.real(tb.conj()[:, None] * B * tb[None, :])
        hess -= np.diag(2.0 * np.real(tb.conj() * v))
        value = float(np.real(np.vdot(tb, v)))
        return value, grad[:-1], hess[:-1, :-1]

    (N, gN, hN), (q, gD, hD) = form(np.outer(a, a.conj())), form(Q)
    D = 1.0 + q
    f = N / D
    grad = (gN - f * gD) / D
    hess = (hN - f * hD - np.outer(grad, gD) - np.outer(gD, grad)) / D
    return f, grad, hess


# =========================================================================
# mitigation-aware coordinate ascent in numpy
# =========================================================================

# The coordinate ascent stops after CA_MAX_SWEEPS sweeps, or once a full
# sweep raises the objective by less than CA_REL_TOLERANCE (relative).
CA_MAX_SWEEPS = 100
CA_REL_TOLERANCE = 1e-8


def reference_best_phase(phi_cur, A, ctil, B, dtil):
    """Maximize (A + 2 Re(ctil e^{j phi})) / (B + 2 Re(dtil e^{j phi})) over phi.

    The angle form of the Dinkelbach step: lambda* is the larger root of
        (B^2 - 4|dtil|^2) lambda^2 - 2 (A B - 4 Re(ctil dtil*)) lambda
            + (A^2 - 4|ctil|^2) = 0,
    whose leading coefficient is positive since B - 2|dtil| >= 1; the
    maximizer is phi* = -arg(ctil - lambda* dtil), and the current angle is
    kept unless phi* is at least as good, so a step never lowers the ratio.
    """
    a = B * B - 4.0 * abs(dtil) ** 2
    half_b = A * B - 4.0 * np.real(ctil * np.conj(dtil))
    c = A * A - 4.0 * abs(ctil) ** 2
    lam = (half_b + np.sqrt(max(half_b * half_b - a * c, 0.0))) / a
    phi = np.array([-np.angle(ctil - lam * dtil), phi_cur])
    e = np.exp(1j * phi)
    f = (A + 2.0 * np.real(ctil * e)) / (B + 2.0 * np.real(dtil * e))
    return float(phi[0]) if f[0] >= f[1] else float(phi_cur)


def reference_optimize_mitigation_aware(cache, init):
    """Element-wise coordinate ascent on |h^H theta|^2 / (1 + mitigation), one
    draw, every step in numpy: t = D_s theta_bar and w = C_s^{-1} t are
    carried as K-vectors, and element n's coefficients come from
    t0 = t - d_n theta_n and w0 = w - e_n theta_n.  Elements are swept in
    ascending index order; each update is `reference_best_phase` of
    element n's ratio of two sinusoids, so the objective never falls.
    """
    h_c_weak = cache.h_c_weak
    theta = np.asarray(init, dtype=complex).ravel().copy()
    D_s = cache.D_s
    E = cache_solve(cache, D_s)
    q = np.real(np.sum(D_s.conj() * E, axis=0))
    obj_prev = None
    for _ in range(CA_MAX_SWEEPS):
        theta_bar = np.append(theta, 1.0)
        t = D_s @ theta_bar
        w = E @ theta_bar
        s = h_c_weak @ theta
        for n in range(theta.size):
            th_n = theta[n]
            s0 = s - h_c_weak[n] * th_n
            t0 = t - D_s[:, n] * th_n
            w0 = w - E[:, n] * th_n
            A = np.abs(s0) ** 2 + np.abs(h_c_weak[n]) ** 2
            ctil = np.conj(s0) * h_c_weak[n]
            B = 1.0 + np.real(np.vdot(t0, w0)) + q[n]
            dtil = np.vdot(t0, E[:, n])
            new = np.exp(1j * reference_best_phase(np.angle(th_n), A, ctil, B, dtil))
            diff = new - th_n
            theta[n] = new
            s = s0 + h_c_weak[n] * new
            t += D_s[:, n] * diff
            w += E[:, n] * diff
        obj = np.abs(s) ** 2 / (1.0 + np.real(np.vdot(t, w)))
        if obj_prev is not None and obj - obj_prev <= CA_REL_TOLERANCE * max(
            obj_prev, 1e-300
        ):
            break
        obj_prev = obj
    return theta


# =========================================================================
# the scenario checks on numpy arrays
# =========================================================================

# ScenarioConfig's real-valued fields in its check order, which is their
# declaration order: each must be finite
REAL_SCENARIO_FIELDS = (
    "bs_pos", "ris_pos", "user_circle_center", "user_circle_radius", "ptx_dbm",
    "noise_dbm", "direct_extra_loss_db", "pl_direct", "pl_ris_user", "pl_los",
    "aoa", "aod",
)


def scenario_problem(**updates):
    """The message ScenarioConfig(**updates) must raise for its first
    non-finite field or link out of range, or None if it has neither.

    The checks run on numpy arrays under np.errstate, as the runtime made
    them before they moved to Python floats: a distance is np.linalg.norm
    or np.hypot, a gain 10 ** (-(loss + extra) / 10) / sigma^2, and
    overflow gives inf and underflow 0.  The integer, radius and seed
    checks between the two are left out: `updates` must pass them.
    """
    cfg = {f.name: f.default for f in fields(ScenarioConfig)}
    cfg.update(updates)
    for name in REAL_SCENARIO_FIELDS:
        value = cfg[name]
        if not np.all(np.isfinite(value)):
            return f"{name} must be finite, got {value!r}"
    with np.errstate(all="ignore"):
        return _link_problem(cfg)


def _link_problem(cfg):
    def lin(x_db):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)

    sigma2 = lin(cfg["noise_dbm"])
    if not 0.0 < sigma2 < np.inf:
        return (
            f"noise_dbm = {cfg['noise_dbm']:g} gives a noise power of "
            f"{sigma2:g} mW; it must be finite and positive"
        )
    bs = np.asarray(cfg["bs_pos"], dtype=float)
    ris = np.asarray(cfg["ris_pos"], dtype=float)
    center = np.asarray(cfg["user_circle_center"], dtype=float)
    radius = cfg["user_circle_radius"]

    def circle_distances(point):
        offset = point - center
        radial = np.hypot(offset[0], offset[1])
        return tuple(
            float(np.hypot(r, offset[2]))
            for r in (max(radial - radius, 0.0), radial + radius)
        )

    users = "the user circle (user_circle_center, user_circle_radius)"
    links = (
        ("ris_pos", "bs_pos", (np.linalg.norm(ris - bs),), "pl_los",
         "the BS-RIS gain L_G", 0.0, 1.0),
        (users, "bs_pos", circle_distances(bs), "pl_direct",
         "a strong user's direct gain (direct_extra_loss_db, noise_dbm)",
         cfg["direct_extra_loss_db"], sigma2),
        (users, "ris_pos", circle_distances(ris), "pl_ris_user",
         "a user's RIS gain (noise_dbm)", 0.0, sigma2),
    )
    for source, target, d, model, name, extra, noise in links:
        alpha, beta = cfg[model]
        loss = alpha + beta * np.log10(d) if d[0] > 0 else np.array([-np.inf])
        if loss[0] < 0.0:
            return (
                f"{source} comes within {d[0]:.3g} m of {target}, where "
                f"{model} gives a pathloss of {loss[0]:.3g} dB; every link "
                "needs a pathloss of at least 0 dB"
            )
        gain = lin(-(loss + extra)) / noise
        ok = (gain > 0.0) & (gain < np.inf)
        if not ok.all():
            i = np.argmin(ok)
            return (
                f"{source} at {d[i]:.3g} m from {target}: {model} gives "
                f"{name} of {gain[i]:.3g}, which must be finite and positive"
            )
    return None


# =========================================================================
# the input checks, entry by entry
# =========================================================================
#
# The runtime's checks each take one pass over their array: a complex sum
# for finiteness, the max and min modulus for unit phases, and one divide
# for the aligned phases.  These are the former bodies, which test each
# entry, so a test can check that both accept and reject the same arrays
# with the same messages.


def check_finite_reference(A, name="matrix") -> np.ndarray:
    """A as a complex ndarray, ValueError if any entry is NaN or infinite."""
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def unit_phases_reference(theta) -> np.ndarray:
    """Phases theta as a complex array: finite (checked first), then
    max ||theta_n| - 1| <= 1e-12 (ValueError otherwise)."""
    theta = np.atleast_1d(check_finite_reference(theta, "theta"))
    error = np.abs(theta)
    error -= 1.0
    if np.max(np.abs(error, out=error)) > 1e-12:
        raise ValueError("phase entries must be unit modulus")
    return theta


def align_weak_user_reference(h_c_weak) -> np.ndarray:
    """conj(h) / |h| of finite rows h, entry by entry, with 1 where h is 0."""
    h_c_weak = check_finite_reference(h_c_weak, "h_c_weak")
    r = np.abs(h_c_weak)
    out = np.conjugate(h_c_weak)
    nonzero = r > 0.0
    np.divide(out, r, out=out, where=nonzero)
    out[~nonzero] = 1.0
    return out


# =========================================================================
# the command line as argparse read it
# =========================================================================
#
# `risbc.cli` reads argv from one table in one pass.  This is the argparse
# parser it replaced, with its range-checking type, so a test can check that
# both give the same fields or exit with the same code.


def _int_in(low: int, high: int = None):
    """argparse type: an integer of at least `low` (and at most `high`)."""

    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return int(text)

    parse.__name__ = "int"  # so a non-integer gets argparse's "invalid int value"
    return parse


def cli_parser_reference() -> argparse.ArgumentParser:
    """The parser whose `parse_args(argv)` gave `risbc.cli.main` its fields."""
    parser = argparse.ArgumentParser(
        prog="risbc",
        description="Sum-SE sweeps and bound reports for the RIS-aided "
        "broadcast downlink with one RIS-only user.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured Monte Carlo sweep")
    p_sweep.add_argument("--config", help="INI config file (omit for defaults)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="check the analytic bounds, write report")
    p_bounds.add_argument(
        "--grid-points",
        type=_int_in(1),
        default=1000,
        help="x grid size (default 1000)",
    )
    p_bounds.set_defaults(fn=cmd_bounds)

    p_fig = sub.add_parser("figure", help="run a preset figure sweep")
    p_fig.add_argument("number", type=int, choices=(2, 3, 4, 5))
    p_fig.set_defaults(fn=cmd_figure)

    for p in (p_sweep, p_bounds, p_fig):
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--seed", type=_int_in(0), help="override the run seed")
        if p is not p_bounds:
            reps = _int_in(1, MAX_REP + 1)  # a replication index is one 32-bit word
            p.add_argument("--reps", type=reps, help="override replications")
    return parser
