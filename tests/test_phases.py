import cmath

import numpy as np
import pytest

import oracles
from risbc import phases
from risbc.channel import (
    ScenarioConfig,
    draw_block,
    realize_block,
    sample_realization,
    stream_states,
)
from risbc.phases import align_weak_user, optimize_mitigation_aware, select_phases
from risbc.linalg import herm
from risbc.se import decompose, extended_phases, rate_terms

from oracles import (
    b_from_xi,
    construct_b_orthogonality,
    projected_gram,
    random_phases,
    reference_best_phase,
    reference_optimize_mitigation_aware,
    rep_seeds,
)


def instance(seed, n_bs=6, n_ris=8, n_strong=3, **kw):
    cfg = ScenarioConfig(n_bs=n_bs, n_ris=n_ris, n_strong=n_strong, **kw)
    real = sample_realization(cfg, np.random.default_rng(rep_seeds(seed, 0)[0]))
    return cfg, real, decompose(real)


def block(seed, reps, **kw):
    """The decomposed block of replications 0..reps-1 of a scenario."""
    cfg = ScenarioConfig(seed=seed, **kw)
    _, pl, x = draw_block(cfg, stream_states(seed, range(reps)))
    return decompose(realize_block(cfg, pl, x))


def objective(cache, theta):
    """The mitigation-aware objective f = g / (1 + mitigation) at theta."""
    terms = rate_terms(cache, theta)
    return terms.g / (1.0 + terms.mitigation())


def objectives(cache, theta):
    """f of every draw of a stack."""
    return np.array([objective(cache[i], t) for i, t in enumerate(theta)])


# ------------------------------------------------------------------ random


def test_random_phases_unit_modulus_and_reproducible():
    t1 = random_phases(64, np.random.default_rng(0))
    t2 = random_phases(64, np.random.default_rng(0))
    assert np.max(np.abs(np.abs(t1) - 1.0)) < 1e-12
    assert np.array_equal(t1, t2)


def test_random_phases_zero_mean():
    t = random_phases(100_000, np.random.default_rng(1))
    assert abs(np.mean(t)) < 0.01


def test_statistical_equals_random_distributionally():
    # both take the same phase draw (alias under i.i.d. fading)
    _, _, cache = instance(2, n_ris=16)
    theta = random_phases(16, np.random.default_rng(2))
    a = select_phases("statistical", cache, theta)
    b = select_phases("random", cache, theta)
    assert np.array_equal(a, b)
    assert np.array_equal(a, theta)


# ------------------------------------------------------------------ align


def test_align_two_element():
    h_row = np.array([1.0, -1j])  # stores h^H, i.e. conj of h = (1, j)
    theta = align_weak_user(h_row)
    assert np.allclose(theta, [1.0, 1j])
    assert abs(h_row @ theta) ** 2 == pytest.approx(4.0, abs=1e-12)


def test_align_real_positive_row_gives_ones():
    theta = align_weak_user(np.array([0.5, 2.0, 1.0]))
    assert np.allclose(theta, 1.0)


def test_align_dominates_random_search():
    rng = np.random.default_rng(3)
    h_row = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    best = max(
        abs(h_row @ random_phases(12, rng)) ** 2 for _ in range(1000)
    )
    aligned = abs(h_row @ align_weak_user(h_row)) ** 2
    assert aligned >= best
    assert aligned == pytest.approx(np.sum(np.abs(h_row)) ** 2, rel=1e-12)


@pytest.mark.parametrize("stacked", [False, True])
def test_align_equals_the_complex_exponential(stacked):
    # conj(h) / |h| against exp(-j angle(h)), on real draws with some
    # entries set to zero, which both send to exactly 1
    if stacked:
        rows = block(4, 40, n_ris=256).h_c_weak.copy()
    else:
        rows = instance(4, n_ris=256)[2].h_c_weak.copy()
    zero = np.zeros(rows.shape, dtype=bool)
    zero[..., ::17] = True
    rows[zero] = 0.0
    theta = align_weak_user(rows)
    assert theta.shape == rows.shape
    assert np.max(np.abs(theta - oracles.exp_aligned_phases(rows))) <= 1e-15
    assert np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-15
    assert np.all(theta[zero] == 1.0)


# ------------------------------------------------------------------ optimizer


def ratio(x, A, ctil, B, dtil):
    """Element n's ratio at unit phasor(s) x."""
    return (A + 2.0 * np.real(ctil * x)) / (B + 2.0 * np.real(dtil * x))


def element_coefficients(cache, theta, n):
    """(A, ctil, B, dtil) of f(theta) as a function of element n's phasor."""
    h_c_weak = cache.h_c_weak
    s0 = h_c_weak @ theta - h_c_weak[n] * theta[n]
    theta_bar = np.append(theta, 1.0)
    theta_bar[n] = 0.0
    E = oracles.cache_solve(cache, cache.D_s)
    t0 = cache.D_s @ theta_bar
    w0 = E @ theta_bar
    A = abs(s0) ** 2 + abs(h_c_weak[n]) ** 2
    B = 1.0 + np.real(np.vdot(t0, w0)) + np.real(np.vdot(cache.D_s[:, n], E[:, n]))
    return A, np.conj(s0) * h_c_weak[n], B, np.vdot(t0, E[:, n])


def test_best_phase_matches_dense_grid_on_real_draws():
    grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
    rng = np.random.default_rng(11)
    for seed in range(20):
        _, _, cache = instance(seed, n_bs=8, n_ris=16, n_strong=1 + seed % 3)
        theta = random_phases(16, rng)
        for n in (0, 7, 15):
            coef = element_coefficients(cache, theta, n)
            x = np.exp(1j * reference_best_phase(np.angle(theta[n]), *coef))
            f = ratio(x, *coef)
            on_grid = ratio(grid, *coef)
            # the grid misses the peak by at most max|f''| step^2 / 8
            second_diff = np.roll(on_grid, 1) + np.roll(on_grid, -1) - 2.0 * on_grid
            assert on_grid.max() * (1.0 - 1e-12) <= f
            assert f <= on_grid.max() + np.max(np.abs(second_diff)) / 8.0 + 1e-12 * f
            # the coefficients reproduce the objective of the real draw
            moved = theta.copy()
            moved[n] = x
            assert f == pytest.approx(oracles.dense_objective(cache, moved), rel=1e-10)


def test_best_phase_keeps_an_optimal_current_angle():
    _, _, cache = instance(12)
    theta = align_weak_user(cache.h_c_weak)
    for n in range(8):
        coef = element_coefficients(cache, theta, n)
        best = reference_best_phase(np.angle(theta[n]), *coef)
        again = reference_best_phase(best, *coef)
        assert ratio(np.exp(1j * again), *coef) >= ratio(np.exp(1j * best), *coef)
    # no coupling: (2 + cos phi) / 3 peaks exactly at the current angle 0
    peak = (2.0, 0.5 + 0.0j, 3.0, 0.0j)
    assert ratio(np.exp(1j * reference_best_phase(0.0, *peak)), *peak) >= ratio(1.0, *peak)
    # constant ratio (no coupling, no other element): any angle is optimal
    flat = (2.0, 0.0j, 3.0, 0.0j)
    assert ratio(np.exp(1j * reference_best_phase(0.3, *flat)), *flat) == 2.0 / 3.0
    # ctil = lambda dtil and A = lambda B: the ratio is 1/2 for every phase,
    # so z = ctil - lambda* dtil = 0 has no direction; the angle form still
    # returns a finite angle, at which the ratio is 1/2
    const = (1.5, 0.25 + 0.25j, 3.0, 0.5 + 0.5j)
    phi = reference_best_phase(0.3, *const)
    assert np.isfinite(phi)
    assert ratio(np.exp(1j * phi), *const) == pytest.approx(0.5, rel=1e-12)
    assert ratio(cmath.exp(0.3j), *const) == pytest.approx(0.5, rel=1e-12)


def test_optimizer_monotone_from_init():
    for seed in range(100):
        _, _, cache = instance(seed)
        init = align_weak_user(cache.h_c_weak)
        theta = optimize_mitigation_aware(cache, init)
        assert np.max(np.abs(np.abs(theta) - 1.0)) < 1e-12
        f0 = objective(cache, init)
        f1 = objective(cache, theta)
        assert f1 >= f0 * (1.0 - 1e-9)


def test_optimizer_monotone_from_random_inits():
    rng = np.random.default_rng(4)
    for seed in range(20):
        _, _, cache = instance(seed, n_ris=6)
        init = random_phases(6, rng)
        theta = optimize_mitigation_aware(cache, init)
        f0 = objective(cache, init)
        f1 = objective(cache, theta)
        assert f1 >= f0 * (1.0 - 1e-9)


def test_optimizer_reduces_to_alignment_without_coupling():
    # strong rows that do not touch the theta entries: denominator constant
    _, _, cache = instance(7)
    cache.H_c[:-1] = 0.0
    h_c_weak = cache.h_c_weak
    init = random_phases(8, np.random.default_rng(5))
    theta = optimize_mitigation_aware(cache, init)
    gain = abs(h_c_weak @ theta) ** 2
    assert gain == pytest.approx(np.sum(np.abs(h_c_weak)) ** 2, rel=1e-9)
    # with no gain either (h_3 = 0), element 3's MM coefficient is
    # f lambda_max theta_3 alone: every step keeps its phase, and the start
    # (here the relaxed maximizer, whose entry 3 is phase(0) = 1) stands
    cache.h_c_weak[3] = 0.0
    theta = optimize_mitigation_aware(cache, init)
    assert theta[3] == 1.0
    assert abs(h_c_weak @ theta) ** 2 == pytest.approx(
        np.sum(np.abs(h_c_weak)) ** 2, rel=1e-9
    )


REFERENCE_CASES = [(12, n_ris, k) for n_ris in (8, 64, 256) for k in (1, 2, 3)]
REFERENCE_CASES += [(4, 16, k) for k in (1, 2, 3)]

# The coordinate ascent stops within a relative 1e-8 (CA_REL_TOLERANCE) of
# where it is going, and the batched optimizer at a stationary point, so
# where they reach the same optimum log2 f may differ by a few 1e-8.
STOPPING_SLACK_BITS = 1e-7


@pytest.mark.parametrize("n_bs, n_ris, n_strong", REFERENCE_CASES)
def test_optimizer_matches_numpy_reference(n_bs, n_ris, n_strong, monkeypatch):
    # the batched optimizer against the numpy coordinate ascent (CA) it
    # replaced: they reach different local optima, so equality no longer
    # holds; on a five-draw block of each shape, the median and the mean of
    # log2 f - log2 f_CA are not below the stopping slack.  At N_R = 256 CA
    # would take about 1 s a draw to its cap, so it stops after 10 sweeps.
    if n_ris == 256:
        monkeypatch.setattr(oracles, "CA_MAX_SWEEPS", 10)
    cache = block(0, 5, n_bs=n_bs, n_ris=n_ris, n_strong=n_strong)
    init = align_weak_user(cache.h_c_weak)
    theta = optimize_mitigation_aware(cache, init)
    ref = [reference_optimize_mitigation_aware(cache[i], init[i]) for i in range(5)]
    gap = np.log2(objectives(cache, theta)) - np.log2(objectives(cache, ref))
    assert np.median(gap) >= -STOPPING_SLACK_BITS
    assert np.mean(gap) >= -STOPPING_SLACK_BITS
    assert np.all(objectives(cache, theta) >= objectives(cache, init) * (1.0 - 1e-12))


def test_optimizer_not_below_coordinate_ascent_on_a_default_block():
    # over a 12-draw block of the default scenario, MM is not below CA in
    # the median nor in the mean of log2 f - log2 f_CA
    cache = block(0, 12)
    init = align_weak_user(cache.h_c_weak)
    theta = select_phases("mitigation_aware", cache, None)
    ref = [reference_optimize_mitigation_aware(cache[i], init[i]) for i in range(12)]
    gap = np.log2(objectives(cache, theta)) - np.log2(objectives(cache, ref))
    assert np.median(gap) >= 0.0
    assert np.mean(gap) >= 0.0


# ------------------------------------------------- MM certificates


def certificate_stacks():
    """Default draws and small ones (N_B = 4, N_R = 4, K = 1..3)."""
    yield block(1, 8)
    for k in (1, 2, 3):
        yield block(2, 8, n_bs=4, n_ris=4, n_strong=k)


def test_bare_mm_step_never_lowers_f_and_matches_the_dense_step():
    rng = np.random.default_rng(13)
    for cache in certificate_stacks():
        M, MH, mu, _ = phases._mm_operands(cache)
        theta = np.stack([random_phases(cache.h_c_weak.shape[-1], rng) for _ in cache.D_s])
        for _ in range(3):
            theta_bar = np.concatenate([theta, np.ones((len(theta), 1))], axis=-1)
            f, Mt = phases._objective(M, theta_bar)
            nxt = phases._mm_step(MH, mu[:, -1], theta_bar, f, Mt)
            assert np.allclose(f, objectives(cache, theta), rtol=1e-10, atol=0.0)
            want = [oracles.reference_mm_step(cache[i], t) for i, t in enumerate(theta)]
            assert np.allclose(nxt[:, :-1], want, rtol=0.0, atol=1e-9)
            assert np.all(nxt[:, -1] == 1.0)
            f_next = objectives(cache, nxt[:, :-1])
            assert np.all(f_next >= f * (1.0 - 1e-12))
            theta = nxt[:, :-1]


def test_relaxed_maximizer_equals_the_dense_solve():
    for cache in certificate_stacks():
        M, _, mu, V = phases._mm_operands(cache)
        x = phases._relaxed_maximizer(M, mu, V)
        for i, got in enumerate(x):
            want = oracles.relaxed_maximizer(cache[i])
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_optimizer_between_its_start_and_the_relaxation_bound():
    rng = np.random.default_rng(14)
    for cache in [*certificate_stacks(), block(3, 4, n_ris=256)]:
        n_ris = cache.h_c_weak.shape[-1]
        bound = np.array([oracles.relaxation_bound(cache[i]) for i in range(len(cache.D_s))])
        aligned = align_weak_user(cache.h_c_weak)
        starts = np.stack([random_phases(n_ris, rng) for _ in cache.D_s])
        for init in (aligned, starts):
            f = objectives(cache, optimize_mitigation_aware(cache, init))
            assert np.all(f >= objectives(cache, init) * (1.0 - 1e-12))
            assert np.all(f <= bound * (1.0 + 1e-10))


def test_optimizer_keeps_its_best_point_at_any_cap(monkeypatch):
    # a larger step cap never gives a lower f, and one step beats the start
    cache = block(5, 8)
    init = align_weak_user(cache.h_c_weak)
    last = None
    for cap in (0, 1, 2, 5):
        monkeypatch.setattr(phases, "MAX_STEPS", cap)
        f = objectives(cache, optimize_mitigation_aware(cache, init))
        if last is not None:
            assert np.all(f >= last * (1.0 - 1e-12))
        if cap == 1:
            assert np.any(f > last)
        last = f


@pytest.mark.parametrize("size", [1, 3, 32])
def test_select_phases_of_a_stack_is_per_draw_bit_for_bit(size, monkeypatch):
    # draws of a stack stop at different steps, and each gets exactly what
    # it gets alone
    stack = block(4, size, n_ris=8)
    active = []
    step = phases._mm_step

    def spy(M, *args):
        active.append(len(M))
        return step(M, *args)

    monkeypatch.setattr(phases, "_mm_step", spy)
    theta = select_phases("mitigation_aware", stack, None)
    if size == 32:
        assert len(set(active)) > 2
    monkeypatch.setattr(phases, "_mm_step", step)
    for i in range(size):
        assert np.array_equal(theta[i], select_phases("mitigation_aware", stack[i], None))


# ------------------------------------------------- Newton certificates


def newton_stacks():
    """certificate_stacks() and one N_R = 256 draw."""
    yield from certificate_stacks()
    yield block(3, 1, n_ris=256)


def random_points(cache, rng):
    """Random phases theta [B, N_R] of a stack's draws and their theta_bar."""
    n_ris = cache.h_c_weak.shape[-1]
    theta = np.stack([random_phases(n_ris, rng) for _ in cache.D_s])
    return theta, extended_phases(theta)


def test_newton_model_matches_the_dense_derivatives():
    # grad f and -hess f = diag(delta) + Z^T E Z against the dense-Q oracle
    rng = np.random.default_rng(15)
    for cache in newton_stacks():
        M = phases._mm_operands(cache)[0]
        theta, theta_bar = random_points(cache, rng)
        f, y, grad, delta, Z, E = phases._newton_model(M, theta_bar)
        assert np.array_equal(y, phases._objective(M, theta_bar)[1])
        for i, t in enumerate(theta):
            f_i, grad_i, hess_i = oracles.phase_derivatives(cache[i], t)
            hess = -(np.diag(delta[i]) + Z[i].T @ E[i] @ Z[i])
            assert f[i] == pytest.approx(f_i, rel=1e-10)
            assert np.max(np.abs(grad[i] - grad_i)) <= 1e-10 * np.max(np.abs(grad_i))
            assert np.max(np.abs(hess - hess_i)) <= 1e-10 * np.max(np.abs(hess_i))


def test_newton_model_matches_central_differences():
    # grad f against differences of f (`objective`), and
    # -hess f against differences of grad f, along a few phases of each draw
    rng = np.random.default_rng(16)
    h = 1e-5
    for cache in newton_stacks():
        M = phases._mm_operands(cache)[0]
        theta, theta_bar = random_points(cache, rng)
        f, _, grad, delta, Z, E = phases._newton_model(M, theta_bar)
        for n in np.unique(np.linspace(0, theta.shape[-1] - 1, 4).astype(int)):
            turn = np.ones(theta_bar.shape[-1], dtype=complex)
            turn[n] = np.exp(1j * h)
            up, down = theta_bar * turn, theta_bar * turn.conj()
            slope = (objectives(cache, up[:, :-1]) - objectives(cache, down[:, :-1])) / (2 * h)
            scale = np.max(np.abs(grad), axis=-1)
            assert np.all(np.abs(slope - grad[:, n]) <= 1e-6 * scale)
            g_up, g_down = phases._newton_model(M, up)[2], phases._newton_model(M, down)[2]
            column = (g_up - g_down) / (2 * h)
            hess = -(delta[:, :, None] * np.eye(theta.shape[-1]) + herm(Z) @ E @ Z)
            assert np.all(
                np.abs(column - hess[:, :, n]) <= 1e-6 * np.max(np.abs(hess), axis=(1, 2))[:, None]
            )


def test_damped_step_equals_the_dense_solve():
    # the Woodbury step and the inertia count against np.linalg.solve and
    # eigvalsh of the dense damped matrix, at dampings that leave it
    # indefinite and that make it positive definite
    rng = np.random.default_rng(17)
    concave = []
    for cache in newton_stacks():
        M = phases._mm_operands(cache)[0]
        _, theta_bar = random_points(cache, rng)
        _, _, grad, delta, Z, E = phases._newton_model(M, theta_bar)
        for scale in (0.0, 0.1, 1.0, 10.0):
            damping = scale * np.max(np.abs(grad), axis=-1)
            d, positive = phases._damped_step(Z, E, grad, delta, damping)
            for i in range(len(d)):
                dense = np.diag(delta[i] + damping[i]) + Z[i].T @ E[i] @ Z[i]
                want = np.linalg.solve(dense, grad[i])
                assert np.linalg.norm(d[i] - want) <= 1e-8 * np.linalg.norm(want)
                assert positive[i] == (np.linalg.eigvalsh(dense)[0] > 0.0)
                concave.append(positive[i])
    assert any(concave) and not all(concave)


def test_gain_is_the_change_of_f():
    rng = np.random.default_rng(18)
    for cache in newton_stacks():
        M = phases._mm_operands(cache)[0]
        theta, theta_bar = random_points(cache, rng)
        f, y, *_ = phases._newton_model(M, theta_bar)
        d = rng.normal(scale=0.1, size=theta.shape)
        moved = theta * np.exp(1j * d)
        gain, y_new = phases._gain(M, theta_bar, y, f, d)
        want = objectives(cache, moved) - objectives(cache, theta)
        assert np.allclose(gain, want, rtol=1e-8, atol=1e-12 * np.max(f))
        assert np.allclose(y_new, phases._objective(M, extended_phases(moved))[1])


def converging_blocks():
    """The mit_aware sweep's blocks (seeds 0-19, 2 draws of the default
    scenario) and the seed-7 64-draw default blocks at N_R = 64 and 256."""
    yield from (block(seed, 2) for seed in range(20))
    yield block(7, 64)
    yield block(7, 64, n_ris=256)


def test_every_draw_converges_and_its_steps_match_a_spy(monkeypatch):
    # no draw reaches MAX_STEPS; every draw takes 2 MM steps in its SQUAREM
    # step and one after each Newton trial, so steps + 1 of them in all
    # (a draw is told apart in the spy by its lambda_max)
    calls = []
    step = phases._mm_step

    def spy(MH, lam_max, *args):
        calls.append(lam_max.copy())
        return step(MH, lam_max, *args)

    monkeypatch.setattr(phases, "_mm_step", spy)
    for cache in converging_blocks():
        calls.clear()
        theta_bar, steps, converged = phases._ascend(
            cache, extended_phases(align_weak_user(cache.h_c_weak))
        )
        assert converged.all()
        assert steps.max() < phases.MAX_STEPS
        lam_max = phases._mm_operands(cache)[2][:, -1]
        assert len(set(lam_max)) == len(lam_max)
        seen = np.concatenate(calls)
        assert [np.count_nonzero(seen == x) for x in lam_max] == list(steps + 1)


def test_converged_draws_are_local_maxima():
    # at the returned phases the dense gradient meets the stop test and the
    # dense Hessian is negative definite (draw 12 of seed 0's block ends at a
    # saddle point if Newton steps of an indefinite damped matrix are kept)
    for cache in [*certificate_stacks(), block(0, 16), block(7, 16, n_ris=256)]:
        init = extended_phases(align_weak_user(cache.h_c_weak))
        theta_bar, _, converged = phases._ascend(cache, init)
        assert converged.all()
        for i, t in enumerate(theta_bar[:, :-1]):
            f, grad, hess = oracles.phase_derivatives(cache[i], t)
            assert np.max(np.abs(grad)) <= 2.0 * phases.GRAD_TOLERANCE * f
            assert np.linalg.eigvalsh(hess)[-1] < 0.0


def test_optimizer_matches_dense_grid_on_toys():
    # N_R = 2, K = 1: exhaustive 720x720 grid as oracle
    grid = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    e1 = np.exp(1j * grid)
    for seed in range(5):
        _, real, cache = instance(seed, n_bs=3, n_ris=2, n_strong=1)
        h_c_weak = cache.h_c_weak
        theta = optimize_mitigation_aware(cache, align_weak_user(h_c_weak))
        f_opt = objective(cache, theta)
        C_s = projected_gram(real.H_d_strong, real.b)
        best = 0.0
        for t1 in e1:
            cand = np.stack([np.full(720, t1), e1])
            g = np.abs(h_c_weak @ cand) ** 2
            tb = np.vstack([cand, np.ones(720)])
            t = cache.D_s @ tb
            w = np.linalg.solve(C_s, t)
            mit = np.real(np.sum(t.conj() * w, axis=0))
            best = max(best, float(np.max(g / (1.0 + mit))))
        assert np.log2(f_opt) >= np.log2(best) - 0.01


def test_strategy_spec_validation():
    # an unknown kind must not fall through to the optimizer
    _, _, cache = instance(9)
    with pytest.raises(ValueError, match="unknown strategy kind 'exhaustive'"):
        select_phases("exhaustive", cache, None)


def test_select_phases_dispatch():
    _, _, cache = instance(9)
    drawn = random_phases(8, np.random.default_rng(0))
    t_rand = select_phases("random", cache, drawn)
    assert np.array_equal(t_rand, drawn)
    # the other strategies ignore the random phases
    t_align = select_phases("align_weak", cache, drawn)
    assert np.array_equal(t_align, align_weak_user(cache.h_c_weak))
    t_mit = select_phases("mitigation_aware", cache, drawn)
    f_align = objective(cache, t_align)
    f_mit = objective(cache, t_mit)
    assert f_mit >= f_align * (1.0 - 1e-9)


def test_select_phases_returns_random_phases_shaped_like_the_draws():
    _, _, cache = instance(9)
    stack = cache[np.newaxis][[0, 0]]  # the draw twice, as a stack of two
    drawn = np.stack([random_phases(8, np.random.default_rng(s)) for s in (0, 1)])
    assert np.array_equal(select_phases("random", stack, drawn), drawn)
    # one draw's phases for a stack, or none at all, are refused
    for wrong in (drawn[0], None):
        with pytest.raises(ValueError, match=r"the cache needs \(2, 8\)"):
            select_phases("random", stack, wrong)
    aligned = select_phases("align_weak", stack, None)
    assert np.array_equal(aligned, align_weak_user(stack.h_c_weak))


# ---------------------------------- b(xi) construction (the oracle of c(xi))


def test_construct_b_xi_relation():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    V_s, _ = np.linalg.qr(A)
    full, _ = np.linalg.qr(
        np.hstack([V_s, rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))])
    )
    v_perp = full[:, 3]
    P_perp = np.eye(6) - V_s @ V_s.conj().T
    for xi in (0.0, 0.25, 1.0, 4.0, 1e6):
        b = construct_b_orthogonality(V_s, v_perp, xi)
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12
        bpp = float(np.real(b.conj() @ P_perp @ b))
        assert bpp == pytest.approx(xi**2 / (1.0 + xi**2), abs=1e-10)


def test_construct_b_xi_one_is_half():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    V_s, _ = np.linalg.qr(A)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v_perp = v - V_s @ (V_s.conj().T @ v)
    b = construct_b_orthogonality(V_s, v_perp, 1.0)
    P_perp = np.eye(4) - V_s @ V_s.conj().T
    assert float(np.real(b.conj() @ P_perp @ b)) == pytest.approx(0.5, abs=1e-10)


def test_construct_b_rejects_bad_inputs():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    V_s, _ = np.linalg.qr(A)
    with pytest.raises(ValueError, match="not orthogonal"):
        construct_b_orthogonality(V_s, V_s[:, 0], 1.0)
    square, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    with pytest.raises(ValueError, match="no orthogonal complement"):
        construct_b_orthogonality(square, np.zeros(3), 1.0)


def test_b_from_xi_against_row_space():
    _, real, _ = instance(10)
    for xi in (0.0, 1.0, 1e3):
        b = b_from_xi(real.H_d_strong, xi)
        _, _, Vh = np.linalg.svd(real.H_d_strong, full_matrices=False)
        proj = Vh @ b
        bpp = 1.0 - float(np.real(np.vdot(proj, proj)))
        assert bpp == pytest.approx(xi**2 / (1.0 + xi**2), abs=1e-9)
