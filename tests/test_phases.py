import cmath

import numpy as np
import pytest

import oracles
from risbc import phases
from risbc.channel import (
    ScenarioConfig,
    draw_block,
    realize_block,
    rep_seeds,
    sample_realization,
)
from risbc.phases import (
    align_weak_user,
    mitigation_aware_objective,
    optimize_mitigation_aware,
    random_phases,
    select_phases,
)
from risbc.se import decompose

from oracles import (
    b_from_xi,
    construct_b_orthogonality,
    projected_gram,
    reference_best_phase,
    reference_optimize_mitigation_aware,
)


def instance(seed, n_bs=6, n_ris=8, n_strong=3, **kw):
    cfg = ScenarioConfig(n_bs=n_bs, n_ris=n_ris, n_strong=n_strong, **kw)
    real = sample_realization(cfg, np.random.default_rng(rep_seeds(seed, 0)[0]))
    return cfg, real, decompose(real)


def block(seed, reps, **kw):
    """The decomposed block of replications 0..reps-1 of a scenario."""
    cfg = ScenarioConfig(seed=seed, **kw)
    return decompose(realize_block(cfg, *draw_block(cfg, seed, range(reps))))


def objectives(cache, theta):
    """f of every draw of a stack."""
    return np.array([mitigation_aware_objective(cache[i], t) for i, t in enumerate(theta)])


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
    # same stream position gives identical draws (alias under i.i.d. fading)
    _, _, cache = instance(2, n_ris=16)
    a = select_phases("statistical", cache, np.random.default_rng(2))
    b = select_phases("random", cache, np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert np.array_equal(a, random_phases(16, np.random.default_rng(2)))


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
            assert f == pytest.approx(mitigation_aware_objective(cache, moved), rel=1e-10)


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
        f0 = mitigation_aware_objective(cache, init)
        f1 = mitigation_aware_objective(cache, theta)
        assert f1 >= f0 * (1.0 - 1e-9)


def test_optimizer_monotone_from_random_inits():
    rng = np.random.default_rng(4)
    for seed in range(20):
        _, _, cache = instance(seed, n_ris=6)
        init = random_phases(6, rng)
        theta = optimize_mitigation_aware(cache, init)
        f0 = mitigation_aware_objective(cache, init)
        f1 = mitigation_aware_objective(cache, theta)
        assert f1 >= f0 * (1.0 - 1e-9)


def test_optimizer_reduces_to_alignment_without_coupling():
    # D_s rows that do not touch the theta entries: denominator constant
    _, _, cache = instance(7)
    cache.D_s[:, :-1] = 0.0
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

# Both optimizers stop within a relative 1e-8 of where they are going, so
# where they reach the same optimum log2 f may differ by a few 1e-8.
STOPPING_SLACK_BITS = 1e-7


@pytest.mark.parametrize("n_bs, n_ris, n_strong", REFERENCE_CASES)
def test_optimizer_matches_numpy_reference(n_bs, n_ris, n_strong, monkeypatch):
    # the batched MM optimizer against the numpy coordinate ascent (CA) it
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
            f, nxt = phases._mm_step(M, MH, mu[:, -1], theta_bar)
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


def test_optimizer_matches_dense_grid_on_toys():
    # N_R = 2, K = 1: exhaustive 720x720 grid as oracle
    grid = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    e1 = np.exp(1j * grid)
    for seed in range(5):
        _, real, cache = instance(seed, n_bs=3, n_ris=2, n_strong=1)
        h_c_weak = cache.h_c_weak
        theta = optimize_mitigation_aware(cache, align_weak_user(h_c_weak))
        f_opt = mitigation_aware_objective(cache, theta)
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
    rng = np.random.default_rng(0)
    t_rand = select_phases("random", cache, rng)
    assert t_rand.shape == (8,)
    t_align = select_phases("align_weak", cache, rng)
    assert np.array_equal(t_align, align_weak_user(cache.h_c_weak))
    t_mit = select_phases("mitigation_aware", cache, rng)
    f_align = mitigation_aware_objective(cache, t_align)
    f_mit = mitigation_aware_objective(cache, t_mit)
    assert f_mit >= f_align * (1.0 - 1e-9)


def test_select_phases_draws_random_phases_for_one_draw_only():
    _, _, cache = instance(9)
    stack = cache[np.newaxis][[0, 0]]  # the draw twice, as a stack of two
    with pytest.raises(ValueError, match="random_phase_block"):
        select_phases("random", stack, np.random.default_rng(0))
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
