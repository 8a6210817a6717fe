import cmath

import numpy as np
import pytest

from risbc import phases
from risbc.channel import ScenarioConfig, rep_seeds, sample_realization
from risbc.phases import (
    _best_phase,
    align_weak_user,
    b_from_xi,
    construct_b_orthogonality,
    mitigation_aware_objective,
    optimize_mitigation_aware,
    random_phases,
    select_phases,
)
from risbc.se import decompose, weak_cascaded_row

from oracles import projected_gram, reference_optimize_mitigation_aware


def instance(seed, n_bs=6, n_ris=8, n_strong=3, **kw):
    cfg = ScenarioConfig(n_bs=n_bs, n_ris=n_ris, n_strong=n_strong, **kw)
    real = sample_realization(cfg, np.random.default_rng(rep_seeds(seed, 0)[0]))
    return cfg, real, decompose(real)


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
    _, real, cache = instance(2, n_ris=16)
    h_c_weak = weak_cascaded_row(real)
    a = select_phases("statistical", cache, h_c_weak, np.random.default_rng(2))
    b = select_phases("random", cache, h_c_weak, np.random.default_rng(2))
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


def element_coefficients(cache, h_c_weak, theta, n):
    """(A, ctil, B, dtil) of f(theta) as a function of element n's phasor."""
    s0 = h_c_weak @ theta - h_c_weak[n] * theta[n]
    theta_bar = np.append(theta, 1.0)
    theta_bar[n] = 0.0
    E = cache.solve(cache.D_s)
    t0 = cache.D_s @ theta_bar
    w0 = E @ theta_bar
    A = abs(s0) ** 2 + abs(h_c_weak[n]) ** 2
    B = 1.0 + np.real(np.vdot(t0, w0)) + np.real(np.vdot(cache.D_s[:, n], E[:, n]))
    return A, np.conj(s0) * h_c_weak[n], B, np.vdot(t0, E[:, n])


def test_best_phase_matches_dense_grid_on_real_draws():
    grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
    rng = np.random.default_rng(11)
    for seed in range(20):
        _, real, cache = instance(seed, n_bs=8, n_ris=16, n_strong=1 + seed % 3)
        h_c_weak = weak_cascaded_row(real)
        theta = random_phases(16, rng)
        for n in (0, 7, 15):
            coef = element_coefficients(cache, h_c_weak, theta, n)
            x = _best_phase(theta[n], *coef)
            f = ratio(x, *coef)
            on_grid = ratio(grid, *coef)
            # the grid misses the peak by at most max|f''| step^2 / 8
            second_diff = np.roll(on_grid, 1) + np.roll(on_grid, -1) - 2.0 * on_grid
            assert on_grid.max() * (1.0 - 1e-12) <= f
            assert f <= on_grid.max() + np.max(np.abs(second_diff)) / 8.0 + 1e-12 * f
            # the coefficients reproduce the objective of the real draw
            moved = theta.copy()
            moved[n] = x
            assert f == pytest.approx(
                mitigation_aware_objective(cache, h_c_weak, moved), rel=1e-10
            )


def test_best_phase_keeps_an_optimal_current_angle():
    _, real, cache = instance(12)
    h_c_weak = weak_cascaded_row(real)
    theta = align_weak_user(h_c_weak)
    for n in range(8):
        coef = element_coefficients(cache, h_c_weak, theta, n)
        best = _best_phase(theta[n], *coef)
        again = _best_phase(best, *coef)
        assert ratio(again, *coef) >= ratio(best, *coef)
    # no coupling: (2 + cos phi) / 3 peaks exactly at the current phasor 1
    peak = (2.0, 0.5 + 0.0j, 3.0, 0.0j)
    assert ratio(_best_phase(1.0 + 0.0j, *peak), *peak) >= ratio(1.0, *peak)
    # constant ratio (no coupling, no other element): any phasor is optimal
    flat = (2.0, 0.0j, 3.0, 0.0j)
    assert ratio(_best_phase(cmath.exp(0.3j), *flat), *flat) == 2.0 / 3.0
    # ctil = lambda dtil and A = lambda B: the ratio is 1/2 for every phase,
    # so z = ctil - lambda* dtil = 0 has no direction and the current phasor
    # comes back (conj(z) / |z| would divide by zero)
    const = (1.5, 0.25 + 0.25j, 3.0, 0.5 + 0.5j)
    cur = cmath.exp(0.3j)
    assert _best_phase(cur, *const) == cur
    assert ratio(cur, *const) == 0.5


def test_optimizer_monotone_from_init():
    for seed in range(100):
        _, real, cache = instance(seed)
        h_c_weak = weak_cascaded_row(real)
        init = align_weak_user(h_c_weak)
        theta = optimize_mitigation_aware(cache, h_c_weak, init)
        assert np.max(np.abs(np.abs(theta) - 1.0)) < 1e-12
        f0 = mitigation_aware_objective(cache, h_c_weak, init)
        f1 = mitigation_aware_objective(cache, h_c_weak, theta)
        assert f1 >= f0 * (1.0 - 1e-9)


def test_optimizer_monotone_from_random_inits():
    rng = np.random.default_rng(4)
    for seed in range(20):
        _, real, cache = instance(seed, n_ris=6)
        h_c_weak = weak_cascaded_row(real)
        init = random_phases(6, rng)
        theta = optimize_mitigation_aware(cache, h_c_weak, init)
        f0 = mitigation_aware_objective(cache, h_c_weak, init)
        f1 = mitigation_aware_objective(cache, h_c_weak, theta)
        assert f1 >= f0 * (1.0 - 1e-9)


def test_optimizer_reduces_to_alignment_without_coupling():
    # D_s rows that do not touch the theta entries: denominator constant
    _, real, cache = instance(7)
    cache.D_s[:, :-1] = 0.0
    h_c_weak = weak_cascaded_row(real)
    init = random_phases(8, np.random.default_rng(5))
    theta = optimize_mitigation_aware(cache, h_c_weak, init)
    gain = abs(h_c_weak @ theta) ** 2
    assert gain == pytest.approx(np.sum(np.abs(h_c_weak)) ** 2, rel=1e-9)
    # with no gain either (h_3 = 0), element 3's ratio is constant: its step
    # has no direction and the start is kept
    h_c_weak = h_c_weak.copy()
    h_c_weak[3] = 0.0
    theta = optimize_mitigation_aware(cache, h_c_weak, init)
    assert theta[3] == init[3]


REFERENCE_CASES = [(12, n_ris, k) for n_ris in (8, 64, 256) for k in (1, 2, 3)]
REFERENCE_CASES += [(4, 16, k) for k in (1, 2, 3)]


@pytest.mark.parametrize("n_bs, n_ris, n_strong", REFERENCE_CASES)
def test_optimizer_matches_numpy_reference(n_bs, n_ris, n_strong, monkeypatch):
    # the scalar element loop against the numpy coordinate ascent: the
    # same steps in a different arithmetic, so the same local optimum.  At
    # N_R = 256 every draw runs to the 100-sweep cap, about 1 s per draw for
    # the reference, so both stop after 10 sweeps (2560 element steps).
    if n_ris == 256:
        monkeypatch.setattr(phases, "MAX_SWEEPS", 10)
    for seed in range(5):
        _, real, cache = instance(seed, n_bs=n_bs, n_ris=n_ris, n_strong=n_strong)
        h_c_weak = weak_cascaded_row(real)
        init = align_weak_user(h_c_weak)
        theta = optimize_mitigation_aware(cache, h_c_weak, init)
        ref = reference_optimize_mitigation_aware(cache, h_c_weak, init)
        f = mitigation_aware_objective(cache, h_c_weak, theta)
        f_ref = mitigation_aware_objective(cache, h_c_weak, ref)
        f_init = mitigation_aware_objective(cache, h_c_weak, init)
        assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0)
        assert f >= f_init * (1.0 - 1e-12)


def test_optimizer_matches_dense_grid_on_toys():
    # N_R = 2, K = 1: exhaustive 720x720 grid as oracle
    grid = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    e1 = np.exp(1j * grid)
    for seed in range(5):
        _, real, cache = instance(seed, n_bs=3, n_ris=2, n_strong=1)
        h_c_weak = weak_cascaded_row(real)
        theta = optimize_mitigation_aware(cache, h_c_weak, align_weak_user(h_c_weak))
        f_opt = mitigation_aware_objective(cache, h_c_weak, theta)
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
    _, real, cache = instance(9)
    with pytest.raises(ValueError, match="unknown strategy kind 'exhaustive'"):
        select_phases("exhaustive", cache, weak_cascaded_row(real), None)


def test_select_phases_dispatch():
    _, real, cache = instance(9)
    h_c_weak = weak_cascaded_row(real)
    rng = np.random.default_rng(0)
    t_rand = select_phases("random", cache, h_c_weak, rng)
    assert t_rand.shape == (8,)
    t_align = select_phases("align_weak", cache, h_c_weak, rng)
    assert np.array_equal(t_align, align_weak_user(h_c_weak))
    t_mit = select_phases("mitigation_aware", cache, h_c_weak, rng)
    f_align = mitigation_aware_objective(cache, h_c_weak, t_align)
    f_mit = mitigation_aware_objective(cache, h_c_weak, t_mit)
    assert f_mit >= f_align * (1.0 - 1e-9)


# ------------------------------------------------------- b(xi) construction


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
