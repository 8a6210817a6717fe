import numpy as np
import pytest

from risbc.channel import (
    ScenarioConfig,
    db_to_lin,
    draw_user_positions,
    nominal_pathlosses,
    pathloss_db,
    position_rng,
    rep_rng,
    sample_realization,
    steering_vector,
)


# ------------------------------------------------------------------ pathloss


def test_pathloss_los_at_100m():
    assert pathloss_db((30.0, 22.0), 100.0) == pytest.approx(74.0, abs=1e-12)


def test_pathloss_direct_at_10m():
    assert pathloss_db((35.1, 36.7), 10.0) == pytest.approx(71.8, abs=1e-12)


def test_pathloss_at_1m_is_alpha():
    assert pathloss_db((37.51, 22.0), 1.0) == pytest.approx(37.51, abs=1e-12)


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        pathloss_db((30.0, 22.0), 0.0)


# ------------------------------------------------------------------ steering


def test_steering_broadside_unit():
    v = steering_vector(4, np.pi / 2, norm="unit")
    assert np.allclose(v, 0.5 * np.ones(4))


def test_steering_endfire():
    v = steering_vector(2, 0.0, norm="sqrt_n")
    assert np.allclose(v, [1.0, -1.0])


def test_steering_norms():
    a = steering_vector(8, np.pi / 3, norm="sqrt_n")
    assert np.linalg.norm(a) ** 2 == pytest.approx(8.0, abs=1e-9)
    b = steering_vector(8, np.pi / 3, norm="unit")
    assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ config


def test_config_feasibility_check():
    with pytest.raises(ValueError, match="zero-forcing"):
        ScenarioConfig(n_bs=2, n_strong=3)


def test_p_bar_divisor():
    cfg = ScenarioConfig(ptx_dbm=30.0)
    assert cfg.p_bar() == pytest.approx(1000.0 / 4)
    cfg_k = ScenarioConfig(ptx_dbm=30.0, power_divisor="k")
    assert cfg_k.p_bar() == pytest.approx(1000.0 / 3)


# ------------------------------------------------------------------ sampling


def test_positions_inside_circle():
    cfg = ScenarioConfig()
    pos = draw_user_positions(cfg, np.random.default_rng(0))
    assert pos.shape == (4, 3)
    center = np.asarray(cfg.user_circle_center)
    assert np.all(np.linalg.norm(pos - center, axis=1) <= cfg.user_circle_radius)
    assert np.all(pos[:, 2] == 1.5)


def test_realization_shapes_and_invariants():
    cfg = ScenarioConfig(n_bs=8, n_ris=16)
    real = sample_realization(cfg, rep_rng(cfg.seed, 0))
    K = cfg.n_strong
    assert real.H_d_strong.shape == (K, 8)
    assert real.h_d_weak.shape == (8,)
    assert real.H_r.shape == (K + 1, 16)
    assert abs(np.linalg.norm(real.b) - 1.0) < 1e-12
    assert abs(np.linalg.norm(real.a) ** 2 - 16.0) < 1e-9
    # cascaded rows follow sqrt(L_G N_B) h_r^H diag(a)
    expected = np.sqrt(real.L_G * cfg.n_bs) * real.H_r * real.a[None, :]
    assert np.max(np.abs(real.H_c - expected)) < 1e-12


def test_weak_user_infinite_extra_loss_gives_zero_row():
    cfg = ScenarioConfig(weak_extra_loss_db=np.inf)
    real = sample_realization(cfg, rep_rng(1, 0))
    assert np.all(real.h_d_weak == 0)


def test_fixed_seed_reproducibility():
    cfg = ScenarioConfig()
    r1 = sample_realization(cfg, rep_rng(7, 3))
    r2 = sample_realization(cfg, rep_rng(7, 3))
    assert np.array_equal(r1.H_d_strong, r2.H_d_strong)
    assert np.array_equal(r1.H_r, r2.H_r)
    assert np.array_equal(r1.positions, r2.positions)


def test_frozen_positions_are_shared():
    cfg = ScenarioConfig()
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    r1 = sample_realization(cfg, rep_rng(0, 0), positions=pos)
    r2 = sample_realization(cfg, rep_rng(0, 1), positions=pos)
    assert np.array_equal(r1.positions, r2.positions)
    assert not np.array_equal(r1.H_r, r2.H_r)


def test_ris_channel_variance_matches_pathloss():
    # law of large numbers: mean ||h_r,k||^2 / N_R approaches the linear gain
    cfg = ScenarioConfig(n_ris=16, freeze_positions=True)
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    pl = nominal_pathlosses(cfg, pos)
    acc = np.zeros(cfg.n_users)
    reps = 10_000
    for r in range(reps):
        real = sample_realization(cfg, rep_rng(cfg.seed, r), positions=pos)
        acc += np.sum(np.abs(real.H_r) ** 2, axis=1) / cfg.n_ris
    rel = np.abs(acc / reps - pl.L_r) / pl.L_r
    assert np.all(rel < 0.02)


def test_distinct_seeds_uncorrelated():
    n = 10_000
    x = np.random.default_rng([0, 0]).standard_normal(n)
    y = np.random.default_rng([1, 0]).standard_normal(n)
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.05


def test_composite_matches_cascaded_identity():
    # h_r^H Theta G x equals h_c^H theta b^H x for the rank-one LOS link
    cfg = ScenarioConfig(n_bs=6, n_ris=12)
    rng = rep_rng(3, 0)
    real = sample_realization(cfg, rng)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_ris))
    x = rng.standard_normal(cfg.n_bs) + 1j * rng.standard_normal(cfg.n_bs)
    G = np.sqrt(real.L_G * cfg.n_bs) * np.outer(real.a, real.b.conj())
    for k in range(cfg.n_users):
        via_g = real.H_r[k] @ (np.diag(theta) @ G @ x)
        via_c = (real.H_c[k] @ theta) * (real.b.conj() @ x)
        assert abs(via_g - via_c) < 1e-10 * max(1.0, abs(via_c))


def test_db_to_lin_roundtrip():
    assert db_to_lin(0.0) == 1.0
    assert db_to_lin(-np.inf) == 0.0
    assert db_to_lin(10.0) == pytest.approx(10.0)
