import ast
from pathlib import Path

import numpy as np
import pytest

import risbc.phases
import risbc.sweep
from risbc.channel import (
    ScenarioConfig,
    db_to_lin,
    draw_block,
    draw_user_positions,
    frozen_positions,
    nominal_pathlosses,
    pathloss_db,
    position_rng,
    random_phase_block,
    realize_block,
    rep_seeds,
    sample_realization,
    steering_vector,
)
from risbc.phases import random_phases


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
    with pytest.raises(ValueError, match="n_strong must be at least 1"):
        ScenarioConfig(n_strong=0)


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
    real = sample_realization(cfg, np.random.default_rng(rep_seeds(cfg.seed, 0)[0]))
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
    real = sample_realization(cfg, np.random.default_rng(rep_seeds(1, 0)[0]))
    assert np.all(real.h_d_weak == 0)


def test_fixed_seed_reproducibility():
    cfg = ScenarioConfig()
    r1 = sample_realization(cfg, np.random.default_rng(rep_seeds(7, 3)[0]))
    r2 = sample_realization(cfg, np.random.default_rng(rep_seeds(7, 3)[0]))
    assert np.array_equal(r1.H_d_strong, r2.H_d_strong)
    assert np.array_equal(r1.H_r, r2.H_r)
    assert np.array_equal(r1.positions, r2.positions)


def test_frozen_positions_are_shared():
    cfg = ScenarioConfig()
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    (ch0, _), (ch1, _) = rep_seeds(0, 0), rep_seeds(0, 1)
    r1 = sample_realization(cfg, np.random.default_rng(ch0), positions=pos)
    r2 = sample_realization(cfg, np.random.default_rng(ch1), positions=pos)
    assert np.array_equal(r1.positions, r2.positions)
    assert not np.array_equal(r1.H_r, r2.H_r)


def test_frozen_positions_come_from_the_position_stream():
    cfg = ScenarioConfig(n_strong=2, n_bs=4, seed=9)
    assert frozen_positions(cfg) is None
    frozen = cfg.with_updates(freeze_positions=True)
    want = draw_user_positions(frozen, position_rng(9))
    assert np.array_equal(frozen_positions(frozen), want)


def test_ris_channel_variance_matches_pathloss():
    # law of large numbers: mean ||h_r,k||^2 / N_R approaches the linear gain
    cfg = ScenarioConfig(n_ris=16, freeze_positions=True)
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    pl = nominal_pathlosses(cfg, pos)
    acc = np.zeros(cfg.n_users)
    reps = 10_000
    for r in range(reps):
        ch_ss, _ = rep_seeds(cfg.seed, r)
        real = sample_realization(cfg, np.random.default_rng(ch_ss), positions=pos)
        acc += np.sum(np.abs(real.H_r) ** 2, axis=1) / cfg.n_ris
    rel = np.abs(acc / reps - pl.L_r) / pl.L_r
    assert np.all(rel < 0.02)


def test_distinct_seeds_uncorrelated():
    n = 10_000
    x = np.random.default_rng(rep_seeds(0, 0)[0]).standard_normal(n)
    y = np.random.default_rng(rep_seeds(1, 0)[0]).standard_normal(n)
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.05


def test_composite_matches_cascaded_identity():
    # h_r^H Theta G x equals h_c^H theta b^H x for the rank-one LOS link
    cfg = ScenarioConfig(n_bs=6, n_ris=12)
    ch_ss, ph_ss = rep_seeds(3, 0)
    real = sample_realization(cfg, np.random.default_rng(ch_ss))
    rng = np.random.default_rng(ph_ss)
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


# ------------------------------------------------------- replication streams


@pytest.mark.parametrize(
    "seed, rep", [(0, 0), (0, 1), (3, 7), (12345, 299), (2**40, 3)]
)
def test_rep_seeds_are_the_spawned_children(seed, rep):
    want = np.random.SeedSequence([seed, rep]).spawn(2)
    got = rep_seeds(seed, rep)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.entropy == w.entropy
        assert g.spawn_key == w.spawn_key
        assert np.array_equal(g.generate_state(8), w.generate_state(8))


def reference_draw(cfg, rep, positions=None):
    """The defining per-draw realization of replication `rep`."""
    ch_ss, _ = rep_seeds(cfg.seed, rep)
    return sample_realization(cfg, np.random.default_rng(ch_ss), positions=positions)


def assert_block_is_reference(cfg, block, reps, positions=None):
    assert block.H_r.shape == (len(reps), cfg.n_users, cfg.n_ris)
    for i, rep in enumerate(reps):
        want = reference_draw(cfg, rep, positions)
        for name in ("H_d_strong", "h_d_weak", "H_r", "H_c", "positions"):
            assert np.array_equal(getattr(block, name)[i], getattr(want, name)), name
        for name in ("L_d", "L_r"):
            got = getattr(block.pathlosses, name)[i]
            assert np.array_equal(got, getattr(want.pathlosses, name)), name
        assert block.L_G == want.L_G
        assert np.array_equal(block.a, want.a) and np.array_equal(block.b, want.b)


def drawn_block(cfg, reps, positions=None):
    """The stacked draws of replications `reps` of the run seeded cfg.seed."""
    return realize_block(cfg, *draw_block(cfg, cfg.seed, reps, positions))


@pytest.mark.parametrize("frozen", [False, True])
def test_block_equals_per_draw_reference(frozen):
    cfg = ScenarioConfig(n_bs=5, n_strong=2, n_ris=7, seed=11)
    positions = draw_user_positions(cfg, position_rng(cfg.seed)) if frozen else None
    # out of order, repeated and revisited: every draw builds its
    # replication's stream afresh and reads it from the start
    for reps in ([4, 0, 9], range(3), [9, 4, 4], range(1)):
        block = drawn_block(cfg, reps, positions)
        assert_block_is_reference(cfg, block, reps, positions)


def test_block_equals_reference_across_shapes():
    # one run seed serves every scenario: n_ris and n_bs change the number
    # of variates drawn from a stream, not where it starts
    for n_bs, n_ris in ((4, 8), (4, 64), (9, 3), (4, 8)):
        cfg = ScenarioConfig(n_bs=n_bs, n_strong=2, n_ris=n_ris, seed=5)
        reps = range(2, 6)
        assert_block_is_reference(cfg, drawn_block(cfg, reps), reps)


def test_random_phase_block_equals_random_phases():
    for n_ris, reps in ((16, [0, 5, 2]), (3, range(4)), (16, [5])):
        block = random_phase_block(3, reps, n_ris)
        assert block.shape == (len(reps), n_ris)
        for row, rep in zip(block, reps):
            _, ph_ss = rep_seeds(3, rep)
            want = random_phases(n_ris, np.random.default_rng(ph_ss))
            assert np.array_equal(row, want)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("larger", [{"n_ris": 40}, {"n_bs": 11}])
def test_realize_block_reads_a_prefix_of_a_larger_draw(frozen, larger):
    # a scenario with fewer elements or antennas realizes, from the prefix
    # of a larger scenario's variates, exactly the block it draws alone
    small = ScenarioConfig(n_bs=4, n_strong=2, n_ris=8, seed=13)
    large = small.with_updates(**larger)
    positions = draw_user_positions(small, position_rng(13)) if frozen else None
    reps = [3, 0, 7, 0]
    got = realize_block(small, *draw_block(large, 13, reps, positions))
    want = drawn_block(small, reps, positions)
    for name in ("H_d_strong", "h_d_weak", "H_r", "H_c", "positions"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_random_phase_block_prefixes():
    reps = [2, 9, 0]
    wide = random_phase_block(8, reps, 256)
    for n_ris in (1, 16, 255, 256):
        narrow = random_phase_block(8, reps, n_ris)
        assert np.array_equal(wide[:, :n_ris], narrow)


def test_phase_and_channel_streams_are_separate():
    # drawing a replication's phases does not move its channel stream
    cfg = ScenarioConfig(n_bs=4, n_strong=2, n_ris=6, seed=2)
    random_phase_block(cfg.seed, [1, 2], cfg.n_ris)
    assert_block_is_reference(cfg, drawn_block(cfg, [2, 1]), [2, 1])


# ----------------------------------------------------- one seeding scheme

# Replication seeding has one home, channel.py: the sweep and the phase
# strategies receive drawn arrays (or a caller's generator), never build one.
SEEDING = {"default_rng", "SeedSequence"}


def _seeding_names(tree):
    """Every use of a seeding constructor by name, attribute or import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in SEEDING:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in SEEDING:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.extend(a.name for a in node.names if a.name in SEEDING)
    return found


@pytest.mark.parametrize("module", [risbc.sweep, risbc.phases])
def test_no_seeding_outside_channel(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert _seeding_names(tree) == []


def test_seeding_guard_sees_uses():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.random import SeedSequence\n"
        "def f(s):\n    return np.random.default_rng(s), SeedSequence(s)\n"
    )
    assert sorted(_seeding_names(tree)) == [
        "SeedSequence", "SeedSequence", "default_rng"
    ]
