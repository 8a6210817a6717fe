import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import random_phases, rep_seeds
import risbc.phases
import risbc.sweep
from risbc.channel import (
    CHANNEL,
    MAX_REP,
    PHASE,
    ScenarioConfig,
    _rep_seed,
    db_to_lin,
    draw_block,
    draw_user_positions,
    frozen_positions,
    nominal_pathlosses,
    pathloss_db,
    position_rng,
    random_phase_block,
    realize_block,
    sample_realization,
    cascade_block,
    steering_vector,
    stream_states,
    user_positions,
    variate_count,
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
    with pytest.raises(ValueError, match="n_strong must be at least 1"):
        ScenarioConfig(n_strong=0)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("freeze_positions", "false", "a bool"),
        ("freeze_positions", "true", "a bool"),
        ("freeze_positions", 1, "a bool"),
        ("freeze_positions", None, "a bool"),
        ("n_bs", 12.5, "an integer"),
        ("n_bs", 12.0, "an integer"),
        ("n_bs", True, "an integer"),
        ("n_ris", 8.5, "an integer"),
        ("n_ris", np.float64(8.0), "an integer"),
        ("n_strong", 2.5, "an integer"),
        ("seed", 1.5, "an integer"),
        ("seed", "3", "an integer"),
        ("ptx_dbm", "30", "a real number"),
        ("aoa", "x", "a real number"),
        ("bs_pos", (0.0, 0.0), "3 real numbers"),
        ("pl_direct", (35.1,), "2 real numbers"),
        ("user_circle_radius", True, "a real number"),
        ("ptx_dbm", True, "a real number"),
        ("noise_dbm", None, "a real number"),
    ],
)
def test_config_rejects_mistyped_fields(field, value, kind):
    # "false" used to freeze the positions while the serialized config read
    # "false", and a float count or seed died later inside numpy; a string
    # or None for a real died in math.isfinite with an unnamed TypeError, a
    # short tuple in an unpacking deep in the link checks, and a bool passed
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
        ScenarioConfig(**{field: value})


def test_config_takes_python_ints_beyond_the_float_range_as_infinities():
    # float() of such an int raised OverflowError, naming no field
    for sign, name in ((-1, "-inf"), (1, "inf")):
        with pytest.raises(ValueError, match=rf"^ptx_dbm must be finite, got {name}$"):
            ScenarioConfig(ptx_dbm=sign * 10**400)


def test_config_takes_numpy_integers_and_bools_as_python_values():
    cfg = ScenarioConfig(
        n_bs=np.int64(6), n_ris=np.uint16(8), n_strong=np.int32(2),
        seed=np.uint64(2**40), freeze_positions=np.bool_(True),
    )
    assert cfg == ScenarioConfig(
        n_bs=6, n_ris=8, n_strong=2, seed=2**40, freeze_positions=True
    )
    for name in ("n_bs", "n_ris", "n_strong", "seed", "freeze_positions"):
        assert type(getattr(cfg, name)) in (int, bool)


def test_p_bar_divisor():
    # the total power is split over the K+1 users, weak user included
    assert ScenarioConfig(ptx_dbm=30.0).p_bar() == pytest.approx(1000.0 / 4)
    cfg = ScenarioConfig(ptx_dbm=20.0, n_strong=5)
    assert cfg.p_bar() == pytest.approx(100.0 / 6)


# ------------------------------------------------------------------ sampling


def ris_channels(cfg, rep):
    """(H_r [K+1, N_R], a, L_G) of replication `rep` of the run seeded
    cfg.seed, rebuilt from its channel stream: the positions' uniforms, the
    direct fading's normals, then the RIS-user fading's real and imaginary
    parts."""
    rng = np.random.default_rng(rep_seeds(cfg.seed, rep)[CHANNEL])
    pl = nominal_pathlosses(cfg, draw_user_positions(cfg, rng))
    rng.standard_normal(2 * cfg.n_users * cfg.n_bs)
    re, im = rng.standard_normal((2, cfg.n_users, cfg.n_ris))
    H_r = np.sqrt(pl.L_r[:, None] / 2.0) * (re + 1j * im)
    return H_r, steering_vector(cfg.n_ris, cfg.aoa, norm="sqrt_n"), pl.L_G


def test_positions_inside_circle():
    cfg = ScenarioConfig()
    pos = draw_user_positions(cfg, np.random.default_rng(0))
    assert pos.shape == (4, 3)
    center = np.asarray(cfg.user_circle_center)
    assert np.all(np.linalg.norm(pos - center, axis=1) <= cfg.user_circle_radius)
    assert np.all(pos[:, 2] == 1.5)
    # bit for bit: radii from the stream's first K+1 uniforms, then angles
    # uniform on [0, 2 pi) from the next K+1
    rng = np.random.default_rng(0)
    r = cfg.user_circle_radius * np.sqrt(rng.uniform(size=4))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=4)
    offset = np.stack([r * np.cos(phi), r * np.sin(phi), np.zeros(4)], axis=1)
    assert np.array_equal(pos, center + offset)


def test_realization_shapes_and_invariants():
    cfg = ScenarioConfig(n_bs=8, n_ris=16)
    real = sample_realization(cfg, np.random.default_rng(rep_seeds(cfg.seed, 0)[0]))
    K = cfg.n_strong
    assert real.H_d_strong.shape == (K, 8)
    assert real.H_c.shape == (K + 1, 16)
    assert abs(np.linalg.norm(real.b) - 1.0) < 1e-12
    H_r, a, L_G = ris_channels(cfg, 0)
    assert abs(np.linalg.norm(a) ** 2 - 16.0) < 1e-9
    # cascaded rows follow sqrt(L_G N_B) h_r^H diag(a)
    expected = np.sqrt(L_G * cfg.n_bs) * H_r * a[None, :]
    assert np.max(np.abs(real.H_c - expected)) < 1e-12


def test_fixed_seed_reproducibility():
    cfg = ScenarioConfig()
    r1 = sample_realization(cfg, np.random.default_rng(rep_seeds(7, 3)[0]))
    r2 = sample_realization(cfg, np.random.default_rng(rep_seeds(7, 3)[0]))
    for name in ("H_d_strong", "H_c"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name)), name


def test_frozen_positions_are_shared():
    cfg = ScenarioConfig()
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    (ch0, _), (ch1, _) = rep_seeds(0, 0), rep_seeds(0, 1)
    r1 = sample_realization(cfg, np.random.default_rng(ch0), positions=pos)
    r2 = sample_realization(cfg, np.random.default_rng(ch1), positions=pos)
    assert not np.array_equal(r1.H_c, r2.H_c)
    # a block of frozen draws is handed their one set of pathlosses back
    pl = nominal_pathlosses(cfg, pos)
    got, x = draw_block(cfg, stream_states(0, [0, 1]), pl)
    assert got is pl
    real = realize_block(cfg, pl, x)
    for name in ("H_d_strong", "H_c"):
        assert np.array_equal(getattr(real, name), [getattr(r1, name), getattr(r2, name)])


def test_frozen_positions_come_from_the_position_stream():
    cfg = ScenarioConfig(n_strong=2, n_bs=4, seed=9)
    assert frozen_positions(cfg) is None
    frozen = cfg.with_updates(freeze_positions=True)
    want = draw_user_positions(frozen, position_rng(9))
    assert np.array_equal(frozen_positions(frozen), want)


def test_ris_channel_variance_matches_pathloss():
    # law of large numbers: mean ||h_r,k||^2 / N_R approaches the linear gain,
    # with |h_c,k,n|^2 = L_G N_B |h_r,k,n|^2 (|a_n| = 1)
    cfg = ScenarioConfig(n_ris=16, freeze_positions=True)
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    pl = nominal_pathlosses(cfg, pos)
    reps = 10_000
    _, x = draw_block(cfg, stream_states(cfg.seed, range(reps)), pl)
    H_c = realize_block(cfg, pl, x).H_c
    power = np.sum(np.abs(H_c) ** 2, axis=-1) / (pl.L_G * cfg.n_bs * cfg.n_ris)
    rel = np.abs(np.mean(power, axis=0) - pl.L_r) / pl.L_r
    assert np.all(rel < 0.02)


def test_distinct_seeds_uncorrelated():
    n = 10_000
    x = np.random.default_rng(rep_seeds(0, 0)[0]).standard_normal(n)
    y = np.random.default_rng(rep_seeds(1, 0)[0]).standard_normal(n)
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.05


def test_composite_matches_cascaded_identity():
    # h_r^H Theta G x equals h_c^H theta b^H x for the rank-one LOS link
    cfg = ScenarioConfig(n_bs=6, n_ris=12, seed=3)
    ch_ss, ph_ss = rep_seeds(cfg.seed, 0)
    real = sample_realization(cfg, np.random.default_rng(ch_ss))
    H_r, a, L_G = ris_channels(cfg, 0)
    rng = np.random.default_rng(ph_ss)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_ris))
    x = rng.standard_normal(cfg.n_bs) + 1j * rng.standard_normal(cfg.n_bs)
    G = np.sqrt(L_G * cfg.n_bs) * np.outer(a, real.b.conj())
    for k in range(cfg.n_users):
        via_g = H_r[k] @ (np.diag(theta) @ G @ x)
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
    # the runtime builds each stream's SeedSequence from its spawn key
    want = rep_seeds(seed, rep)
    got = [_rep_seed(seed, rep, stream) for stream in (CHANNEL, PHASE)]
    assert len(want) == 2
    for g, w in zip(got, want):
        assert g.entropy == w.entropy
        assert g.spawn_key == w.spawn_key
        assert np.array_equal(g.generate_state(8), w.generate_state(8))


@pytest.mark.parametrize("seed", [0, 3, 2**31 - 1, 2**32, 2**64, 2**200 + 7])
def test_stream_states_start_where_pcg64_of_the_seed_sequence_does(seed):
    # multi-word seeds, and the first and last replication index of one word
    reps = [*range(300), MAX_REP]
    streams = stream_states(seed, reps)
    assert len(streams) == len(reps) and streams.reps.tolist() == reps
    for stream in (CHANNEL, PHASE):
        for rep, rng in zip(reps, streams.starts(stream)):
            ss = np.random.SeedSequence([seed, rep], spawn_key=(stream,))
            assert rng.bit_generator.state == np.random.PCG64(ss).state
    # a slice selects replications
    assert np.array_equal(streams[5:9].words, stream_states(seed, range(5, 9)).words)


@pytest.mark.parametrize("constant", ["_MULT_A", "_MIX_MULT_R", "_INIT_B", "_PCG_MULT"])
def test_stream_states_check_themselves_against_numpy(monkeypatch, constant):
    # a numpy whose seeding differs from the vectorized one is caught at
    # the first replication, before anything is drawn
    monkeypatch.setattr(risbc.channel, constant, getattr(risbc.channel, constant) ^ 4)
    with pytest.raises(RuntimeError, match="does not match this numpy"):
        stream_states(7, range(3))


def test_stream_states_reject_replications_outside_one_word():
    for reps in ([MAX_REP + 1], [-1, 0], [0, 2**64]):
        with pytest.raises(ValueError, match="replication indices must lie in"):
            stream_states(0, reps)
    assert len(stream_states(0, [])) == 0


def reference_draw(cfg, rep, positions=None):
    """The defining per-draw realization of replication `rep`, its user
    positions (the first uniforms of its stream, unless frozen ones are
    given) and their pathlosses."""
    ch_ss, _ = rep_seeds(cfg.seed, rep)
    real = sample_realization(cfg, np.random.default_rng(ch_ss), positions=positions)
    if positions is None:
        positions = draw_user_positions(cfg, np.random.default_rng(ch_ss))
    return positions, nominal_pathlosses(cfg, positions), real


def assert_same_draws(got, want, index=()):
    """The (positions, pathlosses, realization) triples are equal, taking
    draw `index` of got's stacks."""
    (got_pos, got_pl, got_real), (want_pos, want_pl, want_real) = got, want
    assert np.array_equal(got_pos[index], want_pos)
    for name in ("L_d", "L_r"):
        assert np.array_equal(getattr(got_pl, name)[index], getattr(want_pl, name)), name
    assert got_pl.L_G == want_pl.L_G
    for name in ("H_d_strong", "H_c"):
        assert np.array_equal(getattr(got_real, name)[index], getattr(want_real, name)), name
    assert np.array_equal(got_real.b, want_real.b)


def assert_block_is_reference(cfg, block, reps, positions=None):
    assert block[2].H_c.shape == (len(reps), cfg.n_users, cfg.n_ris)
    for i, rep in enumerate(reps):
        assert_same_draws(block, reference_draw(cfg, rep, positions), i)


def drawn_variates(cfg, reps, positions=None):
    """(positions, pathlosses, variates) of the stacked draws of
    replications `reps` of the run seeded cfg.seed: the positions of the
    uniforms draw_block writes into u, or frozen `positions`, whose
    pathlosses draw_block hands back and every draw shares (both are
    broadcast over the draws here)."""
    u = np.full((len(reps), 2 * cfg.n_users), np.nan)
    frozen_pl = None if positions is None else nominal_pathlosses(cfg, positions)
    pl, x = draw_block(cfg, stream_states(cfg.seed, reps), frozen_pl, out=(u, None))
    if positions is None:
        return user_positions(cfg, u), pl, x
    assert pl is frozen_pl and np.isnan(u).all()
    draws = len(reps)
    L_d, L_r = (np.broadcast_to(L, (draws, *L.shape)) for L in (pl.L_d, pl.L_r))
    positions = np.broadcast_to(positions, (draws, *positions.shape))
    return positions, replace(pl, L_d=L_d, L_r=L_r), x


def drawn_block(cfg, reps, positions=None):
    """(positions, pathlosses, realization) of the stacked draws of
    replications `reps` of the run seeded cfg.seed (`drawn_variates`)."""
    positions, pl, x = drawn_variates(cfg, reps, positions)
    return positions, pl, realize_block(cfg, pl, x)


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
        block = random_phase_block(stream_states(3, reps), n_ris)
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
    got_positions, pl, x = drawn_variates(large, reps, positions)
    got = (got_positions, pl, realize_block(small, pl, x))
    assert_same_draws(got, drawn_block(small, reps, positions), slice(None))


def test_random_phase_block_prefixes():
    reps = [2, 9, 0]
    wide = random_phase_block(stream_states(8, reps), 256)
    for n_ris in (1, 16, 255, 256):
        narrow = random_phase_block(stream_states(8, reps), n_ris)
        assert np.array_equal(wide[:, :n_ris], narrow)


# ------------------------------------------------- caller-owned out arrays


def same_bits(got, want):
    """The two arrays have one shape and dtype and the same bytes."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def filled(shape, dtype=float):
    """A caller's buffer, full of NaN so that an entry left unwritten shows."""
    return np.full(shape, np.nan, dtype)


@pytest.mark.parametrize("frozen", [False, True])
def test_draw_block_into_out_equals_a_new_draw(frozen):
    cfg = ScenarioConfig(n_bs=5, n_strong=2, n_ris=7, seed=11)
    positions = frozen_positions(cfg.with_updates(freeze_positions=True)) if frozen else None
    pl = None if positions is None else nominal_pathlosses(cfg, positions)
    reps = [4, 0, 9]
    streams = stream_states(cfg.seed, reps)
    u, x = filled((3, 2 * cfg.n_users)), filled((3, variate_count(cfg)))
    got = draw_block(cfg, streams, pl, out=(u, x))
    want = draw_block(cfg, streams, pl)
    assert got[1] is x
    for got_array, want_array in ((got[0].L_d, want[0].L_d),
                                  (got[0].L_r, want[0].L_r), (got[1], want[1])):
        same_bits(got_array, want_array)
    if not frozen:
        want_positions = [reference_draw(cfg, rep)[0] for rep in reps]
        same_bits(user_positions(cfg, u), np.array(want_positions))


@pytest.mark.parametrize("extra", [0, 1, 57])
def test_realize_and_cascade_into_out_equal_new_arrays(extra):
    # into caller-owned stacks, from the variates of a scenario with `extra`
    # more elements, as a sweep's smaller points are built
    cfg = ScenarioConfig(n_bs=5, n_strong=2, n_ris=7, seed=3)
    larger = cfg.with_updates(n_ris=cfg.n_ris + extra)
    pl, x = draw_block(larger, stream_states(cfg.seed, range(4)))
    H_d = filled((4, cfg.n_strong, cfg.n_bs), complex)
    H_c = filled((4, cfg.n_users, cfg.n_ris), complex)
    got = realize_block(cfg, pl, x, out=(H_d, H_c))
    want = realize_block(cfg, pl, x)
    assert got.H_c is H_c and got.H_d_strong is H_d
    for name in ("H_d_strong", "H_c", "b"):
        same_bits(getattr(got, name), getattr(want, name))
    H_c = filled(H_c.shape, complex)
    assert cascade_block(cfg, pl, x, out=H_c) is H_c
    same_bits(H_c, want.H_c)
    same_bits(cascade_block(cfg, pl, x), want.H_c)


def test_random_phase_block_into_out_equals_a_new_block():
    streams = stream_states(8, [2, 9, 0])
    u, theta = filled((3, 16)), filled((3, 16), complex)
    got = random_phase_block(streams, 16, out=(u, theta))
    assert got is theta
    same_bits(got, random_phase_block(streams, 16))


def test_steering_prefixes_equal_shorter_vectors():
    # entry m depends on m and the angle alone: fewer elements give the
    # prefix of more elements' vector, bit for bit
    for angle in (np.pi / 2, np.pi / 3, 0.4):
        wide = steering_vector(256, angle, norm="sqrt_n")
        for n in range(1, 257):
            same_bits(wide[:n], steering_vector(n, angle, norm="sqrt_n"))


def test_calls_without_out_return_independent_arrays():
    # no public call returns memory that a later call overwrites
    cfg = ScenarioConfig(n_bs=5, n_strong=2, n_ris=7, seed=3)

    def arrays():
        streams = stream_states(cfg.seed, range(3))
        pl, x = draw_block(cfg, streams)
        real = realize_block(cfg, pl, x)
        return (x, real.H_d_strong, real.H_c, cascade_block(cfg, pl, x),
                random_phase_block(streams, cfg.n_ris))

    first, second = arrays(), arrays()
    for a, b in zip(first, second):
        assert not np.shares_memory(a, b)
        same_bits(a, b)


@pytest.mark.parametrize(
    "out",
    [
        (np.empty((3, 8)), np.empty((3, 99))),
        (np.empty((3, 8)), np.empty((2, 80))),
        (np.empty((3, 8), np.float32), np.empty((3, 80))),
        (np.empty((3, 8)), [[0.0] * 80] * 3),
    ],
    ids=("columns", "rows", "dtype", "list"),
)
def test_draw_block_rejects_an_out_of_another_shape_or_dtype(out):
    cfg = ScenarioConfig(n_bs=6, n_strong=3, n_ris=4)
    assert (2 * cfg.n_users, variate_count(cfg)) == (8, 80)
    with pytest.raises(ValueError, match="^out must be a float64 array of shape"):
        draw_block(cfg, stream_states(0, range(3)), out=out)


def test_cascade_block_rejects_an_out_of_another_dtype():
    cfg = ScenarioConfig(n_bs=5, n_strong=2, n_ris=7)
    pl, x = draw_block(cfg, stream_states(0, range(2)))
    H_c = np.empty((2, cfg.n_users, cfg.n_ris), np.complex64)
    with pytest.raises(ValueError, match="^out must be a complex128 array"):
        cascade_block(cfg, pl, x, out=H_c)


def test_phase_and_channel_streams_are_separate():
    # drawing a replication's phases does not move its channel stream
    cfg = ScenarioConfig(n_bs=4, n_strong=2, n_ris=6, seed=2)
    random_phase_block(stream_states(cfg.seed, [1, 2]), cfg.n_ris)
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
