from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from risbc import channel, sweep
from risbc.channel import (
    CHANNEL,
    PHASE,
    ScenarioConfig,
    draw_block,
    draw_user_positions,
    position_rng,
    random_phase_block,
    realize_block,
    rep_seeds,
    sample_realization,
)
from risbc.phases import b_from_xi, random_phases, select_phases
from risbc.se import decompose, extended_phase, sum_se, weak_cascaded_row
from risbc.sweep import (
    MethodSpec,
    SweepPlan,
    power_split_offset_check,
    run_sweep,
)


def method(precoder, kind, mode):
    return MethodSpec(precoder=precoder, strategy=kind, mode=mode)


def small_cfg(**kw):
    base = dict(n_bs=4, n_strong=2, n_ris=8, ptx_dbm=30)
    base.update(kw)
    return ScenarioConfig(**base)


# ------------------------------------------------------------------ specs


def test_method_label():
    assert method("DPC", "align_weak", "exact").label == "DPC:align_weak:exact"


def test_method_rejects_unknowns():
    with pytest.raises(ValueError):
        method("MRT", "align_weak", "exact")
    with pytest.raises(ValueError):
        method("ZF", "align_weak", "closed_form")
    with pytest.raises(ValueError, match="unknown strategy kind 'exhaustive'"):
        method("ZF", "exhaustive", "exact")


def test_plan_validation():
    m = (method("ZF", "align_weak", "exact"),)
    cfg = small_cfg()
    with pytest.raises(ValueError):
        SweepPlan(cfg, "snr", (0.0,), m)
    with pytest.raises(ValueError):
        SweepPlan(cfg, "ptx_dbm", (), m)
    with pytest.raises(ValueError):
        SweepPlan(cfg, "ptx_dbm", (10.0, 10.0), m)
    with pytest.raises(ValueError):
        SweepPlan(cfg, "n_bs", (4.5, 6.0), m)
    with pytest.raises(ValueError):
        SweepPlan(cfg, "xi", (-1.0, 2.0), m)
    with pytest.raises(ValueError, match="xi values must be positive"):
        SweepPlan(cfg, "xi", (0.0, 2.0), m)
    for values in ((10.0, np.inf), (np.nan,), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            SweepPlan(cfg, "ptx_dbm", values, m)
    with pytest.raises(ValueError, match="finite"):
        SweepPlan(cfg, "xi", (np.nan,), m)
    with pytest.raises(ValueError):
        SweepPlan(cfg, "ptx_dbm", (0.0,), ())
    with pytest.raises(ValueError):
        SweepPlan(cfg, "ptx_dbm", (0.0,), m, reps=0)


def test_plan_keeps_its_validated_points(monkeypatch):
    # the plan builds each point's scenario once; run_sweep builds none, and
    # replace rebuilds the points from the new fields
    m = (method("ZF", "align_weak", "exact"),)
    plan = SweepPlan(small_cfg(), "ptx_dbm", (10.0, 20.0), m, reps=2)
    assert [(cfg.ptx_dbm, xi) for cfg, xi in plan.points] == [
        (10.0, None), (20.0, None)
    ]
    built = []
    post_init = ScenarioConfig.__post_init__
    monkeypatch.setattr(
        ScenarioConfig, "__post_init__", lambda cfg: built.append(cfg) or post_init(cfg)
    )
    run_sweep(plan)
    assert built == []
    moved = replace(plan, config=small_cfg(n_ris=5), variable="xi", values=(1.0, 3.0))
    assert [(cfg.n_ris, xi) for cfg, xi in moved.points] == [(5, 1.0), (5, 3.0)]


# ------------------------------------------------------------------ harness


def test_harness_is_transparent():
    # one rep, frozen positions: the row must equal a by-hand evaluation
    # following the same substream convention
    cfg = small_cfg(freeze_positions=True)
    plan = SweepPlan(cfg, "ptx_dbm", (30.0,), (method("ZF", "align_weak", "exact"),), reps=1)
    row = run_sweep(plan).rows[0]

    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    ch_ss, _ = rep_seeds(cfg.seed, 0)
    real = sample_realization(cfg, np.random.default_rng(ch_ss), positions=pos)
    cache = decompose(real)
    h_c_weak = weak_cascaded_row(real)
    theta = np.exp(-1j * np.angle(h_c_weak))
    total, direct, reflect = sum_se(
        cache, extended_phase(theta), h_c_weak, cfg.p_bar(), "ZF", "exact"
    )

    assert row.se_mean == pytest.approx(total, abs=1e-12)
    assert row.se_d_mean == pytest.approx(direct, abs=1e-12)
    assert row.se_r_mean == pytest.approx(reflect, abs=1e-12)
    assert row.se_std == 0.0
    assert row.reps == 1 and row.flagged == 0


def test_randomized_strategies_are_paired():
    # ZF and DPC with random phases must see the same draw per replication
    cfg = small_cfg()
    reps = 5
    plan = SweepPlan(
        cfg,
        "ptx_dbm",
        (20.0,),
        (method("ZF", "random", "asymptotic"), method("DPC", "random", "asymptotic")),
        reps=reps,
    )
    rows = {(r.precoder): r for r in run_sweep(plan).rows}

    swept = cfg.with_updates(ptx_dbm=20.0)
    want = {"ZF": [], "DPC": []}
    for rep in range(reps):
        ch_ss, ph_ss = rep_seeds(swept.seed, rep)
        real = sample_realization(swept, np.random.default_rng(ch_ss))
        cache = decompose(real)
        h_c_weak = weak_cascaded_row(real)
        theta = random_phases(swept.n_ris, np.random.default_rng(ph_ss))
        phase = extended_phase(theta)
        for prec in ("ZF", "DPC"):
            want[prec].append(
                sum_se(cache, phase, h_c_weak, swept.p_bar(), prec, "asymptotic")[0]
            )
    for prec in ("ZF", "DPC"):
        assert rows[prec].se_mean == pytest.approx(np.mean(want[prec]), abs=1e-12)
        assert rows[prec].se_std == pytest.approx(np.std(want[prec]), abs=1e-12)


def test_dpc_dominates_zf_pointwise():
    plan = SweepPlan(
        small_cfg(),
        "ptx_dbm",
        (0.0, 20.0, 40.0),
        (method("ZF", "align_weak", "exact"), method("DPC", "align_weak", "exact")),
        reps=10,
    )
    result = run_sweep(plan)
    _, zf = result.series("ZF:align_weak:exact")
    _, dpc = result.series("DPC:align_weak:exact")
    assert np.all(dpc >= zf - 1e-12)
    assert np.all(np.diff(zf) > 0) and np.all(np.diff(dpc) > 0)


def test_split_means_add_up():
    plan = SweepPlan(
        small_cfg(),
        "ptx_dbm",
        (10.0, 40.0),
        (
            method("ZF", "align_weak", "exact"),
            method("DPC", "align_weak", "asymptotic"),
        ),
        reps=6,
    )
    for row in run_sweep(plan).rows:
        assert row.se_mean == pytest.approx(row.se_d_mean + row.se_r_mean, abs=1e-9)


def test_n_ris_sweep_applies_variable():
    plan = SweepPlan(
        small_cfg(),
        "n_ris",
        (4, 64),
        (method("DPC", "align_weak", "asymptotic"),),
        reps=5,
    )
    _, se = run_sweep(plan).series("DPC:align_weak:asymptotic")
    # aligned weak-user gain scales like N_R^2: 4 bpcu per 16x elements
    assert se[1] - se[0] > 3.0


def test_xi_zero_draws_are_flagged_and_abort():
    # xi -> 0 puts the BS-RIS direction inside the strong users' row space
    # (xi = 0 itself is rejected by SweepPlan): at xi = 1e-9 every projected
    # Gram matrix has cond above 1e15, so every draw is flagged
    plan = SweepPlan(
        small_cfg(),
        "xi",
        (1e-9,),
        (method("DPC", "align_weak", "exact"),),
        reps=4,
    )
    with pytest.raises(RuntimeError, match="flagged"):
        run_sweep(plan)


def test_xi_sweep_moves_direct_rate():
    plan = SweepPlan(
        small_cfg(),
        "xi",
        (0.1, 10.0),
        (method("DPC", "align_weak", "asymptotic"),),
        reps=20,
    )
    rows = run_sweep(plan).rows
    assert rows[1].se_d_mean > rows[0].se_d_mean


def test_series_unknown_label():
    plan = SweepPlan(
        small_cfg(), "ptx_dbm", (10.0,), (method("ZF", "align_weak", "exact"),), reps=1
    )
    with pytest.raises(KeyError):
        run_sweep(plan).series("DPC:align_weak:exact")


# ------------------------------------------------------------------ offset


def test_power_split_offset_single_strong_user():
    cfg = ScenarioConfig(n_bs=4, n_strong=1, n_ris=8, ptx_dbm=40)
    assert power_split_offset_check(cfg, reps=50) == pytest.approx(1.0, abs=1e-6)


def test_power_split_offset_three_strong_users():
    cfg = ScenarioConfig(n_bs=4, n_strong=3, n_ris=8, ptx_dbm=40)
    off = power_split_offset_check(cfg, reps=50)
    assert off == pytest.approx(3 * np.log2(4.0 / 3.0), abs=1e-6)


# ------------------------------------------------- batched engine vs per draw

ALL_METHODS = tuple(
    method(precoder, kind, mode)
    for precoder, kind, mode in product(
        ("ZF", "DPC"),
        ("random", "statistical", "align_weak", "mitigation_aware"),
        ("exact", "asymptotic"),
    )
)


def per_draw_draws(plan, value):
    """(cfg, cache, h_c_weak, phase seed) of every draw at one sweep point,
    by the per-draw public API; cache is None for a flagged draw."""
    cfg, xi = plan.config, None
    if plan.variable == "xi":
        xi = value
    elif plan.variable == "ptx_dbm":
        cfg = cfg.with_updates(ptx_dbm=value)
    else:
        cfg = cfg.with_updates(**{plan.variable: int(value)})
    positions = None
    if cfg.freeze_positions:
        positions = draw_user_positions(cfg, position_rng(cfg.seed))
    for rep in range(plan.reps):
        ch_ss, ph_ss = rep_seeds(cfg.seed, rep)
        rng = np.random.default_rng(ch_ss)
        real = sample_realization(cfg, rng, positions=positions)
        if xi is not None:
            real = replace(real, b=b_from_xi(real.H_d_strong, xi))
        cache = decompose(real)
        yield cfg, cache, weak_cascaded_row(real), ph_ss


def per_draw_rows(plan):
    """The sweep's rows from a loop of sample_realization -> decompose ->
    select_phases -> sum_se, one draw and one method at a time."""
    rows = []
    for value in plan.values:
        kept, flagged = [], 0
        for cfg, cache, h_c_weak, ph_ss in per_draw_draws(plan, value):
            if cache.cond() > sweep.COND_FLAG:
                flagged += 1
                continue
            out, phases = {}, {}
            for m in plan.methods:
                if m.strategy not in phases:
                    rng = np.random.default_rng(ph_ss)
                    phases[m.strategy] = extended_phase(
                        select_phases(m.strategy, cache, h_c_weak, rng)
                    )
                out[m.label] = sum_se(
                    cache, phases[m.strategy], h_c_weak, cfg.p_bar(), m.precoder, m.mode
                )
            kept.append(out)
        for m in plan.methods:
            total, direct, reflect = (
                np.array([rec[m.label][i] for rec in kept]) for i in range(3)
            )
            rows.append((
                value, m.label, np.mean(total), np.std(total),
                np.mean(direct), np.mean(reflect), len(kept), flagged,
            ))
    return rows


def assert_rows_match(result, expected):
    assert len(result.rows) == len(expected)
    for row, want in zip(result.rows, expected):
        label = f"{row.precoder}:{row.strategy}:{row.mode}"
        assert (row.value, label, row.reps, row.flagged) == (
            want[0], want[1], want[6], want[7]
        )
        got = (row.se_mean, row.se_std, row.se_d_mean, row.se_r_mean)
        for a, b in zip(got, want[2:6]):
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (label, a, b)


@pytest.mark.parametrize(
    "variable, values, block",
    [
        ("ptx_dbm", (0.0, 20.0, 40.0), 4),
        ("n_bs", (3.0, 6.0), 4),
        ("n_ris", (4.0, 8.0), 4),
        ("xi", (0.5, 5.0), 4),
        ("ptx_dbm", (20.0,), None),
    ],
)
def test_batched_rows_match_per_draw_loop(monkeypatch, variable, values, block):
    # reps is never a multiple of the block size: the last block is partial
    if block is None:
        reps = sweep.BLOCK_REPS + 3
    else:
        monkeypatch.setattr(sweep, "BLOCK_REPS", block)
        reps = 2 * block + 2
    cfg = small_cfg(freeze_positions=variable == "n_ris")
    plan = SweepPlan(cfg, variable, values, ALL_METHODS, reps=reps)
    assert_rows_match(run_sweep(plan), per_draw_rows(plan))


def test_partial_flagging_matches_per_draw_loop(monkeypatch):
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    plan = SweepPlan(small_cfg(), "ptx_dbm", (20.0,), ALL_METHODS, reps=12)
    conds = [cache.cond() for _, cache, _, _ in per_draw_draws(plan, 20.0)]
    monkeypatch.setattr(sweep, "COND_FLAG", float(np.median(conds)))
    result = run_sweep(plan)
    assert {(r.reps, r.flagged) for r in result.rows} == {(6, 6)}
    assert_rows_match(result, per_draw_rows(plan))


def test_rows_do_not_depend_on_block_size(monkeypatch):
    cfg = small_cfg(freeze_positions=True)
    methods = (
        method("ZF", "random", "exact"),
        method("DPC", "mitigation_aware", "asymptotic"),
        method("ZF", "align_weak", "asymptotic"),
    )
    plan = SweepPlan(cfg, "n_ris", (4.0, 8.0), methods, reps=9)
    rows = []
    for block in (1, 7, sweep.BLOCK_REPS):
        monkeypatch.setattr(sweep, "BLOCK_REPS", block)
        rows.append(run_sweep(plan).rows)
    assert rows[0] == rows[1] == rows[2]


def test_power_point_does_not_depend_on_the_grid():
    methods = (method("ZF", "random", "exact"), method("DPC", "align_weak", "exact"))
    cfg = small_cfg()
    grid = run_sweep(SweepPlan(cfg, "ptx_dbm", (10.0, 20.0, 30.0), methods, reps=5))
    alone = run_sweep(SweepPlan(cfg, "ptx_dbm", (20.0,), methods, reps=5))
    assert [r for r in grid.rows if r.value == 20.0] == alone.rows


def test_element_point_does_not_depend_on_the_grid():
    # every point of an n_ris, n_bs or xi sweep realizes its draws from a
    # prefix of the largest point's variates: a point run with others gives
    # the rows it gives alone
    methods = (
        method("ZF", "random", "asymptotic"), method("DPC", "align_weak", "exact")
    )
    cfg = small_cfg(freeze_positions=True)
    for variable, values in (
        ("n_ris", (4.0, 8.0, 12.0)),
        ("n_bs", (3.0, 5.0, 7.0)),
        ("xi", (0.5, 2.0, 8.0)),
    ):
        grid = run_sweep(SweepPlan(cfg, variable, values, methods, reps=5))
        for value in values:
            alone = run_sweep(SweepPlan(cfg, variable, (value,), methods, reps=5))
            assert [r for r in grid.rows if r.value == value] == alone.rows


@pytest.mark.parametrize(
    "variable, values, frozen",
    [
        ("n_ris", (4.0, 9.0), True),
        ("n_ris", (4.0, 9.0), False),
        ("n_bs", (3.0, 6.0), False),
        ("xi", (0.5, 5.0), True),
        ("ptx_dbm", (10.0, 30.0), False),
    ],
)
def test_sweep_draws_equal_the_reference_definition(
    monkeypatch, variable, values, frozen
):
    # every block the sweep realizes, at every point and partial last block
    # included, equals sample_realization / random_phases on default_rng of
    # rep_seeds, and each replication's two streams are built once per run
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    draws, realized, phases, built = [], [], [], Counter()

    def spy_draw(cfg, seed, reps, positions=None):
        drawn = draw_block(cfg, seed, reps, positions)
        draws.append((drawn[1], list(reps), positions))
        return drawn

    def spy_realize(cfg, positions, x):
        reps, frozen_positions = next((r, p) for d, r, p in draws if d is x)
        real = realize_block(cfg, positions, x)
        realized.append((cfg, reps, frozen_positions, real))
        return real

    def spy_phases(seed, reps, n_ris):
        theta = random_phase_block(seed, reps, n_ris)
        phases.append((list(reps), n_ris, theta))
        return theta

    generator = channel._generator

    def spy_generator(seed, rep, stream):
        built[rep, stream] += 1
        return generator(seed, rep, stream)

    monkeypatch.setattr(sweep, "draw_block", spy_draw)
    monkeypatch.setattr(sweep, "realize_block", spy_realize)
    monkeypatch.setattr(sweep, "random_phase_block", spy_phases)
    monkeypatch.setattr(channel, "_generator", spy_generator)
    methods = (
        method("ZF", "random", "exact"),
        method("DPC", "statistical", "asymptotic"),
        method("ZF", "align_weak", "asymptotic"),
    )
    cfg = small_cfg(freeze_positions=frozen)
    plan = SweepPlan(cfg, variable, values, methods, reps=8)
    run_sweep(plan)

    drawn_points = 1 if variable == "ptx_dbm" else len(values)
    # blocks outside, points inside: each block is realized at every point
    sizes = [len(reps) for _, reps, _, _ in realized]
    assert sizes == [size for size in (3, 3, 2) for _ in range(drawn_points)]
    for cfg, reps, positions, real in realized:
        assert (positions is not None) == frozen
        for i, rep in enumerate(reps):
            ch_ss, _ = rep_seeds(cfg.seed, rep)
            want = sample_realization(cfg, np.random.default_rng(ch_ss), positions)
            for name in ("H_d_strong", "h_d_weak", "H_r", "H_c", "positions"):
                assert np.array_equal(getattr(real, name)[i], getattr(want, name))
    # one phase block per drawn block (the two random strategies share it)
    assert len(phases) == len(draws) == 3
    for reps, n_ris, theta in phases:
        for row, rep in zip(theta, reps):
            _, ph_ss = rep_seeds(plan.config.seed, rep)
            want = random_phases(n_ris, np.random.default_rng(ph_ss))
            assert np.array_equal(row, want)
    # whatever the number of points, each stream is built once per run
    once = {(rep, stream): 1 for rep in range(8) for stream in (CHANNEL, PHASE)}
    assert built == Counter(once)
