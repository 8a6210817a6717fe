import re
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from oracles import random_phases, rep_seeds
from risbc import channel, se, sweep
from risbc.channel import (
    CHANNEL,
    ScenarioConfig,
    draw_block,
    draw_user_positions,
    nominal_pathlosses,
    position_rng,
    random_phase_block,
    realize_block,
    sample_realization,
    stream_states,
)
from risbc.config import figure_preset
from risbc.phases import select_phases
from risbc.se import decompose, decompose_feed, rate_terms, rates, row_space_feed
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


def test_plan_rejects_replications_beyond_one_index_word():
    # a replication's index enters its seed as one 32-bit word
    m = (method("ZF", "align_weak", "exact"),)
    assert SweepPlan(small_cfg(), "ptx_dbm", (30.0,), m, reps=2**32).reps == 2**32
    with pytest.raises(ValueError, match="reps must be at most 4294967296"):
        SweepPlan(small_cfg(), "ptx_dbm", (30.0,), m, reps=2**32 + 1)


def test_plan_keeps_its_validated_points(monkeypatch):
    # the plan builds each point's scenario once; run_sweep builds none, and
    # replace rebuilds the points from the new fields
    m = (method("ZF", "align_weak", "exact"),)
    plan = SweepPlan(small_cfg(), "ptx_dbm", (10.0, 20.0), m, reps=2)
    assert all(isinstance(cfg, ScenarioConfig) for cfg in plan.points)
    assert [cfg.ptx_dbm for cfg in plan.points] == [10.0, 20.0]
    built = []
    post_init = ScenarioConfig.__post_init__
    monkeypatch.setattr(
        ScenarioConfig, "__post_init__", lambda cfg: built.append(cfg) or post_init(cfg)
    )
    run_sweep(plan)
    assert built == []
    moved = replace(plan, config=small_cfg(n_ris=5), variable="xi", values=(1.0, 3.0))
    # xi scales each draw's feed: every xi point is the plan's scenario
    assert moved.points == (moved.config, moved.config)
    assert moved.points[0].n_ris == 5


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
    theta = np.exp(-1j * np.angle(cache.h_c_weak))
    total, direct, reflect = rates(rate_terms(cache, theta), cfg.p_bar(), "ZF", "exact")

    assert row.se_mean == pytest.approx(total, abs=1e-12)
    assert row.se_d_mean == pytest.approx(direct, abs=1e-12)
    assert row.se_r_mean == pytest.approx(reflect, abs=1e-12)
    assert row.se_std == 0.0
    assert row.reps == 1 and row.flagged == 0


def test_randomized_strategies_are_paired():
    # ZF and DPC with random phases must see the same draw per replication
    # (at 40 dBm: at 20 dBm the high-SNR ZF mean of N_R = 8 is negative)
    cfg = small_cfg()
    reps = 5
    plan = SweepPlan(
        cfg,
        "ptx_dbm",
        (40.0,),
        (method("ZF", "random", "asymptotic"), method("DPC", "random", "asymptotic")),
        reps=reps,
    )
    rows = {(r.precoder): r for r in run_sweep(plan).rows}

    swept = cfg.with_updates(ptx_dbm=40.0)
    want = {"ZF": [], "DPC": []}
    for rep in range(reps):
        ch_ss, ph_ss = rep_seeds(swept.seed, rep)
        real = sample_realization(swept, np.random.default_rng(ch_ss))
        cache = decompose(real)
        theta = random_phases(swept.n_ris, np.random.default_rng(ph_ss))
        for prec in ("ZF", "DPC"):
            want[prec].append(
                rates(rate_terms(cache, theta), swept.p_bar(), prec, "asymptotic")[0]
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


def test_xi_sweep_reaches_the_orthogonal_limit():
    # at xi = 1e200, xi^2 overflows; the feed c(0) / hypot(1, xi) does not,
    # and the rows equal those at xi = 1e100, where the feed already vanishes
    methods = (
        method("DPC", "align_weak", "exact"), method("ZF", "align_weak", "asymptotic")
    )
    rows = run_sweep(SweepPlan(small_cfg(), "xi", (1e100, 1e200), methods, reps=6)).rows
    for near, far in zip(rows[:2], rows[2:]):
        assert far.flagged == 0
        assert far.se_mean == pytest.approx(near.se_mean, rel=1e-12)


def test_series_unknown_label():
    plan = SweepPlan(
        small_cfg(), "ptx_dbm", (10.0,), (method("ZF", "align_weak", "exact"),), reps=1
    )
    with pytest.raises(KeyError):
        run_sweep(plan).series("DPC:align_weak:exact")


@pytest.mark.parametrize(
    "variable, values, factors, cascades",
    [
        ("ptx_dbm", (10.0, 20.0, 30.0), 1, 0),
        ("n_bs", (4.0, 6.0), 2, 0),
        ("n_ris", (4.0, 8.0, 16.0), 1, 2),
        ("xi", (0.1, 1.0, 10.0, 100.0), 4, 0),
    ],
    ids=("ptx_dbm", "n_bs", "n_ris", "xi"),
)
def test_sweep_takes_one_feed_per_block_and_point(
    monkeypatch, variable, values, factors, cascades
):
    # every stage-1 point takes one cache of each block (a power sweep has
    # one point).  decompose_feed builds it, with one eigh of C_s, except at
    # an n_ris sweep's later points, which build only their cascade
    # (cascade_block) and swap it into the first point's cache
    # (with_cascade).  The SVD behind an xi sweep's c(0) runs once per
    # block, whatever the number of xi points, each block's pathlosses are
    # computed once, whatever the variable, and nothing calls decompose
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    names = ("feed", "decompose", "eigh", "with_cascade", "cascade_block", "pl")
    calls = {name: [] for name in names}
    eigh, with_cascade = np.linalg.eigh, se.DecompositionCache.with_cascade

    def spy_feed(H_d_strong):
        calls["feed"].append(len(H_d_strong))
        return row_space_feed(H_d_strong)

    def spy_decompose_feed(H_d_strong, H_c, c):
        calls["decompose"].append(len(c))
        return decompose_feed(H_d_strong, H_c, c)

    def spy_eigh(A):
        calls["eigh"].append(len(A))
        return eigh(A)

    def spy_with_cascade(cache, H_c):
        calls["with_cascade"].append(len(H_c))
        return with_cascade(cache, H_c)

    def spy_cascade_block(cfg, pl, x):
        calls["cascade_block"].append(len(x))
        return channel.cascade_block(cfg, pl, x)

    def spy_pathlosses(cfg, positions):
        calls["pl"].append(len(positions))
        return nominal_pathlosses(cfg, positions)

    def no_decompose(real):
        raise AssertionError("the sweep called decompose")

    monkeypatch.setattr(sweep, "row_space_feed", spy_feed)
    monkeypatch.setattr(sweep, "decompose_feed", spy_decompose_feed)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(se.DecompositionCache, "with_cascade", spy_with_cascade)
    monkeypatch.setattr(sweep, "cascade_block", spy_cascade_block)
    monkeypatch.setattr(channel, "nominal_pathlosses", spy_pathlosses)
    monkeypatch.setattr(se, "decompose", no_decompose)
    monkeypatch.setattr(sweep, "decompose", no_decompose, raising=False)
    methods = (method("ZF", "align_weak", "exact"), method("DPC", "random", "exact"))
    plan = SweepPlan(small_cfg(), variable, values, methods, reps=8)
    run_sweep(plan)

    def per_block(n):
        return [size for size in (3, 3, 2) for _ in range(n)]

    assert calls == {
        "feed": per_block(int(variable == "xi")),
        "decompose": per_block(factors),
        "eigh": per_block(factors),
        "with_cascade": per_block(cascades),
        "cascade_block": per_block(cascades),
        "pl": per_block(1),
    }


def test_frozen_positions_take_their_pathlosses_once_per_run(monkeypatch):
    # every block of a run with frozen positions shares one set of
    # pathlosses, computed from the positions [K+1, 3] once
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    calls = []

    def spy(cfg, positions):
        calls.append(positions.shape)
        return nominal_pathlosses(cfg, positions)

    monkeypatch.setattr(channel, "nominal_pathlosses", spy)
    monkeypatch.setattr(sweep, "nominal_pathlosses", spy)
    cfg = small_cfg(freeze_positions=True)
    plan = SweepPlan(cfg, "n_ris", (4.0, 8.0), (method("ZF", "random", "exact"),), reps=8)
    run_sweep(plan)
    assert calls == [(cfg.n_users, 3)]
    calls.clear()
    power_split_offset_check(cfg, reps=8)
    assert calls == [(cfg.n_users, 3)]


def test_figure5_builds_only_the_cascade_after_its_first_point(monkeypatch):
    # figure 5 at 300 reps runs 10 blocks over N_R = 16 ... 256: each block
    # is realized and factored once, at N_R = 16, and its four later points
    # build only their cascades, with no direct channels and no feed H_d^s b
    plan = figure_preset(5, reps=300)
    calls = {name: [] for name in ("realize", "cascade", "eigh", "feed")}
    eigh, matvec = np.linalg.eigh, sweep.matvec

    def spy_realize(cfg, pl, x):
        calls["realize"].append(cfg.n_ris)
        return realize_block(cfg, pl, x)

    def spy_cascade(cfg, pl, x):
        calls["cascade"].append(cfg.n_ris)
        return channel.cascade_block(cfg, pl, x)

    def spy_eigh(A):
        calls["eigh"].append(len(A))
        return eigh(A)

    def spy_feed(A, x):
        calls["feed"].append(A.shape)
        return matvec(A, x)

    monkeypatch.setattr(sweep, "realize_block", spy_realize)
    monkeypatch.setattr(sweep, "cascade_block", spy_cascade)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(sweep, "matvec", spy_feed)
    run_sweep(plan)
    sizes = [32] * 9 + [12]
    K, n_bs = plan.config.n_strong, plan.config.n_bs
    assert calls == {
        "realize": [16] * 10,
        "cascade": [32, 64, 128, 256] * 10,
        "eigh": sizes,
        "feed": [(size, K, n_bs) for size in sizes],
    }


# ------------------------------------------------------------------ offset


def test_power_split_offset_single_strong_user():
    cfg = ScenarioConfig(n_bs=4, n_strong=1, n_ris=8, ptx_dbm=40)
    assert power_split_offset_check(cfg, reps=50) == pytest.approx(1.0, abs=1e-6)


def test_power_split_offset_three_strong_users():
    cfg = ScenarioConfig(n_bs=4, n_strong=3, n_ris=8, ptx_dbm=40)
    off = power_split_offset_check(cfg, reps=50)
    assert off == pytest.approx(3 * np.log2(4.0 / 3.0), abs=1e-6)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"xi_large": 0.0}, "xi_large must be finite and positive, got 0.0"),
        ({"xi_large": -1.0}, "xi_large must be finite and positive, got -1.0"),
        ({"xi_large": np.inf}, "xi_large must be finite and positive, got inf"),
        ({"xi_large": np.nan}, "xi_large must be finite and positive, got nan"),
        ({"reps": 0}, "reps must be from 1 to 4294967296, got 0"),
        ({"reps": 2**32 + 1}, "reps must be from 1 to 4294967296, got 4294967297"),
    ],
)
def test_power_split_offset_rejects_bad_arguments(kw, message):
    # these used to return nan with a RuntimeWarning (xi_large = 0), return
    # a number (xi_large < 0) or die inside numpy (reps = 0)
    cfg = ScenarioConfig(n_bs=4, n_strong=2, n_ris=8, ptx_dbm=40)
    with pytest.raises(ValueError, match=re.escape(message)):
        power_split_offset_check(cfg, **kw)


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
    """(cfg, cache, phase seed) of every draw at one sweep point,
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
        if xi is None:
            cache = decompose(real)
        else:
            # one draw's feed at xi, c(0) / sqrt(1 + xi^2); test_se checks it
            # against the b(xi) construction.  The mitigation-aware optimizer
            # turns ulp differences of its input into phases that differ by
            # about 1e-11 (its maximizer is not unique), so a feed built from
            # b(xi) puts its rows up to about 4e-12 (relative) from the sweep's
            c = row_space_feed(real.H_d_strong) / np.hypot(1.0, xi)
            cache = decompose_feed(real.H_d_strong, real.H_c, c)
        yield cfg, cache, ph_ss


def per_draw_rows(plan):
    """The sweep's rows from a loop of sample_realization -> decompose ->
    select_phases -> rate_terms -> rates, one draw and one method at a
    time."""
    rows = []
    for value in plan.values:
        kept, flagged = [], 0
        for cfg, cache, ph_ss in per_draw_draws(plan, value):
            if cache.cond() > sweep.COND_FLAG:
                flagged += 1
                continue
            out, phases = {}, {}
            for m in plan.methods:
                if m.strategy not in phases:
                    drawn = random_phases(cfg.n_ris, np.random.default_rng(ph_ss))
                    phases[m.strategy] = select_phases(m.strategy, cache, drawn)
                terms = rate_terms(cache, phases[m.strategy])
                out[m.label] = rates(terms, cfg.p_bar(), m.precoder, m.mode)
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


def assert_sweep_matches(plan):
    """run_sweep(plan) gives the rows of the per-draw loop or, if one of
    those rows has a negative mean, raises at the first such row."""
    expected = per_draw_rows(plan)
    negative = [want for want in expected if min(want[2], want[4], want[5]) < 0.0]
    if not negative:
        assert_rows_match(run_sweep(plan), expected)
        return
    value, label = negative[0][:2]
    where = f"{label} gives a negative mean rate at {plan.variable}={value:g} "
    with pytest.raises(RuntimeError, match=re.escape(where)):
        run_sweep(plan)


@pytest.mark.parametrize(
    "variable, values, block",
    [
        ("ptx_dbm", (30.0, 40.0, 50.0), 4),
        ("n_bs", (3.0, 6.0), 4),
        ("n_ris", (4.0, 8.0), 4),
        ("xi", (0.5, 5.0), 4),
        ("ptx_dbm", (40.0,), None),
    ],
)
def test_batched_rows_match_per_draw_loop(monkeypatch, variable, values, block):
    # reps is never a multiple of the block size: the last block is partial.
    # The powers are high enough for every high-SNR mean to be nonnegative
    # (test_negative_mean_raises_at_its_first_row covers lower ones).
    if block is None:
        reps = sweep.BLOCK_REPS + 3
    else:
        monkeypatch.setattr(sweep, "BLOCK_REPS", block)
        reps = 2 * block + 2
    cfg = small_cfg(freeze_positions=variable == "n_ris")
    plan = SweepPlan(cfg, variable, values, ALL_METHODS, reps=reps)
    assert_rows_match(run_sweep(plan), per_draw_rows(plan))


@pytest.mark.parametrize(
    "variable, values, flagged",
    [
        ("ptx_dbm", (40.0,), [6]),
        ("n_ris", (4.0, 8.0), [6, 6]),
        ("n_bs", (3.0, 6.0), [6, 2]),
    ],
    ids=("ptx_dbm", "n_ris", "n_bs"),
)
def test_partial_flagging_matches_per_draw_loop(monkeypatch, variable, values, flagged):
    # the flag threshold at the median condition number of the first point
    # flags half its draws.  The points of an n_ris sweep share C_s, so its
    # flags; an n_bs sweep's do not, so a keep-mask reused across the wrong
    # points, or not reused where it should be, shows in the rows
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    cfg = small_cfg(ptx_dbm=40.0, freeze_positions=variable == "n_ris")
    plan = SweepPlan(cfg, variable, values, ALL_METHODS, reps=12)
    conds = [cache.cond() for _, cache, _ in per_draw_draws(plan, values[0])]
    monkeypatch.setattr(sweep, "COND_FLAG", float(np.median(conds)))
    result = run_sweep(plan)
    assert [r.flagged for r in result.rows[:: len(ALL_METHODS)]] == flagged
    assert_rows_match(result, per_draw_rows(plan))


def test_negative_mean_raises_at_its_first_row():
    # the high-SNR ZF form of the weak user goes negative at low power on
    # N_R = 8: the run raises at the first such row, as the loop says
    plan = SweepPlan(small_cfg(), "ptx_dbm", (0.0, 20.0, 40.0), ALL_METHODS, reps=6)
    assert_sweep_matches(plan)
    with pytest.raises(RuntimeError, match="ZF:random:asymptotic .* ptx_dbm=0 "):
        run_sweep(plan)


def test_power_sweep_calls_rates_once_per_method_and_draws_no_positions(monkeypatch):
    # stage 2 of a ptx_dbm sweep evaluates each method once over all its
    # powers, and draw_block derives a block's positions in one array pass
    # instead of drawing them per replication
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    plan = figure_preset(2, reps=7)
    calls = Counter()

    def spy_rates(*args):
        calls["rates"] += 1
        return rates(*args)

    def spy_positions(*args):
        calls["draw_user_positions"] += 1
        return draw_user_positions(*args)

    monkeypatch.setattr(sweep, "rates", spy_rates)
    monkeypatch.setattr(channel, "draw_user_positions", spy_positions)
    for _ in range(2):
        calls.clear()
        run_sweep(plan)
        assert calls == Counter(rates=len(plan.methods))


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
        ("ptx_dbm", (30.0, 40.0), False),
    ],
)
def test_sweep_draws_equal_the_reference_definition(
    monkeypatch, variable, values, frozen
):
    # every block the sweep realizes or cascades, at every point and partial
    # last block included, equals sample_realization / random_phases on
    # default_rng of rep_seeds; the run computes every stream start in one
    # seeding pass, builds one SeedSequence (its self-check) and reads each
    # stream once
    monkeypatch.setattr(sweep, "BLOCK_REPS", 3)
    draws, realized, cascaded, phases, passes = [], [], [], [], []
    built = Counter()

    def spy_draw(cfg, streams, positions=None, pathlosses=None):
        drawn = draw_block(cfg, streams, positions, pathlosses)
        draws.append((drawn[2], streams.reps.tolist(), positions))
        return drawn

    def spy_realize(cfg, pl, x):
        reps, frozen_positions = next((r, p) for d, r, p in draws if d is x)
        real = realize_block(cfg, pl, x)
        realized.append((cfg, reps, frozen_positions, pl, real))
        return real

    def spy_cascade(cfg, pl, x):
        reps, frozen_positions = next((r, p) for d, r, p in draws if d is x)
        H_c = channel.cascade_block(cfg, pl, x)
        cascaded.append((cfg, reps, frozen_positions, H_c))
        return H_c

    def spy_phases(streams, n_ris):
        theta = random_phase_block(streams, n_ris)
        phases.append((streams.reps.tolist(), n_ris, theta))
        return theta

    def spy_states(seed, reps):
        passes.append((seed, list(reps)))
        return stream_states(seed, reps)

    rep_seed = channel._rep_seed

    def spy_rep_seed(seed, rep, stream):
        built[rep, stream] += 1
        return rep_seed(seed, rep, stream)

    monkeypatch.setattr(sweep, "draw_block", spy_draw)
    monkeypatch.setattr(sweep, "realize_block", spy_realize)
    monkeypatch.setattr(sweep, "cascade_block", spy_cascade)
    monkeypatch.setattr(sweep, "random_phase_block", spy_phases)
    monkeypatch.setattr(sweep, "stream_states", spy_states)
    monkeypatch.setattr(channel, "_rep_seed", spy_rep_seed)
    methods = (
        method("ZF", "random", "exact"),
        method("DPC", "statistical", "asymptotic"),
        method("ZF", "align_weak", "asymptotic"),
    )
    cfg = small_cfg(freeze_positions=frozen)
    plan = SweepPlan(cfg, variable, values, methods, reps=8)
    run_sweep(plan)
    # whatever the number of points, one seeding pass and one SeedSequence
    # per run, and each replication's streams are read in one block
    assert passes == [(cfg.seed, list(range(8)))]
    assert built == Counter({(0, CHANNEL): 1})
    assert [rep for _, reps, _ in draws for rep in reps] == list(range(8))

    # blocks outside, points inside: each block is realized at every point
    # that has a scenario of its own (a ptx_dbm or xi sweep has one
    # scenario), except at an n_ris sweep's later points, which build only
    # their cascade
    drawn_points = 1 if variable in ("ptx_dbm", "xi") else len(values)
    cascade_points = drawn_points - 1 if variable == "n_ris" else 0
    for built_points, points in (
        (realized, drawn_points - cascade_points),
        (cascaded, cascade_points),
    ):
        sizes = [len(reps) for _, reps, *_ in built_points]
        assert sizes == [size for size in (3, 3, 2) for _ in range(points)]
    for cfg, reps, positions, H_c in cascaded:
        for i, rep in enumerate(reps):
            ch_ss, _ = rep_seeds(cfg.seed, rep)
            want = sample_realization(cfg, np.random.default_rng(ch_ss), positions)
            assert np.array_equal(H_c[i], want.H_c)
    for cfg, reps, positions, pl, real in realized:
        assert (positions is not None) == frozen
        for i, rep in enumerate(reps):
            ch_ss, _ = rep_seeds(cfg.seed, rep)
            want = sample_realization(cfg, np.random.default_rng(ch_ss), positions)
            for name in ("H_d_strong", "h_d_weak", "H_c"):
                assert np.array_equal(getattr(real, name)[i], getattr(want, name))
            if positions is None:
                positions_i = draw_user_positions(cfg, np.random.default_rng(ch_ss))
            else:
                positions_i = positions
            want_pl = nominal_pathlosses(cfg, positions_i)
            for name in ("L_d", "L_r"):
                assert np.array_equal(getattr(pl, name)[i], getattr(want_pl, name))
    # one phase block per drawn block (the two random strategies share it)
    assert len(phases) == len(draws) == 3
    for reps, n_ris, theta in phases:
        for row, rep in zip(theta, reps):
            _, ph_ss = rep_seeds(plan.config.seed, rep)
            want = random_phases(n_ris, np.random.default_rng(ph_ss))
            assert np.array_equal(row, want)
