import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from oracles import random_phases, rep_seeds, strategy_phases
import risbc
from risbc import channel, se, sweep
from risbc.channel import (
    CHANNEL,
    ScenarioConfig,
    db_to_lin,
    draw_block,
    draw_user_positions,
    frozen_positions,
    nominal_pathlosses,
    position_rng,
    random_phase_block,
    realize_block,
    sample_realization,
    stream_states,
    variate_count,
)
from risbc.config import figure_preset
from risbc.se import decompose, decompose_feed, rate_terms, rates, row_space_feed
from risbc.sweep import MethodSpec, SweepPlan, run_sweep


def method(precoder, kind, mode):
    return MethodSpec(precoder=precoder, strategy=kind, mode=mode)


def small_cfg(**kw):
    base = dict(n_bs=4, n_strong=2, n_ris=8, ptx_dbm=30)
    base.update(kw)
    return ScenarioConfig(**base)


def se_means(result, label):
    """se_mean of one method's rows, in sweep order."""
    return np.array([
        r.se_mean for r in result.rows
        if f"{r.precoder}:{r.strategy}:{r.mode}" == label
    ])


def set_block(monkeypatch, plan, size):
    """Stage-1 blocks of `size` draws of the plan's largest scenario (its
    last point; every point of a ptx_dbm or xi sweep has its shape)."""
    monkeypatch.setattr(sweep, "BLOCK_VARIATES", size * variate_count(plan.points[-1]))


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


@pytest.mark.parametrize("reps", (2.5, 3.0, np.float64(2.0), True, "3"))
def test_plan_rejects_replication_counts_that_are_not_integers(reps):
    # 2.5 used to die in numpy with a TypeError, and True ran one replication
    m = (method("ZF", "align_weak", "exact"),)
    with pytest.raises(ValueError, match=re.escape(f"reps must be an integer, got {reps!r}")):
        SweepPlan(small_cfg(), "ptx_dbm", (30.0,), m, reps=reps)


@pytest.mark.parametrize("values", (["x"], [None], [True, 5.0], 30.0))
def test_plan_rejects_sweep_values_that_are_not_real_numbers(values):
    # "x" and None died in float() naming no key, and True ran a point at 1 dBm
    m = (method("ZF", "align_weak", "exact"),)
    with pytest.raises(ValueError, match=r"^values must be (a )?real number"):
        SweepPlan(small_cfg(), "ptx_dbm", values, m, reps=2)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("methods", ("ZF:random:exact",), r"methods must be MethodSpecs, got 'ZF:random:exact'"),
        ("methods", None, r"methods must be MethodSpecs, got None"),
        ("config", {"n_bs": 6}, r"config must be a ScenarioConfig, got \{'n_bs': 6\}"),
    ],
    ids=("label", "none", "dict"),
)
def test_plan_rejects_mistyped_methods_and_config(field, value, message):
    # a label in place of a MethodSpec died in run_sweep with AttributeError,
    # methods=None with an unnamed TypeError and a dict config with an
    # AttributeError from with_updates
    fields = {"config": small_cfg(), "methods": (method("ZF", "align_weak", "exact"),)}
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepPlan(variable="ptx_dbm", values=(30.0,), reps=2, **fields)


def test_plan_takes_a_numpy_integer_replication_count():
    m = (method("ZF", "align_weak", "exact"),)
    plan = SweepPlan(small_cfg(), "ptx_dbm", (30.0,), m, reps=np.int64(3))
    assert type(plan.reps) is int and plan.reps == 3


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
    zf = se_means(result, "ZF:align_weak:exact")
    dpc = se_means(result, "DPC:align_weak:exact")
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
    se = se_means(run_sweep(plan), "DPC:align_weak:asymptotic")
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

    def spy_cascade_block(cfg, pl, x, **kw):
        calls["cascade_block"].append(len(x))
        return channel.cascade_block(cfg, pl, x, **kw)

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
    set_block(monkeypatch, plan, 3)
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
    calls = []

    def spy(cfg, positions):
        calls.append(positions.shape)
        return nominal_pathlosses(cfg, positions)

    monkeypatch.setattr(channel, "nominal_pathlosses", spy)
    monkeypatch.setattr(sweep, "nominal_pathlosses", spy)
    cfg = small_cfg(freeze_positions=True)
    plan = SweepPlan(cfg, "n_ris", (4.0, 8.0), (method("ZF", "random", "exact"),), reps=8)
    # three blocks of cfg, the largest scenario
    set_block(monkeypatch, plan, 3)
    run_sweep(plan)
    assert calls == [(cfg.n_users, 3)]


def test_figure5_builds_only_the_cascade_after_its_first_point(monkeypatch):
    # figure 5 at 300 reps runs 10 blocks over N_R = 16 ... 256: each block
    # is realized and factored once, at N_R = 16, and its four later points
    # build only their cascades, with no direct channels and no feed H_d^s b
    plan = figure_preset(5, reps=300)
    calls = {name: [] for name in ("realize", "cascade", "eigh", "feed")}
    eigh, matvec = np.linalg.eigh, sweep.matvec

    def spy_realize(cfg, pl, x, **kw):
        calls["realize"].append(cfg.n_ris)
        return realize_block(cfg, pl, x, **kw)

    def spy_cascade(cfg, pl, x, **kw):
        calls["cascade"].append(cfg.n_ris)
        return channel.cascade_block(cfg, pl, x, **kw)

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


def moved(value):
    """Another valid value of a default scenario field: a bool flipped, a
    number one larger, a tuple's first entry one larger."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return (value[0] + 1.0, *value[1:])
    return value + 1


@pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
def test_every_scenario_field_reaches_the_rows(name):
    # a setting that changes no row describes nothing the rates read.  The
    # random phases stay in: aoa moves the rows only through them
    methods = (method("ZF", "random", "exact"), method("DPC", "align_weak", "exact"))

    def rows(cfg):
        plan = SweepPlan(cfg, "ptx_dbm", (cfg.ptx_dbm,), methods, reps=4)
        return [(r.se_mean, r.se_std, r.se_d_mean, r.se_r_mean) for r in run_sweep(plan).rows]

    default = ScenarioConfig()
    other = default.with_updates(**{name: moved(getattr(default, name))})
    assert rows(other) != rows(default)


# ------------------------------------------------------------------ offset


def power_split_offset(cfg, reps, xi=1e6):
    """Mean over `reps` draws of the strong users' high-SNR DPC rate alone
    (power split K ways) minus their part of the shared system's with the
    BS-RIS direction at orthogonality xi (power split K+1 ways)."""
    K = cfg.n_strong
    streams = stream_states(cfg.seed, range(reps))
    real = realize_block(cfg, *draw_block(cfg, streams))
    H = real.H_d_strong
    alone = np.linalg.slogdet(H @ H.conj().swapaxes(-1, -2))[1] / np.log(2.0)
    alone += K * np.log2(db_to_lin(cfg.ptx_dbm) / K)
    cache = decompose_feed(H, real.H_c, row_space_feed(H) / np.hypot(1.0, xi))
    theta = random_phase_block(streams, cfg.n_ris)
    _, shared, _ = rates(rate_terms(cache, theta), cfg.p_bar(), "DPC", "asymptotic")
    return float(np.mean(alone - shared))


def test_power_split_offset_single_strong_user():
    cfg = ScenarioConfig(n_bs=4, n_strong=1, n_ris=8, ptx_dbm=40)
    assert power_split_offset(cfg, reps=50) == pytest.approx(1.0, abs=1e-6)


def test_power_split_offset_three_strong_users():
    cfg = ScenarioConfig(n_bs=4, n_strong=3, n_ris=8, ptx_dbm=40)
    off = power_split_offset(cfg, reps=50)
    assert off == pytest.approx(3 * np.log2(4.0 / 3.0), abs=1e-6)


# ------------------------------------------------------------ xi identity


@pytest.mark.parametrize("seed", (0, 3))
def test_figure3_direct_rates_follow_the_xi_closed_form(seed):
    # the asymptotic DPC direct rate at orthogonality xi is, on every draw,
    # log2 det(p_bar H H^H) + log2(xi^2 / (1 + xi^2)) (matrix determinant
    # lemma at the feed c(0) / sqrt(1 + xi^2)), so with no draw flagged the
    # means of any two xi differ by the difference of that last term
    result = run_sweep(figure_preset(3, seed=seed))
    rows = [
        r for r in result.rows
        if (r.precoder, r.strategy, r.mode) == ("DPC", "align_weak", "asymptotic")
    ]
    assert len(rows) == 11 and all(r.flagged == 0 for r in rows)
    xi = np.array([r.value for r in rows])
    means = np.array([r.se_d_mean for r in rows])
    term = np.log2(xi**2 / (1.0 + xi**2))
    got = means[:, None] - means[None, :]
    want = term[:, None] - term[None, :]
    assert np.max(np.abs(got - want)) <= 1e-10


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
    each strategy's own phase function -> rate_terms -> rates, one draw and
    one method at a time."""
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
                    phases[m.strategy] = strategy_phases(m.strategy, cache, drawn)
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
    cfg = small_cfg(freeze_positions=variable == "n_ris")
    if block is None:
        # the default budget holds 9 draws of 2(K+1)(N_B+N_R) = 6864 variates
        cfg = cfg.with_updates(n_ris=1140)
        plan = SweepPlan(cfg, variable, values, ALL_METHODS, reps=12)
    else:
        plan = SweepPlan(cfg, variable, values, ALL_METHODS, reps=2 * block + 2)
        set_block(monkeypatch, plan, block)
    assert_rows_match(run_sweep(plan), per_draw_rows(plan))


FLAGGING_CASES = {
    "ptx_dbm": ("ptx_dbm", (40.0,), [6]),
    "n_ris": ("n_ris", (4.0, 8.0), [6, 6]),
    "n_bs": ("n_bs", (3.0, 6.0), [6, 2]),
}


@pytest.mark.parametrize(
    "variable, values, flagged, block",
    [(*case, 3) for case in FLAGGING_CASES.values()]
    + [(*case, 1) for case in FLAGGING_CASES.values()],
    ids=[*FLAGGING_CASES, *(f"{name}-blocks_of_1" for name in FLAGGING_CASES)],
)
def test_partial_flagging_matches_per_draw_loop(
    monkeypatch, variable, values, flagged, block
):
    # the flag threshold at the median condition number of the first point
    # flags half its draws.  The points of an n_ris sweep share C_s, so its
    # flags; an n_bs sweep's do not, so a keep-mask reused across the wrong
    # points, or not reused where it should be, shows in the rows.  In
    # blocks of 1, each flagged draw leaves its block empty at its point,
    # and every strategy takes its terms of the empty stack
    cfg = small_cfg(ptx_dbm=40.0, freeze_positions=variable == "n_ris")
    plan = SweepPlan(cfg, variable, values, ALL_METHODS, reps=12)
    set_block(monkeypatch, plan, block)
    conds = [cache.cond() for _, cache, _ in per_draw_draws(plan, values[0])]
    monkeypatch.setattr(sweep, "COND_FLAG", float(np.median(conds)))
    empty, strategy_terms = [], sweep.strategy_terms

    def spy(kinds, cache, random_theta, out=None):
        empty.append(len(cache.eigvals) == 0)
        return strategy_terms(kinds, cache, random_theta, out)

    monkeypatch.setattr(sweep, "strategy_terms", spy)
    result = run_sweep(plan)
    assert [r.flagged for r in result.rows[:: len(ALL_METHODS)]] == flagged
    assert_rows_match(result, per_draw_rows(plan))
    if block == 1:
        assert sum(empty) == sum(flagged)


def test_negative_mean_raises_at_its_first_row():
    # the high-SNR ZF form of the weak user goes negative at low power on
    # N_R = 8: the run raises at the first such row, as the loop says
    plan = SweepPlan(small_cfg(), "ptx_dbm", (0.0, 20.0, 40.0), ALL_METHODS, reps=6)
    assert_sweep_matches(plan)
    with pytest.raises(RuntimeError, match="ZF:random:asymptotic .* ptx_dbm=0 "):
        run_sweep(plan)


@pytest.mark.parametrize("entries", [1, sweep.RATE_ENTRIES])
@pytest.mark.parametrize(
    "bad, first",
    [
        # a later method fails at an earlier power: the earlier power raises
        ({("ZF", "exact", 2): "negative", ("DPC", "asymptotic", 1): "inf"},
         ("DPC", "asymptotic", 1, "inf")),
        # at one power, a non-finite row after a negative one in plan order
        ({("ZF", "asymptotic", 1): "negative", ("DPC", "exact", 1): "inf"},
         ("ZF", "asymptotic", 1, "negative")),
        # and a negative row after a non-finite one
        ({("ZF", "exact", 0): "inf", ("DPC", "exact", 0): "negative"},
         ("ZF", "exact", 0, "inf")),
    ],
    ids=("later-method-earlier-power", "negative-first", "non-finite-first"),
)
def test_the_first_bad_row_in_sweep_order_raises(monkeypatch, entries, bad, first):
    # rates that give some methods' rows at some powers a non-finite total
    # or negative means: the run raises at the first such row, power by
    # power and the methods inside, with that row's message, however the
    # powers are chunked
    methods = tuple(
        method(precoder, "align_weak", mode)
        for precoder in ("ZF", "DPC") for mode in ("exact", "asymptotic")
    )
    plan = SweepPlan(small_cfg(), "ptx_dbm", (20.0, 30.0, 40.0), methods, reps=4)
    p_bars = [cfg.p_bar() for cfg in plan.points]

    def spy_rates(terms, powers, precoder, mode):
        total, direct, reflect = map(np.array, rates(terms, powers, precoder, mode))
        for k, p_bar in enumerate(powers):
            kind = bad.get((precoder, mode, p_bars.index(p_bar)))
            if kind == "inf":
                total[k] = np.inf
            elif kind == "negative":
                total[k], direct[k], reflect[k] = -1.5, -2.0, 0.5
        return total, direct, reflect

    monkeypatch.setattr(sweep, "rates", spy_rates)
    monkeypatch.setattr(sweep, "RATE_ENTRIES", entries)
    precoder, mode, point, kind = first
    at = f"ptx_dbm={plan.values[point]:g}"
    expected = {
        "inf": f"{precoder}:align_weak:{mode} gives non-finite rates at {at}",
        "negative": f"{precoder}:align_weak:{mode} gives a negative mean rate at "
        f"{at} (se_mean, se_d_mean, se_r_mean = -1.5, -2, 0.5 bpcu)",
    }[kind]
    with pytest.raises(RuntimeError) as raised:
        run_sweep(plan)
    assert str(raised.value) == expected


def test_power_sweep_calls_rates_once_per_method_and_draws_no_positions(monkeypatch):
    # stage 2 of a ptx_dbm sweep evaluates each method once over all its
    # powers, and draw_block derives a block's positions in one array pass
    # instead of drawing them per replication
    plan = figure_preset(2, reps=7)
    set_block(monkeypatch, plan, 3)
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


def test_power_sweep_of_200_draws_calls_rates_once_per_method(monkeypatch):
    # figure 2's nine powers at 200 draws fit one chunk of RATE_ENTRIES
    plan = figure_preset(2, reps=200)
    calls = []

    def spy_rates(terms, p_bars, *args):
        calls.append(len(p_bars))
        return rates(terms, p_bars, *args)

    monkeypatch.setattr(sweep, "rates", spy_rates)
    run_sweep(plan)
    assert calls == [len(plan.values)] * len(plan.methods)


@pytest.mark.parametrize("entries", [1, 3 * 4 * 10, 10**9])
def test_rows_do_not_depend_on_the_power_chunks(monkeypatch, entries):
    # rates on chunks of 1, 3 or all of the nine powers of figure 2 (10
    # draws of K+1 = 4 users) give the same rows bit for bit
    plan = figure_preset(2, reps=10)
    rows = run_sweep(plan).rows
    calls = []

    def spy_rates(terms, p_bars, *args):
        calls.append(len(p_bars))
        return rates(terms, p_bars, *args)

    monkeypatch.setattr(sweep, "rates", spy_rates)
    monkeypatch.setattr(sweep, "RATE_ENTRIES", entries)
    assert run_sweep(plan).rows == rows
    per_call = {1: [1] * 9, 120: [3] * 3, 10**9: [9]}[entries]
    assert calls == per_call * len(plan.methods)


def test_stage2_holds_one_power_of_per_user_rates_at_a_time(monkeypatch):
    # figure 2 at 3000 draws: one power's [R, K+1] rates are 96 KB, and the
    # stage 2 of its one stage-1 point peaks below four of them, so no
    # method's rates outlive its chunk; the nine powers at once peaked at
    # 1.4 MB per method
    plan = figure_preset(2, reps=3000)
    one_power = plan.reps * (plan.config.n_strong + 1) * 8
    point_rows, peaks = sweep._point_rows, []

    def spy(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        rows = point_rows(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return rows

    monkeypatch.setattr(sweep, "_point_rows", spy)
    tracemalloc.start()
    try:
        run_sweep(plan)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] < 4 * one_power, (peaks[0], one_power)


def run_counting(monkeypatch, plan, names) -> tuple:
    """(rows, Counter of calls) of one run of the plan, counting the calls of
    each (module, name) in `names`."""
    calls = Counter()

    def spy(module, name):
        target = getattr(module, name)

        def counted(*args, **kw):
            calls[name] += 1
            return target(*args, **kw)

        monkeypatch.setattr(module, name, counted)

    for module, name in names:
        spy(module, name)
    return run_sweep(plan).rows, calls


@pytest.mark.parametrize("figure, reps, blocks", [(5, 300, 10), (2, 200, 2)])
def test_factor_terms_are_formed_once_per_factor(monkeypatch, figure, reps, blocks):
    # inv_diag and U^H depend only on the factor of C_s: figure 5 forms them
    # once per block (its later n_ris points carry the first one's over), not
    # once per point and strategy (100 times), figure 2 once per block
    _, calls = run_counting(
        monkeypatch, figure_preset(figure, reps=reps),
        ((se, "_factor_terms"), (sweep, "draw_block")),
    )
    assert calls == Counter(_factor_terms=blocks, draw_block=blocks)


def strategy_rows(rows, kind):
    """The rows of strategy `kind`, without the strategy's name."""
    return [replace(r, strategy=None) for r in rows if r.strategy == kind]


@pytest.mark.parametrize(
    "kinds",
    [
        ("random", "statistical"),
        ("align_weak", "mitigation_aware"),
        ("mitigation_aware", "align_weak"),
    ],
)
def test_stage1_rows_of_each_strategy_equal_its_lone_run(monkeypatch, kinds):
    # at each of 3 blocks x 2 points the strategies of one plan share the
    # aligned-phase buffer and the random phases, and the rows are those of
    # the strategies run alone, bit for bit; "statistical" is an alias of
    # "random", so their rows are equal too
    cfg = small_cfg(ptx_dbm=40.0, freeze_positions=True)
    methods = tuple(method("ZF", kind, "exact") for kind in kinds)
    plan = SweepPlan(cfg, "n_ris", (4.0, 8.0), methods, reps=7)
    set_block(monkeypatch, plan, 3)
    result = run_sweep(plan)
    assert_rows_match(result, per_draw_rows(plan))
    rows = result.rows
    for kind in kinds:
        lone = run_sweep(replace(plan, methods=(method("ZF", kind, "exact"),))).rows
        assert len(lone) == len(plan.values)
        assert strategy_rows(rows, kind) == strategy_rows(lone, kind)
    if "random" in kinds:  # repr gives every bit of a float
        assert repr(strategy_rows(rows, "random")) == repr(strategy_rows(rows, "statistical"))


def test_rows_do_not_depend_on_block_size(monkeypatch):
    cfg = small_cfg(freeze_positions=True)
    methods = (
        method("ZF", "random", "exact"),
        method("DPC", "mitigation_aware", "asymptotic"),
        method("ZF", "align_weak", "asymptotic"),
    )
    plan = SweepPlan(cfg, "n_ris", (4.0, 8.0), methods, reps=9)
    rows = [run_sweep(plan).rows]  # one block under the default budget
    for block in (1, 7):
        set_block(monkeypatch, plan, block)
        rows.append(run_sweep(plan).rows)
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("figure", (2, 5))
def test_kept_terms_of_fewer_reps_are_a_prefix_of_more(monkeypatch, figure):
    # draws are prefix-stable: the kept terms of 40 reps in blocks of 7 are,
    # bit for bit, the first kept terms of 101 reps under the default budget
    # (one block of figure 2, blocks of 32 of figure 5), flagged draws
    # included: the threshold at the 80th percentile of the first point's
    # condition numbers flags about a fifth of the draws
    more = figure_preset(figure, reps=101)
    conds = [cache.cond() for _, cache, _ in per_draw_draws(more, more.values[0])]
    monkeypatch.setattr(sweep, "COND_FLAG", float(np.quantile(conds, 0.8)))
    strategies = tuple(dict.fromkeys(m.strategy for m in more.methods))
    reduced = sweep._reduce(more, strategies)
    fewer = figure_preset(figure, reps=40)
    set_block(monkeypatch, fewer, 7)
    for (flagged, terms), (_, prefixed) in zip(
        sweep._reduce(fewer, strategies), reduced, strict=True
    ):
        assert flagged > 0
        for kind in strategies:
            for kept, longer in zip(terms[kind], prefixed[kind], strict=True):
                assert len(kept) == 40 - flagged
                assert kept.tobytes() == longer[: len(kept)].tobytes()


class StopAtFirstBlock(Exception):
    pass


@pytest.mark.parametrize("figure", (2, 3, 4, 5))
def test_blocks_hold_one_budget_of_variates(monkeypatch, figure):
    # a block holds BLOCK_VARIATES // 2(K+1)(N_B+N_R) draws of the run's
    # largest scenario: figure 5's N_R = 256 keeps its blocks of 32 (and
    # with them its peak memory), figures 2-4 at N_R = 64 take over 100
    plan = figure_preset(figure)
    drawn = []

    def first_block(cfg, streams, *args, **kw):
        drawn.append((cfg, len(streams)))
        raise StopAtFirstBlock

    monkeypatch.setattr(sweep, "draw_block", first_block)
    with pytest.raises(StopAtFirstBlock):
        run_sweep(plan)
    [(cfg, size)] = drawn
    assert cfg is plan.points[-1 if plan.variable in ("n_bs", "n_ris") else 0]
    assert size == 32 if figure == 5 else size >= 100


def test_figure2_rows_do_not_depend_on_its_budget_blocks(monkeypatch):
    # 250 draws of figure 2 are three blocks under the default budget, the
    # last one partial; blocks of one draw give the same rows
    plan = figure_preset(2, reps=250)
    sizes = []

    def spy(cfg, streams, *args, **kw):
        sizes.append(len(streams))
        return draw_block(cfg, streams, *args, **kw)

    monkeypatch.setattr(sweep, "draw_block", spy)
    rows = run_sweep(plan).rows
    assert sizes == [112, 112, 26]
    set_block(monkeypatch, plan, 1)
    assert run_sweep(plan).rows == rows


def largest_block_allocation(monkeypatch, plan) -> int:
    """The most memory one stage-1 block of the plan allocates: the traced
    peak from its draw_block call to the next block's (or to the end of
    stage 1), less the memory traced at its start.  The stream starts and
    the kept rate terms outlive their block and grow with reps (64 bytes a
    draw, and 8(3K+1) bytes a draw, strategy and point)."""
    marks = []

    def spy(*args, **kw):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return draw_block(*args, **kw)

    monkeypatch.setattr(sweep, "draw_block", spy)
    strategies = tuple(dict.fromkeys(m.strategy for m in plan.methods))
    tracemalloc.start()
    try:
        sweep._reduce(plan, strategies)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return max(peak - start for (start, _), (_, peak) in zip(marks, marks[1:]))


def test_stage1_block_memory_does_not_grow_with_reps(monkeypatch):
    # the budget, not reps, sizes a block: figure 2's largest block
    # allocation at 2000 reps is that at 250 reps, within 10%
    small = largest_block_allocation(monkeypatch, figure_preset(2, reps=250))
    large = largest_block_allocation(monkeypatch, figure_preset(2, reps=2000))
    assert large <= 1.1 * small


def reduce_peak_less_kept_terms(plan) -> int:
    """The traced peak of stage 1 less the bytes of the terms it keeps."""
    strategies = tuple(dict.fromkeys(m.strategy for m in plan.methods))
    tracemalloc.start()
    try:
        reduced = sweep._reduce(plan, strategies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(
        array.nbytes for _, terms in reduced for kept in terms.values() for array in kept
    )


def test_stage1_holds_its_kept_terms_once():
    # each block's terms go straight into arrays of [reps, ...]: figure 3
    # at 2000 reps (1.7 MB of kept terms) peaks at most 0.3 MB above its
    # 250-rep peak besides them; concatenating per-block pieces held the
    # terms twice, 0.9 MB above
    small = reduce_peak_less_kept_terms(figure_preset(3, reps=250))
    large = reduce_peak_less_kept_terms(figure_preset(3, reps=2000))
    assert large <= small + 0.3 * 2**20, (large / 2**20, small / 2**20)


# counts the minor page faults of one `risbc` run in a fresh interpreter:
# argv[1] is the output directory, the rest the command
FAULTS_CHILD = """
import resource, sys
from risbc.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(sys.argv[2:] + ["--out", sys.argv[1]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(tmp_path, *command) -> int:
    src = str(Path(risbc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", FAULTS_CHILD, str(tmp_path), *command],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return int(child.stdout.split()[-1])


def test_stage1_blocks_do_not_fault_their_arrays_back_in(tmp_path):
    # stage 1 allocates its block arrays once per run: figure 5's ten blocks
    # at 320 reps take about the minor page faults of its one block at 32
    # (freed and re-allocated blocks took about 220 faults each, 2000 more)
    resource = pytest.importorskip("resource", reason="no resource module to count page faults")
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("this platform does not count minor page faults (ru_minflt)")
    one = minor_faults(tmp_path / "one", "figure", "5", "--reps", "32")
    ten = minor_faults(tmp_path / "ten", "figure", "5", "--reps", "320")
    assert ten - one < 150, (one, ten)


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
    # stream once.  The spies keep copies: the run's workspace takes every
    # block's arrays, so a later block overwrites them
    draws, realized, cascaded, phases, passes = [], [], [], [], []
    built = Counter()

    def spy_draw(cfg, streams, pathlosses=None, **kw):
        drawn = draw_block(cfg, streams, pathlosses, **kw)
        draws.append((drawn[1], streams.reps.tolist(), frozen_positions(cfg)))
        return drawn

    def spy_realize(cfg, pl, x, **kw):
        reps, frozen_positions = next((r, p) for d, r, p in draws if d is x)
        real = realize_block(cfg, pl, x, **kw)
        copied = {name: np.copy(getattr(real, name)) for name in ("H_d_strong", "H_c")}
        realized.append((cfg, reps, frozen_positions, pl, replace(real, **copied)))
        return real

    def spy_cascade(cfg, pl, x, **kw):
        reps, frozen_positions = next((r, p) for d, r, p in draws if d is x)
        H_c = channel.cascade_block(cfg, pl, x, **kw)
        cascaded.append((cfg, reps, frozen_positions, H_c.copy()))
        return H_c

    def spy_phases(streams, n_ris, **kw):
        theta = random_phase_block(streams, n_ris, **kw)
        phases.append((streams.reps.tolist(), n_ris, theta.copy()))
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
    set_block(monkeypatch, plan, 3)
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
            for name in ("H_d_strong", "H_c"):
                assert np.array_equal(getattr(real, name)[i], getattr(want, name))
            if positions is None:
                positions_i = draw_user_positions(cfg, np.random.default_rng(ch_ss))
            else:
                positions_i = positions
            want_pl = nominal_pathlosses(cfg, positions_i)
            for name in ("L_d", "L_r"):
                got_pl = getattr(pl, name) if frozen else getattr(pl, name)[i]
                assert np.array_equal(got_pl, getattr(want_pl, name))
    if frozen:  # their pathlosses are formed once, and every block shares them
        assert len({id(pl) for *_, pl, _ in realized}) == 1
    # one phase block per drawn block (the two random strategies share it)
    assert len(phases) == len(draws) == 3
    for reps, n_ris, theta in phases:
        for row, rep in zip(theta, reps):
            _, ph_ss = rep_seeds(plan.config.seed, rep)
            want = random_phases(n_ris, np.random.default_rng(ph_ss))
            assert np.array_equal(row, want)
