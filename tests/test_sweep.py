from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from risbc import sweep
from risbc.channel import (
    ScenarioConfig,
    draw_user_positions,
    position_rng,
    rep_seeds,
    sample_realization,
)
from risbc.phases import b_from_xi, random_phases, select_phases
from risbc.se import (
    decompose,
    extended_phase,
    se_asymptotic,
    se_dpc_exact,
    se_zf_exact,
    weak_cascaded_row,
)
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
    br = se_zf_exact(cache, extended_phase(theta), h_c_weak, cfg.p_bar())

    assert row.se_mean == pytest.approx(br.se_total, abs=1e-12)
    assert row.se_d_mean == pytest.approx(br.se_direct, abs=1e-12)
    assert row.se_r_mean == pytest.approx(br.se_reflect, abs=1e-12)
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
                se_asymptotic(cache, phase, h_c_weak, swept.p_bar(), prec).se_total
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
    select_phases -> se_*, one draw and one method at a time."""
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
                phase = phases[m.strategy]
                if m.mode == "asymptotic":
                    br = se_asymptotic(cache, phase, h_c_weak, cfg.p_bar(), m.precoder)
                else:
                    fn = se_zf_exact if m.precoder == "ZF" else se_dpc_exact
                    br = fn(cache, phase, h_c_weak, cfg.p_bar())
                out[m.label] = br
            kept.append(out)
        for m in plan.methods:
            total = np.array([rec[m.label].se_total for rec in kept])
            rows.append((
                value, m.label, np.mean(total), np.std(total),
                np.mean([rec[m.label].se_direct for rec in kept]),
                np.mean([rec[m.label].se_reflect for rec in kept]),
                len(kept), flagged,
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
