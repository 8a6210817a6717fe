"""Randomized properties of the sweep and the rates over small valid scenarios.

Examples come from hypothesis with a derandomized profile, so Tier-1 runs
the same cases every time.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from risbc import sweep
from risbc.channel import ScenarioConfig, draw_block, random_phase_block, realize_block
from risbc.phases import RANDOM_STRATEGIES, STRATEGIES, b_from_xi, select_phases
from risbc.se import decompose, extended_phase, sum_se, weak_cascaded_row
from risbc.sweep import MethodSpec, SweepPlan, run_sweep

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DERANDOMIZED = hypothesis.settings(
    derandomize=True, deadline=None, database=None, print_blob=True
)

METHODS = tuple(
    MethodSpec(precoder, strategy, mode)
    for precoder, strategy, mode in product(
        ("ZF", "DPC"),
        ("random", "statistical", "align_weak", "mitigation_aware"),
        ("exact", "asymptotic"),
    )
)


@st.composite
def plans(draw):
    """A small n_ris, n_bs or xi sweep of 1 to 4 points."""
    n_strong = draw(st.integers(1, 3))
    cfg = ScenarioConfig(
        n_strong=n_strong,
        n_bs=draw(st.integers(n_strong + 1, n_strong + 4)),
        n_ris=draw(st.integers(1, 12)),
        ptx_dbm=draw(st.sampled_from((0.0, 20.0, 40.0))),
        freeze_positions=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )
    variable = draw(st.sampled_from(("n_ris", "n_bs", "xi")))
    grid = {
        "n_ris": st.integers(1, 16),
        "n_bs": st.integers(n_strong + 1, n_strong + 8),
        "xi": st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 16.0)),
    }[variable]
    values = sorted(draw(st.sets(grid, min_size=1, max_size=4)))
    methods = draw(
        st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True)
    )
    return SweepPlan(cfg, variable, values, methods, reps=draw(st.integers(1, 7)))


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(plans())
def test_points_equal_their_lone_runs_at_any_block_size(plan):
    # each point of a sweep realizes its draws from a prefix of the largest
    # point's variates: its rows equal the rows of the point run alone, and
    # neither depends on how the replications are blocked
    grid = run_sweep(plan).rows
    for value in plan.values:
        alone = run_sweep(replace(plan, values=(value,)))
        assert [r for r in grid if r.value == value] == alone.rows
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 3):
            mp.setattr(sweep, "BLOCK_REPS", block)
            assert run_sweep(plan).rows == grid


@st.composite
def stacks(draw):
    """(cfg, xi or None, reps): a small scenario and a block of its draws."""
    n_strong = draw(st.integers(1, 3))
    cfg = ScenarioConfig(
        n_strong=n_strong,
        n_bs=draw(st.integers(n_strong + 1, n_strong + 4)),
        n_ris=draw(st.integers(1, 12)),
        ptx_dbm=draw(st.sampled_from((0.0, 20.0, 40.0))),
        seed=draw(st.integers(0, 2**32)),
    )
    xi = draw(st.sampled_from((None, 0.25, 1.0, 16.0)))
    return cfg, xi, range(draw(st.integers(1, 6)))


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_stacked_rates_equal_per_draw_rates_and_dpc_dominates(stack):
    # sum_se on a stack of draws gives each draw's own rates, and under every
    # strategy's phases DPC is at least ZF on every draw, in both modes
    cfg, xi, reps = stack
    real = realize_block(cfg, *draw_block(cfg, cfg.seed, reps))
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache, h_c_weak = cache[keep], weak_cascaded_row(real)[keep]
    random_theta = random_phase_block(cfg.seed, reps, cfg.n_ris)[keep]
    for kind in STRATEGIES:
        theta = (
            random_theta
            if kind in RANDOM_STRATEGIES
            else select_phases(kind, cache, h_c_weak, None)
        )
        phase = extended_phase(theta)
        for mode in ("exact", "asymptotic"):
            total = {}
            for precoder in ("ZF", "DPC"):
                rates = sum_se(cache, phase, h_c_weak, cfg.p_bar(), precoder, mode)
                for i in range(len(h_c_weak)):
                    alone = sum_se(
                        cache[i], extended_phase(theta[i]), h_c_weak[i],
                        cfg.p_bar(), precoder, mode,
                    )
                    for got, want in zip(rates, alone):
                        assert abs(got[i] - want) <= 1e-12 * abs(want)
                total[precoder] = rates[0]
            assert np.all(total["DPC"] >= total["ZF"] - 1e-9)
