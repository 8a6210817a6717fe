"""Randomized properties of the sweep and the rates over small valid scenarios.

Examples come from hypothesis with a derandomized profile, so Tier-1 runs
the same cases every time.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from risbc import sweep
from risbc.channel import (
    ScenarioConfig,
    draw_block,
    random_phase_block,
    realize_block,
    stream_states,
)
from risbc.phases import STRATEGIES, select_phases
from risbc.se import decompose, rate_terms, rates
from risbc.sweep import MethodSpec, SweepPlan, run_sweep
from oracles import b_from_xi
from test_sweep import assert_sweep_matches

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
def plans(draw, variables=("n_ris", "n_bs", "xi")):
    """A small sweep of 1 to 4 points over one of `variables`.

    A high-SNR (asymptotic) form can have a negative mean at too low a
    power, and the sweep then raises at that row.  A plan with such a method
    runs at 40 dBm and above, where the means are positive, except that
    about one in ten of them runs at 0 dBm to keep the error covered.
    """
    methods = draw(
        st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True)
    )
    if any(m.mode == "asymptotic" for m in methods):
        powers = (0.0,) + (40.0, 50.0, 60.0) * 3
        sweep_powers = (40.0, 45.0, 50.0, 55.0, 60.0)
    else:
        powers, sweep_powers = (0.0, 20.0, 40.0), (0.0, 10.0, 20.0, 30.0, 40.0)
    n_strong = draw(st.integers(1, 3))
    cfg = ScenarioConfig(
        n_strong=n_strong,
        n_bs=draw(st.integers(n_strong + 1, n_strong + 4)),
        n_ris=draw(st.integers(1, 12)),
        ptx_dbm=draw(st.sampled_from(powers)),
        freeze_positions=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )
    variable = draw(st.sampled_from(variables))
    grid = {
        "ptx_dbm": st.sampled_from(sweep_powers),
        "n_ris": st.integers(1, 16),
        "n_bs": st.integers(n_strong + 1, n_strong + 8),
        "xi": st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 16.0)),
    }[variable]
    values = sorted(draw(st.sets(grid, min_size=1, max_size=4)))
    return SweepPlan(cfg, variable, values, methods, reps=draw(st.integers(1, 7)))


def rows_or_error(plan):
    """The rows of run_sweep(plan), or the message of the RuntimeError it
    raises (here: a row with a negative high-SNR mean)."""
    try:
        return run_sweep(plan).rows
    except RuntimeError as exc:
        return str(exc)


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(plans())
def test_points_equal_their_lone_runs_at_any_block_size(plan):
    # each point of a sweep realizes its draws from a prefix of the largest
    # point's variates: its rows equal the rows of the point run alone (or
    # the grid raises the error of the first point that raises alone), and
    # neither depends on how the replications are blocked
    grid = rows_or_error(plan)
    alone = [rows_or_error(replace(plan, values=(value,))) for value in plan.values]
    errors = [rows for rows in alone if isinstance(rows, str)]
    assert grid == (errors[0] if errors else sum(alone, []))
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 3):
            mp.setattr(sweep, "BLOCK_REPS", block)
            assert rows_or_error(plan) == grid


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
    # the rates of a stack's terms are each draw's own rates, rates at a
    # vector of powers gives each power's rates bit for bit, and under every
    # strategy's phases DPC is at least ZF on every draw, in both modes
    cfg, xi, reps = stack
    p_bars = cfg.p_bar() * np.array([0.1, 1.0, 10.0, 1e3])
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps))[1:])
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache = cache[keep]
    random_theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    for kind in STRATEGIES:
        theta = select_phases(kind, cache, random_theta)
        terms = rate_terms(cache, theta)
        alone = [rate_terms(cache[i], theta[i]) for i in range(len(theta))]
        for mode in ("exact", "asymptotic"):
            total = {}
            for precoder in ("ZF", "DPC"):
                stacked = rates(terms, cfg.p_bar(), precoder, mode)
                for i, terms_i in enumerate(alone):
                    want_i = rates(terms_i, cfg.p_bar(), precoder, mode)
                    for got, want in zip(stacked, want_i):
                        assert abs(got[i] - want) <= 1e-12 * abs(want)
                total[precoder] = stacked[0]
                swept = rates(terms, p_bars, precoder, mode)
                for j, p_bar in enumerate(p_bars):
                    for got, want in zip(swept, rates(terms, p_bar, precoder, mode)):
                        assert np.array_equal(got[j], want)
            assert np.all(total["DPC"] >= total["ZF"] - 1e-9)


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(plans(("ptx_dbm", "n_ris", "n_bs", "xi")))
def test_sweep_rows_equal_the_per_draw_loop(plan):
    # the batched two-stage sweep gives the rows of a loop of
    # sample_realization -> decompose -> select_phases -> rate_terms ->
    # rates, or raises
    # at the first of them whose mean is negative
    assert_sweep_matches(plan)


# p_bar from far below to far above every draw's eigenvalues, in decades
P_BARS = 10.0 ** np.arange(-2.0, 11.0)


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks(), st.sampled_from(STRATEGIES))
def test_exact_rates_approach_the_asymptotic_ones(stack, kind):
    # exact - asymptotic = sum_i log2(1 + 1 / (p_bar mu_i)) >= 0 for ZF
    # (mu_i = 1 / e_i) and DPC (mu_i the eigenvalues of H H^H): the gap is
    # nonnegative and does not grow with p_bar, on every draw
    cfg, xi, reps = stack
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps))[1:])
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache = cache[keep]
    random_theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    terms = rate_terms(cache, select_phases(kind, cache, random_theta))
    for precoder in ("ZF", "DPC"):
        gaps = np.array([
            rates(terms, p_bar, precoder, "exact")[0]
            - rates(terms, p_bar, precoder, "asymptotic")[0]
            for p_bar in P_BARS
        ])
        # 1e-9 bpcu absorbs the rounding of rates of up to a few hundred bpcu
        assert np.all(gaps >= -1e-9), (precoder, gaps.min())
        steps = np.diff(gaps, axis=0)
        assert np.all(steps <= 1e-9), (precoder, steps.max())
