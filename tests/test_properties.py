"""Randomized properties of the sweep over small valid scenarios.

Examples come from hypothesis with a derandomized profile, so Tier-1 runs
the same cases every time.
"""

from dataclasses import replace
from itertools import product

import pytest

from risbc import sweep
from risbc.channel import ScenarioConfig
from risbc.sweep import MethodSpec, SweepPlan, run_sweep

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

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


@hypothesis.settings(
    derandomize=True, max_examples=50, deadline=None, database=None, print_blob=True
)
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
