"""Monte Carlo sweep harness for the precoder / phase-strategy comparisons.

Runs a grid of (precoder, phase strategy, evaluation mode) methods over one
swept scenario variable with paired randomness: at a given replication every
method sees the same channel draw and, for randomized strategies, the same
phase draw, so method differences are never masked by sampling noise.  The
channel and phase substreams are the `rep_seeds(seed, rep)` children of
SeedSequence([seed, rep]) and are therefore independent of the method list.

A sweep runs in two stages.  Stage 1 draws the replications in blocks of
BLOCK_REPS and, at every sweep point, decomposes each block with one stacked
eigh into a cache that is the whole block (weak rows included), masks the
flagged draws out of it, selects every strategy's phases from it and
reduces each draw to the terms its rates need that do not depend on
transmit power: eigvals(C_s), diag(C_s^{-1}) and, per strategy, the weak
gain, the mitigation term and the DPC cross terms.  Stage 2 evaluates every
method's rates from those terms with `se.zf_sum_se` and `se.dpc_sum_se`,
the formulas `se.sum_se` applies to a draw.  Transmit power enters only
stage 2, so a `ptx_dbm` sweep runs stage 1 at one point and every point
reuses it.  An `xi` sweep realizes each block once and takes its feed c(0)
once (`se.row_space_feed`, one SVD per draw); each xi point decomposes it at
the feed c(0) / sqrt(1 + xi^2), one xi at a time.

Each replication's streams are drawn once per run, from the run seed.  A
block's channel variates are drawn at the point with the most of them
(`channel.draw_block`), and its random phases at the largest N_R
(`channel.random_phase_block`); every point realizes its block from a prefix
of those variates (`channel.realize_block`).  Both streams are read in
order from their start, so the prefix is exactly what the point would draw
alone: rows depend neither on the block size nor on the other sweep points.

Replications whose projected direct Gram matrix is ill conditioned
(condition number above 1e12) are flagged and dropped from every method's
averages at that sweep point; if more than half the draws at a point are
flagged the run aborts instead of reporting hollow means.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ScenarioConfig,
    db_to_lin,
    draw_block,
    frozen_positions,
    random_phase_block,
    realize_block,
)
from .linalg import herm
from .phases import RANDOM_STRATEGIES, STRATEGIES, select_phases
from .se import (
    _mitigation,
    _require_invertible,
    _terms,
    decompose,
    decompose_feed,
    dpc_sum_se,
    row_space_feed,
    zf_sum_se,
)

# Draws above this condition number are excluded from averages (the SE
# formulas themselves only raise two orders of magnitude later).
COND_FLAG = 1e12

# Replications per stage-1 block.  It bounds the [B, K+1, N_R] channel
# stacks, so peak memory does not grow with reps: at figure 5's N_R = 256,
# blocks of 32 add about 1.4 MB to the peak resident set and blocks of 64
# about 4 MB (a tenth of the whole run's).
BLOCK_REPS = 32

_VARIABLES = ("ptx_dbm", "n_bs", "n_ris", "xi")


@dataclass(frozen=True)
class MethodSpec:
    """One curve of a sweep: precoder x phase strategy x evaluation mode."""

    precoder: str  # ZF | DPC
    strategy: str  # one of phases.STRATEGIES
    mode: str  # exact | asymptotic

    def __post_init__(self):
        if self.precoder not in ("ZF", "DPC"):
            raise ValueError(f"unknown precoder {self.precoder!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy kind {self.strategy!r}")
        if self.mode not in ("exact", "asymptotic"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def label(self) -> str:
        return f"{self.precoder}:{self.strategy}:{self.mode}"


@dataclass
class SweepPlan:
    """A sweep: one variable, its grid, the method list, replication count."""

    config: ScenarioConfig
    variable: str
    values: tuple
    methods: tuple
    reps: int = 200
    # the scenario of every value, built and validated by __post_init__
    points: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.variable not in _VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        self.values = tuple(float(v) for v in self.values)
        if not self.values:
            raise ValueError("no sweep values given")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"sweep values must be finite, got {self.values}")
        if not all(b > a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.variable in ("n_bs", "n_ris") and any(
            v != int(v) for v in self.values
        ):
            raise ValueError(f"{self.variable} values must be integers")
        if self.variable == "xi" and self.values[0] <= 0:
            # the feed c(0) of xi = 0 makes C_s singular on every draw
            raise ValueError("xi values must be positive (xi = 0 makes C_s singular)")
        points = []
        for value in self.values:
            try:
                points.append(_apply_variable(self.config, self.variable, value))
            except ValueError as exc:
                raise ValueError(
                    f"values: at {self.variable} = {value:g}, {exc}"
                ) from None
        self.points = tuple(points)
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("no methods given")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")


@dataclass
class SweepRow:
    """Averages of one method at one sweep point (over unflagged draws)."""

    sweep_var: str
    value: float
    precoder: str
    strategy: str
    mode: str
    se_mean: float
    se_std: float
    se_d_mean: float
    se_r_mean: float
    reps: int  # unflagged draws the averages are over
    flagged: int  # draws excluded at this sweep point


@dataclass
class SweepResult:
    plan: SweepPlan
    rows: list

    def series(self, label: str):
        """(values, se_mean) arrays of one method, in sweep order."""
        picked = [r for r in self.rows if f"{r.precoder}:{r.strategy}:{r.mode}" == label]
        if not picked:
            raise KeyError(f"no rows for method {label!r}")
        return (
            np.array([r.value for r in picked]),
            np.array([r.se_mean for r in picked]),
        )


def _apply_variable(cfg: ScenarioConfig, variable: str, value: float):
    """Scenario for one sweep point; xi scales a draw's feed, not the cfg."""
    if variable == "xi":
        return cfg
    if variable == "ptx_dbm":
        return cfg.with_updates(ptx_dbm=float(value))
    return cfg.with_updates(**{variable: int(value)})


def _blocks(reps: int):
    """The replication indices of a run, in blocks of BLOCK_REPS."""
    return [range(i, min(i + BLOCK_REPS, reps)) for i in range(0, reps, BLOCK_REPS)]


@dataclass
class _Reduced:
    """Stage 1 at one scenario or block: the p_bar-free terms of its kept
    draws, which are the rows, in replication order."""

    flagged: int
    eigvals: np.ndarray  # [R, K]
    inv_diag: np.ndarray  # [R, K]
    terms: dict  # strategy -> (g [R], mit [R], cross [R, K])


def _reduce_cache(cfg, cache, strategies, random_theta) -> _Reduced:
    """Stage 1 on one decomposed block of scenario `cfg` (None terms where
    all draws are flagged).  random_theta holds the block's random phases
    [B, >= N_R], or None if no strategy is random.  A caller that passes its
    only reference to `cache` has it freed once it is masked."""
    keep = ~(cache.cond() > COND_FLAG)
    flagged = len(keep) - int(np.count_nonzero(keep))
    if not keep.any():
        return _Reduced(flagged, None, None, None)
    cache = cache[keep]
    _require_invertible(cache)
    terms = {}
    for kind in strategies:
        if kind in RANDOM_STRATEGIES:
            # every randomized strategy gets the same draws: the kept
            # replications' phase streams, from their start
            theta = random_theta[keep, : cfg.n_ris]
        else:
            theta = select_phases(kind, cache, None)
        g, cross = _terms(cache, theta)  # the one check of theta
        terms[kind] = (g, _mitigation(cache, cross), cross)
    return _Reduced(flagged, cache.eigvals, cache.inv_diag(), terms)


def _reduce_block(cfg, real, xis, strategies, random_theta) -> list:
    """Stage 1 on one realized block of scenario `cfg`: one _Reduced at its
    own b, or one per xi of an xi sweep's `xis` at the feed c(0)/sqrt(1+xi^2).
    A caller that passes its only reference to `real` has the channel stacks
    freed before any phase is selected; an xi sweep keeps H_d^s and H_c
    instead and decomposes one xi at a time, which holds less than all."""
    if xis is None:
        caches = [decompose(real)]
        del real  # the only reference: the channel stacks are freed here
        # pop() hands _reduce_cache the only reference to the cache
        return [_reduce_cache(cfg, caches.pop(), strategies, random_theta)]
    H_d, H_c = real.H_d_strong, real.H_c
    del real
    c0 = row_space_feed(H_d)
    # hypot(1, xi) is sqrt(1 + xi^2) without overflow at large xi
    feeds = [c0 / np.hypot(1.0, xi) for xi in xis]
    return [
        _reduce_cache(cfg, decompose_feed(H_d, H_c, c), strategies, random_theta)
        for c in feeds
    ]


def _reduce_points(scenarios, xis, seed, reps, frozen, strategies) -> list:
    """Stage 1 on one block of replications; one _Reduced per stage-1 point.

    The block's channel variates are drawn once, at the last scenario (the
    one with the most: sweep values increase and K is fixed), and its random
    phases once, at that scenario's N_R; every scenario realizes its draws
    from a prefix of them.
    """
    largest = scenarios[-1]
    # *x holds the variates in a list, so the last scenario can pop the only
    # reference and realize_block frees them before building its channels
    positions, *x = draw_block(largest, seed, reps, frozen)
    theta = None
    if any(kind in RANDOM_STRATEGIES for kind in strategies):
        theta = random_phase_block(seed, reps, largest.n_ris)
    reduced = []
    for cfg in scenarios:
        # _reduce_block takes the only reference to the realization
        reduced += _reduce_block(
            cfg,
            realize_block(cfg, positions, x.pop() if cfg is largest else x[0]),
            xis,
            strategies,
            theta,
        )
    return reduced


def _reduce(plan: SweepPlan, strategies) -> list:
    """Stage 1: draw, flag and reduce every replication at every point.

    Returns one _Reduced per stage-1 point: every point of the plan, or the
    first of a ptx_dbm sweep.  A ptx_dbm or xi sweep realizes one scenario.
    Blocks are reduced one at a time, so only one block's variates and
    channel stacks are alive at once.
    """
    scenarios = plan.points if plan.variable in ("n_bs", "n_ris") else plan.points[:1]
    xis = plan.values if plan.variable == "xi" else None
    frozen = frozen_positions(scenarios[-1])
    blocks = [
        _reduce_points(scenarios, xis, plan.config.seed, block, frozen, strategies)
        for block in _blocks(plan.reps)
    ]
    reduced = []
    for value, point in zip(plan.values, zip(*blocks)):
        flagged = sum(b.flagged for b in point)
        if 2 * flagged > plan.reps:
            raise RuntimeError(
                f"{flagged}/{plan.reps} draws flagged as ill-conditioned at "
                f"{plan.variable}={value:g}"
            )
        kept = [b for b in point if b.terms is not None]
        terms = {
            kind: tuple(map(np.concatenate, zip(*(b.terms[kind] for b in kept))))
            for kind in strategies
        }
        reduced.append(
            _Reduced(
                flagged,
                np.concatenate([b.eigvals for b in kept]),
                np.concatenate([b.inv_diag for b in kept]),
                terms,
            )
        )
    return reduced


def _rates(m: MethodSpec, reduced: _Reduced, p_bar: float) -> tuple:
    """Stage 2: (total, direct, reflected) rates of every kept draw."""
    g, mit, cross = reduced.terms[m.strategy]
    if m.precoder == "ZF":
        return zf_sum_se(reduced.inv_diag, g, mit, p_bar, m.mode)
    return dpc_sum_se(reduced.eigvals, g, cross, p_bar, m.mode)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the full sweep: stage 1 per scenario, stage 2 per point and method."""
    strategies = tuple(dict.fromkeys(m.strategy for m in plan.methods))
    reduced = _reduce(plan, strategies)
    # a ptx_dbm sweep's one stage-1 point serves every power
    reduced *= len(plan.values) // len(reduced)
    rows = []
    for value, cfg_v, red in zip(plan.values, plan.points, reduced):
        for m in plan.methods:
            total, direct, reflect = _rates(m, red, cfg_v.p_bar())
            rows.append(
                SweepRow(
                    sweep_var=plan.variable,
                    value=float(value),
                    precoder=m.precoder,
                    strategy=m.strategy,
                    mode=m.mode,
                    se_mean=float(np.mean(total)),
                    se_std=float(np.std(total)),
                    se_d_mean=float(np.mean(direct)),
                    se_r_mean=float(np.mean(reflect)),
                    reps=len(total),
                    flagged=red.flagged,
                )
            )
    return SweepResult(plan=plan, rows=rows)


def power_split_offset_check(
    cfg: ScenarioConfig, xi_large: float = 1e6, reps: int = 1000
) -> float:
    """Mean rate offset from carrying the weak user on the RIS path.

    Compares DPC over the strong users alone (transmit power split K ways)
    against the strong-user part of the full system at high SNR with the
    BS-RIS direction made orthogonal to the strong users' direct channels
    (power split K+1 ways).  As xi grows the offset converges to
    K log2((K+1)/K): the projection loss vanishes and only the per-user
    power split remains.
    """
    K = cfg.n_strong
    p_strong = db_to_lin(cfg.ptx_dbm) / K
    p_bar = cfg.p_bar()
    positions = frozen_positions(cfg)
    offsets = []
    for block in _blocks(reps):
        real = realize_block(cfg, *draw_block(cfg, cfg.seed, block, positions))
        H_d = real.H_d_strong
        _, logdet = np.linalg.slogdet(H_d @ herm(H_d))
        alone = logdet / np.log(2.0) + K * np.log2(p_strong)
        c = row_space_feed(H_d) / np.hypot(1.0, xi_large)
        cache = decompose_feed(H_d, real.H_c, c)
        shared = np.sum(np.log2(cache.eigvals * p_bar), axis=-1)
        offsets.append(alone - shared)
    return float(np.mean(np.concatenate(offsets)))
