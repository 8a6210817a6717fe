"""Monte Carlo sweep harness for the precoder / phase-strategy comparisons.

Runs a grid of (precoder, phase strategy, evaluation mode) methods over one
swept scenario variable with paired randomness: at a given replication every
method sees the same channel draw and, for randomized strategies, the same
phase draw, so method differences are never masked by sampling noise.  The
channel and phase streams of replication rep are SeedSequence([seed, rep],
spawn_key=(stream,)) with stream `channel.CHANNEL` or `channel.PHASE`, and
are therefore independent of the method list.

A sweep runs in two stages.  Stage 1 draws the replications in blocks of
BLOCK_REPS and reduces them at every stage-1 point, a scenario plus a feed
divisor.  Each point decomposes a block with one stacked eigh at the feed
H_d^s b / divisor (`se.decompose_feed`) into a cache that is the whole
block (weak rows included), masks the flagged draws out of it if there are
any, takes every strategy's phases from `select_phases` (the random ones
are the block's phase draws) and reduces each draw to its rates' terms that
do not depend on transmit power (`se.rate_terms`: eigvals(C_s),
diag(C_s^{-1}) and, per strategy, the weak gain and the DPC cross terms).
The divisor is 1.0 at a scenario's own b; an xi sweep realizes its one
scenario, takes the feed c(0) once per block (`se.row_space_feed`, one SVD
per draw) and divides it by sqrt(1 + xi^2) at each xi.  Transmit power
enters only stage 2, so a `ptx_dbm` sweep has one stage-1 point that every
power shares.  Stage 2 evaluates each method once per stage-1 point with
`se.rates` at the vector of powers that share the point (all of a `ptx_dbm`
sweep's, one elsewhere), and takes the row statistics of the rates [P, R]
along the draw axis.  It raises if a row would not be finite, or if one of
its means is negative (a high-SNR form at a power too low for it).

Each replication's streams are drawn once per run.  Where they start is
computed for the whole run in one pass (`channel.stream_states`, which
checks itself against numpy's SeedSequence seeding once per run and relies
on numpy keeping those streams stable, NEP 19), and each block takes its
slice of those starts.  A block's channel variates and the pathlosses of
its positions, which no swept variable changes, are drawn once, at the point
with the most variates (`channel.draw_block`), and its random phases at the
largest N_R (`channel.random_phase_block`); every point realizes its block
from a prefix of those variates (`channel.realize_block`).  Both streams
are read in order from their start, so the prefix is exactly what the point
would draw alone: rows depend neither on the block size nor on the other
sweep points.  An n_ris sweep's later points build only their cascades
(`channel.cascade_block`), into the first point's cache with its feed,
factor of C_s and flags (`se.DecompositionCache.with_cascade`).

Replications whose projected direct Gram matrix is ill conditioned
(condition number above 1e12) are flagged and dropped from every method's
averages at that sweep point; if more than half the draws at a point are
flagged the run aborts instead of reporting hollow means.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MAX_REP,
    ScenarioConfig,
    cascade_block,
    db_to_lin,
    draw_block,
    frozen_positions,
    nominal_pathlosses,
    random_phase_block,
    realize_block,
    stream_states,
)
from .linalg import herm, matvec
from .phases import RANDOM_STRATEGIES, STRATEGIES, select_phases
from .se import RateTerms, decompose_feed, rate_terms, rates, row_space_feed

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
        for m in self.methods:
            if self.methods.count(m) > 1:
                raise ValueError(f"methods: {m.label} is repeated")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.reps > MAX_REP + 1:
            raise ValueError(
                f"reps must be at most {MAX_REP + 1}: a replication's index "
                "seeds its streams as one 32-bit word"
            )


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
    """The replications of a run as slices of its streams, in blocks of
    BLOCK_REPS."""
    return [slice(i, min(i + BLOCK_REPS, reps)) for i in range(0, reps, BLOCK_REPS)]


def _reduce(plan: SweepPlan, strategies) -> list:
    """Stage 1: draw, flag and reduce every replication at every point.

    A stage-1 point is a scenario and a feed divisor: 1.0 for the scenario's
    own b (x / 1.0 is exact), hypot(1, xi) for each xi of an xi sweep.  A
    ptx_dbm or xi sweep has one scenario.  Returns one (flagged, terms) pair
    per point, terms mapping each strategy to the se.RateTerms of its kept
    draws [R, ...] in replication order.  A block's variates, pathlosses and
    random phases are drawn once, at the last scenario (the one with the
    most: sweep values increase and K is fixed), and serve every point; an
    n_ris sweep's later points build only their cascades and share the first
    one's feed, factor of C_s and flags.  Only one block's variates, one
    scenario's channel stacks and one masked cache are alive at once.
    """
    scenarios = plan.points if plan.variable in ("n_bs", "n_ris") else plan.points[:1]
    xi_sweep = plan.variable == "xi"
    # hypot(1, xi) is sqrt(1 + xi^2) without overflow at large xi
    divisors = [np.hypot(1.0, xi) for xi in plan.values] if xi_sweep else [1.0]
    largest = scenarios[-1]
    frozen = frozen_positions(largest)
    # frozen positions have one set of pathlosses, which every block shares
    frozen_pl = None if frozen is None else nominal_pathlosses(largest, frozen)
    streams = stream_states(plan.config.seed, range(plan.reps))
    flagged = [0] * (len(scenarios) * len(divisors))
    kept = [[] for _ in flagged]  # per point, each block's {strategy: RateTerms}
    for block in _blocks(plan.reps):
        block_theta = None  # the last block's phases are freed here
        if any(kind in RANDOM_STRATEGIES for kind in strategies):
            block_theta = random_phase_block(streams[block], largest.n_ris)
        # *x holds the variates in a list, so the last scenario can pop the
        # only reference and realize_block's return frees them
        _, pathlosses, *x = draw_block(largest, streams[block], frozen, frozen_pl)
        factor = None  # an n_ris sweep's unmasked cache of its first point
        for s, cfg in enumerate(scenarios):
            if factor is None:
                real = realize_block(cfg, pathlosses, x.pop() if cfg is largest else x[0])
                H_d, H_c = real.H_d_strong, real.H_c
                feed = row_space_feed(H_d) if xi_sweep else matvec(H_d, real.b)
                del real
            for i, divisor in enumerate(divisors):
                if factor is None:
                    cache = decompose_feed(H_d, H_c, feed / divisor)
                    keep = ~(cache.cond() > COND_FLAG)
                    factor = cache if plan.variable == "n_ris" else None
                else:  # only the cascade is new; keep is the first point's mask
                    H_c = cascade_block(cfg, pathlosses, x.pop() if cfg is largest else x[0])
                    cache = factor.with_cascade(H_c)
                if i == len(divisors) - 1:
                    H_d = H_c = None  # only the cache keeps a stack during phases
                point = s * len(divisors) + i
                flagged[point] += len(keep) - int(np.count_nonzero(keep))
                if keep.any():
                    # the kept replications; a basic slice copies nothing
                    rows = slice(None) if keep.all() else keep
                    cache, theta = cache[rows], block_theta
                    if theta is not None:
                        theta = theta[rows, : cfg.n_ris]
                    kept[point].append({
                        kind: rate_terms(cache, select_phases(kind, cache, theta))
                        for kind in strategies
                    })
                    del theta
                del cache
    reduced = []
    for value, n_flagged, blocks in zip(plan.values, flagged, kept):
        if 2 * n_flagged > plan.reps:
            raise RuntimeError(
                f"{n_flagged}/{plan.reps} draws flagged as ill-conditioned at "
                f"{plan.variable}={value:g}"
            )
        terms = {
            kind: RateTerms(*map(np.concatenate, zip(*(t[kind] for t in blocks))))
            for kind in strategies
        }
        reduced.append((n_flagged, terms))
    return reduced


def _method_rows(plan, m, red, values, p_bars) -> list:
    """Method m's rows at the sweep values of one stage-1 point, red = its
    (flagged, terms), whose powers are p_bars [P], from one `rates` call:
    the rates [P, R] of its kept draws, reduced along the draw axis."""
    flagged, terms = red
    total, direct, reflect = rates(terms[m.strategy], p_bars, m.precoder, m.mode)
    stats = (
        np.mean(total, axis=-1),
        np.std(total, axis=-1),
        np.mean(direct, axis=-1),
        np.mean(reflect, axis=-1),
    )
    return [
        SweepRow(
            plan.variable, float(value), m.precoder, m.strategy, m.mode,
            *map(float, row), reps=total.shape[-1], flagged=flagged,
        )
        for value, *row in zip(values, *stats)
    ]


def _checked_row(plan, m, row) -> SweepRow:
    """The row, unless its rates are not finite or one of its means is
    negative (RuntimeError naming the method and the point)."""
    at = f"at {plan.variable}={row.value:g}"
    # a finite rate is a log2, at most about a thousand bpcu, so the mean is
    # finite exactly where every draw's total (and so both parts) is
    if not np.isfinite(row.se_mean):
        raise RuntimeError(f"{m.label} gives non-finite rates {at}")
    means = (row.se_mean, row.se_d_mean, row.se_r_mean)
    if min(means) < 0.0:
        # only a high-SNR form goes negative, at a power too low for it
        raise RuntimeError(
            f"{m.label} gives a negative mean rate {at} (se_mean, se_d_mean, "
            "se_r_mean = " + ", ".join(f"{x:.4g}" for x in means) + " bpcu)"
        )
    return row


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the full sweep: stage 1 per scenario, then stage 2 once per
    stage-1 point and method, over every power that shares the point."""
    strategies = tuple(dict.fromkeys(m.strategy for m in plan.methods))
    reduced = _reduce(plan, strategies)
    # a ptx_dbm sweep's one stage-1 point serves every power, any other
    # sweep's points one power each
    per = len(plan.values) // len(reduced)
    rows = []
    for j, red in enumerate(reduced):
        points = slice(j * per, (j + 1) * per)
        # a power or rate that overflows raises in _checked_row, not a warning
        with np.errstate(all="ignore"):
            p_bars = np.array([cfg.p_bar() for cfg in plan.points[points]])
            by_method = [
                _method_rows(plan, m, red, plan.values[points], p_bars)
                for m in plan.methods
            ]
        # in sweep order: point by point, the methods inside
        for at_point in zip(*by_method):
            rows += [_checked_row(plan, m, r) for m, r in zip(plan.methods, at_point)]
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
    if not 1 <= reps <= MAX_REP + 1:
        raise ValueError(f"reps must be from 1 to {MAX_REP + 1}, got {reps}")
    if not (np.isfinite(xi_large) and xi_large > 0):
        raise ValueError(f"xi_large must be finite and positive, got {xi_large}")
    K = cfg.n_strong
    p_strong = db_to_lin(cfg.ptx_dbm) / K
    p_bar = cfg.p_bar()
    positions = frozen_positions(cfg)
    pathlosses = None if positions is None else nominal_pathlosses(cfg, positions)
    streams = stream_states(cfg.seed, range(reps))
    offsets = []
    for block in _blocks(reps):
        _, pl, x = draw_block(cfg, streams[block], positions, pathlosses)
        real = realize_block(cfg, pl, x)
        H_d = real.H_d_strong
        _, logdet = np.linalg.slogdet(H_d @ herm(H_d))
        alone = logdet / np.log(2.0) + K * np.log2(p_strong)
        c = row_space_feed(H_d) / np.hypot(1.0, xi_large)
        cache = decompose_feed(H_d, real.H_c, c)
        shared = np.sum(np.log2(cache.eigvals * p_bar), axis=-1)
        offsets.append(alone - shared)
    return float(np.mean(np.concatenate(offsets)))
