"""Monte Carlo sweep harness for the precoder / phase-strategy comparisons.

Runs a grid of (precoder, phase strategy, evaluation mode) methods over one
swept scenario variable with paired randomness: at a given replication every
method sees the same channel draw and, for randomized strategies, the same
phase draw, so method differences are never masked by sampling noise.  The
channel and phase streams of replication rep are SeedSequence([seed, rep],
spawn_key=(stream,)) with stream `channel.CHANNEL` or `channel.PHASE`, and
are therefore independent of the method list.

A sweep runs in two stages.  Stage 1 draws the replications in blocks, each
as many draws of the run's largest scenario as fit in BLOCK_VARIATES
standard normals (a budget that bounds its peak memory, see its comment).
One routine reduces a block at every stage-1 point, a scenario plus a feed
divisor (`_block_terms`), and a driver (`_reduce`) runs it block by block
and writes each block's terms into arrays of [reps, ...] per point and
strategy, whose kept prefixes stage 2 reads.  At each point the block is
decomposed with one stacked eigh at the feed H_d^s b / divisor
(`se.decompose_feed`) into a cache that is the whole block (weak rows
included), the flagged draws are masked out of it, and each kept draw is
reduced to its rates' terms that do not depend on transmit power under
every strategy's phases (`phases.strategy_terms`: eigvals(C_s) and
diag(C_s^{-1}), which the cache forms once per factor, and, per strategy,
the weak gain and the DPC cross terms; the random strategies' phases are
the block's phase draws).
The divisor is 1.0 at a scenario's own b; an xi sweep realizes its one
scenario, takes the feed c(0) once per block (`se.row_space_feed`, one SVD
per draw) and divides it by sqrt(1 + xi^2) at each xi.  Transmit power
enters only stage 2, so a `ptx_dbm` sweep has one stage-1 point that every
power shares.  Stage 2 is one routine per stage-1 point (`_point_rows`): it
evaluates each method with `se.rates` at the powers that share the point
(all of a `ptx_dbm` sweep's, one elsewhere), in chunks whose per-user
rates fit in RATE_ENTRIES, reduces the rates [P, R] along the draw axis
into one array of row statistics, and raises at the first row in sweep
order that would not be finite or has a negative mean (a high-SNR form at
a power too low for it).

Each replication's streams are drawn once per run.  Where they start is
computed for the whole run in one pass (`channel.stream_states`), and each
block takes its slice of those starts.  A block's channel variates and the
pathlosses of its positions, which no swept variable changes, are drawn
once, at the point with the most variates (`channel.draw_block`), and its
random phases at the largest N_R (`channel.random_phase_block`); a run
with frozen positions forms their pathlosses once and passes them to every
block's draw, which then reads no positions.  Every point realizes its
block from a prefix of those variates (`channel.realize_block`).  Both
streams are read in order from their start, so the prefix is exactly what
the point would draw alone: rows depend neither on the block size nor on
the other sweep points.  An n_ris sweep's later points build only their
cascades (`channel.cascade_block`), into the first point's cache with its
feed, factor of C_s and flags (`se.DecompositionCache.with_cascade`).  The
variates, the phases and the channel stacks of every block are written
into one workspace (`_Workspace`), allocated once per run at the block size
and the largest scenario, so no block allocates, frees and faults back in
arrays of its own.

Replications whose projected direct Gram matrix is ill conditioned
(condition number above 1e12) are flagged and dropped from every method's
averages at that sweep point; if more than half the draws at a point are
flagged the run aborts instead of reporting hollow means.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MAX_REP,
    ScenarioConfig,
    cascade_block,
    checked_int,
    checked_reals,
    draw_block,
    frozen_positions,
    nominal_pathlosses,
    random_phase_block,
    realize_block,
    stream_states,
    variate_count,
)
from .linalg import matvec
from .phases import RANDOM_STRATEGIES, STRATEGIES, strategy_terms
from .se import RateTerms, decompose_feed, rates, row_space_feed

# Draws above this condition number are excluded from averages (the SE
# formulas themselves only raise two orders of magnitude later).
COND_FLAG = 1e12

# The standard normals of one stage-1 block: a block holds
# max(1, BLOCK_VARIATES // variate_count(cfg)) draws of the run's largest
# scenario cfg.  Its variates and what is built from them (the channel
# stacks, the cache, the optimizer's stacks) take memory in proportion to
# its draws times (K+1)(N_B+N_R), so the budget bounds stage 1's peak memory
# whatever the reps.  The run's `_Workspace` is allocated at this size once
# and every block is drawn and built in it.  It is figure 5's block at
# N_R = 256, 32 draws of 2144 variates, where blocks of 32 add about 1.4 MB
# to the peak resident set and blocks of 64 about 4 MB (a tenth of the
# whole run's).  Figures 2-4 (N_R = 64) fit 112-126 draws in it, and so pay
# each block's fixed cost (the dispatch over points and strategies, and
# every stacked call's own overhead) about a quarter as often.
BLOCK_VARIATES = 32 * 2144

# The per-user rate entries of one stage-2 `se.rates` call: a method is
# evaluated on chunks of max(1, RATE_ENTRIES // R(K+1)) of the powers that
# share a stage-1 point (R kept draws), so its per-user arrays
# [powers, R, K+1] stay within the budget (64 KB of float64) or hold one
# power at a time.  Figure 2's nine powers at 200 draws of K = 3 (7200)
# fit one call per method; at 20000 draws the one call held 11.7 MB.
RATE_ENTRIES = 2**13

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
        if not isinstance(self.config, ScenarioConfig):
            raise ValueError(f"config must be a ScenarioConfig, got {self.config!r}")
        if self.variable not in _VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        self.values = checked_reals("values", self.values)
        if not self.values:
            raise ValueError("no sweep values given")
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
        if not np.iterable(self.methods):
            raise ValueError(f"methods must be MethodSpecs, got {self.methods!r}")
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("no methods given")
        for m in self.methods:
            if not isinstance(m, MethodSpec):
                raise ValueError(f"methods must be MethodSpecs, got {m!r}")
            if self.methods.count(m) > 1:
                raise ValueError(f"methods: {m.label} is repeated")
        self.reps = checked_int("reps", self.reps)
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


def _apply_variable(cfg: ScenarioConfig, variable: str, value: float):
    """Scenario for one sweep point; xi scales a draw's feed, not the cfg."""
    if variable == "xi":
        return cfg
    if variable == "ptx_dbm":
        return cfg.with_updates(ptx_dbm=value)
    return cfg.with_updates(**{variable: int(value)})


class _Workspace:
    """The arrays stage 1 writes every block into, each allocated once per
    run, when first taken, at its block size `size` and largest scenario
    `cfg`: the position uniforms and variates (`draw_block`), the phase
    uniforms and phases (`random_phase_block`), the direct and cascaded
    channel stacks (`realize_block`, `cascade_block`) and the aligned phases
    (`strategy_terms`).  A block or a point takes a contiguous prefix of a
    buffer (`take`), so a short last block or a smaller point needs no array
    of its own.
    """

    def __init__(self, cfg: ScenarioConfig, size: int):
        elements = size * cfg.n_ris
        # name: (entries, dtype)
        self.sizes = {
            "u": (size * 2 * cfg.n_users, float),
            "x": (size * variate_count(cfg), float),
            "phase_u": (elements, float),
            "theta": (elements, complex),
            "H_d": (size * cfg.n_strong * cfg.n_bs, complex),
            "H_c": (size * cfg.n_users * cfg.n_ris, complex),
            "aligned": (elements, complex),
        }
        self.buffers = {}

    def take(self, name: str, *shape) -> np.ndarray:
        """The first prod(shape) entries of buffer `name`, shaped `shape`."""
        if name not in self.buffers:
            self.buffers[name] = np.empty(*self.sizes[name])
        return self.buffers[name][: math.prod(shape)].reshape(shape)


def _block_terms(plan, strategies, work, block, frozen_pl) -> list:
    """Stage 1 of one block of replications (`channel.Streams`), drawn and
    built in the run's `_Workspace` `work`, with the pathlosses of the run's
    frozen positions (None if it has none).  Returns one (flagged,
    terms) pair per stage-1 point in sweep order, terms mapping each
    strategy to the se.RateTerms of the block's kept draws [m, ...] in
    replication order."""
    scenarios = plan.points if plan.variable in ("n_bs", "n_ris") else plan.points[:1]
    xi_sweep = plan.variable == "xi"
    # hypot(1, xi) is sqrt(1 + xi^2) without overflow at large xi
    divisors = [np.hypot(1.0, xi) for xi in plan.values] if xi_sweep else [1.0]
    largest = scenarios[-1]
    n, users = len(block), largest.n_users
    block_theta = None
    if any(kind in RANDOM_STRATEGIES for kind in strategies):
        shape = (n, largest.n_ris)
        out = (work.take("phase_u", *shape), work.take("theta", *shape))
        block_theta = random_phase_block(block, largest.n_ris, out=out)
    out = (work.take("u", n, 2 * users), work.take("x", n, variate_count(largest)))
    pathlosses, x = draw_block(largest, block, frozen_pl, out=out)
    points, factor = [], None  # factor: an n_ris sweep's unmasked cache
    for cfg in scenarios:
        H_c = work.take("H_c", n, users, cfg.n_ris)
        if factor is None:
            out = (work.take("H_d", n, cfg.n_strong, cfg.n_bs), H_c)
            real = realize_block(cfg, pathlosses, x, out=out)
            H_d = real.H_d_strong
            feed = row_space_feed(H_d) if xi_sweep else matvec(H_d, real.b)
            caches = (decompose_feed(H_d, H_c, feed / divisor) for divisor in divisors)
        else:  # only the cascade is new: the factor, feed and flags are the first point's
            caches = [factor.with_cascade(cascade_block(cfg, pathlosses, x, out=H_c))]
        for cache in caches:
            factor = cache if plan.variable == "n_ris" else None
            keep = ~(cache.cond() > COND_FLAG)
            m = int(np.count_nonzero(keep))
            rows = slice(None) if m == n else keep  # a basic slice copies nothing
            theta = None if block_theta is None else block_theta[rows, : cfg.n_ris]
            kept = cache if m == n else cache[keep]  # an all-kept cache is not indexed
            aligned = work.take("aligned", m, cfg.n_ris)
            points.append((n - m, strategy_terms(strategies, kept, theta, aligned)))
    return points


def _reduce(plan: SweepPlan, strategies) -> list:
    """Stage 1: `_block_terms` of every block, in replication order, each
    block's terms written into arrays of [reps, ...] per point and
    strategy.  Returns one (flagged, terms) pair per stage-1 point, terms
    mapping each strategy to the kept prefix of its arrays [R, ...]; a
    point with more than half its draws flagged raises."""
    largest = plan.points[-1 if plan.variable in ("n_bs", "n_ris") else 0]
    frozen = frozen_positions(largest)
    # frozen positions have one set of pathlosses, which every block shares
    frozen_pl = None if frozen is None else nominal_pathlosses(largest, frozen)
    streams = stream_states(plan.config.seed, range(plan.reps))
    size = max(1, BLOCK_VARIATES // variate_count(largest))  # draws a block
    work = _Workspace(largest, size)
    # per point and strategy, RateTerms (eigvals, inv_diag, g, cross) of
    # [reps, K], [reps, K], [reps] and [reps, K]
    K, reps = largest.n_strong, plan.reps
    shapes = ((reps, K), (reps, K), (reps,), (reps, K))
    flagged = [0] * (1 if plan.variable == "ptx_dbm" else len(plan.values))
    stores = [
        {kind: RateTerms(*map(np.empty, shapes)) for kind in strategies} for _ in flagged
    ]
    for start in range(0, reps, size):
        block = streams[start : start + size]
        points = _block_terms(plan, strategies, work, block, frozen_pl)
        for p, (n_flagged, terms) in enumerate(points):
            kept = start - flagged[p]  # the point's kept draws so far
            flagged[p] += n_flagged
            for kind, block_terms in terms.items():
                for store, value in zip(stores[p][kind], block_terms):
                    store[kept : kept + len(value)] = value
    reduced = []
    for value, n_flagged, point_stores in zip(plan.values, flagged, stores):
        if 2 * n_flagged > reps:
            raise RuntimeError(
                f"{n_flagged}/{reps} draws flagged as ill-conditioned at "
                f"{plan.variable}={value:g}"
            )
        reduced.append((n_flagged, {
            kind: RateTerms(*(store[: reps - n_flagged] for store in kind_stores))
            for kind, kind_stores in point_stores.items()
        }))
    return reduced


def _point_rows(plan, flagged, terms, values, p_bars) -> list:
    """Every method's rows at one stage-1 point, in sweep order: `flagged`
    draws dropped, `terms` the RateTerms of the R kept draws per strategy,
    p_bars [P] the powers.  stats [methods, 4, P] holds mean, std, direct and
    reflected mean; the first row not finite or with a negative mean raises."""
    stats = np.empty((len(plan.methods), 4, len(p_bars)))
    for m, out in zip(plan.methods, stats):
        kept = terms[m.strategy]
        per_call = max(1, RATE_ENTRIES // (kept.g.size + kept.cross.size))  # R(K+1)
        for j in range(0, len(p_bars), per_call):
            chunk = slice(j, j + per_call)
            total, direct, reflect = rates(kept, p_bars[chunk], m.precoder, m.mode)
            out[:, chunk] = total.mean(-1), total.std(-1), direct.mean(-1), reflect.mean(-1)
    # a finite rate is a log2, at most about a thousand bpcu, so the mean is
    # finite exactly where every draw's total (and so both parts) is; only a
    # high-SNR form goes negative, at a power too low for it
    bad = ~np.isfinite(stats[:, 0]) | (stats[:, (0, 2, 3)] < 0.0).any(axis=1)
    rows = stats.transpose(2, 0, 1).tolist()  # [P][methods][4]: in sweep order
    if bad.any():
        p, i = divmod(int(bad.T.argmax()), len(plan.methods))  # the first bad row
        label, at = plan.methods[i].label, f"at {plan.variable}={values[p]:g}"
        mean, _, d_mean, r_mean = rows[p][i]
        if not math.isfinite(mean):
            raise RuntimeError(f"{label} gives non-finite rates {at}")
        raise RuntimeError(
            f"{label} gives a negative mean rate {at} (se_mean, se_d_mean, "
            f"se_r_mean = {mean:.4g}, {d_mean:.4g}, {r_mean:.4g} bpcu)"
        )
    return [
        SweepRow(
            plan.variable, value, m.precoder, m.strategy, m.mode, *row,
            reps=len(terms[m.strategy].g), flagged=flagged,
        )
        for value, at_point in zip(values, rows) for m, row in zip(plan.methods, at_point)
    ]


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the full sweep: stage 1 per scenario, then stage 2 once per
    stage-1 point, over every method and every power that shares it."""
    strategies = tuple(dict.fromkeys(m.strategy for m in plan.methods))
    reduced = _reduce(plan, strategies)
    # a ptx_dbm sweep's one stage-1 point serves every power, any other
    # sweep's points one power each
    per = len(plan.values) // len(reduced)
    rows = []
    for j, (flagged, terms) in enumerate(reduced):
        points = slice(j * per, (j + 1) * per)
        # a power or rate that overflows raises in _point_rows, not a warning
        with np.errstate(all="ignore"):
            p_bars = np.array([cfg.p_bar() for cfg in plan.points[points]])
            rows += _point_rows(plan, flagged, terms, plan.values[points], p_bars)
    return SweepResult(plan=plan, rows=rows)
