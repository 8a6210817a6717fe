"""Monte Carlo sweep harness for the precoder / phase-strategy comparisons.

Runs a grid of (precoder, phase strategy, evaluation mode) methods over one
swept scenario variable with paired randomness: at a given replication every
method sees the same channel draw and, for randomized strategies, the same
phase draw, so method differences are never masked by sampling noise.  The
channel and phase substreams are the `rep_seeds(seed, rep)` children of
SeedSequence([seed, rep]) and are therefore independent of the method list.

Replications whose projected direct Gram matrix is ill conditioned
(condition number above 1e12) are flagged and dropped from every method's
averages at that sweep point; if more than half the draws at a point are
flagged the run aborts instead of reporting hollow means.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ScenarioConfig,
    db_to_lin,
    draw_user_positions,
    position_rng,
    rep_seeds,
    sample_realization,
)
from .phases import StrategySpec, b_from_xi, select_phases
from .se import (
    decompose,
    extended_phase,
    se_asymptotic,
    se_dpc_exact,
    se_zf_exact,
    weak_cascaded_row,
)

# Draws above this condition number are excluded from averages (the SE
# formulas themselves only raise two orders of magnitude later).
COND_FLAG = 1e12

_VARIABLES = ("ptx_dbm", "n_bs", "n_ris", "xi")


@dataclass(frozen=True)
class MethodSpec:
    """One curve of a sweep: precoder x phase strategy x evaluation mode."""

    precoder: str  # ZF | DPC
    strategy: StrategySpec
    mode: str  # exact | asymptotic

    def __post_init__(self):
        if self.precoder not in ("ZF", "DPC"):
            raise ValueError(f"unknown precoder {self.precoder!r}")
        if self.mode not in ("exact", "asymptotic"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def label(self) -> str:
        return f"{self.precoder}:{self.strategy.kind}:{self.mode}"


@dataclass
class SweepPlan:
    """A sweep: one variable, its grid, the method list, replication count."""

    config: ScenarioConfig
    variable: str
    values: tuple
    methods: tuple
    reps: int = 200

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
        if self.variable == "xi" and self.values[0] < 0:
            raise ValueError("xi values must be nonnegative")
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
    """Scenario for one sweep point; xi is applied to the draw, not the cfg."""
    if variable == "xi":
        return cfg, float(value)
    if variable == "ptx_dbm":
        return cfg.with_updates(ptx_dbm=float(value)), None
    return cfg.with_updates(**{variable: int(value)}), None


def _run_rep(cfg, xi, methods, positions, seed, rep):
    """One replication: all methods on one paired draw, or None if flagged."""
    ch_ss, ph_ss = rep_seeds(seed, rep)
    real = sample_realization(cfg, np.random.default_rng(ch_ss), positions=positions)
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    if cache.cond() > COND_FLAG:
        return None
    h_c_weak = weak_cascaded_row(real)
    p_bar = cfg.p_bar()
    phases = {}
    out = {}
    for m in methods:
        if m.strategy not in phases:
            # fresh generator on the shared phase substream: randomized
            # strategies see identical draws whichever methods request them
            theta = select_phases(
                m.strategy, cache, h_c_weak, np.random.default_rng(ph_ss)
            )
            phases[m.strategy] = extended_phase(theta)
        phase = phases[m.strategy]
        if m.mode == "exact":
            se_fn = se_zf_exact if m.precoder == "ZF" else se_dpc_exact
            out[m.label] = se_fn(cache, phase, h_c_weak, p_bar)
        else:
            out[m.label] = se_asymptotic(cache, phase, h_c_weak, p_bar, m.precoder)
    return out


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run the full sweep, one paired replication at a time."""
    rows = []
    for value in plan.values:
        cfg_v, xi = _apply_variable(plan.config, plan.variable, value)
        positions = None
        if cfg_v.freeze_positions:
            positions = draw_user_positions(cfg_v, position_rng(cfg_v.seed))
        records = [
            _run_rep(cfg_v, xi, plan.methods, positions, cfg_v.seed, r)
            for r in range(plan.reps)
        ]

        flagged = sum(rec is None for rec in records)
        if 2 * flagged > plan.reps:
            raise RuntimeError(
                f"{flagged}/{plan.reps} draws flagged as ill-conditioned "
                f"at {plan.variable}={value:g}"
            )
        kept = [rec for rec in records if rec is not None]
        for m in plan.methods:
            total = np.array([rec[m.label].se_total for rec in kept])
            direct = np.array([rec[m.label].se_direct for rec in kept])
            reflect = np.array([rec[m.label].se_reflect for rec in kept])
            rows.append(
                SweepRow(
                    sweep_var=plan.variable,
                    value=float(value),
                    precoder=m.precoder,
                    strategy=m.strategy.kind,
                    mode=m.mode,
                    se_mean=float(np.mean(total)),
                    se_std=float(np.std(total)),
                    se_d_mean=float(np.mean(direct)),
                    se_r_mean=float(np.mean(reflect)),
                    reps=len(kept),
                    flagged=flagged,
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
    positions = None
    if cfg.freeze_positions:
        positions = draw_user_positions(cfg, position_rng(cfg.seed))
    offsets = np.empty(reps)
    for r in range(reps):
        ch_ss, _ = rep_seeds(cfg.seed, r)
        real = sample_realization(cfg, np.random.default_rng(ch_ss), positions=positions)
        H_d = real.H_d_strong
        _, logdet = np.linalg.slogdet(H_d @ H_d.conj().T)
        alone = logdet / np.log(2.0) + K * np.log2(p_strong)
        cache = decompose(replace(real, b=b_from_xi(H_d, xi_large)))
        shared = float(np.sum(np.log2(cache.eigvals * p_bar)))
        offsets[r] = alone - shared
    return float(np.mean(offsets))
