"""Special functions and the analytic rate bounds.

The exponential integral E1 drives every ergodic closed form here through
the identity E[ln chi2(2)] = ln 2 - gamma and the lower bound

    E1(x) e^x > ln(1 + e^{-gamma} / x)    for all x > 0,

which is strictly tighter than the classical E1(x) e^x > -gamma + ln(1 + 1/x).
On top of these sit the closed forms for random/statistical and gain-aligned
RIS phases, among them the ergodic upper bound on the weak user's high-SNR
ZF rate (a harmonic-mean step over the strong users' cascaded covariances).

Every bound check returns a BoundReport table whose columns carry both sides
and the slack of each row; E1 and the grid checks take an array of x (one
row per entry) as well as a single x.
"""

from dataclasses import dataclass, fields

import numpy as np

from .channel import PathlossSet, ScenarioConfig

# Euler-Mascheroni constant to 20 digits.
EULER_GAMMA = 0.57721566490153286061

_E1_MAX_ITER = 300


@dataclass(eq=False)
class BoundReport:
    """Checked inequalities as 1-D columns, one row per check of lhs vs rhs
    (slack = lhs - rhs); a scalar field, such as a single name, is repeated
    down the table, so a scalar check is a one-row table."""

    name: np.ndarray  # str
    setting: np.ndarray  # the x value or sweep setting each row ran at
    lhs: np.ndarray
    rhs: np.ndarray
    satisfied: np.ndarray  # bool
    slack: np.ndarray

    def __post_init__(self):
        columns = [np.ravel(getattr(self, f.name)) for f in fields(self)]
        for f, column in zip(fields(self), np.broadcast_arrays(*columns)):
            setattr(self, f.name, column)

    def __len__(self) -> int:
        return self.name.size

    @property
    def violated(self) -> int:
        """Number of rows whose check failed."""
        return len(self) - int(np.count_nonzero(self.satisfied))

    @classmethod
    def concat(cls, *tables):
        """One table holding the rows of `tables` in order."""
        return cls(*(
            np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)
        ))


# =========================================================================
# exponential integral
# =========================================================================


def _e1_series(x: np.ndarray) -> np.ndarray:
    """Power series -gamma - ln x + sum_k (-1)^{k+1} x^k / (k k!), x <= 1.

    Each entry of the 1-D array x stops at its own term test, so it keeps
    the bits of a one-entry call.  Raises RuntimeError if _E1_MAX_ITER terms
    do not converge (at most 20 are needed on (0, 1]).
    """
    out = np.empty_like(x)
    todo = np.arange(x.size)
    total = -EULER_GAMMA - np.log(x)
    term = np.ones_like(x)  # (-x)^k / k!
    for k in range(1, _E1_MAX_ITER):
        term *= -x / k
        contrib = -term / k
        total += contrib
        done = np.abs(contrib) < 1e-18 * np.abs(total)
        out[todo[done]] = total[done]
        if done.all():
            return out
        left = ~done
        todo, x, term, total = todo[left], x[left], term[left], total[left]
    raise RuntimeError(f"E1 series did not converge at x = {float(x[0])!r}")


def _e1_continued_fraction(x: np.ndarray) -> np.ndarray:
    """Modified-Lentz evaluation of F(x) = x+1 - 1^2/(x+3 - 2^2/(x+5 - ...)).

    E1(x) = e^{-x} / F(x); the chain is well behaved for x > 1 (at most 83
    steps).  Each entry of the 1-D array x stops at its own step test.
    Raises RuntimeError if _E1_MAX_ITER steps do not converge.
    """
    tiny = 1e-300
    out = np.empty_like(x)
    todo = np.arange(x.size)
    b = x + 1.0
    f = b.copy()
    C = b.copy()
    D = np.zeros_like(x)
    for j in range(1, _E1_MAX_ITER):
        a = -float(j * j)
        b += 2.0
        D = b + a * D
        D = 1.0 / np.where(D != 0.0, D, tiny)
        C = b + a / C
        C = np.where(C != 0.0, C, tiny)
        delta = C * D
        f *= delta
        done = np.abs(delta - 1.0) < 1e-15
        out[todo[done]] = f[done]
        if done.all():
            return out
        left = ~done
        todo, x, b, f, C, D = todo[left], x[left], b[left], f[left], C[left], D[left]
    raise RuntimeError(f"E1 continued fraction did not converge at x = {float(x[0])!r}")


def _e1(x, scaled: bool):
    """E1(x), or e^x E1(x) when scaled, for a scalar or an array of finite x > 0:
    the series below 1, the continued fraction above."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0) & (x < np.inf)):  # NaN fails both
        raise ValueError("x must be positive and finite")
    flat = x.ravel()
    out = np.empty_like(flat)
    low = flat <= 1.0
    xs, xf = flat[low], flat[~low]
    series = _e1_series(xs)
    fraction = _e1_continued_fraction(xf)
    out[low] = np.exp(xs) * series if scaled else series
    out[~low] = 1.0 / fraction if scaled else np.exp(-xf) / fraction
    return out.reshape(x.shape)[()]


def exp_integral_e1(x):
    """E1(x) to about 1e-12 relative accuracy, elementwise over x > 0."""
    return _e1(x, scaled=False)


def exp_integral_e1_scaled(x):
    """e^x E1(x), stable for arbitrarily large x (no overflow/underflow)."""
    return _e1(x, scaled=True)


# =========================================================================
# E1 product bound and its gap structure
# =========================================================================


def _grid_check(name: str, x, lhs, rhs) -> BoundReport:
    """The check lhs > rhs, one row per entry of x."""
    slack = lhs - rhs
    return BoundReport(name, x, lhs, rhs, slack > 0.0, slack)


def _tight_rhs(x):
    """ln(1 + e^{-gamma} / x), the bound's right-hand side."""
    return np.log1p(np.exp(-EULER_GAMMA) / x)


def _classical_rhs(x):
    """-gamma + ln(1 + 1/x), the classical right-hand side."""
    return -EULER_GAMMA + np.log1p(1.0 / x)


def e1_product_bound_check(x) -> BoundReport:
    """Check E1(x) e^x > ln(1 + e^{-gamma} / x), one row per entry of x."""
    x = np.asarray(x, dtype=float)
    return _grid_check(
        "e1_product_bound", x, exp_integral_e1_scaled(x), _tight_rhs(x)
    )


def e1_product_log_bound_check(x) -> BoundReport:
    """Check the classical comparison bound E1(x) e^x > -gamma + ln(1 + 1/x)."""
    x = np.asarray(x, dtype=float)
    return _grid_check(
        "e1_product_log_bound", x, exp_integral_e1_scaled(x), _classical_rhs(x)
    )


def e1_bound_comparison_check(x) -> BoundReport:
    """Check that the e^{-gamma} bound is tighter than the classical one."""
    x = np.asarray(x, dtype=float)
    return _grid_check("e1_bound_comparison", x, _tight_rhs(x), _classical_rhs(x))


def default_log_grid(n: int = 1000) -> np.ndarray:
    """Logarithmic x grid [1e-8, 1e4] used by the grid bound checks."""
    return np.logspace(-8.0, 4.0, n)


def bound_gap(x):
    """g(x) = E1(x) - e^{-x} ln(1 + e^{-gamma}/x), the bound's additive gap."""
    x = np.asarray(x, dtype=float)
    return exp_integral_e1(x) - np.exp(-x) * _tight_rhs(x)


# Points of the log grid on (1e-8, 10) that the gap-shape scan evaluates.
GAP_SCAN_POINTS = 10_000


@dataclass
class GapStructure:
    """Shape of the bound gap g(x): a single interior maximum."""

    x_max: float  # location of the maximum
    value_max: float  # g(x_max)
    bracket_hi: float  # e^{-2 gamma} / (1 - e^{-gamma})
    inside_bracket: bool  # x_max in (0, bracket_hi)
    unimodal: bool  # one rise, then one fall, turning at the grid maximum


def bound_gap_structure() -> GapStructure:
    """Locate the unique interior maximum of the bound gap on (1e-8, 10)."""
    grid = np.logspace(-8.0, 1.0, GAP_SCAN_POINTS)
    vals = bound_gap(grid)
    i = int(np.argmax(vals))
    signs = np.sign(np.diff(vals))
    # one rise, then one fall, turning at the grid maximum
    rise, fall = signs[:i], signs[i:]
    unimodal = bool(np.all(rise >= 0) and np.all(fall <= 0) and rise.any() and fall.any())

    # golden-section refinement around the grid maximum
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    inv_gold = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        m1 = hi - inv_gold * (hi - lo)
        m2 = lo + inv_gold * (hi - lo)
        g1, g2 = bound_gap([m1, m2])
        if g1 >= g2:
            hi = m2
        else:
            lo = m1
    x_max = 0.5 * (lo + hi)
    bracket = float(np.exp(-2.0 * EULER_GAMMA) / (1.0 - np.exp(-EULER_GAMMA)))
    return GapStructure(
        x_max=float(x_max),
        value_max=float(bound_gap(x_max)),
        bracket_hi=bracket,
        inside_bracket=0.0 < x_max < bracket,
        unimodal=unimodal,
    )


# =========================================================================
# ergodic rate bounds
# =========================================================================


def _strong_gain_ratio(pl: PathlossSet) -> float:
    """sum_k L_r,k / L_d,k over the K strong users."""
    return float(np.sum(pl.L_r[:-1] / pl.L_d))


def random_phase_closed_forms(
    cfg: ScenarioConfig, pl: PathlossSet, p_bar: float
) -> tuple:
    """Ergodic high-SNR closed forms for random/statistical phases.

    Returns (lin_upper, dpc_value): the N_R-independent upper bound on the
    weak user's ZF rate and the exact ergodic DPC reflected rate
    log2(e^{-gamma} L_G L_r,K+1 N_B N_R p_bar).  lin_upper is the ergodic
    mean of log2(|h_c,K+1^H theta|^2 p_bar / (e^{-gamma} sum_k theta^H R_c,k
    theta / tr(R_d,k))) over the K strong users, at random theta.
    """
    ratio = _strong_gain_ratio(pl)
    lin_upper = np.log2(cfg.n_bs * pl.L_r[-1] * p_bar / ratio)
    dpc_value = np.log2(
        np.exp(-EULER_GAMMA) * pl.L_G * pl.L_r[-1] * cfg.n_bs * cfg.n_ris * p_bar
    )
    return float(lin_upper), float(dpc_value)


def aligned_phase_closed_forms(
    cfg: ScenarioConfig, pl: PathlossSet, p_bar: float
) -> tuple:
    """Ergodic high-SNR closed forms for gain-aligned phases.

    Returns (lin_upper, dpc_lower); the DPC lower bound grows with N_R^2
    (2 bpcu per element doubling), the ZF upper bound only with N_R.
    """
    ratio = _strong_gain_ratio(pl)
    lin_upper = np.log2(
        0.25 * np.pi * np.exp(EULER_GAMMA) * cfg.n_ris * cfg.n_bs
        * pl.L_r[-1] * p_bar / ratio
    )
    dpc_lower = np.log2(
        np.exp(-EULER_GAMMA) * pl.L_G * pl.L_r[-1] * cfg.n_bs * cfg.n_ris**2 * p_bar
    )
    return float(lin_upper), float(dpc_lower)


# =========================================================================
# sanity identities
# =========================================================================


# Monte Carlo identities are accepted within this many standard errors of
# the sample mean (a false alarm about once in 1.7 million runs).
MC_TOL_SE = 5.0


def chi2_log_expectation_check(
    rng: np.random.Generator, reps: int = 100_000
) -> BoundReport:
    """Monte Carlo check of E[log2 chi2(2)] = log2(2 e^{-gamma}) ~ 0.1673.

    Satisfied when the sample mean lies within MC_TOL_SE standard errors of
    the analytic value, the standard error taken from the sample itself.
    """
    if reps < 10_000:
        raise ValueError("need at least 1e4 samples")
    logs = np.log2(rng.chisquare(2, reps))
    mc = float(np.mean(logs))
    sem = float(np.std(logs, ddof=1) / np.sqrt(reps))
    analytic = float(np.log2(2.0 * np.exp(-EULER_GAMMA)))
    slack = mc - analytic
    return BoundReport(
        "chi2_log_expectation", float(reps), mc, analytic,
        abs(slack) <= MC_TOL_SE * sem, slack,
    )


def standard_bound_reports(seed: int = 0, grid_points: int = 1000) -> BoundReport:
    """The full default report table: E1 bound grid, tightness grid, gap
    structure, and the chi-squared log-expectation identity, in that order."""
    grid = default_log_grid(grid_points)
    gs = bound_gap_structure()
    return BoundReport.concat(
        e1_product_bound_check(grid),
        e1_bound_comparison_check(grid),
        BoundReport(
            "gap_maximum_location", gs.x_max, gs.x_max, gs.bracket_hi,
            gs.inside_bracket and gs.unimodal, gs.bracket_hi - gs.x_max,
        ),
        chi2_log_expectation_check(np.random.default_rng([seed, 0xB0])),
    )
