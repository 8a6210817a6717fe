from dataclasses import fields

import numpy as np
import pytest
from scipy.special import exp1

from oracles import (
    dense_reflected_rate_upper_bound,
    harmonic_mean_bound_check,
    random_phases,
    reference_e1,
    rep_seeds,
)
from risbc import bounds
from risbc.bounds import (
    EULER_GAMMA,
    BoundReport,
    aligned_phase_closed_forms,
    bound_gap,
    bound_gap_structure,
    chi2_log_expectation_check,
    default_log_grid,
    e1_bound_comparison_check,
    e1_product_bound_check,
    e1_product_log_bound_check,
    exp_integral_e1,
    exp_integral_e1_scaled,
    random_phase_closed_forms,
    reflected_rate_upper_bound,
    standard_bound_reports,
)
from risbc.channel import (
    PathlossSet,
    ScenarioConfig,
    draw_user_positions,
    nominal_pathlosses,
    position_rng,
    sample_realization,
    steering_vector,
)
from risbc.se import decompose, rate_terms, rates

# reference values computed with 40-digit arithmetic
E1_AT_1 = 0.2193839343955202737
E1_AT_HALF = 0.5597735947761608117
E1_AT_2 = 0.04890051070806111957
SCALED_AT_1 = 0.5963473623231940743
SCALED_AT_30 = 0.03228973875898012522
SCALED_AT_1E4 = 9.999000199940023988e-5
GAP_X_MAX = 0.2127986435992488
GAP_VALUE_MAX = 0.128194279305
BRACKET_HI = 0.7188315329474753
LOG2_2_EXP_NEG_GAMMA = 0.16725382272313285

# the points at which E1 is compared with scipy
SCIPY_POINTS = np.logspace(-8, np.log10(700.0), 400)


# ------------------------------------------------------------------ E1


def test_e1_reference_values():
    assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, rel=1e-13)
    assert exp_integral_e1(0.5) == pytest.approx(E1_AT_HALF, rel=1e-13)
    assert exp_integral_e1(2.0) == pytest.approx(E1_AT_2, rel=1e-13)


def test_e1_matches_scipy_across_regimes():
    for x in SCIPY_POINTS:
        assert exp_integral_e1(x) == pytest.approx(float(exp1(x)), rel=1e-12)


@pytest.mark.parametrize("scaled", [False, True])
def test_e1_array_matches_one_element_calls_bit_for_bit(scaled):
    # every entry stops at its own term test; running an entry on until the
    # whole array has converged moves the low bits of the continued fraction
    e1 = exp_integral_e1_scaled if scaled else exp_integral_e1
    xs = np.concatenate([default_log_grid(1000), SCIPY_POINTS])
    whole = e1(xs)
    assert whole.shape == xs.shape
    single = [e1(float(x)) for x in xs]
    assert all(np.ndim(v) == 0 for v in single)
    assert whole.tobytes() == np.array(single).tobytes()
    # and each value keeps the bits of the scalar loop
    reference = [reference_e1(x, scaled) for x in xs]
    assert whole.tobytes() == np.array(reference).tobytes()


def test_e1_series_fraction_crossover_consistent():
    below = exp_integral_e1(1.0)
    above = exp_integral_e1(1.0 + 1e-7)
    assert abs(below - above) / below < 1e-6


def test_e1_scaled_reference_values():
    assert exp_integral_e1_scaled(1.0) == pytest.approx(SCALED_AT_1, rel=1e-13)
    assert exp_integral_e1_scaled(30.0) == pytest.approx(SCALED_AT_30, rel=1e-13)
    assert exp_integral_e1_scaled(1e4) == pytest.approx(SCALED_AT_1E4, rel=1e-12)


def test_e1_scaled_no_overflow_far_out():
    v = exp_integral_e1_scaled(1e8)
    assert np.isfinite(v) and v == pytest.approx(1e-8, rel=1e-4)


def test_e1_asymptotic_tail():
    # e^x E1(x) -> 1/x: ratio within 0.2% at x = 1e3
    assert exp_integral_e1_scaled(1e3) * 1e3 == pytest.approx(1.0, rel=2e-3)


def test_e1_small_x_limit():
    x = 1e-8
    assert abs(exp_integral_e1(x) + EULER_GAMMA + np.log(x)) < 1e-7


def test_e1_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)
        with pytest.raises(ValueError):
            exp_integral_e1_scaled(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_e1_rejects_non_finite_before_iterating(bad, monkeypatch):
    # NaN passes an `x <= 0` test; without an up-front check it ran the
    # continued fraction to its cap and reported non-convergence
    def never(x):
        raise AssertionError("E1 iterated on bad input")

    monkeypatch.setattr(bounds, "_e1_series", never)
    monkeypatch.setattr(bounds, "_e1_continued_fraction", never)
    for fn in (exp_integral_e1, exp_integral_e1_scaled, e1_product_bound_check):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(bad)
        with pytest.raises(ValueError, match="positive and finite"):
            fn([1.0, bad])


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 30.0])
def test_e1_raises_when_the_cap_is_reached(x, monkeypatch):
    # two terms/steps converge nowhere: neither loop may return a partial sum
    monkeypatch.setattr(bounds, "_E1_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match=rf"did not converge at x = {x!r}"):
        exp_integral_e1(x)
    with pytest.raises(RuntimeError, match=rf"did not converge at x = {x!r}"):
        exp_integral_e1_scaled(x)


# ------------------------------------------------------------------ bound grid


def table_rows(table):
    """The rows of a BoundReport as tuples of Python scalars."""
    return list(zip(*(getattr(table, f.name).tolist() for f in fields(table))))


def test_product_bound_positive_on_grid():
    grid = default_log_grid(1000)
    reports = e1_product_bound_check(grid)
    assert reports.setting.tolist() == grid.tolist()
    assert set(reports.name.tolist()) == {"e1_product_bound"}
    assert reports.satisfied.all() and (reports.slack > 0.0).all()
    assert reports.violated == 0


def test_product_bound_known_slacks():
    reports = e1_product_bound_check([1.0, 1e-8, 1e4])
    one, tiny, far = reports.slack
    assert one == pytest.approx(0.150726412042, abs=1e-9)
    assert 0.0 < tiny < 1e-6
    assert 0.0 < far < 1e-4
    # a single x gives a one-row table: the first row of the array call
    single = e1_product_bound_check(1.0)
    assert len(single) == 1
    assert table_rows(single) == table_rows(reports)[:1]


def test_table_columns_share_one_length():
    # a scalar field is repeated down the table; concat keeps row order
    table = BoundReport(
        "demo", [1.0, 2.0, 3.0], 0.5, [1.0, 0.0, 1.0], [False, True, False], 0.0
    )
    assert len(table) == 3 and table.violated == 2
    assert table.name.tolist() == ["demo"] * 3
    assert table.lhs.tolist() == [0.5] * 3
    one_row = BoundReport("longer_name", 4.0, 1.0, 0.0, True, 1.0)
    both = BoundReport.concat(table, one_row)
    assert both.name.tolist() == ["demo"] * 3 + ["longer_name"]
    assert both.setting.tolist() == [1.0, 2.0, 3.0, 4.0] and both.violated == 2
    with pytest.raises(ValueError):
        BoundReport("demo", [1.0, 2.0], [1.0, 2.0, 3.0], 0.0, True, 0.0)


def test_log_bound_positive_and_weaker():
    grid = default_log_grid(1000)
    log_reports = e1_product_log_bound_check(grid)
    comparisons = e1_bound_comparison_check(grid)
    assert len(log_reports) == len(comparisons) == grid.size
    assert (log_reports.slack > 0.0).all()
    assert comparisons.satisfied.all() and (comparisons.slack > 0.0).all()


# ------------------------------------------------------------------ gap shape


def test_gap_structure():
    gs = bound_gap_structure()
    assert gs.bracket_hi == pytest.approx(BRACKET_HI, rel=1e-12)
    assert gs.bracket_hi == pytest.approx(
        np.exp(-2 * EULER_GAMMA) / (1 - np.exp(-EULER_GAMMA)), rel=1e-15
    )
    assert gs.x_max == pytest.approx(GAP_X_MAX, abs=1e-6)
    assert gs.value_max == pytest.approx(GAP_VALUE_MAX, abs=1e-9)
    assert gs.inside_bracket
    assert gs.unimodal
    assert gs.increasing_before and gs.decreasing_after
    assert gs.value_max > bound_gap(1e-8)
    assert gs.value_max > bound_gap(10.0)


# ------------------------------------------------------------------ chi2


def test_chi2_log_expectation():
    rep = chi2_log_expectation_check(np.random.default_rng(0), reps=100_000)
    assert len(rep) == 1 and rep.name[0] == "chi2_log_expectation"
    assert rep.rhs[0] == pytest.approx(LOG2_2_EXP_NEG_GAMMA, rel=1e-12)
    assert rep.rhs[0] == pytest.approx(1.0 - EULER_GAMMA / np.log(2.0), rel=1e-12)
    assert abs(rep.slack[0]) < 0.01
    assert rep.violated == 0


def test_chi2_log_scaling_additivity():
    xs = np.random.default_rng(1).chisquare(2, 10_000)
    shift = np.mean(np.log2(8.0 * xs)) - np.mean(np.log2(xs))
    assert shift == pytest.approx(3.0, abs=1e-12)


def test_chi2_check_rejects_small_samples():
    with pytest.raises(ValueError):
        chi2_log_expectation_check(np.random.default_rng(0), reps=100)


def test_chi2_check_passes_on_cli_substreams():
    # `risbc bounds --seed N` draws from [N, 0xB0]; a fixed 0.01 tolerance
    # (1.7 standard errors) failed on 6 of these 60 seeds
    failed = [
        seed
        for seed in range(60)
        if chi2_log_expectation_check(np.random.default_rng([seed, 0xB0])).violated
    ]
    assert failed == []


class ScaledChiSquare:
    """Generator stand-in whose chi-squared draws are off by a factor."""

    def __init__(self, factor, seed=0):
        self.factor = factor
        self.rng = np.random.default_rng(seed)

    def chisquare(self, df, size):
        return self.factor * self.rng.chisquare(df, size)


def test_chi2_check_flags_shifted_distribution():
    # a 1.1 scale shifts E[log2] by log2(1.1) = 0.14, about 23 standard errors
    rep = chi2_log_expectation_check(ScaledChiSquare(1.1))
    assert rep.slack[0] == pytest.approx(np.log2(1.1), abs=0.03)
    assert rep.satisfied.tolist() == [False] and rep.violated == 1
    assert chi2_log_expectation_check(ScaledChiSquare(1.0)).satisfied.tolist() == [True]


# ------------------------------------------------------------------ harmonic


def test_harmonic_identity_matrix_is_tight():
    h = np.array([1.0 + 1j, 2.0, -1j])
    rep = harmonic_mean_bound_check(h, np.eye(3))
    assert len(rep) == 1
    assert abs(rep.slack[0]) < 1e-12 and rep.violated == 0


def test_harmonic_eigenvector_is_tight():
    M = np.diag([4.0, 1.0, 0.25])
    h = np.array([0.0, 3.0, 0.0])
    rep = harmonic_mean_bound_check(h, M)
    assert abs(rep.slack[0]) < 1e-12


def test_harmonic_random_trials():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = A @ A.conj().T + 0.1 * np.eye(n)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert harmonic_mean_bound_check(h, M).slack[0] >= -1e-12


# ------------------------------------------------------- ergodic closed forms


def unit_pathlosses(n_users):
    return PathlossSet(L_d=np.ones(n_users), L_r=np.ones(n_users), L_G=1.0)


def test_random_phase_forms_reduce_for_unit_gains():
    cfg = ScenarioConfig(n_bs=8, n_strong=1, n_ris=32)
    lin_upper, _ = random_phase_closed_forms(cfg, unit_pathlosses(2), 50.0)
    assert lin_upper == pytest.approx(np.log2(8 * 50.0), rel=1e-12)


def test_random_phase_lin_upper_ignores_n_ris():
    pl = unit_pathlosses(4)
    a = random_phase_closed_forms(ScenarioConfig(n_ris=16), pl, 10.0)[0]
    b = random_phase_closed_forms(ScenarioConfig(n_ris=256), pl, 10.0)[0]
    assert a == b


def test_dpc_doubling_slopes():
    pl = unit_pathlosses(4)
    r1 = random_phase_closed_forms(ScenarioConfig(n_ris=32), pl, 10.0)[1]
    r2 = random_phase_closed_forms(ScenarioConfig(n_ris=64), pl, 10.0)[1]
    assert r2 - r1 == pytest.approx(1.0, abs=1e-12)
    a1 = aligned_phase_closed_forms(ScenarioConfig(n_ris=32), pl, 10.0)[1]
    a2 = aligned_phase_closed_forms(ScenarioConfig(n_ris=64), pl, 10.0)[1]
    assert a2 - a1 == pytest.approx(2.0, abs=1e-12)


def test_reflected_upper_bound_theta_invariant_denominator():
    # i.i.d. covariances make theta^H R_c theta the same for every
    # unit-modulus theta, so swapping theta only moves the numerator
    cfg = ScenarioConfig(n_bs=6, n_ris=8)
    pos = draw_user_positions(cfg, position_rng(0))
    pl = nominal_pathlosses(cfg, pos)
    a = steering_vector(8, np.pi / 2, "sqrt_n")
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((50, 8)) + 1j * rng.standard_normal((50, 8))
    t1 = random_phases(8, np.random.default_rng(4))
    t2 = random_phases(8, np.random.default_rng(5))
    b1 = reflected_rate_upper_bound(t1, rows, pl, 10.0)
    b2 = reflected_rate_upper_bound(t2, rows, pl, 10.0)
    g1 = np.mean(np.log2(np.abs(rows @ t1) ** 2))
    g2 = np.mean(np.log2(np.abs(rows @ t2) ** 2))
    assert b1 - b2 == pytest.approx(g1 - g2, abs=1e-9)
    # the per-user scalar form equals the dense-covariance formula
    for t, b in ((t1, b1), (t2, b2)):
        dense = dense_reflected_rate_upper_bound(t, rows, cfg.n_bs, a, pl, 10.0)
        assert b == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_reflected_upper_bound_holds_in_monte_carlo():
    # smoke-scale version of the ergodic bound check with random phases
    cfg = ScenarioConfig(n_bs=12, n_ris=16, freeze_positions=True)
    pos = draw_user_positions(cfg, position_rng(cfg.seed))
    pl = nominal_pathlosses(cfg, pos)
    reps = 500
    p_bar = cfg.p_bar()
    se_r = np.empty(reps)
    rows = np.empty((reps, cfg.n_ris), dtype=complex)
    thetas = np.empty((reps, cfg.n_ris), dtype=complex)
    for r in range(reps):
        ch_ss, ph_ss = rep_seeds(cfg.seed, r)
        real = sample_realization(cfg, np.random.default_rng(ch_ss), positions=pos)
        theta = random_phases(cfg.n_ris, np.random.default_rng(ph_ss))
        cache = decompose(real)
        _, _, se_r[r] = rates(rate_terms(cache, theta), p_bar, "ZF", "asymptotic")
        rows[r] = cache.h_c_weak
        thetas[r] = theta
    bound = reflected_rate_upper_bound(thetas, rows, pl, p_bar)
    a = steering_vector(cfg.n_ris, cfg.aoa, norm="sqrt_n")
    assert np.mean(se_r) <= bound
    dense = dense_reflected_rate_upper_bound(thetas, rows, cfg.n_bs, a, pl, p_bar)
    assert bound == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_standard_bound_reports_all_satisfied():
    reports = standard_bound_reports(seed=0, grid_points=100)
    assert isinstance(reports, BoundReport)
    assert len(reports) == 2 * 100 + 2
    assert reports.satisfied.all() and reports.violated == 0
    assert reports.name.tolist() == (
        ["e1_product_bound"] * 100 + ["e1_bound_comparison"] * 100
        + ["gap_maximum_location", "chi2_log_expectation"]
    )
    grid = default_log_grid(100).tolist()
    assert reports.setting[:200].tolist() == grid + grid
