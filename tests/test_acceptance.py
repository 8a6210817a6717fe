"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a [PASS]/[FAIL] line outside
pytest's capture so the verdicts are visible in any run, then asserts the
same condition.  Tolerances are part of the contract and are not to be
loosened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    b_proj_perp,
    compose_channel,
    mitigation_no_reflection,
    projected_gram,
    random_phases,
    se_dpc_logdet,
    se_dpc_orthogonal_form,
    se_zf_generic,
    weak_direct_row,
)
from risbc.bounds import (
    aligned_phase_closed_forms,
    bound_gap_structure,
    chi2_log_expectation_check,
    default_log_grid,
    e1_bound_comparison_check,
    e1_product_bound_check,
    random_phase_closed_forms,
)
from risbc.channel import (
    ScenarioConfig,
    db_to_lin,
    draw_block,
    draw_user_positions,
    nominal_pathlosses,
    position_rng,
    random_phase_block,
    realize_block,
    sample_realization,
    stream_states,
)
from risbc.linalg import eigh_descending
from risbc.phases import align_weak_user, optimize_mitigation_aware
from risbc.se import (
    DecompositionCache,
    decompose,
    decompose_feed,
    delta_se,
    rate_terms,
    rates,
    row_space_feed,
)
from risbc.sweep import MethodSpec, SweepPlan, run_sweep


def _report(capsys, num, ok, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


# dimension grid shared by the oracle-equivalence criteria
COMBOS = [
    (n_bs, k, n_ris)
    for n_bs in (4, 8, 12)
    for k in (1, 3)
    for n_ris in (4, 16, 64)
]


def instances(tag, count):
    for i in range(count):
        n_bs, k, n_ris = COMBOS[i % len(COMBOS)]
        cfg = ScenarioConfig(n_bs=n_bs, n_strong=k, n_ris=n_ris)
        rng = np.random.default_rng([tag, i])
        real = sample_realization(cfg, rng)
        theta = random_phases(cfg.n_ris, rng)
        yield cfg, real, theta


def objective(cache, theta):
    """The mitigation-aware objective f = g / (1 + mitigation) at theta."""
    terms = rate_terms(cache, theta)
    return terms.g / (1.0 + terms.mitigation())


def test_criterion_01_zf_gains_match_generic_inverse(capsys):
    start = time.perf_counter()
    worst = 0.0
    for cfg, real, theta in instances(9101, 500):
        # diag(C_s^{-1}), then the weak user's (1 + mitigation) / g
        terms = rate_terms(decompose(real), theta)
        gains = np.append(terms.inv_diag, (1.0 + terms.mitigation()) / terms.g)
        H = compose_channel(real, theta)
        direct = np.real(np.diag(np.linalg.inv(H @ H.conj().T)))
        worst = max(worst, float(np.max(np.abs(gains - direct) / direct)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        capsys, 1, ok,
        "ZF per-user gains: closed form vs generic Gram inverse over 500 "
        f"instances (max rel err {worst:.2e}, {elapsed:.1f} s)",
    )


def test_criterion_02_dpc_eigenform_matches_logdet(capsys):
    worst = 0.0
    for cfg, real, theta in instances(9102, 500):
        p_bar = cfg.p_bar()
        closed, _, _ = rates(rate_terms(decompose(real), theta), p_bar, "DPC", "exact")
        generic = se_dpc_logdet(compose_channel(real, theta), p_bar)
        worst = max(worst, abs(closed - generic) / abs(generic))
    ok = worst <= 1e-10
    _report(
        capsys, 2, ok,
        "DPC sum SE: eigenvalue form vs log-det over 500 instances "
        f"(max rel err {worst:.2e})",
    )


def test_criterion_03_dpc_projection_split_identity(capsys):
    worst = 0.0
    used = 0
    for cfg, real, theta in instances(9103, 200):
        cache = decompose(real)
        if b_proj_perp(cache) <= 1e-8:
            continue
        used += 1
        p_bar = cfg.p_bar()
        split = se_dpc_orthogonal_form(real, theta, p_bar)
        gram, _, _ = rates(rate_terms(cache, theta), p_bar, "DPC", "asymptotic")
        worst = max(worst, abs(split - gram) / abs(gram))
    ok = worst <= 1e-10 and used >= 100
    _report(
        capsys, 3, ok,
        "high-SNR DPC: projection-split form vs Gram form on "
        f"{used} instances (max rel err {worst:.2e})",
    )


def test_criterion_04_exact_converges_to_asymptotic(capsys):
    cfg = ScenarioConfig()
    real = sample_realization(cfg, np.random.default_rng([9104, 0]))
    cache = decompose(real)
    assert cache.cond() < 1e6  # well-conditioned draw
    terms = rate_terms(cache, align_weak_user(cache.h_c_weak))
    p_40dbm = db_to_lin(40.0) / cfg.n_users

    gaps = {"ZF": [], "DPC": []}
    for decade in range(5):
        p_bar = p_40dbm * 10.0**decade
        for method in gaps:
            exact = rates(terms, p_bar, method, "exact")[0]
            asym = rates(terms, p_bar, method, "asymptotic")[0]
            gaps[method].append(abs(exact - asym))
    ok = all(
        g[0] < 0.1 and all(b < a for a, b in zip(g, g[1:])) for g in gaps.values()
    )
    _report(
        capsys, 4, ok,
        "exact SE meets the high-SNR expressions at 40 dBm and the gap "
        f"shrinks over 4 decades (ZF {gaps['ZF'][0]:.3f}, "
        f"DPC {gaps['DPC'][0]:.3f} bpcu)",
    )


def test_criterion_05_exponential_integral_bound(capsys):
    grid = default_log_grid(1000)
    slacks = e1_product_bound_check(grid).slack
    tighter = e1_bound_comparison_check(grid).slack
    gs = bound_gap_structure()
    ok = (
        np.all(slacks > 0.0)
        and np.all(tighter > 0.0)
        and gs.unimodal
        and gs.inside_bracket
        and gs.x_max < 0.71903 + 1e-3
    )
    _report(
        capsys, 5, ok,
        "E1 product bound: positive slack on the 1000-point grid, tighter "
        f"than the log form, unique gap maximum at x = {gs.x_max:.6f}",
    )


def test_criterion_06_no_reflection_mitigation_identity(capsys):
    worst = 0.0
    for cfg, real, theta in instances(9106, 100):
        muted = real.H_c.copy()
        muted[: cfg.n_strong] = 0.0
        cache = decompose(replace(real, H_c=muted))
        lhs = 1.0 + rate_terms(cache, theta).mitigation()
        rhs = mitigation_no_reflection(real.H_d_strong, real.b)
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-10
    _report(
        capsys, 6, ok,
        "no-usable-reflection identity 1 + mitigation = 1/(b^H P_perp b) "
        f"over 100 instances (max rel err {worst:.2e})",
    )


# ------------------------------------------------------------- saturation


@pytest.fixture(scope="module")
def saturation():
    """One paired 10^4-rep element-count sweep shared by criteria 7 and 8.

    Direct links carry 20 dB extra loss so the weak user's ZF mitigation
    dominates at every swept N_R; positions are frozen so the ergodic
    closed forms see the same pathlosses as the Monte Carlo runs.
    """
    cfg = ScenarioConfig(
        ptx_dbm=40.0, direct_extra_loss_db=20.0, freeze_positions=True
    )
    methods = tuple(
        MethodSpec(p, k, "asymptotic")
        for p in ("ZF", "DPC")
        for k in ("random", "align_weak")
    )
    plan = SweepPlan(cfg, "n_ris", (16.0, 64.0, 256.0), methods, reps=10_000)
    start = time.perf_counter()
    result = run_sweep(plan)
    elapsed = time.perf_counter() - start
    pl = nominal_pathlosses(cfg, draw_user_positions(cfg, position_rng(cfg.seed)))
    return result, elapsed, cfg, pl


def _reflected_means(result, precoder, strategy):
    return np.array(
        [
            r.se_r_mean
            for r in result.rows
            if r.precoder == precoder and r.strategy == strategy
        ]
    )


def test_criterion_07_random_phase_saturation_and_scaling(saturation, capsys):
    result, elapsed, cfg, pl = saturation
    p_bar = cfg.p_bar()
    n_ris = np.array([16, 64, 256])
    zf = _reflected_means(result, "ZF", "random")
    dpc = _reflected_means(result, "DPC", "random")
    forms = [
        random_phase_closed_forms(cfg.with_updates(n_ris=int(n)), pl, p_bar)
        for n in n_ris
    ]
    lin_upper = np.array([f[0] for f in forms])
    dpc_form = np.array([f[1] for f in forms])

    spread = float(np.ptp(zf))
    dpc_dev = float(np.max(np.abs(dpc - dpc_form)))
    per_doubling = np.diff(dpc) / 2.0  # grid steps are two doublings
    ok = (
        spread < 0.5
        and np.all(zf <= lin_upper)
        and dpc_dev <= 0.1
        and np.all(np.abs(per_doubling - 1.0) <= 0.15)
        and elapsed < 120.0
    )
    _report(
        capsys, 7, ok,
        "random phases, 10^4 paired reps: weak ZF rate saturates "
        f"(spread {spread:.2f} bpcu, under its bound) while weak DPC rate "
        f"matches the closed form (dev {dpc_dev:.3f} bpcu, "
        f"{per_doubling[0]:+.2f}/{per_doubling[1]:+.2f} per doubling, "
        f"{elapsed:.0f} s)",
    )


def test_criterion_08_aligned_phase_scaling(saturation, capsys):
    result, _, cfg, pl = saturation
    p_bar = cfg.p_bar()
    n_ris = np.array([16, 64, 256])
    zf = _reflected_means(result, "ZF", "align_weak")
    dpc = _reflected_means(result, "DPC", "align_weak")
    forms = [
        aligned_phase_closed_forms(cfg.with_updates(n_ris=int(n)), pl, p_bar)
        for n in n_ris
    ]
    lin_upper = np.array([f[0] for f in forms])
    dpc_lower = np.array([f[1] for f in forms])

    slope = float(np.polyfit(np.log2(n_ris), dpc, 1)[0])
    ok = (
        np.all(dpc >= dpc_lower)
        and 1.8 <= slope <= 2.2
        and np.all(zf <= lin_upper)
    )
    _report(
        capsys, 8, ok,
        "aligned phases: weak DPC rate above its N_R^2 lower bound with "
        f"slope {slope:.2f} per element doubling; weak ZF rate under its "
        "bound",
    )


def test_criterion_09_orthogonality_power_split_offset(capsys):
    # on every draw, the strong users' high-SNR DPC rate alone (power split
    # K ways) exceeds their part of the shared system's at orthogonality xi
    # (split K+1 ways) by K log2(p_strong / p_bar) + log2(1 + xi^-2): the
    # matrix determinant lemma gives det C_s = det(H H^H) (1 - 1 / (1 + xi^2))
    # at the feed c(0) / sqrt(1 + xi^2).  "Alone" is a generic log det.
    worst = 0.0
    draws = 1000
    for K, n_bs, xi in ((3, 4, 1e3), (1, 4, 1e6), (3, 4, 1.0), (2, 6, 0.1), (3, 12, 3.0)):
        cfg = ScenarioConfig(n_bs=n_bs, n_strong=K, n_ris=8, ptx_dbm=40.0)
        streams = stream_states(cfg.seed, range(draws))
        real = realize_block(cfg, *draw_block(cfg, streams))
        H = real.H_d_strong
        p_strong, p_bar = db_to_lin(cfg.ptx_dbm) / K, cfg.p_bar()
        alone = np.linalg.slogdet(H @ H.conj().swapaxes(-1, -2))[1] / np.log(2.0)
        alone += K * np.log2(p_strong)
        cache = decompose_feed(H, real.H_c, row_space_feed(H) / np.hypot(1.0, xi))
        theta = random_phase_block(streams, cfg.n_ris)
        _, shared, _ = rates(rate_terms(cache, theta), p_bar, "DPC", "asymptotic")
        want = K * np.log2(p_strong / p_bar) + np.log2(1.0 + xi**-2.0)
        worst = max(worst, float(np.max(np.abs(alone - shared - want))))
    _report(
        capsys, 9, worst <= 1e-10,
        "BS-RIS direction at orthogonality xi: per-draw direct-rate offset "
        f"K log2((K+1)/K) + log2(1 + xi^-2) on 5 x {draws} draws, worst error "
        f"{worst:.2e} bpcu",
    )


def test_criterion_10_gap_decomposition(capsys):
    worst_gap = 0.0
    min_delta = np.inf
    for cfg, real, theta in instances(9110, 100):
        terms = rate_terms(decompose(real), theta)
        d_d, d_r = delta_se(terms)
        min_delta = min(min_delta, d_d, d_r)
        p_bar = cfg.p_bar()
        gap = (
            rates(terms, p_bar, "DPC", "asymptotic")[0]
            - rates(terms, p_bar, "ZF", "asymptotic")[0]
        )
        worst_gap = max(
            worst_gap, abs(d_d + d_r - gap) / max(1.0, abs(gap))
        )

    # diagonal projected Gram: the direct part of the gap vanishes
    rng = np.random.default_rng([9110, 1000])
    C_s = np.diag([2.0, 0.5, 1.0]).astype(complex)
    D = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    w, U = eigh_descending(C_s)
    cache = DecompositionCache(H_c=D[:, :-1], c=D[:-1, -1], eigvals=w, eigvecs=U)
    d_diag, _ = delta_se(rate_terms(cache, np.exp(1j * rng.uniform(0, 2 * np.pi, 4))))

    ok = min_delta >= -1e-12 and worst_gap <= 1e-10 and abs(d_diag) <= 1e-12
    _report(
        capsys, 10, ok,
        "DPC-ZF high-SNR gap = delta_d + delta_r, both nonnegative, "
        f"delta_d = 0 for diagonal Gram (max rel err {worst_gap:.2e})",
    )


def test_criterion_11_optimizer_monotone_and_grid_optimal(capsys):
    start = time.perf_counter()
    worst_rel = 0.0
    for i in range(1000):
        cfg = ScenarioConfig(
            n_bs=4, n_strong=1 + i % 3, n_ris=(2, 4, 8)[(i // 3) % 3]
        )
        real = sample_realization(cfg, np.random.default_rng([9111, i]))
        cache = decompose(real)
        init = align_weak_user(cache.h_c_weak)
        f_init = objective(cache, init)
        theta = optimize_mitigation_aware(cache, init)
        f_opt = objective(cache, theta)
        worst_rel = min(worst_rel, (f_opt - f_init) / f_init)

    grid = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    e1 = np.exp(1j * grid)
    worst_toy = 0.0
    for seed in range(3):
        cfg = ScenarioConfig(n_bs=3, n_strong=1, n_ris=2)
        real = sample_realization(cfg, np.random.default_rng([9112, seed]))
        cache = decompose(real)
        h_c_weak = cache.h_c_weak
        theta = optimize_mitigation_aware(cache, align_weak_user(h_c_weak))
        f_opt = objective(cache, theta)
        C_s = projected_gram(real.H_d_strong, real.b)
        best = 0.0
        for t1 in e1:
            cand = np.stack([np.full(720, t1), e1])
            g = np.abs(h_c_weak @ cand) ** 2
            t = cache.D_s @ np.vstack([cand, np.ones(720)])
            mit = np.real(np.sum(t.conj() * np.linalg.solve(C_s, t), axis=0))
            best = max(best, float(np.max(g / (1.0 + mit))))
        worst_toy = max(worst_toy, np.log2(best) - np.log2(f_opt))
    elapsed = time.perf_counter() - start
    ok = worst_rel >= -1e-12 and worst_toy <= 0.01
    _report(
        capsys, 11, ok,
        "mitigation-aware optimizer: never below its start over 1000 "
        f"instances (worst rel step {worst_rel:.1e}), within "
        f"{worst_toy:.4f} bpcu of the dense-grid optimum on toys "
        f"({elapsed:.0f} s)",
    )


def test_criterion_12_chi_squared_log_identity(capsys):
    check = chi2_log_expectation_check(np.random.default_rng([9112, 0]), reps=100_000)
    ok = check.violated == 0 and abs(check.slack[0]) <= 0.01
    _report(
        capsys, 12, ok,
        f"E[log2 chi2(2)] = {check.lhs[0]:.4f} vs log2(2 e^-gamma) = "
        f"{check.rhs[0]:.4f} at 10^5 samples",
    )


def test_supplementary_attenuated_weak_row_is_negligible(capsys):
    # the idealized closed forms treat the weak user's direct row as zero;
    # had that link 60 dB of extra loss, the generic evaluation of the
    # attenuated channel (its row rebuilt from the pathloss model and the
    # normals of the same draw) must agree at the highest swept power
    worst = 0.0
    for i in range(20):
        cfg = ScenarioConfig(ptx_dbm=40.0)
        real = sample_realization(cfg, np.random.default_rng([9500, i]))
        weak = weak_direct_row(cfg, np.random.default_rng([9500, i]), 60.0)
        cache = decompose(real)
        theta = align_weak_user(cache.h_c_weak)
        terms = rate_terms(cache, theta)
        p_bar = cfg.p_bar()
        H_att = compose_channel(real, theta, weak)
        worst = max(
            worst,
            abs(se_zf_generic(H_att, p_bar) - rates(terms, p_bar, "ZF", "exact")[0]),
            abs(se_dpc_logdet(H_att, p_bar) - rates(terms, p_bar, "DPC", "exact")[0]),
        )
    ok = worst < 0.05
    _report(
        capsys, 0, ok,
        "supplementary: attenuated vs idealized weak direct row differs by "
        f"at most {worst:.2e} bpcu at 40 dBm",
    )
