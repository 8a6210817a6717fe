import ast
import warnings
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import risbc.bounds
import risbc.linalg
import risbc.phases
import risbc.se
import risbc.sweep
import oracles
from oracles import (
    b_from_xi,
    b_proj_perp,
    compose_channel,
    mitigation_no_reflection,
    projected_gram,
    se_dpc_logdet,
    se_dpc_orthogonal_form,
    se_zf_generic,
)
from oracles import rep_seeds
from risbc.channel import (
    ScenarioConfig,
    draw_block,
    realize_block,
    sample_realization,
    stream_states,
)
from risbc.linalg import eigh_descending, herm, matvec
from risbc.se import (
    DecompositionCache,
    decompose,
    delta_se,
    rate_terms,
    rates,
    row_space_feed,
)


def small_cfg(n_bs=6, n_ris=8, n_strong=3, **kw):
    return ScenarioConfig(n_bs=n_bs, n_ris=n_ris, n_strong=n_strong, **kw)


def random_instance(seed, n_bs=6, n_ris=8, n_strong=3, **kw):
    cfg = small_cfg(n_bs, n_ris, n_strong, **kw)
    ch_ss, ph_ss = rep_seeds(seed, 0)
    real = sample_realization(cfg, np.random.default_rng(ch_ss))
    theta = np.exp(1j * np.random.default_rng(ph_ss).uniform(0, 2 * np.pi, cfg.n_ris))
    return cfg, real, theta


def synthetic_cache(C_s, D):
    """The cache of C_s and D = [H_c, (c; 0)], whose weak row is
    [h_c,K+1^H, 0]."""
    w, U = eigh_descending(C_s)
    return DecompositionCache(H_c=D[:, :-1], c=D[:-1, -1], eigvals=w, eigvecs=U)


def cached_gram(cache):
    """C_s rebuilt from the cache's factor, U diag(lambda) U^H."""
    return (cache.eigvecs * cache.eigvals[..., None, :]) @ herm(cache.eigvecs)


def composite_factor(cache, theta):
    """D theta_bar: the strong rows D_s, then the weak user's row
    [h_c,K+1, 0], both from the cache."""
    return np.append(cache.D_s @ np.append(theta, 1.0), cache.h_c_weak @ theta)


# ------------------------------------------------------------------ phases


def test_cross_terms_append_one_to_theta():
    _, real, theta = random_instance(0)
    cache = decompose(real)
    u = cache.D_s[:, :-1] @ theta + cache.D_s[:, -1]
    want = np.abs(cache.eigvecs.conj().T @ u) ** 2
    assert np.allclose(rate_terms(cache, theta).cross, want, rtol=1e-12, atol=0.0)


def test_rate_terms_equal_the_extended_phase_product():
    # the one product H_c theta plus the feed against D_s theta_bar, on a
    # stack of draws and on one draw of 256 elements
    cfg = small_cfg()
    stack = decompose(realize_block(cfg, *draw_block(cfg, stream_states(6, range(40)))[1:]))
    theta = np.exp(2j * np.pi * np.random.default_rng(6).random((40, cfg.n_ris)))
    _, real, one_theta = random_instance(7, n_bs=12, n_ris=256)
    for cache, phases in ((stack, theta), (decompose(real), one_theta)):
        terms = rate_terms(cache, phases)
        g, cross = oracles.extended_rate_terms(cache, phases)
        assert terms.g.shape == g.shape and terms.cross.shape == cross.shape
        assert np.allclose(terms.g, g, rtol=1e-12, atol=0.0)
        assert np.allclose(terms.cross, cross, rtol=1e-12, atol=0.0)


def test_rate_terms_reject_non_unit():
    _, real, _ = random_instance(1, n_ris=2)
    with pytest.raises(ValueError, match="unit modulus"):
        rate_terms(decompose(real), np.array([1.0, 0.5]))


def test_theta_of_the_wrong_shape_is_named():
    # a theta one element short or long, or with a batch axis the cache
    # lacks, fails at the boundary with both shapes, not inside numpy
    _, real, theta = random_instance(3)
    cache = decompose(real)
    cfg = small_cfg()
    stack = decompose(realize_block(cfg, *draw_block(cfg, stream_states(3, range(2)))[1:]))
    cases = (
        (cache, theta[:-1], r"theta has shape \(7,\), but the cache needs \(8,\)"),
        (cache, np.append(theta, 1.0), r"shape \(9,\), but the cache needs \(8,\)"),
        (cache, theta[None, :], r"shape \(1, 8\), but the cache needs \(8,\)"),
        (stack, theta, r"shape \(8,\), but the cache needs \(2, 8\)"),
    )
    for c, t, message in cases:
        with pytest.raises(ValueError, match=message):
            rate_terms(c, t)
        with pytest.raises(ValueError, match=message):
            risbc.phases.optimize_mitigation_aware(c, t)


def test_rates_reject_bad_powers():
    _, real, theta = random_instance(4)
    terms = rate_terms(decompose(real), theta)
    for p_bar, message in (
        (-1.0, "p_bar must be non-negative, got -1.0"),
        (np.nan, "p_bar must be non-negative, got nan"),
        (np.array([1.0, -2.0, np.nan]), "non-negative, got -2.0"),
        (np.ones((2, 2)), r"p_bar must be a float or 1-D, got shape \(2, 2\)"),
    ):
        for precoder, mode in product(("ZF", "DPC"), ("exact", "asymptotic")):
            with pytest.raises(ValueError, match=message):
                rates(terms, p_bar, precoder, mode)
    # zero and infinite powers stay valid inputs
    assert rates(terms, 0.0, "DPC", "exact")[0] == 0.0
    assert rates(terms, np.inf, "ZF", "exact")[0] == np.inf


def test_theta_is_checked_once_per_call(monkeypatch):
    # each public call that takes phases checks theta (finite, unit
    # modulus) exactly once
    _, real, theta = random_instance(2)
    cache = decompose(real)
    check = risbc.se.unit_phases
    calls = []

    def spy(t):
        calls.append(t)
        return check(t)

    monkeypatch.setattr(risbc.se, "unit_phases", spy)
    for run in (
        lambda: rate_terms(cache, theta),
        lambda: risbc.phases.optimize_mitigation_aware(cache, theta),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


# ------------------------------------------------------------------ decompose


def test_decompose_gram_reconstruction():
    for seed in range(20):
        _, real, theta = random_instance(seed)
        cache = decompose(real)
        H = compose_channel(real, theta)
        gram = H @ H.conj().T
        v = composite_factor(cache, theta)
        K = cache.eigvals.shape[0]
        rebuilt = np.outer(v, v.conj())
        rebuilt[:K, :K] += cached_gram(cache)
        rel = np.linalg.norm(rebuilt - gram) / np.linalg.norm(gram)
        assert rel < 1e-10


def test_decompose_orthogonal_b_drops_projector():
    # place b in the null space of the strong users' rows
    _, real, _ = random_instance(3)
    _, _, Vh = np.linalg.svd(real.H_d_strong, full_matrices=True)
    real.b = Vh[-1].conj()
    cache = decompose(real)
    full = real.H_d_strong @ real.H_d_strong.conj().T
    assert np.linalg.norm(cached_gram(cache) - full) / np.linalg.norm(full) < 1e-10
    assert b_proj_perp(cache) == pytest.approx(1.0, abs=1e-10)


def test_decompose_matches_dense_projector_oracle():
    for seed in range(20):
        _, real, _ = random_instance(seed, n_bs=8 + seed % 5)
        cache = decompose(real)
        oracle = projected_gram(real.H_d_strong, real.b)
        rebuilt = cached_gram(cache)
        assert np.linalg.norm(rebuilt - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("stacked", [False, True])
def test_decompose_shares_no_memory_with_the_channels_or_variates(stacked):
    # the cache owns the cascade H_c and the feed: a view of H_d or the
    # variates would keep those stacks alive with the cache
    cfg = small_cfg()
    variates = []
    if stacked:
        _, pl, x = draw_block(cfg, stream_states(2, range(5)))
        real = realize_block(cfg, pl, x)
        variates.append(x)
    else:
        real = sample_realization(cfg, np.random.default_rng(2))
    cache = decompose(real)
    assert np.array_equal(cache.h_c_weak, real.H_c[..., -1, :])
    assert np.array_equal(cache.c, matvec(real.H_d_strong, real.b))
    fields = (cache.H_c, cache.c, cache.eigvals, cache.eigvecs)
    for field, source in product(fields, (real.H_d_strong, *variates)):
        assert not np.shares_memory(field, source)


def test_cond_of_an_exactly_singular_c_s_is_inf_without_a_warning():
    # the sweep flags a draw by cond() > COND_FLAG: a zero smallest
    # eigenvalue reads inf, in a stack and for one draw, with no warning
    eigvals = np.array([[3.0, 2.0, 0.0], [3.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
    stack = DecompositionCache(
        H_c=np.zeros((3, 4, 4), complex),
        c=np.zeros((3, 3), complex),
        eigvals=eigvals,
        eigvecs=np.broadcast_to(np.eye(3), (3, 3, 3)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(stack.cond(), [np.inf, 3.0, np.inf])
        assert stack[0].cond() == np.inf


def test_cache_mask_selects_the_weak_rows():
    cfg = small_cfg()
    cache = decompose(realize_block(cfg, *draw_block(cfg, stream_states(3, range(6)))[1:]))
    mask = np.array([True, False, True, True, False, True])
    for index in (mask, 2, slice(1, 4)):
        picked = cache[index]
        assert np.array_equal(picked.h_c_weak, cache.h_c_weak[index])
        assert np.array_equal(picked.D_s, cache.D_s[index])


def test_cache_index_and_cascade_carry_the_factor_terms_bit_for_bit():
    # inv_diag and U^H are formed once, when a cache is built from its
    # factor; an indexed cache and one with another cascade carry them, and
    # they equal the terms a cache built from the same arrays forms anew
    cfg = small_cfg()
    _, pathlosses, x = draw_block(cfg, stream_states(3, range(6)))
    cache = decompose(realize_block(cfg, pathlosses, x))
    other = realize_block(cfg.with_updates(n_ris=5), pathlosses, x).H_c
    mask = np.array([True, False, True, True, False, True])
    for picked in (cache, cache[mask], cache[2], cache[1:4], cache.with_cascade(other)):
        fresh = DecompositionCache(picked.H_c, picked.c, picked.eigvals, picked.eigvecs)
        assert picked.inv_diag.tobytes() == fresh.inv_diag.tobytes()
        assert picked.eigvecs_h.tobytes() == fresh.eigvecs_h.tobytes()
        assert np.array_equal(picked.eigvecs_h, picked.eigvecs.conj().swapaxes(-1, -2))
    assert cache.with_cascade(other).inv_diag is cache.inv_diag


def test_decompose_rejects_unnormalized_b():
    _, real, _ = random_instance(2)
    with pytest.raises(ValueError, match="unnormalized"):
        decompose(replace(real, b=2.0 * real.b))


@pytest.mark.parametrize("n_bs", [4, 12])
@pytest.mark.parametrize("xi", [0.01, 0.1, 1.0, 10.0, 1e3])
def test_decompose_b_proj_perp_follows_xi(n_bs, xi):
    # b(xi) is built so that b^H P_perp b = xi^2 / (1 + xi^2)
    expect = xi**2 / (1.0 + xi**2)
    for seed in range(10):
        cfg = ScenarioConfig(n_bs=n_bs)
        real = sample_realization(cfg, np.random.default_rng(rep_seeds(seed, 0)[0]))
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
        bpp = b_proj_perp(decompose(real))
        assert abs(bpp - expect) <= 1e-10 * expect


def test_scaled_row_space_feed_matches_the_b_construction():
    # b(xi) differs from b(0) by a null-space direction of H_d^s, so its
    # feed H_d^s b(xi) is c(0) / sqrt(1 + xi^2): on a stack of draws, at xi
    # from 1e-2 to 1e3
    for n_bs in (4, 12):
        cfg = ScenarioConfig(n_bs=n_bs)
        real = realize_block(cfg, *draw_block(cfg, stream_states(5, range(40)))[1:])
        H = real.H_d_strong
        c0 = row_space_feed(H)
        assert c0.shape == H.shape[:-1]
        for xi in np.logspace(-2.0, 3.0, 11):
            want = matvec(H, b_from_xi(H, xi))
            err = np.linalg.norm(c0 / np.hypot(1.0, xi) - want, axis=-1)
            assert np.all(err <= 1e-10 * np.linalg.norm(want, axis=-1))


def test_decompose_no_ris_leaves_direct_column():
    _, real, theta = random_instance(4)
    real.H_c = np.zeros_like(real.H_c)
    cache = decompose(real)
    v = composite_factor(cache, theta)
    expect = np.append(real.H_d_strong @ real.b, 0.0)
    assert np.max(np.abs(v - expect)) < 1e-12


# ------------------------------------------------------------------ ZF


def zf_gains(terms):
    """The ZF inverted gains e_k^T (H H^H)^{-1} e_k a draw's terms hold:
    diag(C_s^{-1}), then (1 + mitigation) / g for the weak user."""
    return np.append(terms.inv_diag, (1.0 + terms.mitigation()) / terms.g)


def test_zf_gains_identity_channel():
    K = 3
    D = np.zeros((K + 1, 5), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0, 0, 0]
    cache = synthetic_cache(np.eye(K, dtype=complex), D)
    gains = zf_gains(rate_terms(cache, np.ones(4)))
    assert np.allclose(gains, 1.0, atol=1e-12)


def test_zf_gains_match_generic_inverse():
    for seed in range(30):
        _, real, theta = random_instance(seed, n_bs=8, n_ris=16)
        cache = decompose(real)
        gains = zf_gains(rate_terms(cache, theta))
        H = compose_channel(real, theta)
        direct = np.real(np.diag(np.linalg.inv(H @ H.conj().T)))
        assert np.max(np.abs(gains - direct) / direct) < 1e-10


def test_zf_gains_weak_unreachable():
    _, real, _ = random_instance(5)
    cache = decompose(real)
    H_c = cache.H_c.copy()
    H_c[-1] = 0.0
    terms = rate_terms(replace(cache, H_c=H_c), np.ones(8))
    for mode in ("exact", "asymptotic"):
        with pytest.raises(ValueError, match="unreachable"):
            rates(terms, 1.0, "ZF", mode)


def test_se_zf_zero_power():
    _, real, theta = random_instance(6)
    cache = decompose(real)
    total, _, _ = rates(rate_terms(cache, theta), 0.0, "ZF", "exact")
    assert total == 0.0


def test_se_zf_decoupled_users():
    K = 2
    D = np.zeros((K + 1, 4), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0, 0]
    cache = synthetic_cache(np.eye(K, dtype=complex), D)
    total, _, _ = rates(rate_terms(cache, np.ones(3)), 5.0, "ZF", "exact")
    assert total == pytest.approx((K + 1) * np.log2(6.0), abs=1e-12)


def test_se_zf_matches_generic_form():
    for seed in range(20):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        total, _, _ = rates(rate_terms(cache, theta), cfg.p_bar(), "ZF", "exact")
        oracle = se_zf_generic(compose_channel(real, theta), cfg.p_bar())
        assert abs(total - oracle) < 1e-10 * max(1.0, abs(oracle))


# ------------------------------------------------------------------ DPC


def test_se_dpc_matches_logdet():
    for seed in range(30):
        cfg, real, theta = random_instance(seed, n_bs=8, n_ris=16)
        cache = decompose(real)
        total, _, _ = rates(rate_terms(cache, theta), cfg.p_bar(), "DPC", "exact")
        oracle = se_dpc_logdet(compose_channel(real, theta), cfg.p_bar())
        assert abs(total - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_se_dpc_zero_power():
    _, real, theta = random_instance(7)
    cache = decompose(real)
    assert rates(rate_terms(cache, theta), 0.0, "DPC", "exact")[0] == 0.0


def test_se_dpc_vanishing_cross_terms():
    K = 2
    D = np.zeros((K + 1, 4), dtype=complex)
    D[-1, 0] = 2.0  # h_c_weak = [2, 0, 0]
    cache = synthetic_cache(np.diag(np.array([3.0, 2.0], dtype=complex)), D)
    _, direct, reflect = rates(rate_terms(cache, np.ones(3)), 4.0, "DPC", "exact")
    assert reflect == pytest.approx(np.log2(1.0 + 4.0 * 4.0), abs=1e-12)
    assert direct == pytest.approx(np.log2(13.0) + np.log2(9.0), abs=1e-12)


def test_dpc_dominates_zf():
    for seed in range(50):
        cfg, real, theta = random_instance(seed)
        terms = rate_terms(decompose(real), theta)
        for p_bar in (0.1, 10.0, cfg.p_bar()):
            zf, _, _ = rates(terms, p_bar, "ZF", "exact")
            dpc, _, _ = rates(terms, p_bar, "DPC", "exact")
            assert dpc >= zf - 1e-9


# ------------------------------------------------------------------ asymptotic


def test_asymptotic_diagonal_equality():
    K = 2
    D = np.zeros((K + 1, 3), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0]
    terms = rate_terms(synthetic_cache(np.eye(K, dtype=complex), D), np.ones(2))
    p_bar = 100.0
    for precoder in ("ZF", "DPC"):
        _, direct, _ = rates(terms, p_bar, precoder, "asymptotic")
        assert direct == pytest.approx(K * np.log2(p_bar), abs=1e-12)


def test_asymptotic_split_is_additive():
    cfg, real, theta = random_instance(8)
    terms = rate_terms(decompose(real), theta)
    for method in ("ZF", "DPC"):
        total, direct, reflect = rates(terms, cfg.p_bar(), method, "asymptotic")
        assert total == pytest.approx(direct + reflect, abs=1e-12)


def test_exact_converges_to_asymptotic():
    _, real, theta = random_instance(9)
    terms = rate_terms(decompose(real), theta)
    for method in ("ZF", "DPC"):
        gaps = []
        for p_bar in 10.0 ** np.arange(2, 9):
            e = rates(terms, p_bar, method, "exact")[0]
            a = rates(terms, p_bar, method, "asymptotic")[0]
            gaps.append(abs(e - a))
        assert all(g1 <= g0 for g0, g1 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01


def test_asymptotic_singular_dpc_flags_neg_inf():
    K = 2
    C_s = np.diag(np.array([1.0, 0.0], dtype=complex))
    D = np.zeros((K + 1, 3), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0]
    cache = synthetic_cache(C_s, D)
    total, direct, _ = rates(rate_terms(cache, np.ones(2)), 10.0, "DPC", "asymptotic")
    assert direct == -np.inf and total == -np.inf


def test_asymptotic_dpc_dominates_zf():
    for seed in range(50):
        cfg, real, theta = random_instance(seed)
        terms = rate_terms(decompose(real), theta)
        zf, _, _ = rates(terms, cfg.p_bar(), "ZF", "asymptotic")
        dpc, _, _ = rates(terms, cfg.p_bar(), "DPC", "asymptotic")
        assert dpc >= zf - 1e-9


@pytest.mark.parametrize("mode", ["Exact", "typo", "high_snr", ""])
def test_unknown_mode_rejected(mode):
    cfg, real, theta = random_instance(15)
    cache = decompose(real)
    for precoder in ("ZF", "DPC"):
        with pytest.raises(ValueError, match="unknown mode"):
            rates(rate_terms(cache, theta), cfg.p_bar(), precoder, mode)


@pytest.mark.parametrize("precoder", ["MRT", "zf", "dpc", ""])
def test_unknown_precoder_rejected(precoder):
    cfg, real, theta = random_instance(16)
    cache = decompose(real)
    with pytest.raises(ValueError, match="unknown precoder"):
        rates(rate_terms(cache, theta), cfg.p_bar(), precoder, "exact")


# ------------------------------------------- orthogonality-split DPC form


def test_orthogonal_form_matches_asymptotic():
    for seed in range(30):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        if b_proj_perp(cache) <= 1e-8:
            continue
        split = se_dpc_orthogonal_form(real, theta, cfg.p_bar())
        asym, _, _ = rates(rate_terms(cache, theta), cfg.p_bar(), "DPC", "asymptotic")
        assert abs(split - asym) < 1e-10 * max(1.0, abs(asym))


def test_orthogonal_form_null_space_b():
    cfg, real, theta = random_instance(11)
    _, _, Vh = np.linalg.svd(real.H_d_strong, full_matrices=True)
    real.b = Vh[-1].conj()
    real.H_c = real.H_c  # b does not enter the cascaded channels
    split = se_dpc_orthogonal_form(real, theta, cfg.p_bar())
    s = np.linalg.svd(real.H_d_strong, compute_uv=False)
    g = rate_terms(decompose(real), theta).g
    expect = (
        2 * np.sum(np.log2(s))
        + 3 * np.log2(cfg.p_bar())
        + np.log2(g * cfg.p_bar())
    )
    assert split == pytest.approx(expect, abs=1e-9)


def test_orthogonal_form_b_in_row_space():
    cfg, real, theta = random_instance(12)
    row = real.H_d_strong[0].conj()
    real.b = row / np.linalg.norm(row)
    assert se_dpc_orthogonal_form(real, theta, cfg.p_bar()) == -np.inf


# ------------------------------------------------------------------ gap terms


def test_delta_d_zero_for_diagonal():
    K = 3
    C_s = np.diag(np.array([4.0, 2.0, 0.5], dtype=complex))
    cache = synthetic_cache(C_s, np.zeros((K + 1, 5), dtype=complex))
    dd, dr = delta_se(rate_terms(cache, np.ones(4)))
    assert dd == pytest.approx(0.0, abs=1e-12)
    assert dr == 0.0


def test_delta_terms_nonnegative_and_sum_to_gap():
    for seed in range(50):
        cfg, real, theta = random_instance(seed)
        terms = rate_terms(decompose(real), theta)
        dd, dr = delta_se(terms)
        assert dd >= -1e-10
        assert dr >= 0.0
        zf, _, _ = rates(terms, cfg.p_bar(), "ZF", "asymptotic")
        dpc, _, _ = rates(terms, cfg.p_bar(), "DPC", "asymptotic")
        gap = dpc - zf
        assert abs((dd + dr) - gap) < 1e-10 * max(1.0, abs(gap))


def test_delta_se_of_a_stack_is_per_draw():
    cfg = small_cfg()
    real = realize_block(cfg, *draw_block(cfg, stream_states(4, range(4)))[1:])
    cache = decompose(real)
    theta = np.exp(1j * np.random.default_rng(4).uniform(0, 2 * np.pi, (4, cfg.n_ris)))
    dd, dr = delta_se(rate_terms(cache, theta))
    assert dd.shape == dr.shape == (4,)
    for i in range(4):
        dd_i, dr_i = delta_se(rate_terms(cache[i], theta[i]))
        assert abs(dd[i] - dd_i) <= 1e-12 * max(1.0, abs(dd_i))
        assert abs(dr[i] - dr_i) <= 1e-12 * max(1.0, abs(dr_i))


# ------------------------------------------------- no-reflection mitigation


def test_mitigation_no_reflection_orthogonal_b():
    _, real, _ = random_instance(13)
    _, _, Vh = np.linalg.svd(real.H_d_strong, full_matrices=True)
    b = Vh[-1].conj()
    assert mitigation_no_reflection(real.H_d_strong, b) == pytest.approx(1.0, abs=1e-10)


def test_mitigation_no_reflection_45_degrees():
    H = np.array([[1.0, 0.0]], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert mitigation_no_reflection(H, b) == pytest.approx(2.0, abs=1e-12)


def test_mitigation_no_reflection_matches_quadratic_form():
    # zero the strong users' cascaded rows; then for any theta the
    # mitigation quadratic form collapses to 1/(b^H P_perp b) - 1
    for seed in range(30):
        _, real, theta = random_instance(seed)
        real.H_c[:-1] = 0.0
        cache = decompose(real)
        lhs = 1.0 + rate_terms(cache, theta).mitigation()
        rhs = mitigation_no_reflection(real.H_d_strong, real.b)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_mitigation_no_reflection_b_in_row_space():
    _, real, _ = random_instance(14)
    row = real.H_d_strong[1].conj()
    b = row / np.linalg.norm(row)
    assert mitigation_no_reflection(real.H_d_strong, b) == np.inf


# ------------------------------------------------- one factorization of C_s

# The only place in se.py, phases.py, sweep.py, linalg.py and bounds.py
# allowed to factorize a matrix itself: the SVD behind the feed c(0) of the
# orthogonality construction.  Everything else, the batched sweep included,
# reads C_s^{-1} from the cache's eigh factor; the generic-matrix and SVD
# cross-checks live in tests/oracles.py.
FACTORIZATION_ALLOWED = {"row_space_feed"}
FACTORIZATIONS = {"inv", "solve", "slogdet", "svd"}


def _linalg_calls(tree):
    """(enclosing function, name) of every np.linalg factorization call."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend((owner, alias.name) for alias in node.names)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FACTORIZATIONS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ):
            found.append((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


@pytest.mark.parametrize(
    "module", [risbc.se, risbc.phases, risbc.sweep, risbc.linalg, risbc.bounds]
)
def test_no_factorization_outside_the_cache(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    calls = _linalg_calls(tree)
    offending = [c for c in calls if c[0] not in FACTORIZATION_ALLOWED]
    assert offending == []


def test_factorization_guard_sees_calls():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(C):\n    return np.linalg.inv(C)\n"
        "def g(C, x):\n    return cache.solve(x) + np.linalg.solve(C, x)\n"
    )
    assert _linalg_calls(tree) == [("f", "inv"), ("g", "solve")]
