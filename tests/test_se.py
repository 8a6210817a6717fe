import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import risbc.bounds
import risbc.linalg
import risbc.phases
import risbc.se
import risbc.sweep
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
from risbc.channel import (
    ScenarioConfig,
    draw_block,
    realize_block,
    rep_seeds,
    sample_realization,
)
from risbc.linalg import eigh_descending, herm, matvec
from risbc.se import (
    DecompositionCache,
    decompose,
    delta_se,
    dpc_cross_terms,
    dpc_sum_se,
    mitigation_term,
    row_space_feed,
    sum_se,
    weak_gain,
    zf_inverted_gains,
    zf_sum_se,
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
    """The cache of C_s and D, whose weak row is [h_c,K+1^H, 0]."""
    w, U = eigh_descending(C_s)
    return DecompositionCache(D_s=D[:-1], eigvals=w, eigvecs=U, h_c_weak=D[-1, :-1])


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
    assert np.allclose(dpc_cross_terms(cache, theta), want, rtol=1e-12, atol=0.0)


def test_sum_se_rejects_non_unit():
    _, real, _ = random_instance(1, n_ris=2)
    for precoder in ("ZF", "DPC"):
        with pytest.raises(ValueError, match="unit modulus"):
            sum_se(decompose(real), np.array([1.0, 0.5]), 1.0, precoder, "exact")


def test_theta_is_checked_once_per_call(monkeypatch):
    # each public rate call builds (and checks) theta_bar exactly once
    _, real, theta = random_instance(2)
    cache = decompose(real)
    check = risbc.se._theta_bar
    calls = []

    def spy(t):
        calls.append(t)
        return check(t)

    monkeypatch.setattr(risbc.se, "_theta_bar", spy)
    monkeypatch.setattr(risbc.phases, "_theta_bar", spy)
    for run in (
        lambda: sum_se(cache, theta, 10.0, "ZF", "exact"),
        lambda: sum_se(cache, theta, 10.0, "ZF", "asymptotic"),
        lambda: sum_se(cache, theta, 10.0, "DPC", "exact"),
        lambda: sum_se(cache, theta, 10.0, "DPC", "asymptotic"),
        lambda: zf_inverted_gains(cache, theta),
        lambda: risbc.phases.mitigation_aware_objective(cache, theta),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


# ------------------------------------------------------------------ decompose


def test_decompose_gram_reconstruction():
    for seed in range(20):
        _, real, theta = random_instance(seed)
        cache = decompose(real)
        H = compose_channel(real, theta, idealized=True)
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
def test_decompose_copies_the_weak_row(stacked):
    cfg = small_cfg()
    if stacked:
        real = realize_block(cfg, *draw_block(cfg, 2, range(5)))
    else:
        real = sample_realization(cfg, np.random.default_rng(2))
    cache = decompose(real)
    assert np.array_equal(cache.h_c_weak, real.H_c[..., -1, :])
    # a view would keep the whole H_c stack alive with the cache
    assert not np.shares_memory(cache.h_c_weak, real.H_c)


def test_cache_mask_selects_the_weak_rows():
    cfg = small_cfg()
    cache = decompose(realize_block(cfg, *draw_block(cfg, 3, range(6))))
    mask = np.array([True, False, True, True, False, True])
    for index in (mask, 2, slice(1, 4)):
        picked = cache[index]
        assert np.array_equal(picked.h_c_weak, cache.h_c_weak[index])
        assert np.array_equal(picked.D_s, cache.D_s[index])


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
        real = realize_block(cfg, *draw_block(cfg, 5, range(40)))
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


def test_zf_gains_identity_channel():
    K = 3
    D = np.zeros((K + 1, 5), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0, 0, 0]
    cache = synthetic_cache(np.eye(K, dtype=complex), D)
    gains = zf_inverted_gains(cache, np.ones(4))
    assert np.allclose(gains, 1.0, atol=1e-12)


def test_zf_gains_match_generic_inverse():
    for seed in range(30):
        _, real, theta = random_instance(seed, n_bs=8, n_ris=16)
        cache = decompose(real)
        gains = zf_inverted_gains(cache, theta)
        H = compose_channel(real, theta, idealized=True)
        direct = np.real(np.diag(np.linalg.inv(H @ H.conj().T)))
        assert np.max(np.abs(gains - direct) / direct) < 1e-10


def test_zf_gains_weak_unreachable():
    _, real, _ = random_instance(5)
    cache = decompose(real)
    cache = replace(cache, h_c_weak=np.zeros(8, dtype=complex))
    with pytest.raises(ValueError, match="unreachable"):
        zf_inverted_gains(cache, np.ones(8))


def test_se_zf_zero_power():
    _, real, theta = random_instance(6)
    cache = decompose(real)
    total, _, _ = sum_se(cache, theta, 0.0, "ZF", "exact")
    assert total == 0.0


def test_se_zf_decoupled_users():
    K = 2
    D = np.zeros((K + 1, 4), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0, 0]
    cache = synthetic_cache(np.eye(K, dtype=complex), D)
    total, _, _ = sum_se(cache, np.ones(3), 5.0, "ZF", "exact")
    assert total == pytest.approx((K + 1) * np.log2(6.0), abs=1e-12)


def test_se_zf_matches_generic_form():
    for seed in range(20):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        total, _, _ = sum_se(cache, theta, cfg.p_bar(), "ZF", "exact"
        )
        oracle = se_zf_generic(compose_channel(real, theta), cfg.p_bar())
        assert abs(total - oracle) < 1e-10 * max(1.0, abs(oracle))


# ------------------------------------------------------------------ DPC


def test_se_dpc_matches_logdet():
    for seed in range(30):
        cfg, real, theta = random_instance(seed, n_bs=8, n_ris=16)
        cache = decompose(real)
        total, _, _ = sum_se(cache, theta, cfg.p_bar(), "DPC", "exact"
        )
        oracle = se_dpc_logdet(compose_channel(real, theta), cfg.p_bar())
        assert abs(total - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_se_dpc_zero_power():
    _, real, theta = random_instance(7)
    cache = decompose(real)
    assert sum_se(cache, theta, 0.0, "DPC", "exact")[0] == 0.0


def test_se_dpc_vanishing_cross_terms():
    K = 2
    D = np.zeros((K + 1, 4), dtype=complex)
    D[-1, 0] = 2.0  # h_c_weak = [2, 0, 0]
    cache = synthetic_cache(np.diag(np.array([3.0, 2.0], dtype=complex)), D)
    _, direct, reflect = sum_se(cache, np.ones(3), 4.0, "DPC", "exact")
    assert reflect == pytest.approx(np.log2(1.0 + 4.0 * 4.0), abs=1e-12)
    assert direct == pytest.approx(np.log2(13.0) + np.log2(9.0), abs=1e-12)


def test_dpc_dominates_zf():
    for seed in range(50):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        for p_bar in (0.1, 10.0, cfg.p_bar()):
            zf, _, _ = sum_se(cache, theta, p_bar, "ZF", "exact")
            dpc, _, _ = sum_se(cache, theta, p_bar, "DPC", "exact")
            assert dpc >= zf - 1e-9


# ------------------------------------------------------------------ asymptotic


def test_asymptotic_diagonal_equality():
    K = 2
    D = np.zeros((K + 1, 3), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0]
    cache = synthetic_cache(np.eye(K, dtype=complex), D)
    p_bar = 100.0
    for precoder in ("ZF", "DPC"):
        _, direct, _ = sum_se(cache, np.ones(2), p_bar, precoder, "asymptotic")
        assert direct == pytest.approx(K * np.log2(p_bar), abs=1e-12)


def test_asymptotic_split_is_additive():
    cfg, real, theta = random_instance(8)
    cache = decompose(real)
    for method in ("ZF", "DPC"):
        total, direct, reflect = sum_se(cache, theta, cfg.p_bar(), method, "asymptotic"
        )
        assert total == pytest.approx(direct + reflect, abs=1e-12)


def test_exact_converges_to_asymptotic():
    _, real, theta = random_instance(9)
    cache = decompose(real)
    for method in ("ZF", "DPC"):
        gaps = []
        for p_bar in 10.0 ** np.arange(2, 9):
            e = sum_se(cache, theta, p_bar, method, "exact")[0]
            a = sum_se(cache, theta, p_bar, method, "asymptotic")[0]
            gaps.append(abs(e - a))
        assert all(g1 <= g0 for g0, g1 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01


def test_asymptotic_singular_dpc_flags_neg_inf():
    K = 2
    C_s = np.diag(np.array([1.0, 0.0], dtype=complex))
    D = np.zeros((K + 1, 3), dtype=complex)
    D[-1, 0] = 1.0  # h_c_weak = [1, 0]
    cache = synthetic_cache(C_s, D)
    total, direct, _ = sum_se(cache, np.ones(2), 10.0, "DPC", "asymptotic")
    assert direct == -np.inf and total == -np.inf


def test_asymptotic_dpc_dominates_zf():
    for seed in range(50):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        zf, _, _ = sum_se(cache, theta, cfg.p_bar(), "ZF", "asymptotic")
        dpc, _, _ = sum_se(cache, theta, cfg.p_bar(), "DPC", "asymptotic")
        assert dpc >= zf - 1e-9


@pytest.mark.parametrize("mode", ["Exact", "typo", "high_snr", ""])
def test_unknown_mode_rejected(mode):
    cfg, real, theta = random_instance(15)
    cache = decompose(real)
    g = weak_gain(cache, theta)
    with pytest.raises(ValueError, match="unknown mode"):
        zf_sum_se(cache.inv_diag(), g, mitigation_term(cache, theta), 1.0, mode)
    with pytest.raises(ValueError, match="unknown mode"):
        dpc_sum_se(cache.eigvals, g, None, 1.0, mode)
    for precoder in ("ZF", "DPC"):
        with pytest.raises(ValueError, match="unknown mode"):
            sum_se(cache, theta, cfg.p_bar(), precoder, mode)


@pytest.mark.parametrize("precoder", ["MRT", "zf", "dpc", ""])
def test_unknown_precoder_rejected(precoder):
    cfg, real, theta = random_instance(16)
    cache = decompose(real)
    with pytest.raises(ValueError, match="unknown precoder"):
        sum_se(cache, theta, cfg.p_bar(), precoder, "exact")


# ------------------------------------------- orthogonality-split DPC form


def test_orthogonal_form_matches_asymptotic():
    for seed in range(30):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        if b_proj_perp(cache) <= 1e-8:
            continue
        split = se_dpc_orthogonal_form(real, theta, cfg.p_bar())
        asym, _, _ = sum_se(cache, theta, cfg.p_bar(), "DPC", "asymptotic"
        )
        assert abs(split - asym) < 1e-10 * max(1.0, abs(asym))


def test_orthogonal_form_null_space_b():
    cfg, real, theta = random_instance(11)
    _, _, Vh = np.linalg.svd(real.H_d_strong, full_matrices=True)
    real.b = Vh[-1].conj()
    real.H_c = real.H_c  # b does not enter the cascaded channels
    split = se_dpc_orthogonal_form(real, theta, cfg.p_bar())
    s = np.linalg.svd(real.H_d_strong, compute_uv=False)
    g = weak_gain(decompose(real), theta)
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
    dd, dr = delta_se(cache, np.ones(4))
    assert dd == pytest.approx(0.0, abs=1e-12)
    assert dr == 0.0


def test_delta_terms_nonnegative_and_sum_to_gap():
    for seed in range(50):
        cfg, real, theta = random_instance(seed)
        cache = decompose(real)
        dd, dr = delta_se(cache, theta)
        assert dd >= -1e-10
        assert dr >= 0.0
        zf, _, _ = sum_se(cache, theta, cfg.p_bar(), "ZF", "asymptotic")
        dpc, _, _ = sum_se(cache, theta, cfg.p_bar(), "DPC", "asymptotic")
        gap = dpc - zf
        assert abs((dd + dr) - gap) < 1e-10 * max(1.0, abs(gap))


def test_delta_se_of_a_stack_is_per_draw():
    cfg = small_cfg()
    real = realize_block(cfg, *draw_block(cfg, 4, range(4)))
    cache = decompose(real)
    theta = np.exp(1j * np.random.default_rng(4).uniform(0, 2 * np.pi, (4, cfg.n_ris)))
    dd, dr = delta_se(cache, theta)
    assert dd.shape == dr.shape == (4,)
    for i in range(4):
        dd_i, dr_i = delta_se(cache[i], theta[i])
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
        lhs = 1.0 + mitigation_term(cache, theta)
        rhs = mitigation_no_reflection(real.H_d_strong, real.b)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_mitigation_no_reflection_b_in_row_space():
    _, real, _ = random_instance(14)
    row = real.H_d_strong[1].conj()
    b = row / np.linalg.norm(row)
    assert mitigation_no_reflection(real.H_d_strong, b) == np.inf


# ------------------------------------------------- one factorization of C_s

# The only places in se.py, phases.py, sweep.py, linalg.py and bounds.py
# allowed to factorize a matrix themselves: the SVD behind the feed c(0) of
# the orthogonality construction and the offset check's independent log
# det of H_d H_d^H.  Everything else, the
# batched sweep included, reads C_s^{-1} from the cache's eigh factor; the
# generic-matrix and SVD cross-checks live in tests/oracles.py.
FACTORIZATION_ALLOWED = {"row_space_feed", "power_split_offset_check"}
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
