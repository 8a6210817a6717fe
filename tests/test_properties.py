"""Randomized properties of the sweep and the rates over small valid scenarios.

Examples come from hypothesis with a derandomized profile, so Tier-1 runs
the same cases every time.
"""

import contextlib
import io
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from risbc import cli, linalg, phases, se, sweep
from risbc.channel import (
    ScenarioConfig,
    draw_block,
    random_phase_block,
    realize_block,
    stream_states,
)
from risbc.phases import STRATEGIES, strategy_terms
from risbc.se import decompose, decompose_feed, rate_terms, rates
from risbc.sweep import MethodSpec, SweepPlan, run_sweep
from oracles import (
    align_weak_user_reference,
    b_from_xi,
    check_finite_reference,
    cli_parser_reference,
    strategy_phases,
    unit_phases_reference,
)
from test_sweep import assert_sweep_matches, set_block

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DERANDOMIZED = hypothesis.settings(
    derandomize=True, deadline=None, database=None, print_blob=True
)

METHODS = tuple(
    MethodSpec(precoder, strategy, mode)
    for precoder, strategy, mode in product(
        ("ZF", "DPC"),
        ("random", "statistical", "align_weak", "mitigation_aware"),
        ("exact", "asymptotic"),
    )
)


@st.composite
def plans(draw, variables=("n_ris", "n_bs", "xi")):
    """A small sweep of 1 to 4 points over one of `variables`.

    A high-SNR (asymptotic) form can have a negative mean at too low a
    power, and the sweep then raises at that row.  A plan with such a method
    runs at 40 dBm and above, where the means are positive, except that
    about one in ten of them runs at 0 dBm to keep the error covered.
    """
    methods = draw(
        st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True)
    )
    if any(m.mode == "asymptotic" for m in methods):
        powers = (0.0,) + (40.0, 50.0, 60.0) * 3
        sweep_powers = (40.0, 45.0, 50.0, 55.0, 60.0)
    else:
        powers, sweep_powers = (0.0, 20.0, 40.0), (0.0, 10.0, 20.0, 30.0, 40.0)
    n_strong = draw(st.integers(1, 3))
    cfg = ScenarioConfig(
        n_strong=n_strong,
        n_bs=draw(st.integers(n_strong + 1, n_strong + 4)),
        n_ris=draw(st.integers(1, 12)),
        ptx_dbm=draw(st.sampled_from(powers)),
        freeze_positions=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )
    variable = draw(st.sampled_from(variables))
    grid = {
        "ptx_dbm": st.sampled_from(sweep_powers),
        "n_ris": st.integers(1, 16),
        "n_bs": st.integers(n_strong + 1, n_strong + 8),
        "xi": st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 16.0)),
    }[variable]
    values = sorted(draw(st.sets(grid, min_size=1, max_size=4)))
    return SweepPlan(cfg, variable, values, methods, reps=draw(st.integers(1, 7)))


def rows_or_error(plan):
    """The rows of run_sweep(plan), or the message of the RuntimeError it
    raises (here: a row with a negative high-SNR mean)."""
    try:
        return run_sweep(plan).rows
    except RuntimeError as exc:
        return str(exc)


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(plans())
def test_points_equal_their_lone_runs_at_any_block_size(plan):
    # each point of a sweep realizes its draws from a prefix of the largest
    # point's variates: its rows equal the rows of the point run alone (or
    # the grid raises the error of the first point that raises alone), and
    # neither depends on how the replications are blocked
    grid = rows_or_error(plan)
    alone = [rows_or_error(replace(plan, values=(value,))) for value in plan.values]
    errors = [rows for rows in alone if isinstance(rows, str)]
    assert grid == (errors[0] if errors else sum(alone, []))
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 3):
            set_block(mp, plan, block)
            assert rows_or_error(plan) == grid


@st.composite
def plan_sequences(draw):
    """Two or three plans of any variables and shapes, each with a block
    size of 2 to 4 draws and reps that end in a short block."""
    sequence = []
    for plan in draw(st.lists(plans(("ptx_dbm", "n_ris", "n_bs", "xi")), min_size=2, max_size=3)):
        block = draw(st.integers(2, 4))
        reps = block * draw(st.integers(1, 2)) + draw(st.integers(1, block - 1))
        sequence.append((replace(plan, reps=reps), block))
    return sequence


@hypothesis.settings(DERANDOMIZED, max_examples=30)
@hypothesis.given(plan_sequences())
def test_plans_run_one_after_another_give_the_same_rows_in_either_order(sequence):
    # every run draws and builds its blocks in a workspace of its own: plans
    # run one after another, in either order, give the same rows
    def rows(plan, block):
        with pytest.MonkeyPatch.context() as mp:
            set_block(mp, plan, block)
            return rows_or_error(plan)

    forward = [rows(*item) for item in sequence]
    backward = [rows(*item) for item in reversed(sequence)]
    assert forward == backward[::-1]


@st.composite
def stacks(draw):
    """(cfg, xi or None, reps): a small scenario and a block of its draws."""
    n_strong = draw(st.integers(1, 3))
    cfg = ScenarioConfig(
        n_strong=n_strong,
        n_bs=draw(st.integers(n_strong + 1, n_strong + 4)),
        n_ris=draw(st.integers(1, 12)),
        ptx_dbm=draw(st.sampled_from((0.0, 20.0, 40.0))),
        seed=draw(st.integers(0, 2**32)),
    )
    xi = draw(st.sampled_from((None, 0.25, 1.0, 16.0)))
    return cfg, xi, range(draw(st.integers(1, 6)))


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_stacked_rates_equal_per_draw_rates_and_dpc_dominates(stack):
    # the rates of a stack's terms are each draw's own rates, rates at a
    # vector of powers gives each power's rates bit for bit, and under every
    # strategy's phases DPC is at least ZF on every draw, in both modes
    cfg, xi, reps = stack
    p_bars = cfg.p_bar() * np.array([0.1, 1.0, 10.0, 1e3])
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps)))
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache = cache[keep]
    random_theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    for kind in STRATEGIES:
        theta = strategy_phases(kind, cache, random_theta)
        terms = rate_terms(cache, theta)
        alone = [rate_terms(cache[i], theta[i]) for i in range(len(theta))]
        for mode in ("exact", "asymptotic"):
            total = {}
            for precoder in ("ZF", "DPC"):
                stacked = rates(terms, cfg.p_bar(), precoder, mode)
                for i, terms_i in enumerate(alone):
                    want_i = rates(terms_i, cfg.p_bar(), precoder, mode)
                    for got, want in zip(stacked, want_i):
                        assert abs(got[i] - want) <= 1e-12 * abs(want)
                total[precoder] = stacked[0]
                swept = rates(terms, p_bars, precoder, mode)
                for j, p_bar in enumerate(p_bars):
                    for got, want in zip(swept, rates(terms, p_bar, precoder, mode)):
                        assert np.array_equal(got[j], want)
            assert np.all(total["DPC"] >= total["ZF"] - 1e-9)


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(plans(("ptx_dbm", "n_ris", "n_bs", "xi")))
def test_sweep_rows_equal_the_per_draw_loop(plan):
    # the batched two-stage sweep gives the rows of a loop of
    # sample_realization -> decompose -> each strategy's own phase function
    # -> rate_terms -> rates, or raises at the first of them whose mean is
    # negative
    assert_sweep_matches(plan)


# p_bar from far below to far above every draw's eigenvalues, in decades
P_BARS = 10.0 ** np.arange(-2.0, 11.0)


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks(), st.sampled_from(STRATEGIES))
def test_exact_rates_approach_the_asymptotic_ones(stack, kind):
    # exact - asymptotic = sum_i log2(1 + 1 / (p_bar mu_i)) >= 0 for ZF
    # (mu_i = 1 / e_i) and DPC (mu_i the eigenvalues of H H^H): the gap is
    # nonnegative and does not grow with p_bar, on every draw
    cfg, xi, reps = stack
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps)))
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache = cache[keep]
    random_theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    terms = strategy_terms((kind,), cache, random_theta)[kind]
    for precoder in ("ZF", "DPC"):
        gaps = np.array([
            rates(terms, p_bar, precoder, "exact")[0]
            - rates(terms, p_bar, precoder, "asymptotic")[0]
            for p_bar in P_BARS
        ])
        # 1e-9 bpcu absorbs the rounding of rates of up to a few hundred bpcu
        assert np.all(gaps >= -1e-9), (precoder, gaps.min())
        steps = np.diff(gaps, axis=0)
        assert np.all(steps <= 1e-9), (precoder, steps.max())


def kept_feeds(stack):
    """(H_d^s, H_c, c, theta): a stack's unflagged draws, their feeds
    c = H_d^s b and their random phases."""
    cfg, xi, reps = stack
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps)))
    b = real.b if xi is None else b_from_xi(real.H_d_strong, xi)
    H_d, H_c = real.H_d_strong, real.H_c
    c = linalg.matvec(H_d, b)
    keep = ~(decompose_feed(H_d, H_c, c).cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    return H_d[keep], H_c[keep], c[keep], theta


def kept_draws(stack):
    """(real, theta): a stack's unflagged draws, each with its own direction
    b [B, N_B], and their random phases."""
    cfg, xi, reps = stack
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps)))
    b = real.b if xi is None else b_from_xi(real.H_d_strong, xi)
    real = replace(real, b=np.broadcast_to(b, real.H_d_strong.shape[:1] + b.shape[-1:]))
    keep = ~(decompose(real).cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    kept = {name: getattr(real, name)[keep] for name in ("H_d_strong", "b", "H_c")}
    return replace(real, **kept), theta


def twelve_rates(H_d, H_c, c, theta) -> list:
    """ZF and DPC, exact and asymptotic, total, direct and reflected rates
    [B] of draws at phases theta and p_bar = 10, by the public API."""
    return cache_rates(decompose_feed(H_d, H_c, c), theta)


def cache_rates(cache, theta) -> list:
    """`twelve_rates` of a decomposed stack of draws."""
    terms = rate_terms(cache, theta)
    return [
        rate
        for precoder, mode in product(("ZF", "DPC"), ("exact", "asymptotic"))
        for rate in rates(terms, 10.0, precoder, mode)
    ]


def largest_change(got, want) -> float:
    """The largest difference of two lists of rates, relative to the rate
    but to at least 1 bpcu: a rate near 0 is log2 of a number near 1, whose
    last bit is a larger share of the rate."""
    return max(
        np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0))
        for a, b in zip(got, want, strict=True)
    )


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_permuting_the_ris_elements_leaves_every_rate(stack):
    # the RIS elements enter only through the sums H_c theta: permuting the
    # columns of H_c together with theta reorders their terms
    H_d, H_c, c, theta = kept_feeds(stack)
    perm = np.random.default_rng(stack[0].seed).permutation(theta.shape[-1])
    permuted = twelve_rates(H_d, H_c[..., perm], c, theta[..., perm])
    assert largest_change(permuted, twelve_rates(H_d, H_c, c, theta)) <= 1e-12


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_conjugating_the_channels_feed_and_phases_leaves_every_rate(stack):
    # the rates are real functions of the draws, so conjugating every
    # complex input conjugates each of them, which leaves it as it is
    H_d, H_c, c, theta = kept_feeds(stack)
    conjugated = twelve_rates(H_d.conj(), H_c.conj(), c.conj(), theta.conj())
    assert largest_change(conjugated, twelve_rates(H_d, H_c, c, theta)) <= 1e-12


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_a_common_phase_on_theta_alone_changes_the_rates(stack):
    # the negative control of the two symmetries: the feed c is not rotated
    # with theta, so the DPC cross terms, and the ZF mitigation term, move
    H_d, H_c, c, theta = kept_feeds(stack)
    rotated = twelve_rates(H_d, H_c, c, np.exp(0.5j) * theta)
    assert largest_change(rotated, twelve_rates(H_d, H_c, c, theta)) > 1e-6


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_a_unitary_change_of_the_bs_basis_leaves_every_rate(stack):
    # H_d^s -> H_d^s Q and b -> Q^H b keep the feed H_d^s b and the Gram
    # matrix H_d^s H_d^{s,H}, so C_s and every rate stay
    real, theta = kept_draws(stack)
    rng = np.random.default_rng(stack[0].seed)
    H_d, b = real.H_d_strong, real.b
    shape = H_d.shape[:1] + H_d.shape[-1:] * 2
    Q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    turned = replace(real, H_d_strong=H_d @ Q, b=linalg.matvec(linalg.herm(Q), b))
    got = cache_rates(decompose(turned), theta)
    assert largest_change(got, cache_rates(decompose(real), theta)) <= 1e-12


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_permuting_the_strong_users_leaves_every_rate(stack):
    # the strong users' rows of H_d^s and of H_c, permuted together with the
    # weak row kept last, reorder C_s's rows and columns and each strong
    # user's terms, whose sums are the rates
    real, theta = kept_draws(stack)
    K = real.H_d_strong.shape[-2]
    perm = np.random.default_rng(stack[0].seed).permutation(K)
    rows = np.append(perm, K)
    permuted = replace(real, H_d_strong=real.H_d_strong[:, perm], H_c=real.H_c[:, rows])
    got = cache_rates(decompose(permuted), theta)
    assert largest_change(got, cache_rates(decompose(real), theta)) <= 1e-12


@hypothesis.settings(DERANDOMIZED, max_examples=50)
@hypothesis.given(stacks())
def test_a_phase_on_each_users_rows_leaves_every_rate(stack):
    # user k's rows of H_d^s and of H_c times e^{j phi_k}, the weak user's
    # row of H_c included: C_s turns to Phi C_s Phi^H, the feed to Phi c,
    # and every rate term is a modulus or an eigenvalue
    real, theta = kept_draws(stack)
    K = real.H_d_strong.shape[-2]
    rng = np.random.default_rng(stack[0].seed)
    turn = np.exp(2j * np.pi * rng.random((len(theta), K + 1, 1)))
    turned = replace(real, H_d_strong=turn[:, :K] * real.H_d_strong, H_c=turn * real.H_c)
    got = cache_rates(decompose(turned), theta)
    assert largest_change(got, cache_rates(decompose(real), theta)) <= 1e-12


@hypothesis.settings(DERANDOMIZED, max_examples=30)
@hypothesis.given(stacks())
def test_the_optimizer_reaches_the_same_objective_on_permuted_elements(stack):
    # the optimizer started from permuted phases on permuted RIS elements
    # stops at the permuted stationary point: f = g / (1 + mitigation) at
    # its returned phases stays to 1e-12 relative
    real, theta = kept_draws(stack)
    cache = decompose(real)
    perm = np.random.default_rng(stack[0].seed).permutation(theta.shape[-1])
    permuted = cache.with_cascade(cache.H_c[..., perm])
    f = []
    for c, init in ((cache, theta), (permuted, theta[..., perm])):
        terms = rate_terms(c, phases.optimize_mitigation_aware(c, init))
        f.append(terms.g / (1.0 + terms.mitigation()))
    assert np.all(np.abs(f[1] - f[0]) <= 1e-12 * f[0])


# the moduli of the entries a check array starts from: unit (weighted, so
# that many arrays pass), 1 +- 0.5, 1 and 2e-12 around the unit-modulus
# tolerance, far from unit, and zero
MODULI = (1.0,) * 6 + (1.0 + 5e-13, 1.0 - 5e-13) * 2 + (
    1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 2e-12, 1.0 - 2e-12, 0.5, 2.0, 0.0)
# parts some entries then take: non-finite, finite parts whose sum
# overflows (their moduli, at most sqrt(2) 1e308, do not), and zero
PARTS = (np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0)


@st.composite
def check_arrays(draw):
    """A complex array of 1 to 12 entries, one or two axes, of scaled unit
    phases, up to four of whose real or imaginary parts are in PARTS."""
    shape = draw(st.sampled_from(((1,), (5,), (1, 4), (3, 4), (2, 6))))
    n = int(np.prod(shape))
    angles = draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))
    moduli = draw(st.lists(st.sampled_from(MODULI), min_size=n, max_size=n))
    z = np.array(moduli) * np.exp(1j * np.array(angles))
    specials = st.tuples(st.integers(0, n - 1), st.booleans(), st.sampled_from(PARTS))
    for i, real, part in draw(st.lists(specials, max_size=4)):
        (z.real if real else z.imag)[i] = part
    return z.reshape(shape)


def outcome(check, x):
    """("ok", the bytes and shape of check(x)), or the kind and message of
    the error or warning (an error here) it raised."""
    try:
        out = check(x)
    except (ValueError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)
    return "ok", out.tobytes(), out.shape


@hypothesis.settings(DERANDOMIZED, max_examples=300)
@hypothesis.given(check_arrays())
@hypothesis.example(np.array([np.nan, 1.0]))
@hypothesis.example(np.array([1.0, complex(0.0, np.inf)]))
@hypothesis.example(np.array([[1.0, -np.inf]]))
@hypothesis.example(np.array([complex(np.nan, 2.0), 0.0]))
@hypothesis.example(np.array([1e308, 1e308, -1e308j, -1e308j]))
@hypothesis.example(np.array([1e308, 1e308, np.nan]))
@hypothesis.example(np.exp(1j * np.arange(6.0)) * (1.0 + np.array([0, 5, -5, 10, -10, 20]) * 1e-13))
@hypothesis.example(np.array([[0.0, 1j, 0.0], [2.0, 0.0, 1.0]]))
@hypothesis.example(np.array([2.2e-309j, 1.0, 0.0]))
def test_one_pass_checks_accept_and_reject_what_the_entrywise_checks_did(x):
    # each check takes one pass (a complex sum, the max and min modulus, one
    # divide) and falls back to the entrywise test only on a rejected or
    # special array: old and new accept the same arrays with the same
    # results and reject the rest with the same message, non-finite
    # entries before modulus.  On a finite h with an entry below the
    # smallest normal float, the former divide overflowed; the aligned
    # phases are finite and unit modulus there, and the other entries'
    # bits are the former ones
    for new, old in (
        (linalg.check_finite, check_finite_reference),
        (se.unit_phases, unit_phases_reference),
    ):
        assert outcome(new, x) == outcome(old, x), new.__name__
    r = np.abs(x)
    subnormal = (r > 0.0) & (r < np.finfo(float).tiny)
    if not (subnormal.any() and np.isfinite(x).all()):
        assert outcome(phases.align_weak_user, x) == outcome(align_weak_user_reference, x)
        return
    theta = phases.align_weak_user(x)
    assert np.all(np.abs(np.abs(theta[subnormal]) - 1.0) <= 1e-15)
    with np.errstate(all="ignore"):
        want = align_weak_user_reference(x)
    assert theta[~subnormal].tobytes() == want[~subnormal].tobytes()


# ------------------------------------------------------------- command line

COMMANDS = ("sweep", "bounds", "figure")
# every long option and each of its unique prefixes: no two share a letter
# after "--", so "--c" is unique among all of them
VALUED = tuple(
    name[:end]
    for name in ("--config", "--out", "--seed", "--reps", "--grid-points")
    for end in range(3, len(name) + 1)
)
PREFIXES = (*VALUED, "--h", "--he", "--hel", "--help")
VALUES = (
    "0", "1", "3", "02", "1_000", "out/dir", "-1", "-3", "abc", "", "-x", "-1.5", "4294967297"
)
cli_tokens = st.one_of(
    st.sampled_from((*COMMANDS, *PREFIXES, "--", "-h", *VALUES)),
    st.builds("{}={}".format, st.sampled_from(PREFIXES), st.sampled_from(VALUES)),
)


def cli_outcome(parse, argv):
    """("ok", the parsed fields) or (the exit code, the stderr lines with
    "error:") of parse(argv)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return "ok", vars(parse(argv))
    except SystemExit as exc:
        return exc.code, [line for line in err.getvalue().splitlines() if "error:" in line]


@hypothesis.settings(DERANDOMIZED, max_examples=300)
@hypothesis.given(
    st.one_of(
        st.lists(cli_tokens, max_size=6),
        st.builds(
            lambda c, rest: [c, *rest], st.sampled_from(COMMANDS), st.lists(cli_tokens, max_size=6)
        ),
        st.builds(  # a command, maybe a number, and mostly valid option-value pairs
            lambda c, number, pairs: [c, *number, *(token for pair in pairs for token in pair)],
            st.sampled_from(COMMANDS),
            st.lists(st.sampled_from(("3", "02")), max_size=1),
            st.lists(st.tuples(st.sampled_from(VALUED), st.sampled_from(VALUES[:6])), max_size=3),
        ),
    )
)
@hypothesis.example(["figure", "02"])
@hypothesis.example(["figure", "--se", "3", "02", "--rep=1_000", "--o", "-1.5"])
@hypothesis.example(["bounds", "--g", "3", "--o=out/dir", "--seed=0"])
@hypothesis.example(["sweep", "--he=0", "-h"])
@hypothesis.example(["figure", "--out", "out/dir", "--", "3"])
@hypothesis.example(["figure", "3", "--", "--seed", "1"])
@hypothesis.example(["figure", "--", "--", "3"])
@hypothesis.example(["figure", "3", "--out", "out/dir", "--"])
@hypothesis.example(["sweep", "--out", "-a b", "--config", "--c x"])
@hypothesis.example(["figure", "--seed", "1", "4"])
@hypothesis.example(["figure", "9"])
@hypothesis.example(["figure"])
@hypothesis.example(["sweep", "--rep", "5", "--se=3", "--config=", "--out=out/dir"])
@hypothesis.example(["sweep", "--seed", "1", "--seed", "2"])
@hypothesis.example(["sweep", "--seed", "-1"])
@hypothesis.example(["sweep", "--"])
@hypothesis.example(["sweep", "--out"])
@hypothesis.example(["sweep", "--out", "-x"])
@hypothesis.example(["sweep", "-x", "--reps", "0"])
@hypothesis.example(["bounds", "--grid-points", "1_000", "--gri=-1.5"])
@hypothesis.example(["bounds", "--reps", "2"])
@hypothesis.example(["-x", "sweep", "--seed", "abc"])
@hypothesis.example(["-x", "-h"])
@hypothesis.example(["--", "sweep"])
@hypothesis.example(["--he"])
@hypothesis.example([])
def test_the_command_line_reads_as_argparse_read_it(argv):
    # the one-table parser gives argparse's fields, or exits with its code
    # and one error line, word for word on a bad int or an out-of-range one
    new = cli_outcome(cli._parse, argv)
    old = cli_outcome(lambda a: cli_parser_reference().parse_args(a), argv)
    if old[0] == "ok":
        assert new == old
        return
    assert new[0] == old[0]
    if old[0] == 2:
        (line,) = new[1]
        assert line.split(": error: ")[0] in ("risbc", *(f"risbc {c}" for c in COMMANDS))
        if any(kind in old[1][0] for kind in ("invalid int value", "must be at")):
            assert new[1] == old[1]
