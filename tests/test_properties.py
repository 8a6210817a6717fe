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
from risbc.phases import STRATEGIES, select_phases
from risbc.se import decompose, rate_terms, rates
from risbc.sweep import MethodSpec, SweepPlan, run_sweep
from oracles import (
    align_weak_user_reference,
    b_from_xi,
    check_finite_reference,
    cli_parser_reference,
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
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps))[1:])
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache = cache[keep]
    random_theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    for kind in STRATEGIES:
        theta = select_phases(kind, cache, random_theta)
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
    # sample_realization -> decompose -> select_phases -> rate_terms ->
    # rates, or raises
    # at the first of them whose mean is negative
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
    real = realize_block(cfg, *draw_block(cfg, stream_states(cfg.seed, reps))[1:])
    if xi is not None:
        real = replace(real, b=b_from_xi(real.H_d_strong, xi))
    cache = decompose(real)
    keep = ~(cache.cond() > sweep.COND_FLAG)
    hypothesis.assume(keep.any())
    cache = cache[keep]
    random_theta = random_phase_block(stream_states(cfg.seed, reps), cfg.n_ris)[keep]
    terms = rate_terms(cache, select_phases(kind, cache, random_theta))
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
