import configparser
import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from oracles import REAL_SCENARIO_FIELDS, scenario_problem
from risbc.channel import ScenarioConfig
from risbc.config import (
    DEFAULT_METHOD_LABELS,
    BOUND_CSV_HEADER,
    SWEEP_CSV_HEADER,
    emit_bound_report,
    emit_csv,
    figure5_bound_reports,
    figure_preset,
    parse_config,
    serialize_config,
    _read_ini,
)
from risbc.bounds import BoundReport
from risbc.sweep import MethodSpec, SweepPlan, SweepResult, SweepRow, run_sweep

DERANDOMIZED = hypothesis.settings(
    derandomize=True, deadline=None, database=None, print_blob=True
)


# ------------------------------------------------------------------ parsing


def test_empty_text_gives_full_defaults():
    plan = parse_config("")
    cfg = plan.config
    assert cfg == ScenarioConfig()
    assert cfg.n_bs == 12 and cfg.n_ris == 64 and cfg.n_users == 4
    assert plan.variable == "ptx_dbm"
    assert plan.values == tuple(float(v) for v in range(0, 41, 5))
    assert plan.reps == 200
    assert tuple(m.label for m in plan.methods) == DEFAULT_METHOD_LABELS


def test_readme_config_example_parses():
    # its values carry inline "; ..." comments, which used to end up in the
    # values (n_bs = '12   ; BS antennas ...')
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(
        r"^```ini\n(.*?)^```$", readme.read_text(encoding="utf-8"), flags=re.S | re.M
    )
    plan = parse_config(block)
    cfg = plan.config
    assert cfg.n_bs == 12 and cfg.n_ris == 64 and cfg.n_strong == 3
    assert cfg.bs_pos == (0.0, 0.0, 10.0) and cfg.pl_ris_user == (37.51, 22.0)
    assert cfg.freeze_positions is False
    assert plan.variable == "ptx_dbm"
    assert plan.values == tuple(float(v) for v in range(0, 41, 5))
    assert [m.label for m in plan.methods] == [
        "ZF:align_weak:exact",
        "DPC:align_weak:exact",
    ]


def test_scenario_keys_parse():
    cfg = parse_config(
        "[scenario]\n"
        "n_bs = 8\n"
        "ptx_dbm = 20\n"
        "freeze_positions = yes\n"
        "pl_direct = 30, 35\n"
        "bs_pos = 1 2 3\n"
    ).config
    assert cfg.n_bs == 8
    assert cfg.ptx_dbm == 20.0
    assert cfg.freeze_positions is True
    assert cfg.pl_direct == (30.0, 35.0)
    assert cfg.bs_pos == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("key", ["weak_extra_loss_db", "power_divisor"])
def test_removed_scenario_keys_are_unknown(key):
    # neither changed a result the rates read (the weak user's direct row
    # is not modeled, and the total power is split over the K+1 users)
    with pytest.raises(ValueError, match=rf"^unknown key '{key}' in \[scenario\] \(line 3\)$"):
        parse_config(f"[scenario]\nn_bs = 12\n{key} = 60\n")


def test_infeasible_scenario_names_key_and_line():
    with pytest.raises(ValueError, match=r"n_bs.*(line 2)"):
        parse_config("[scenario]\nn_bs = 2\nn_strong = 3\n")


def test_scenario_error_names_line_of_offending_key():
    with pytest.raises(ValueError, match=r"user_circle_radius.*\(line 3\)"):
        parse_config("[scenario]\nn_bs = 12\nuser_circle_radius = -1\n")
    with pytest.raises(ValueError, match=r"user_circle_radius.*\(line 2\)"):
        parse_config("[scenario]\nuser_circle_radius = -1\n")


def test_user_circle_at_the_bs_rejected_with_line():
    # a 1e-9 m user circle around the BS used to run and report ~450 bpcu
    text = "[scenario]\nuser_circle_center = 0, 0, 10\nuser_circle_radius = 1e-9\n"
    with pytest.raises(ValueError, match=r"user circle.*bs_pos.*pl_direct.*\(line 2\)"):
        parse_config(text)


def test_ris_at_the_bs_rejected_with_line():
    # used to abort mid-run with a bare "distance must be positive"
    with pytest.raises(ValueError, match=r"ris_pos .*bs_pos.*pl_los.*\(line 3\)"):
        parse_config("[scenario]\nn_ris = 8\nris_pos = 0, 0, 10\n")


def test_links_need_a_pathloss_of_at_least_0_db():
    # pl_los = 30 + 22 log10(d) crosses 0 dB at d = 4.3 cm
    ScenarioConfig(ris_pos=(0.05, 0.0, 10.0))
    with pytest.raises(ValueError, match=r"ris_pos comes within 0.04 m.*-0.755 dB"):
        ScenarioConfig(ris_pos=(0.04, 0.0, 10.0))
    # a user circle passing 1 cm below the RIS: pl_ris_user gives -6.49 dB
    with pytest.raises(ValueError, match=r"within 0.01 m of ris_pos.*pl_ris_user"):
        ScenarioConfig(user_circle_center=(100.0, 0.0, 9.99), user_circle_radius=1.0)


@pytest.mark.parametrize(
    "updates, message",
    [
        ({"noise_dbm": -4000.0}, r"noise_dbm = -4000 gives a noise power of 0 mW"),
        ({"noise_dbm": 4000.0}, r"noise_dbm = 4000 gives a noise power of inf mW"),
        ({"pl_los": (30.0, 2000.0)}, r"^ris_pos at 100 m from bs_pos: pl_los .* L_G of 0,"),
        ({"ris_pos": (1e300, 0.0, 10.0)}, r"^ris_pos at inf m from bs_pos: .* L_G of 0,"),
        (
            {"direct_extra_loss_db": -5000.0},
            r"at 90.9 m from bs_pos: pl_direct .*\(direct_extra_loss_db, noise_dbm\) of inf,",
        ),
        # the user circle's nearest point is 8.5 m below the BS, its farthest
        # 1e200 m away
        (
            {"user_circle_radius": 1e200},
            r"\(user_circle_center, user_circle_radius\) at 1e\+200 m from bs_pos: "
            r"pl_direct .* of 0,",
        ),
        ({"noise_dbm": -3150.0}, r"at 10.5 m from ris_pos: pl_ris_user .* of inf,"),
    ],
    ids=["low_noise", "high_noise", "pl_los", "ris_pos", "direct_gain", "far_user", "ris_gain"],
)
def test_gains_must_be_finite_and_positive(updates, message):
    # each used to fail mid-run: a noise power or L_G of 0 ended in a
    # traceback on non-finite channels or an unreachable weak user
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**updates)


NEAR = st.floats(-200.0, 200.0)
FAR = ((1e300, 0.0, 10.0), (0.0, -1e300, 1.5), (1e300, 1e300, 1e300))


@st.composite
def points(draw):
    """A point within 200 m of the origin or, in about one draw in five,
    1e300 m out (where a distance overflows)."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(FAR))
    return draw(st.tuples(NEAR, NEAR, NEAR))


PATHLOSS_MODELS = st.tuples(
    st.floats(-60.0, 150.0),
    st.one_of(st.sampled_from((0.0, 2000.0)), st.floats(0.0, 2000.0)),
)


@st.composite
def scenario_updates(draw):
    """ScenarioConfig fields that pass its integer, radius, divisor and seed
    checks.  Each field keeps its default or takes a drawn value: positions
    that may coincide or lie 1e300 m out, any pathloss model, noise and
    extra losses far outside the float range of their gains, and in about
    one draw of ten a non-finite entry in one field."""
    default = ScenarioConfig()

    def pick(name, *values):
        return draw(st.one_of(st.just(getattr(default, name)), *values))

    bs = pick("bs_pos", points())
    # about one draw in eight puts the RIS, and one in eight the user
    # circle, on a point already placed
    ris = bs if draw(st.integers(0, 7)) == 0 else pick("ris_pos", points())
    if draw(st.integers(0, 7)) == 0:
        center = draw(st.sampled_from((bs, ris)))
    else:
        center = pick("user_circle_center", points())
    updates = {
        "bs_pos": bs,
        "ris_pos": ris,
        "user_circle_center": center,
        "user_circle_radius": pick(
            "user_circle_radius", st.sampled_from((1e-9, 1e200)), st.floats(1e-3, 300.0)
        ),
        "noise_dbm": pick("noise_dbm", st.floats(-4000.0, 4000.0)),
        "direct_extra_loss_db": pick(
            "direct_extra_loss_db", st.floats(-5000.0, 5000.0)
        ),
        **{
            name: pick(name, PATHLOSS_MODELS)
            for name in ("pl_direct", "pl_ris_user", "pl_los")
        },
    }
    # about one draw in ten has one or two non-finite fields
    if draw(st.integers(0, 9)) == 0:
        for name in draw(st.lists(st.sampled_from(REAL_SCENARIO_FIELDS), min_size=1, max_size=2)):
            bad = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
            value = updates.get(name, getattr(default, name))
            if isinstance(value, tuple):
                i = draw(st.integers(0, len(value) - 1))
                bad = value[:i] + (bad,) + value[i + 1 :]
            updates[name] = bad
    return updates


@hypothesis.settings(DERANDOMIZED, max_examples=300)
@hypothesis.given(scenario_updates())
@hypothesis.example({"direct_extra_loss_db": np.nan, "aod": np.nan})
def test_scenario_checks_agree_with_the_numpy_oracle(updates):
    # the finiteness and link checks run on Python floats; they reject
    # exactly what the same checks on numpy arrays reject, with its message,
    # and name the first bad field in the same order
    message = scenario_problem(**updates)
    if message is None:
        ScenarioConfig(**updates)
    else:
        with pytest.raises(ValueError) as caught:
            ScenarioConfig(**updates)
        assert str(caught.value) == message


def test_no_strong_user_rejected_with_line():
    with pytest.raises(ValueError, match=r"n_strong must be at least 1 \(line 3\)"):
        parse_config("[scenario]\nn_bs = 4\nn_strong = 0\n")


def test_negative_seed_rejected_with_line():
    # a negative seed used to pass and die in numpy's seeding, naming no line
    with pytest.raises(ValueError, match=r"seed must be non-negative.* \(line 4\)"):
        parse_config("[scenario]\nn_bs = 6\n\nseed = -4\n")
    ScenarioConfig(seed=0)


def test_bad_reps_names_key_and_line():
    with pytest.raises(ValueError, match=r"bad value for 'reps' in \[sweep\] \(line 3\)"):
        parse_config("[sweep]\nvalues = 10\nreps = abc\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("[sweep]\nvalues = 10, inf\n", 2),
        ("[sweep]\nvariable = xi\n\nvalues = nan\n", 4),
    ],
)
def test_non_finite_sweep_values_rejected_with_line(text, line):
    with pytest.raises(ValueError, match=rf"values must be finite.*\(line {line}\)"):
        parse_config(text)


def test_nan_power_rejected_with_line():
    # a NaN power used to run and write se_mean = nan on every row
    text = (
        "[scenario]\nn_bs = 6\nptx_dbm = nan\n"
        "[sweep]\nvariable = n_bs\nvalues = 4, 6\n"
    )
    with pytest.raises(ValueError, match=r"ptx_dbm must be finite.*\(line 3\)"):
        parse_config(text)


def test_infinite_noise_rejected_with_line():
    # an infinite noise floor used to abort as "2/2 draws flagged as ill-conditioned"
    with pytest.raises(ValueError, match=r"noise_dbm must be finite.*\(line 2\)"):
        parse_config("[scenario]\nnoise_dbm = inf\n")


@pytest.mark.parametrize(
    "key, raw",
    [
        ("bs_pos", "0, nan, 10"),
        ("ris_pos", "inf, 0, 10"),
        ("user_circle_center", "95, 10, -inf"),
        ("user_circle_radius", "nan"),
        ("direct_extra_loss_db", "inf"),
        ("pl_direct", "35.1, nan"),
        ("pl_ris_user", "inf, 22"),
        ("pl_los", "30, -inf"),
        ("aoa", "nan"),
        ("aod", "inf"),
    ],
)
def test_non_finite_scenario_value_rejected_with_line(key, raw):
    with pytest.raises(ValueError, match=rf"{key} must be finite.*\(line 3\)"):
        parse_config(f"[scenario]\nn_bs = 12\n{key} = {raw}\n")


def test_grid_points_is_no_longer_a_key():
    with pytest.raises(ValueError, match=r"unknown section \[strategy\] \(line 1\)"):
        parse_config("[strategy]\ngrid_points = 256\n")


def test_strategy_section_rejected_with_line():
    with pytest.raises(ValueError, match=r"unknown section \[strategy\] \(line 3\)"):
        parse_config("[sweep]\nreps = 2\n[strategy]\nmax_sweeps = 7\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("[DEFAULT]\nn_bs = 8\n", 1),
        ("[scenario]\nn_ris = 8\n[DEFAULT]\nn_bs = 8\n", 3),
    ],
)
def test_default_section_is_not_merged(text, line):
    message = rf"unknown section \[DEFAULT\] \(line {line}\)"
    with pytest.raises(ValueError, match=message):
        parse_config(text)


def test_repeated_section_rejected_with_line():
    with pytest.raises(ValueError, match=r"repeated section \[Scenario\] \(line 3\)"):
        parse_config("[scenario]\nn_bs = 8\n[Scenario]\nn_bs = 10\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("reps = 2\n[sweep]\n", r"text before the first \[section\] \(line 1\)"),
        ("[sweep]\ngarbage\n", r"not a 'key = value' line \(line 2\)"),
        ("[sweep]\nreps = 2\n\nreps = 3\n", r"repeated key 'reps' in \[sweep\] \(line 4\)"),
        ("[sweep]\nreps = 2\n[sweep]\n", r"repeated section \[sweep\] \(line 3\)"),
    ],
    ids=["key-first", "no-equals", "repeated-key", "repeated-section"],
)
def test_text_that_is_not_ini_rejected_in_one_line(text, message):
    # configparser's own messages span two or three lines
    with pytest.raises(ValueError, match=rf"^{message}$"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[sweep]\nvariable = n_ris\nvalues = 0, 4\n",
            r"n_ris = 0, n_ris must be at least 1",
        ),
        (
            "[scenario]\nn_bs = 4\n[sweep]\nvariable = n_bs\nvalues = 3, 4\n",
            r"n_bs = 3, n_bs = 3 must be at least n_strong \+ 1",
        ),
    ],
)
def test_out_of_domain_sweep_value_rejected_with_line(text, message):
    # `values` is the last line of each text
    line = text.count("\n")
    with pytest.raises(ValueError, match=rf"^values: at {message}.*\(line {line}\)$"):
        parse_config(text)


@pytest.mark.parametrize(
    "methods",
    [
        "ZF:random:exact, ZF:random:exact",
        "ZF:random:exact, DPC:random:exact, ZF : random : exact",
    ],
)
def test_repeated_method_rejected_with_line(methods):
    # a repeated method used to write the same row twice per sweep point
    text = f"[sweep]\nreps = 2\nmethods = {methods}\nvalues = 10\n"
    message = r"^methods: ZF:random:exact is repeated \(line 3\)$"
    with pytest.raises(ValueError, match=message):
        parse_config(text)


@pytest.mark.parametrize("values", ["0", "0, 1"])
def test_xi_zero_rejected_with_line(values):
    # xi = 0 makes every draw's C_s singular: rejected before any draw
    text = f"[sweep]\nvariable = xi\nreps = 2\n\nvalues = {values}\n"
    with pytest.raises(ValueError, match=r"xi values must be positive.*\(line 5\)$"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[scenario]\nn bs = 3\n", r"unknown key 'n bs' in \[scenario\] \(line 2\)"),
        ("[scenario]\n2x = 1\n", r"unknown key '2x' in \[scenario\] \(line 2\)"),
        ("[a]]\n", r"unknown section \[a\]\] \(line 1\)"),
    ],
)
def test_keys_and_headers_that_are_no_identifiers_name_their_line(text, message):
    # these keys and this header used to be reported without a line
    with pytest.raises(ValueError, match=rf"^{message}$"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, key, section",
    [
        ("[sweep]\nvalues = 10,,20\n", "values", "sweep"),
        ("[sweep]\nreps = 2\nvalues = 10, 20,\n", "values", "sweep"),
        ("[scenario]\nbs_pos = 0, 0, 10,\n", "bs_pos", "scenario"),
    ],
)
def test_empty_entry_in_a_number_list_rejected_with_line(text, key, section):
    # an empty entry used to be dropped: "10,,20" ran a two-point sweep
    line = text.count("\n")
    message = rf"^bad value for '{key}' in \[{section}\] \(line {line}\): empty entry"
    with pytest.raises(ValueError, match=message):
        parse_config(text)


def test_unknown_key_names_line():
    with pytest.raises(ValueError, match=r"unknown key 'bandwidth'.*line 3"):
        parse_config("[scenario]\nn_bs = 8\nbandwidth = 10\n")


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match=r"unknown section \[magic\].*line 1"):
        parse_config("[magic]\nx = 1\n")


def test_bad_value_names_key():
    with pytest.raises(ValueError, match=r"bad value for 'n_bs'"):
        parse_config("[scenario]\nn_bs = twelve\n")
    # a tuple field's length is ScenarioConfig's check, as for the Python API
    with pytest.raises(ValueError, match=r"^bs_pos must be 3 real numbers.*\(line 2\)$"):
        parse_config("[scenario]\nbs_pos = 1, 2\n")


def test_sweep_section_parses_and_tuning_applies():
    plan = parse_config(
        "[sweep]\n"
        "variable = n_ris\n"
        "values = 16, 32\n"
        "reps = 5\n"
        "methods = DPC:mitigation_aware:exact\n"
    )
    assert plan.variable == "n_ris"
    assert plan.values == (16.0, 32.0)
    assert plan.reps == 5
    (m,) = plan.methods
    assert m.label == "DPC:mitigation_aware:exact"


def test_bad_method_specs_rejected():
    with pytest.raises(ValueError, match="PRECODER:strategy:mode"):
        parse_config("[sweep]\nmethods = ZF-align\n")
    with pytest.raises(ValueError, match="unknown strategy kind"):
        parse_config("[sweep]\nmethods = ZF:closest:exact\n")
    with pytest.raises(ValueError, match=r"unknown precoder 'MRT'.*\(line 3\)"):
        parse_config("[sweep]\nreps = 2\nmethods = MRT:random:exact\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_config("[sweep]\nvalues = 10, 10\n")


def test_serialize_round_trips():
    for text in (
        "",
        "[scenario]\nn_bs = 6\nn_strong = 2\nseed = 3\n"
        "[sweep]\nvariable = xi\nvalues = 0.1, 1, 10\nreps = 4\n"
        "methods = DPC:mitigation_aware:asymptotic\n",
    ):
        plan = parse_config(text)
        canonical = serialize_config(plan)
        plan2 = parse_config(canonical)
        assert plan2.config == plan.config
        assert plan2 == plan
        assert serialize_config(plan2) == canonical


def test_numpy_fields_serialize_as_their_python_values():
    # the hashed run identity must not depend on whether a caller passed
    # numpy scalars (np.True_ used to serialize as "True", not "true"), ints,
    # lists or arrays: ScenarioConfig and SweepPlan store Python values, and
    # the text they give parses back to an equal plan
    methods = (MethodSpec("ZF", "random", "exact"),)
    python = SweepPlan(
        ScenarioConfig(n_bs=6, seed=3, freeze_positions=True), "n_ris", (8.0, 16.0),
        methods, reps=4,
    )
    text = serialize_config(python)
    for line in ("freeze_positions = true", "ptx_dbm = 30.0", "bs_pos = 0.0, 0.0, 10.0"):
        assert line + "\n" in text
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for updates in (
        {"n_bs": np.int64(6), "seed": np.uint32(3), "freeze_positions": np.bool_(True)},
        {"ptx_dbm": 30},
        {"ptx_dbm": np.float64(30.0)},
        {"bs_pos": [0.0, 0, 10.0]},
        {"bs_pos": np.array([0.0, 0.0, 10.0])},
    ):
        cfg = ScenarioConfig(**{"n_bs": 6, "seed": 3, "freeze_positions": True, **updates})
        plan = SweepPlan(cfg, "n_ris", (8, np.int64(16)), methods, reps=np.int16(4))
        assert serialize_config(plan) == text, updates
        assert hashlib.sha256(serialize_config(plan).encode("utf-8")).hexdigest() == sha
        assert parse_config(serialize_config(plan)) == plan == python


# ------------------------------------------------------------------ reader


def configparser_read(text):
    """configparser's {section: {key: value}} of `text` with the reader's
    settings, or the one-line message the reader must raise instead."""
    cp = configparser.ConfigParser(
        interpolation=None, default_section="", inline_comment_prefixes=(";", "#")
    )
    try:
        cp.read_string(text)
    except configparser.MissingSectionHeaderError as exc:  # a ParsingError too
        return f"text before the first [section] (line {exc.lineno})"
    except configparser.ParsingError as exc:
        return f"not a 'key = value' line (line {exc.errors[0][0]})"
    except configparser.DuplicateOptionError as exc:
        return f"repeated key {exc.option!r} in [{exc.section}] (line {exc.lineno})"
    except configparser.DuplicateSectionError as exc:
        return f"repeated section [{exc.section}] (line {exc.lineno})"
    return {name: dict(cp[name]) for name in cp.sections()}


# configparser 3.13 cuts a value at the first ";" or "#" after whitespace;
# 3.10 to 3.12, and the reader on every version, look at the n-th ";" and the
# n-th "#" together, n = 1, 2, ...  The two differ only on a line holding both.
CONFIGPARSER_ROUND_RULE = sys.version_info < (3, 13)


def reader_read(text):
    try:
        sections = _read_ini(text)
    except ValueError as exc:
        return str(exc)
    return {
        name: {key: value for key, (_, value) in keys.items()}
        for name, (_, keys) in sections.items()
    }


_WS = st.sampled_from(["", " ", "  ", "\t"])
# values and comments, with ";" and "#" both glued to a word and after whitespace
_BITS = st.lists(
    st.sampled_from(["a", "b", " ", "\t", "=", ":", "[", "]", ";", "#", "a;", "b#", " ;", " #"]),
    max_size=5,
).map("".join)
_COMMENT = st.builds("".join, st.tuples(_WS, st.sampled_from(";#"), _BITS))
# headers, in mixed case and with text after the "]"
_HEADER = st.builds(
    "{}[{}]{}".format,
    _WS,
    st.sampled_from(["s", "S", "t", "u", "U", "scenario", "Sweep", "DEFAULT", "a]", " b ", "x y"]),
    st.sampled_from(["", " ", " x", "]", " ;c", "#c"]),
)
# "=" and ":" lines with stray whitespace, empty values and inline comments
# with and without whitespace before them
_KEY_LINE = st.builds(
    "{}{}{}{}{}{}{}".format,
    _WS,
    st.sampled_from(["k", "K", "j", "J", "v2", "w", "n bs", "2x", "a.b", ""]),
    _WS,
    st.sampled_from("=:"),
    _WS,
    _BITS,
    st.one_of(st.just(""), _COMMENT),
)
_BODY_LINE = st.one_of(
    _KEY_LINE,
    _KEY_LINE,
    st.builds("{}{}".format, st.sampled_from([" ", "  ", "\t", "    "]), _BITS),  # continuation
    _COMMENT,  # a full-line comment, indented or not
    st.sampled_from(["", " ", "\t"]),  # blank
    st.text(alphabet="ab =:;#[]\t\r", max_size=8),  # anything
)
# sometimes a line before the first header, then sections, some repeated
INI_TEXTS = st.builds(
    lambda before, sections: "\n".join(before + [line for s in sections for line in s]),
    st.one_of(st.just([]), st.lists(_BODY_LINE, max_size=1)),
    st.lists(
        st.builds(lambda header, body: [header, *body], _HEADER, st.lists(_BODY_LINE, max_size=6)),
        max_size=3,
    ),
)


@hypothesis.settings(DERANDOMIZED, max_examples=300)
@hypothesis.given(INI_TEXTS)
def test_reader_reads_what_configparser_reads(text):
    hypothesis.assume(
        CONFIGPARSER_ROUND_RULE
        or not any(";" in line and "#" in line for line in text.split("\n"))
    )
    want = configparser_read(text)
    got = reader_read(text)
    assert got == want
    if isinstance(got, str):
        assert re.search(r"\(line \d+\)$", got)


@hypothesis.settings(DERANDOMIZED, max_examples=200)
@hypothesis.given(st.text(alphabet="a ;#", max_size=12))
def test_reader_cuts_inline_comments_where_configparser_does(value):
    hypothesis.assume(CONFIGPARSER_ROUND_RULE or not (";" in value and "#" in value))
    text = f"[s]\nk = {value}\n"
    assert reader_read(text) == configparser_read(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("[s]\nk = a#b ;c\n", {"s": {"k": "a#b"}}),
        # continuation lines, with the blank lines between them kept
        ("[s]\nk = 1\n\n  2\n ; note\n\t3\n\n", {"s": {"k": "1\n\n2\n3"}}),
        ("[s]\nk =\n  [t]\nj: 2", {"s": {"k": "\n[t]", "j": "2"}}),
        ("[a] b\n[A]\n", {"a": {}, "A": {}}),
        ("[s]\nk = 1\r\n", {"s": {"k": "1"}}),
    ],
)
def test_reader_examples(text, want):
    assert reader_read(text) == configparser_read(text) == want


def test_reader_looks_at_the_nth_comment_prefixes_together():
    # the first ";" is glued to "x", so the first "#" after whitespace cuts
    # the value before the second ";" is looked at
    text = "[s]\nk = x;y ;z #w\n"
    assert reader_read(text) == {"s": {"k": "x;y ;z"}}
    if CONFIGPARSER_ROUND_RULE:
        assert configparser_read(text) == reader_read(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # configparser raises a repeated key at once, a bad line at the end
        ("[s]\ngarbage\nk = 1\nk = 2\n", r"repeated key 'k' in \[s\] \(line 4\)"),
        ("[s]\n= 1\nk = 2\n", r"not a 'key = value' line \(line 2\)"),
        ("[s]\n= 1\n: 2\n", r"repeated key '' in \[s\] \(line 3\)"),
    ],
)
def test_reader_raises_errors_in_configparser_order(text, message):
    assert re.fullmatch(message, reader_read(text))
    assert reader_read(text) == configparser_read(text)


def test_a_sweep_run_never_imports_configparser(tmp_path):
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from risbc.cli import main\n"
        f"argv = ['sweep', '--config', 'perfbench/mit_aware.ini', '--out', {str(tmp_path)!r}]\n"
        "assert main(argv) == 0\n"
        "print('configparser' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# ------------------------------------------------------------------ emission


def small_result(reps=1, values=(30.0,), labels=("ZF:align_weak:exact",)):
    cfg = ScenarioConfig(n_bs=4, n_strong=2, n_ris=8)
    methods = tuple(MethodSpec(*label.split(":")) for label in labels)
    return run_sweep(SweepPlan(cfg, "ptx_dbm", values, methods, reps))


def test_csv_single_point_cardinality(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(small_result(), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0] == SWEEP_CSV_HEADER
    assert all(len(line.split(",")) == 11 for line in lines)


def test_csv_reread_reproduces_means(tmp_path):
    result = small_result(
        reps=3,
        values=(10.0, 25.0),
        labels=("ZF:align_weak:exact", "DPC:align_weak:asymptotic"),
    )
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.rows)
    for got, want in zip(rows, result.rows):
        assert got["precoder"] == want.precoder
        assert float(got["se_mean"]) == pytest.approx(want.se_mean, rel=1e-8)
        assert float(got["se_d_mean"]) == pytest.approx(want.se_d_mean, rel=1e-8)
        assert float(got["se_r_mean"]) == pytest.approx(want.se_r_mean, rel=1e-8)
        assert int(got["reps"]) == want.reps


def test_bound_report_emission(tmp_path):
    reports = BoundReport("demo", [1.0, 2.0], [2.0, 1.0], 1.5, [True, False], [0.5, -0.5])
    path = tmp_path / "bounds.csv"
    emit_bound_report(reports, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [BOUND_CSV_HEADER, "demo,1,2,1.5,0.5,true", "demo,2,1,1.5,-0.5,false"]
    with pytest.raises(ValueError):
        emit_bound_report(BoundReport(*[()] * 6), tmp_path / "empty.csv")


# Floats whose "%.9g" text must equal format(float(v), ".9g"): the special
# values, a subnormal-range value and numpy scalars.
ODD_FLOATS = (
    np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 1.0 / 3.0, 123456789.5,
    np.float64(2.0 / 3.0), np.float32(0.1), np.float64(-np.inf),
)


def _g9(value) -> str:
    return format(float(value), ".9g")


def test_csv_rows_equal_per_float_formatting(tmp_path):
    rows = [
        SweepRow("ptx_dbm", v, "ZF", "random", "exact", v, -v, v, 2 * v, 7, 1)
        for v in ODD_FLOATS
    ]
    plan = SweepPlan(ScenarioConfig(), "ptx_dbm", (0.0,),
                     (MethodSpec("ZF", "random", "exact"),), reps=7)
    emit_csv(SweepResult(plan, rows), tmp_path / "sweep.csv")
    want = [SWEEP_CSV_HEADER] + [
        ",".join([
            r.sweep_var, _g9(r.value), r.precoder, r.strategy, r.mode,
            _g9(r.se_mean), _g9(r.se_std), _g9(r.se_d_mean), _g9(r.se_r_mean),
            str(r.reps), str(r.flagged),
        ])
        for r in rows
    ]
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8") == "\n".join(want) + "\n"

    # the columns hold float64, so a float32 entry is widened once, as
    # float() widens it
    v = np.array(ODD_FLOATS, dtype=float)
    even = np.arange(v.size) % 2 == 0
    emit_bound_report(BoundReport("odd", v, v, -v, even, 3 * v), tmp_path / "bounds.csv")
    want = [BOUND_CSV_HEADER] + [
        ",".join(["odd", _g9(x), _g9(x), _g9(-x), _g9(3 * x), "true" if ok else "false"])
        for x, ok in zip(v, even)
    ]
    assert (tmp_path / "bounds.csv").read_text(encoding="utf-8") == "\n".join(want) + "\n"


# ------------------------------------------------------------------ presets


def test_figure_presets_shapes():
    plan2 = figure_preset(2)
    assert plan2.variable == "ptx_dbm" and plan2.config.n_bs == 12
    assert plan2.config.n_ris == 64

    plan3 = figure_preset(3)
    assert plan3.variable == "xi" and plan3.config.n_bs == 4
    ratios = np.diff(np.log10(plan3.values))
    assert np.allclose(ratios, ratios[0])  # log grid

    plan4 = figure_preset(4)
    assert plan4.variable == "n_bs" and plan4.values == (4.0, 6.0, 8.0, 10.0, 12.0)

    plan5 = figure_preset(5)
    assert plan5.variable == "n_ris"
    assert plan5.config.freeze_positions and plan5.config.direct_extra_loss_db == 20.0
    assert all(m.mode == "asymptotic" for m in plan5.methods)

    with pytest.raises(ValueError):
        figure_preset(6)


def test_figure5_bound_reports():
    plan = figure_preset(5, reps=30)
    plan = SweepPlan(plan.config, "n_ris", (16.0, 32.0), plan.methods, 30)
    result = run_sweep(plan)
    reports = figure5_bound_reports(result)
    # one row per sweep row, in the sweep's row order (every row of the
    # preset is asymptotic with random or aligned phases)
    assert len(reports) == len(result.rows) == 2 * 4
    assert reports.name.tolist() == 2 * [
        "weak_zf_random_upper",
        "weak_zf_aligned_upper",
        "weak_dpc_random_value",
        "weak_dpc_aligned_lower",
    ]
    assert reports.setting.tolist() == [r.value for r in result.rows]
    assert reports.lhs.tolist() == [r.se_r_mean for r in result.rows]
    assert reports.satisfied.all() and reports.violated == 0


def test_figure5_reports_skip_rows_without_a_closed_form():
    # exact rows and mitigation-aware phases have no closed form; statistical
    # phases share the random-phase forms
    plan = figure_preset(5, reps=4)
    methods = (
        MethodSpec("ZF", "statistical", "asymptotic"),
        MethodSpec("DPC", "mitigation_aware", "asymptotic"),
        MethodSpec("DPC", "align_weak", "exact"),
    )
    plan = SweepPlan(plan.config, "n_ris", (16.0, 32.0), methods, 4)
    reports = figure5_bound_reports(run_sweep(plan))
    assert reports.name.tolist() == ["weak_zf_random_upper"] * 2
    assert reports.setting.tolist() == [16.0, 32.0]
    exact = SweepPlan(plan.config, "n_ris", (16.0,), methods[2:], 4)
    assert len(figure5_bound_reports(run_sweep(exact))) == 0


def test_figure5_reports_need_frozen_positions():
    result = small_result()
    with pytest.raises(ValueError, match="frozen"):
        figure5_bound_reports(result)
