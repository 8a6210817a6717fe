"""Config parsing, figure presets, and CSV emission.

Run inputs are INI files with two sections, [scenario] (every
ScenarioConfig field: n_bs, n_ris, ptx_dbm, ...) and [sweep] (variable,
values, reps, methods).  Every key is optional: an empty file gives the
default downlink and the default transmit-power sweep.  A config and a
figure preset each give one `SweepPlan`, whose scenario is `plan.config`.

`_read_ini` reads the text in one pass, line by line, in configparser's
language with interpolation=None, default_section="" and
inline_comment_prefixes=(";", "#"): "[name]" headers ([DEFAULT] is an
ordinary one), "key = value" or "key: value" lines (keys lower-cased, both
stripped, the value possibly empty), full-line "#"/";" comments, ";"/"#"
comments after whitespace, and indented continuation lines joined with
newlines.  Every config error -- text that is not INI, an unknown or
repeated section (names are case-insensitive) or key, a value that does not
parse or that the scenario or sweep rejects -- is one line naming its line.
`serialize_config` writes the fully resolved canonical text of a plan back
out; its SHA-256 is the run identity, embedded in every output filename.

Sweep results go to a long-format CSV (one row per sweep point and method)
and bound checks to a smaller report CSV whose `satisfied` column drives
the CLI exit status.
"""

import re
from dataclasses import fields

import numpy as np

from .bounds import (
    BoundReport,
    aligned_phase_closed_forms,
    random_phase_closed_forms,
)
from .channel import ScenarioConfig, frozen_positions, nominal_pathlosses
from .phases import RANDOM_STRATEGIES
from .sweep import MethodSpec, SweepPlan, SweepResult

SWEEP_CSV_HEADER = (
    "sweep_var,value,precoder,strategy,mode,"
    "se_mean,se_std,se_d_mean,se_r_mean,reps,flagged"
)
BOUND_CSV_HEADER = "bound_name,x_or_setting,lhs,rhs,slack,satisfied"

DEFAULT_METHOD_LABELS = (
    "ZF:align_weak:exact",
    "ZF:align_weak:asymptotic",
    "DPC:align_weak:exact",
    "DPC:align_weak:asymptotic",
)
DEFAULT_SWEEP_VALUES = tuple(float(v) for v in range(0, 41, 5))

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _to_bool(raw):
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}")


def _to_floats(raw):
    if "," in raw and not all(entry.strip() for entry in raw.split(",")):
        raise ValueError(f"empty entry in {raw!r}")
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


_PARSERS = {bool: _to_bool, int: int, float: float, tuple: _to_floats}
# key -> parser, in ScenarioConfig declaration order (reused for
# serialization), chosen by the kind of the field's default; ScenarioConfig
# checks a tuple's length
_SCENARIO_KEYS = {f.name: _PARSERS[type(f.default)] for f in fields(ScenarioConfig)}
_SWEEP_KEYS = {
    "variable": str.strip,
    "values": _to_floats,
    "reps": int,
    "methods": lambda raw: tuple(s.strip() for s in raw.split(",")),
}
_SECTIONS = {"scenario": _SCENARIO_KEYS, "sweep": _SWEEP_KEYS}


def _comment_start(line):
    """Where configparser of Python 3.10-3.12 cuts an inline comment off
    `line`, or None.  Round n looks at the n-th ";" and the n-th "#"; the
    first round with one after whitespace cuts at the earlier such one."""
    found = [  # (rank among the prefix's occurrences, index)
        (line.count(prefix, 0, m.start()), m.start())
        for prefix in ";#"
        if (m := re.search(r"(?<!\S)" + prefix, line))
    ]
    return min(found)[1] if found else None


def _read_ini(text):
    """{section: (header line, {key: [line, value]})} of INI text, read as
    configparser reads it (see the module docstring), with its four syntax
    errors as one-line ValueErrors, raised in configparser's order."""
    sections, keys, key, indent, gap, bad_line = {}, None, None, 0, "", None
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":  # blank, or a comment
            gap += "" if stripped else "\n"  # kept if a continuation follows
            continue
        value = line[:_comment_start(line)].strip()
        level = len(line) - len(line.lstrip())
        if key and level > indent:  # a continuation line
            keys[key][1] += gap + "\n" + value
            gap = ""
            continue
        indent, gap = level, ""
        close = value.rfind("]")
        if value[0] == "[" and close > 1:  # "[a] x" is [a], "[a]]" is [a]]
            name, keys, key = value[1:close], {}, None
            if name in sections:
                raise ValueError(f"repeated section [{name}] (line {number})")
            sections[name] = (number, keys)
        elif keys is None:
            raise ValueError(f"text before the first [section] (line {number})")
        elif "=" not in value and ":" not in value:
            bad_line = bad_line or number
        else:
            cut = min(at for at in (value.find("="), value.find(":")) if at >= 0)
            key = value[:cut].rstrip().lower()
            if key in keys:
                raise ValueError(f"repeated key {key!r} in [{name}] (line {number})")
            keys[key] = [number, value[cut + 1:].strip()]
            if not key:  # "= 1": stored as configparser does, then rejected
                bad_line = bad_line or number
    if bad_line:
        raise ValueError(f"not a 'key = value' line (line {bad_line})")
    return sections


def _parse_section(items, section):
    parsers = _SECTIONS[section]
    out = {}
    for key, (line, raw) in items.get(section, {}).items():
        if key not in parsers:
            raise ValueError(f"unknown key {key!r} in [{section}] (line {line})")
        try:
            out[key] = parsers[key](raw)
        except ValueError as exc:
            raise ValueError(
                f"bad value for {key!r} in [{section}] (line {line}): {exc}"
            ) from None
    return out


def _checked(items, section, build):
    """Call a validating constructor; a ValueError gains the line of the
    first word of its message that is a key the text sets in `section`."""
    try:
        return build()
    except ValueError as exc:
        keys = items.get(section, {})
        for word in re.findall(r"\w+", str(exc)):
            if word in keys:
                raise ValueError(f"{exc} (line {keys[word][0]})") from None
        raise


def _parse_methods(labels):
    methods = []
    for label in labels:
        parts = [p.strip() for p in label.split(":")]
        try:
            if len(parts) != 3:
                raise ValueError("bad method spec (want PRECODER:strategy:mode)")
            methods.append(MethodSpec(*parts))
        except ValueError as exc:
            raise ValueError(f"{exc} in methods entry {label!r}") from None
    return tuple(methods)


def parse_config(text: str, *, seed: int = None, reps: int = None) -> SweepPlan:
    """Parse config text into a SweepPlan (its scenario is `plan.config`).

    Omitted keys fall back to the default downlink scenario and the default
    transmit-power sweep; the empty string is a valid config.  `seed` and
    `reps`, when given, replace the text's (the CLI's --seed and --reps).
    """
    items = {}
    for name, (line, keys) in _read_ini(text).items():
        if name.lower() not in _SECTIONS:
            raise ValueError(f"unknown section [{name}] (line {line})")
        if name.lower() in items:
            raise ValueError(
                f"repeated section [{name}] (line {line}): "
                "section names are case-insensitive"
            )
        items[name.lower()] = keys

    scenario = _parse_section(items, "scenario")
    if seed is not None:
        scenario["seed"] = seed
    cfg = _checked(items, "scenario", lambda: ScenarioConfig(**scenario))

    sweep = _parse_section(items, "sweep")
    return _checked(
        items,
        "sweep",
        lambda: SweepPlan(
            cfg,
            sweep.get("variable", "ptx_dbm"),
            sweep.get("values", DEFAULT_SWEEP_VALUES),
            _parse_methods(sweep.get("methods", DEFAULT_METHOD_LABELS)),
            sweep.get("reps", 200) if reps is None else reps,
        ),
    )


def _fmt(value):
    """A canonical field or sweep value as config text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return str(value)


def serialize_config(plan: SweepPlan) -> str:
    """Canonical, fully resolved config text (the hashed run identity)."""
    lines = ["[scenario]"]
    lines += [f"{key} = {_fmt(getattr(plan.config, key))}" for key in _SCENARIO_KEYS]
    lines += [
        "",
        "[sweep]",
        f"variable = {plan.variable}",
        f"values = {_fmt(plan.values)}",
        f"reps = {plan.reps}",
        "methods = " + ", ".join(m.label for m in plan.methods),
        "",
    ]
    return "\n".join(lines)


# =========================================================================
# CSV emission
# =========================================================================


# One row each, with every float as "%.9g" (the text of format(float(v),
# ".9g")), formatted by a single % operation per row.
_SWEEP_ROW = "%s,%.9g,%s,%s,%s,%.9g,%.9g,%.9g,%.9g,%s,%s\n"
_BOUND_ROW = "%s,%.9g,%.9g,%.9g,%.9g,%s\n"


def _write_csv(path, header, row_format, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(map(row_format.__mod__, rows))


def emit_csv(result: SweepResult, path) -> None:
    """Long-format sweep CSV: one row per (sweep value, method)."""
    rows = (
        (r.sweep_var, r.value, r.precoder, r.strategy, r.mode, r.se_mean,
         r.se_std, r.se_d_mean, r.se_r_mean, r.reps, r.flagged)
        for r in result.rows
    )
    _write_csv(path, SWEEP_CSV_HEADER, _SWEEP_ROW, rows)


def emit_bound_report(reports: BoundReport, path) -> None:
    """Bound-check CSV; any satisfied=false row must fail the CLI run."""
    if not len(reports):
        raise ValueError("empty bound report")
    columns = (reports.name, reports.setting, reports.lhs, reports.rhs, reports.slack,
               np.where(reports.satisfied, "true", "false"))
    _write_csv(path, BOUND_CSV_HEADER, _BOUND_ROW, zip(*(c.tolist() for c in columns)))


# =========================================================================
# figure presets
# =========================================================================


def figure_preset(number: int, seed: int = 0, reps: int = 200):
    """Preset plans for the four standard figures.

    2: sum SE vs transmit power, exact and high-SNR curves.
    3: direct/reflected SE split vs the BS-RIS orthogonality parameter xi
       on a log grid (small array, N_B = 4).
    4: sum SE vs number of BS antennas at 40 dBm.
    5: reflected SE vs number of RIS elements with attenuated direct links
       and frozen positions -- the ZF saturation / DPC scaling setup; pairs
       with the ergodic closed-form report of `figure5_bound_reports`.
    """
    base = ScenarioConfig(seed=seed)
    labels = DEFAULT_METHOD_LABELS
    if number == 2:
        cfg, variable, values = base, "ptx_dbm", DEFAULT_SWEEP_VALUES
    elif number == 3:
        cfg = base.with_updates(n_bs=4, ptx_dbm=40.0)
        variable, values = "xi", np.logspace(-2.0, 3.0, 11)
    elif number == 4:
        cfg = base.with_updates(ptx_dbm=40.0)
        variable, values = "n_bs", (4.0, 6.0, 8.0, 10.0, 12.0)
    elif number == 5:
        cfg = base.with_updates(
            ptx_dbm=40.0, direct_extra_loss_db=20.0, freeze_positions=True
        )
        variable, values = "n_ris", (16.0, 32.0, 64.0, 128.0, 256.0)
        labels = (
            "ZF:random:asymptotic",
            "ZF:align_weak:asymptotic",
            "DPC:random:asymptotic",
            "DPC:align_weak:asymptotic",
        )
    else:
        raise ValueError("figure must be 2, 3, 4, or 5")
    return SweepPlan(cfg, variable, values, _parse_methods(labels), reps)


# (phase family, precoder) -> (check name, closed forms, comparison of the
# weak user's mean reflected rate with the form: ZF's is the first of the
# pair, DPC's the second).  The random-phase DPC value is an ergodic equality,
# accepted within 6/sqrt(reps) (about three standard errors of the per-draw
# log spread).
_FIGURE5_CHECKS = {
    ("random", "ZF"): ("weak_zf_random_upper", random_phase_closed_forms, "upper"),
    ("random", "DPC"): ("weak_dpc_random_value", random_phase_closed_forms, "value"),
    ("align_weak", "ZF"): ("weak_zf_aligned_upper", aligned_phase_closed_forms, "upper"),
    ("align_weak", "DPC"): ("weak_dpc_aligned_lower", aligned_phase_closed_forms, "lower"),
}


def figure5_bound_reports(result: SweepResult) -> BoundReport:
    """Ergodic closed-form checks against the element-count sweep's means,
    one row per asymptotic row with random or aligned phases, in row order."""
    plan = result.plan
    cfg = plan.config
    if not cfg.freeze_positions:
        raise ValueError("closed-form comparison needs frozen user positions")
    pl = nominal_pathlosses(cfg, frozen_positions(cfg))
    scenarios = dict(zip(plan.values, plan.points))
    rows = []
    for row in result.rows:
        family = "random" if row.strategy in RANDOM_STRATEGIES else row.strategy
        check = _FIGURE5_CHECKS.get((family, row.precoder))
        if row.mode != "asymptotic" or check is None:
            continue
        name, closed_forms, kind = check
        point = scenarios[row.value]
        forms = closed_forms(point, pl, point.p_bar())
        mc, form = row.se_r_mean, forms[row.precoder == "DPC"]
        holds = {"upper": mc <= form, "lower": mc >= form,
                 "value": abs(mc - form) <= 6.0 / np.sqrt(row.reps)}[kind]
        rows.append((name, row.value, mc, form, holds, mc - form))
    return BoundReport(*(zip(*rows) if rows else [()] * 6))  # empty: no row to check
