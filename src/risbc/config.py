"""Config parsing, run manifests, figure presets, and CSV emission.

Run inputs are flat INI-style files with two sections:

    [scenario]   every ScenarioConfig field (n_bs, n_ris, ptx_dbm, ...)
    [sweep]      variable, values, reps, methods

All keys are optional; an empty file yields the default downlink scenario
and the default transmit-power sweep.  Unknown or repeated sections
(names are case-insensitive; [DEFAULT] is not special), unknown keys,
values that do not parse and values the scenario or sweep rejects are
reported with the offending section or key and its line number.  `serialize_config`
writes the fully resolved canonical text back out; its SHA-256 is the run
identity, embedded in every output filename so CSVs can always be traced
to the exact configuration (plus seed) that produced them.

Sweep results go to a long-format CSV (one row per sweep point and method)
and bound checks to a smaller report CSV whose `satisfied` column drives
the CLI exit status.
"""

import hashlib
import json
import re
from dataclasses import asdict, dataclass

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
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _to_point(raw):
    vals = _to_floats(raw)
    if len(vals) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(vals)}")
    return vals


def _to_pair(raw):
    vals = _to_floats(raw)
    if len(vals) != 2:
        raise ValueError(f"expected 2 pathloss coefficients, got {len(vals)}")
    return vals


# key -> parser, in ScenarioConfig declaration order (reused for serialization)
_SCENARIO_KEYS = {
    "n_bs": int,
    "n_ris": int,
    "n_strong": int,
    "bs_pos": _to_point,
    "ris_pos": _to_point,
    "user_circle_center": _to_point,
    "user_circle_radius": float,
    "ptx_dbm": float,
    "noise_dbm": float,
    "weak_extra_loss_db": float,
    "direct_extra_loss_db": float,
    "pl_direct": _to_pair,
    "pl_ris_user": _to_pair,
    "pl_los": _to_pair,
    "aoa": float,
    "aod": float,
    "power_divisor": str.strip,
    "freeze_positions": _to_bool,
    "seed": int,
}
_SWEEP_KEYS = {
    "variable": str.strip,
    "values": _to_floats,
    "reps": int,
    "methods": lambda raw: tuple(s.strip() for s in raw.split(",")),
}
_SECTIONS = {"scenario": _SCENARIO_KEYS, "sweep": _SWEEP_KEYS}

_KEY_RE = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*[=:]")
_SECTION_RE = re.compile(r"^\s*\[([^\]]*)\]")


def _find_line(text, section, key=None):
    """Line number of a key inside a section (lower-case name), or of the
    header of the section named exactly `section` when key is None."""
    current = None
    for number, line in enumerate(text.splitlines(), 1):
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1).strip().lower()
            if key is None and m.group(1) == section:
                return number
            continue
        if key is None:
            continue
        m = _KEY_RE.match(line)
        if m and current == section and m.group(1).lower() == key:
            return number
    return None


def _at_line(text, section, key):
    line = _find_line(text, section, key)
    return f" (line {line})" if line is not None else ""


def _section_items(text):
    import configparser

    # no default section: [DEFAULT] would otherwise be merged into every
    # section, or silently ignored when it stands alone
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from None
    items = {}
    for name in cp.sections():
        if name.lower() not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]{_at_line(text, name, None)}")
        if name.lower() in items:
            raise ValueError(
                f"repeated section [{name}]{_at_line(text, name, None)}: "
                "section names are case-insensitive"
            )
        items[name.lower()] = dict(cp[name])
    return items


def _parse_section(text, items, section):
    parsers = _SECTIONS[section]
    out = {}
    for key, raw in items.get(section, {}).items():
        if key not in parsers:
            raise ValueError(
                f"unknown key {key!r} in [{section}]{_at_line(text, section, key)}"
            )
        try:
            out[key] = parsers[key](raw)
        except ValueError as exc:
            raise ValueError(
                f"bad value for {key!r} in [{section}]"
                f"{_at_line(text, section, key)}: {exc}"
            ) from None
    return out


def _checked(text, sections, build):
    """Call a validating constructor, locating the key its error names.

    A ValueError gains the line of the first word of its message that is a
    key the text sets in one of `sections`; otherwise it passes unchanged.
    """
    try:
        return build()
    except ValueError as exc:
        for word in re.findall(r"\w+", str(exc)):
            for section in sections:
                at = _at_line(text, section, word)
                if at:
                    raise ValueError(f"{exc}{at}") from None
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


def parse_config(text: str):
    """Parse config text into (ScenarioConfig, SweepPlan).

    Omitted keys fall back to the default downlink scenario and the default
    transmit-power sweep; the empty string is a valid config.
    """
    items = _section_items(text)

    scenario = _parse_section(text, items, "scenario")
    cfg = _checked(text, ("scenario",), lambda: ScenarioConfig(**scenario))

    sweep = _parse_section(text, items, "sweep")
    plan = _checked(
        text,
        ("sweep",),
        lambda: SweepPlan(
            cfg,
            sweep.get("variable", "ptx_dbm"),
            sweep.get("values", DEFAULT_SWEEP_VALUES),
            _parse_methods(sweep.get("methods", DEFAULT_METHOD_LABELS)),
            sweep.get("reps", 200),
        ),
    )
    return cfg, plan


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def serialize_config(cfg: ScenarioConfig, plan: SweepPlan) -> str:
    """Canonical, fully resolved config text (the hashed run identity)."""
    lines = ["[scenario]"]
    lines += [f"{key} = {_fmt(getattr(cfg, key))}" for key in _SCENARIO_KEYS]
    lines += [
        "",
        "[sweep]",
        f"variable = {plan.variable}",
        "values = " + ", ".join(repr(v) for v in plan.values),
        f"reps = {plan.reps}",
        "methods = " + ", ".join(m.label for m in plan.methods),
        "",
    ]
    return "\n".join(lines)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Sidecar metadata tying every output file to its exact configuration."""

    config_path: str  # source file, or "<defaults>" / "<preset:...>"
    output_dir: str
    sweep_name: str
    config_sha256: str  # hash of the canonical config text (timestamp-free)
    timestamp: str
    seed: int
    outputs: list

    @property
    def hash8(self) -> str:
        return self.config_sha256[:8]

    def to_json(self) -> str:
        record = asdict(self)
        record["hash8"] = self.hash8
        return json.dumps(record, indent=2) + "\n"


def write_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest.to_json())


# =========================================================================
# CSV emission
# =========================================================================


# One row each, with every float as "%.9g" (the text of format(float(v),
# ".9g")), formatted by a single % operation per row.
_SWEEP_ROW = "%s,%.9g,%s,%s,%s,%.9g,%.9g,%.9g,%.9g,%s,%s\n"
_BOUND_ROW = "%s,%.9g,%.9g,%.9g,%.9g,%s\n"


def emit_csv(result: SweepResult, path) -> None:
    """Long-format sweep CSV: one row per (sweep value, method)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        fh.writelines(
            _SWEEP_ROW
            % (
                r.sweep_var, r.value, r.precoder, r.strategy, r.mode, r.se_mean,
                r.se_std, r.se_d_mean, r.se_r_mean, r.reps, r.flagged,
            )
            for r in result.rows
        )


def emit_bound_report(reports, path) -> None:
    """Bound-check CSV; any satisfied=false row must fail the CLI run."""
    if not reports:
        raise ValueError("empty bound report")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(BOUND_CSV_HEADER + "\n")
        fh.writelines(
            _BOUND_ROW
            % (
                r.name, r.setting, r.lhs, r.rhs, r.slack,
                "true" if r.satisfied else "false",
            )
            for r in reports
        )


# =========================================================================
# figure presets
# =========================================================================


def figure_preset(number: int, seed: int = 0, reps: int = 200):
    """Preset (config, plan) pairs for the four standard figures.

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
        variable, values = "xi", tuple(float(x) for x in np.logspace(-2.0, 3.0, 11))
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
    return cfg, SweepPlan(cfg, variable, values, _parse_methods(labels), reps)


def figure5_bound_reports(result: SweepResult) -> list:
    """Ergodic closed-form checks against the element-count sweep's means.

    Upper/lower bounds are compared directly; the random-phase DPC value is
    an ergodic equality, so it is accepted within a Monte Carlo tolerance of
    6/sqrt(reps) (about three standard errors of the per-draw log spread).
    """
    cfg = result.plan.config
    if not cfg.freeze_positions:
        raise ValueError("closed-form comparison needs frozen user positions")
    pl = nominal_pathlosses(cfg, frozen_positions(cfg))
    p_bar = cfg.p_bar()
    reports = []
    for row in result.rows:
        if row.mode != "asymptotic":
            continue
        cfg_v = cfg.with_updates(n_ris=int(row.value))
        mc = row.se_r_mean
        if row.strategy in RANDOM_STRATEGIES:
            lin_upper, dpc_value = random_phase_closed_forms(cfg_v, pl, p_bar)
            if row.precoder == "ZF":
                reports.append(BoundReport(
                    "weak_zf_random_upper", row.value, mc, lin_upper,
                    mc <= lin_upper, mc - lin_upper,
                ))
            else:
                slack = mc - dpc_value
                reports.append(BoundReport(
                    "weak_dpc_random_value", row.value, mc, dpc_value,
                    abs(slack) <= 6.0 / np.sqrt(row.reps), slack,
                ))
        elif row.strategy == "align_weak":
            lin_upper, dpc_lower = aligned_phase_closed_forms(cfg_v, pl, p_bar)
            if row.precoder == "ZF":
                reports.append(BoundReport(
                    "weak_zf_aligned_upper", row.value, mc, lin_upper,
                    mc <= lin_upper, mc - lin_upper,
                ))
            else:
                reports.append(BoundReport(
                    "weak_dpc_aligned_lower", row.value, mc, dpc_lower,
                    mc >= dpc_lower, mc - dpc_lower,
                ))
    return reports
