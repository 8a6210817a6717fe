"""Correctness gate over the CSVs of one `risbc` run.

Every check adds one to `Gate.attempted`, and one to `Gate.failed` when it
does not hold.  The checks:

- the run exits with code 0;
- every expected row is present and no unexpected row appears; sweep rows
  have `reps + flagged` equal to the requested reps and finite values;
- at the reference seed, every sweep row outside the optimizer matches the
  stored reference within `REL_TOL` relative, `reps`/`flagged` exactly, and
  every stored bound row matches the same way;
- on every seed: every bound row has `satisfied=true`; at each point DPC
  >= ZF for the same strategy and mode; the mitigation-aware `se_r_mean`
  >= the align-weak one for the same precoder and mode.

Optimizer rows are held only to the last rule (and to `opt_gain_bpcu`),
because a better optimizer may change them on purpose.
"""

import csv
import json
import math
from pathlib import Path

SWEEP_HEADER = [
    "sweep_var", "value", "precoder", "strategy", "mode",
    "se_mean", "se_std", "se_d_mean", "se_r_mean", "reps", "flagged",
]
BOUND_HEADER = ["bound_name", "x_or_setting", "lhs", "rhs", "slack", "satisfied"]
SWEEP_FLOATS = ("se_mean", "se_std", "se_d_mean", "se_r_mean")
OPTIMIZER = "mitigation_aware"
REFERENCE_SEED = 0
REL_TOL = 1e-8
# slack for the inequality invariants, relative to the larger side
INVARIANT_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Gate:
    """Counts attempted and failed output checks; keeps a few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def read_outputs(out_dir):
    """(sweep rows, bound rows) of every CSV in out_dir, as dicts of strings."""
    sweep, bound = [], []
    for path in sorted(Path(out_dir).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [dict(zip(header, row)) for row in reader]
        if header == SWEEP_HEADER:
            sweep += rows
        elif header == BOUND_HEADER:
            bound += rows
    return sweep, bound


def sweep_key(row):
    return (row["value"], row["precoder"], row["strategy"], row["mode"])


def bound_key(row):
    return (row["bound_name"], row["x_or_setting"])


def load_reference(workload):
    """Reference outputs at REFERENCE_SEED, written by make_reference.py."""
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["sweep_rows"] = [dict(zip(SWEEP_HEADER, r)) for r in ref["sweep_rows"]]
    ref["bound_rows"] = [dict(zip(BOUND_HEADER, r)) for r in ref["bound_rows"]]
    return ref


def _close(a, b, scale=None):
    scale = max(abs(a), abs(b)) if scale is None else scale
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= REL_TOL * scale


def _floats(row, names):
    try:
        return [float(row[n]) for n in names]
    except (KeyError, ValueError):
        return None


def _check_sweep(gate, ref_rows, rows, compare_values):
    ref = {sweep_key(r): r for r in ref_rows}
    out = {sweep_key(r): r for r in rows}
    gate.check(len(out) == len(rows), "duplicate sweep rows")
    for key, want in ref.items():
        got = out.get(key)
        if not gate.check(got is not None, f"missing sweep row {key}"):
            continue
        values = _floats(got, SWEEP_FLOATS)
        requested = int(want["reps"]) + int(want["flagged"])
        gate.check(
            values is not None
            and all(math.isfinite(v) for v in values)
            and int(got["reps"]) + int(got["flagged"]) == requested,
            f"malformed sweep row {key}",
        )
        if compare_values and key[2] != OPTIMIZER:
            same = values is not None and all(
                _close(v, float(want[n])) for v, n in zip(values, SWEEP_FLOATS)
            )
            same = same and (got["reps"], got["flagged"]) == (want["reps"], want["flagged"])
            gate.check(same, f"sweep row {key} differs from the reference")
    for key in out.keys() - ref.keys():
        gate.check(False, f"unexpected sweep row {key}")
    _check_invariants(gate, out)


def _check_invariants(gate, out):
    def at_least(hi, lo, column, what):
        a, b = float(hi[column]), float(lo[column])
        gate.check(a >= b - INVARIANT_TOL * max(abs(a), abs(b)), what)

    for (value, precoder, strategy, mode), row in out.items():
        if precoder == "DPC":
            zf = out.get((value, "ZF", strategy, mode))
            if zf is not None:
                at_least(row, zf, "se_mean", f"DPC < ZF at {value} {strategy} {mode}")
        if strategy == OPTIMIZER:
            aligned = out.get((value, precoder, "align_weak", mode))
            if aligned is not None:
                at_least(
                    row, aligned, "se_r_mean",
                    f"mitigation-aware < align-weak at {value} {precoder} {mode}",
                )


def _check_bounds(gate, ref, rows, compare_values):
    counts = {}
    for row in rows:
        counts[row["bound_name"]] = counts.get(row["bound_name"], 0) + 1
    for name in sorted(set(ref["bound_counts"]) | set(counts)):
        want, got = ref["bound_counts"].get(name, 0), counts.get(name, 0)
        gate.check(want == got, f"{got} {name} bound rows, expected {want}")
    for row in rows:
        gate.check(row["satisfied"] == "true", f"bound violated: {bound_key(row)}")
    if not compare_values:
        return
    out = {bound_key(r): r for r in rows}
    for want in ref["bound_rows"]:
        got = out.get(bound_key(want))
        if not gate.check(got is not None, f"missing bound row {bound_key(want)}"):
            continue
        w = _floats(want, ("lhs", "rhs", "slack"))
        g = _floats(got, ("lhs", "rhs", "slack"))
        # slack = lhs - rhs, so its rounding scale is that of lhs and rhs
        same = (
            g is not None
            and _close(g[0], w[0])
            and _close(g[1], w[1])
            and _close(g[2], w[2], scale=max(abs(w[0]), abs(w[1])))
            and got["satisfied"] == want["satisfied"]
        )
        gate.check(same, f"bound row {bound_key(want)} differs from the reference")


def check_run(gate, ref, out_dir, rc, seed):
    """Apply every check to one run's outputs; returns its sweep rows."""
    gate.check(rc == 0, f"exit code {rc}")
    sweep, bound = read_outputs(out_dir)
    compare_values = seed == REFERENCE_SEED
    _check_sweep(gate, ref["sweep_rows"], sweep, compare_values)
    _check_bounds(gate, ref, bound, compare_values)
    return sweep


def sweep_counts(sweep_rows):
    """Sizes of a sweep run, read from its rows.

    draws: sweep points x requested reps, flagged draws included; kept: the
    unflagged ones; methods: curves per point.
    """
    per_point = {}
    for row in sweep_rows:
        per_point.setdefault(row["value"], []).append(row)
    firsts = [rows[0] for rows in per_point.values()]
    kept = sum(int(r["reps"]) for r in firsts)
    return {
        "points": len(per_point),
        "reps": max((int(r["reps"]) + int(r["flagged"]) for r in firsts), default=0),
        "methods": max((len(rows) for rows in per_point.values()), default=0),
        "draws": kept + sum(int(r["flagged"]) for r in firsts),
        "kept": kept,
    }


def opt_gain_bpcu(sweep_rows):
    """Mean over points of the mitigation-aware minus the align-weak ZF
    asymptotic `se_r_mean`; None when the run has no optimizer rows."""
    gains = []
    rows = {sweep_key(r): r for r in sweep_rows}
    for (value, precoder, strategy, mode), row in rows.items():
        if (precoder, strategy, mode) == ("ZF", OPTIMIZER, "asymptotic"):
            aligned = rows.get((value, "ZF", "align_weak", "asymptotic"))
            if aligned is not None:
                gains.append(float(row["se_r_mean"]) - float(aligned["se_r_mean"]))
    return sum(gains) / len(gains) if gains else None
