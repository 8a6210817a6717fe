"""Command-line front end: `risbc sweep | bounds | figure <2|3|4|5>`.

`sweep` parses its plan from --config and `figure` takes a preset one; both
share one run path (`_run`): run the plan, write its CSV (and figure 5's
closed-form report) and the manifest, and return the exit code.  Every run
is deterministic for a fixed seed and writes CSVs whose filenames embed the
first 8 hex digits of the canonical-config hash, next to a JSON manifest
sidecar recording the full hash, seed, and output list.  `bounds` (and
`figure 5`) exits 1 if any checked inequality is violated.  An unusable
--config or --out path, an output that cannot be written, or a run that
fails (a sweep row with a negative mean, say) exits 2 with one `error:` line.
"""

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .bounds import standard_bound_reports
from .channel import MAX_REP
from .config import (
    emit_bound_report,
    emit_csv,
    figure5_bound_reports,
    figure_preset,
    parse_config,
    serialize_config,
)
from .sweep import run_sweep


def _int_in(low: int, high: int = None):
    """argparse type: an integer of at least `low` (and at most `high`)."""

    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return int(text)

    parse.__name__ = "int"  # so a non-integer gets argparse's "invalid int value"
    return parse


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _finish(args, name, config_path, canonical, seed, writers):
    """Write outputs + manifest into --out; writers: [(suffix, fn), ...]."""
    out_dir = Path(args.out)
    sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    full = f"{name}_{sha[:8]}"
    manifest = {  # config_path: the source file, or "<defaults>" / "<preset:...>"
        "config_path": config_path, "output_dir": str(out_dir), "sweep_name": full,
        "config_sha256": sha, "timestamp": _utc_now(), "seed": seed,
        "outputs": [f"{full}{suffix}" for suffix, _ in writers], "hash8": sha[:8],
    }
    text = json.dumps(manifest, indent=2) + "\n"
    manifest_writer = (".manifest.json", lambda p: p.write_text(text, "utf-8", newline="\n"))
    for suffix, write in [*writers, manifest_writer]:
        path = out_dir / f"{full}{suffix}"
        try:
            write(path)
        except OSError as exc:  # main turns this into one error line and exit 2
            raise RuntimeError(f"cannot write {path}: {exc.strerror or exc}") from None
        print(f"wrote {path}")


def _run(args, name, config_path, plan, report=None) -> int:
    """Run `plan` and write its CSV, the bound table `report(result)` when
    `report` is given, and the manifest; exit 1 if the table has a violated
    check, else 0."""
    result = run_sweep(plan)
    writers = [(".csv", lambda p: emit_csv(result, p))]
    table = report(result) if report is not None else None
    if table is not None:
        writers.append(("_bounds.csv", lambda p: emit_bound_report(table, p)))
    _finish(args, name, config_path, serialize_config(plan), plan.config.seed, writers)
    if table is not None and table.violated:
        print(f"{table.violated} closed-form checks violated", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig") if args.config else ""
        plan = parse_config(text, seed=args.seed, reps=args.reps)
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
        reason = getattr(exc, "strerror", exc)
        print(f"error: cannot read {args.config}: {reason}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config_path = str(args.config) if args.config else "<defaults>"
    return _run(args, f"sweep_{plan.variable}", config_path, plan)


def cmd_bounds(args) -> int:
    seed = 0 if args.seed is None else args.seed
    reports = standard_bound_reports(seed=seed, grid_points=args.grid_points)
    canonical = f"[bounds]\nseed = {seed}\ngrid_points = {args.grid_points}\n"
    writers = [(".csv", lambda p: emit_bound_report(reports, p))]
    _finish(args, "bounds", "<none>", canonical, seed, writers)
    print(f"checked {len(reports)} bounds, {reports.violated} violated")
    return 1 if reports.violated else 0


def cmd_figure(args) -> int:
    seed = 0 if args.seed is None else args.seed
    reps = 200 if args.reps is None else args.reps
    plan = figure_preset(args.number, seed=seed, reps=reps)
    report = figure5_bound_reports if args.number == 5 else None
    return _run(args, f"figure{args.number}", f"<preset:figure{args.number}>", plan, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risbc",
        description="Sum-SE sweeps and bound reports for the RIS-aided "
        "broadcast downlink with one RIS-only user.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured Monte Carlo sweep")
    p_sweep.add_argument("--config", help="INI config file (omit for defaults)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="check the analytic bounds, write report")
    p_bounds.add_argument(
        "--grid-points",
        type=_int_in(1),
        default=1000,
        help="x grid size (default 1000)",
    )
    p_bounds.set_defaults(fn=cmd_bounds)

    p_fig = sub.add_parser("figure", help="run a preset figure sweep")
    p_fig.add_argument("number", type=int, choices=(2, 3, 4, 5))
    p_fig.set_defaults(fn=cmd_figure)

    for p in (p_sweep, p_bounds, p_fig):
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--seed", type=_int_in(0), help="override the run seed")
        if p is not p_bounds:
            reps = _int_in(1, MAX_REP + 1)  # a replication index is one 32-bit word
            p.add_argument("--reps", type=reps, help="override replications")

    args = parser.parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except RuntimeError as exc:  # a negative mean, say, or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
