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

argv is read in one pass from one table (`_COMMANDS`) as the argparse parser
in `tests/oracles.py` read it, at a fraction of that parser's first-use cost;
a rejected one writes a usage line and one `risbc <command>: error:` line to
stderr and raises SystemExit(2).
"""

import hashlib
import json
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

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
    """A converter: an integer in [low, high], else ValueError in argparse's words."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if value < low:
            raise ValueError(f"must be at least {low}, got {text}")
        if high is not None and value > high:
            raise ValueError(f"must be at most {high}, got {text}")
        return value

    return parse


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


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
        # "utf-8-sig" drops one BOM too, but its first use imports a codec
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        plan = parse_config(text.removeprefix("\ufeff"), seed=args.seed, reps=args.reps)
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


_SEED, _REPS = _int_in(0), _int_in(1, MAX_REP + 1)  # a replication index is one 32-bit word
# command: (its function, its usage, {option: converter}); "--grid-points" fills grid_points
_COMMANDS = {
    "sweep": (cmd_sweep, "risbc sweep  [--config run.ini] [--out DIR] [--seed N] [--reps N]",
              {"--config": str, "--out": str, "--seed": _SEED, "--reps": _REPS}),
    "bounds": (cmd_bounds, "risbc bounds [--out DIR] [--seed N] [--grid-points N]",
               {"--grid-points": _int_in(1), "--out": str, "--seed": _SEED}),
    "figure": (cmd_figure, "risbc figure {2|3|4|5} [--out DIR] [--seed N] [--reps N]",
               {"--out": str, "--seed": _SEED, "--reps": _REPS}),
}
_DEFAULTS = {"--out": ".", "--grid-points": 1000}  # every other field is None
_HELP = {"-h": None, "--help": None}


def _option(token, options):
    """How argparse read `token` (not "--") among `options`: None for a
    positional, else the option it names or abbreviates (None if none) and
    its `=value`."""
    prefix, eq, value = token.partition("=")
    found = [o for o in options if o == prefix or prefix[:2] == "--" and o.startswith(prefix)]
    if len(found) == 1:
        return found[0], value if eq else None
    if token[:1] != "-" or token == "-" or " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None
    return None, None


def _parse(argv) -> SimpleNamespace:
    """The fields `cmd_*` read, from argv (sys.argv[1:] if None)."""
    tokens, i = (sys.argv[1:] if argv is None else list(argv)), 0
    command, options, fields, extras, name = None, _HELP, {}, [], "command"
    ended = number_end = message = None  # ended: past the first "--"
    try:
        while i < len(tokens):
            token, i = tokens[i], i + 1
            found = None if ended or token == "--" else _option(token, options)
            if token == "--" and command and not ended:
                ended = True  # argparse dropped it right before or after figure's number
                if command != "figure" or "number" in fields and number_end != i - 1:
                    extras.append(token)
            elif found is None and command is None:
                if token not in _COMMANDS:
                    raise ValueError(f"invalid choice: {token!r} "
                                     "(choose from 'sweep', 'bounds', 'figure')")
                command, options = token, {**_HELP, **_COMMANDS[token][2]}
                fields = {option: _DEFAULTS.get(option) for option in _COMMANDS[token][2]}
            elif found is None and command == "figure" and "number" not in fields:
                name, number_end = "number", i
                fields["number"] = _int_in(2, 5)(token)
            elif found is None or found[0] is None:
                extras.append(token)
            elif options[found[0]] is None:  # -h or --help
                name = "-h/--help"
                if found[1] is not None:
                    raise ValueError(f"ignored explicit argument {found[1]!r}")
                print("usage: " + "\n       ".join(c[1] for c in _COMMANDS.values()))
                raise SystemExit(0)
            else:
                name, value = found
                if value is None:
                    if i == len(tokens) or tokens[i] == "--" or _option(tokens[i], options):
                        raise ValueError("expected one argument")
                    value, i = tokens[i], i + 1
                fields[name] = options[name](value)
        if command is None or command == "figure" and "number" not in fields:
            missing = "number" if command else "command"
            message = f"the following arguments are required: {missing}"
        elif extras:
            message = f"unrecognized arguments: {' '.join(extras)}"
    except ValueError as exc:  # from a converter or the loop
        message = f"argument {name}: {exc}"
    if message:
        usage = _COMMANDS[command][1] if command else "risbc {sweep|bounds|figure} ..."
        prog = f"risbc {command}" if command else "risbc"
        sys.stderr.write(f"usage: {usage}\n{prog}: error: {message}\n")
        raise SystemExit(2)
    fields = {key.lstrip("-").replace("-", "_"): value for key, value in fields.items()}
    return SimpleNamespace(command=command, fn=_COMMANDS[command][0], **fields)


def main(argv=None) -> int:
    args = _parse(argv)
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
