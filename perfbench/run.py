"""End-to-end and per-layer benchmark of the `risbc` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run it from the root of the repository; it imports `risbc` from `src/`.

The load is a closed loop with one client: one `risbc.cli.main(argv)` run at
a time, each in a fresh interpreter started by `child.py`, through a single
process (`--workers` is never passed).  The workload seed is passed to the
program as `--seed`.  Each invocation first runs the workload once at the
reference seed (0): that run is untimed, fills the bytecode caches and is
compared row by row with the stored reference outputs.  It then repeats the
workload at `--seed` until `--seconds` have passed, at least `MIN_RUNS`
times, and reports medians over the repetitions.  Every run's outputs go
through the correctness gate in `checks.py`.

On `mit_aware` each repetition runs at its own program seed, drawn from
`--seed` by `run_seeds`.  The optimizer stops before its sweep limit on
about a quarter of the channel draws, so with 2 reps one seed's run can do a
fifth less work than another's; the median over repetitions at different
seeds varies far less.  The other workloads do the same work on every seed
and repeat `--seed` itself.

Workloads (see BENCHMARK.json for why each one is there):

    fig2_power     risbc figure 2 --reps 200
    fig5_elements  risbc figure 5 --reps 300
    mit_aware      risbc sweep --config perfbench/mit_aware.ini

`risbc bounds` is not a workload: its Monte Carlo identity check
(`chi2_log_expectation`, tolerance 0.01 at 1e5 samples, about 1.7 standard
errors) reports a violation and exits 1 on about 9% of seeds.

With `--trace 0` the last line carries the end-to-end metrics:

    setup_s          process start to the end of `import risbc.cli`
    wall_s           process start to the return of `main`
    items_per_s      draws (sweep points x reps, flagged ones included)
                     per second of `main`
    peak_rss_mb      peak resident memory of the run's process
    check_pass_frac  passed / attempted output checks; 1 - check_fail_frac
    opt_gain_bpcu    mit_aware: mean over points of the mitigation-aware
                     minus the align-weak ZF asymptotic se_r_mean, from the
                     reference-seed run; the other workloads run no
                     optimizer and report the neutral constant 1.0

The three times are scaled to a fixed reference machine speed: each run
times `child.speed_probe` right before and right after `main`, and its times
are multiplied by PROBE_REF_S / (mean probe time).  On a shared machine whose
speed drifts by tens of percent over a minute this cuts the run-to-run spread
about threefold; the unscaled medians and the probe time are printed in the
environment line.

With `--trace 1` it alternates untraced and traced runs (`spans.py`) and
carries the per-layer metrics instead; span times there are unscaled.

A JSON line with the environment (source digest, git SHA when there is one,
Python, numpy, BLAS, thread variables, CPU count, sizes used) precedes the
result line.  The exit code is 2, and no result is printed, when the program
cannot be run at all.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "fig2_power": ["figure", "2", "--reps", "200"],
    "fig5_elements": ["figure", "5", "--reps", "300"],
    "mit_aware": ["sweep", "--config", "perfbench/mit_aware.ini"],
}
# Workloads whose repetitions each run at a seed drawn from --seed.
VARIED_SEEDS = {"mit_aware"}
MIN_RUNS = 3
# Seconds that child.speed_probe takes at the reference machine speed.
PROBE_REF_S = 0.18
CHILD_TIMEOUT_S = 150
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


class Run:
    """One child run: its timing record and the outputs the metrics need."""

    def __init__(self, seed, record, sweep):
        self.seed = seed
        self.record = record
        self.sweep = sweep  # sweep rows (a few dozen)
        self.layers = None  # per-layer metrics of a traced run

    @property
    def scale(self):
        """Factor from this run's machine speed to the reference speed."""
        return PROBE_REF_S / statistics.fmean(self.record["probe_s"])

    @property
    def raw_wall_s(self):
        """Process start to the return of main, without the speed probes."""
        r = self.record
        return (r["t_imported"] - r["t0"]) + (r["t_end"] - r["t_probed"])

    @property
    def setup_s(self):
        return (self.record["t_imported"] - self.record["t0"]) * self.scale

    @property
    def wall_s(self):
        return self.raw_wall_s * self.scale

    @property
    def main_s(self):
        return (self.record["t_end"] - self.record["t_main"]) * self.scale

    @property
    def items(self):
        return checks.sweep_counts(self.sweep)["draws"]


class WorkloadRunner:
    """Runs one workload repeatedly in a private work directory."""

    def __init__(self, workload):
        self.workload = workload
        self.argv = WORKLOADS[workload]
        self.reference = checks.load_reference(workload)
        self.gate = checks.Gate()
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.count = 0

    def run(self, seed, traced=False):
        """Run the workload once in a fresh interpreter and gate its outputs."""
        self.count += 1
        tag = f"run{self.count}"
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        result_path = self.work / f"{tag}.json"
        spans_path = self.work / f"{tag}.spans.json"
        argv = [*self.argv, "--seed", str(seed), "--out", str(out_dir)]
        t0 = time.perf_counter()
        cmd = [
            sys.executable, str(BENCH / "child.py"), repr(t0), str(result_path),
            str(spans_path) if traced else "-", "--", *argv,
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
        if not result_path.exists():
            raise BenchError(
                f"risbc {' '.join(argv)} did not run (exit {proc.returncode}):\n"
                + proc.stderr[-2000:]
            )
        record = json.loads(result_path.read_text(encoding="utf-8"))
        if record["rc"] != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        sweep = checks.check_run(
            self.gate, self.reference, out_dir, record["rc"], seed
        )
        run = Run(seed, record, sweep)
        if traced:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            size = checks.sweep_counts(sweep)
            run.layers = spans.layer_metrics(
                trace, size["draws"], size["draws"] * size["methods"], run.raw_wall_s
            )
        shutil.rmtree(out_dir)
        for path in (result_path, spans_path):
            path.unlink(missing_ok=True)
        return run

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def end_to_end(runs, reference_run, gate):
    median = statistics.median
    gain = checks.opt_gain_bpcu(reference_run.sweep)
    return {
        "setup_s": (median(r.setup_s for r in runs), "s"),
        "wall_s": (median(r.wall_s for r in runs), "s"),
        "items_per_s": (median(r.items / r.main_s for r in runs), "1/s"),
        "peak_rss_mb": (median(r.record["peak_rss_kb"] / 1024.0 for r in runs), "MB"),
        "check_pass_frac": ((gate.attempted - gate.failed) / gate.attempted, "frac"),
        "opt_gain_bpcu": (1.0 if gain is None else gain, "bpcu"),
    }


def per_layer(plain, traced):
    out = spans.median_metrics([r.layers for r in traced])
    size = checks.sweep_counts(traced[0].sweep)
    out["sweep.kept_frac"] = (size["kept"] / size["draws"] if size["draws"] else 1.0, "frac")
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["trace_overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "frac")
    return out


def unscaled(runs):
    """The timing metrics before scaling to the reference speed."""
    median = statistics.median
    return {
        "probe_ref_s": PROBE_REF_S,
        "probe_s": median(statistics.fmean(r.record["probe_s"]) for r in runs),
        "setup_s": median(r.record["t_imported"] - r.record["t0"] for r in runs),
        "wall_s": median(r.raw_wall_s for r in runs),
        "items_per_s": median(
            r.items / (r.record["t_end"] - r.record["t_main"]) for r in runs
        ),
    }


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "risbc").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"numpy": numpy.__version__}
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def environment(workload, args, runs):
    return {
        "workload": workload,
        "argv": WORKLOADS[workload],
        "seed": args.seed,
        "program_seeds": sorted({r.seed for r in runs}),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(runs),
        "used": checks.sweep_counts(runs[-1].sweep),
        "src_sha256": _source_digest(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        **_blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_seeds(workload, seed):
    """The program seeds of a workload's repetitions, made from `seed`."""
    if workload not in VARIED_SEEDS:
        return itertools.repeat(seed)
    rng = random.Random(seed)
    return (rng.randrange(2**31) for _ in itertools.count())


def bench(workload, args):
    """Run one workload; returns (result dict, environment dict)."""
    runner = WorkloadRunner(workload)
    try:
        reference_run = runner.run(checks.REFERENCE_SEED)
        plain, traced = [], []
        seeds = run_seeds(workload, args.seed)
        deadline = time.perf_counter() + args.seconds
        while len(plain) < MIN_RUNS or time.perf_counter() < deadline:
            seed = next(seeds)
            plain.append(runner.run(seed))
            if args.trace:
                traced.append(runner.run(seed, traced=True))
    finally:
        runner.close()
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, reference_run, runner.gate)
    gate = runner.gate
    for note in gate.notes:
        print(f"check failed [{workload}]: {note}", file=sys.stderr)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(workload, args, plain + traced)
    env["speed"] = unscaled(plain)
    return result, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "risbc" / "cli.py").is_file():
        print(f"error: no risbc sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, env = bench(name, args)
            print(json.dumps({"env": env}))
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][key if len(names) == 1 else f"{name}.{key}"] = value
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
