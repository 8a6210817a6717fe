"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed with the current sources and
stores its CSV rows in perfbench/reference/<workload>.json.  Regenerate only when a change alters
the outputs on purpose, and say so where the change is recorded.
"""

import json
import os
import shutil
import subprocess
import sys

import checks
from run import ROOT, SRC, WORK, WORKLOADS

def make(workload):
    out_dir = WORK / f"reference-{workload}"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*WORKLOADS[workload], "--seed", str(checks.REFERENCE_SEED), "--out", str(out_dir)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "risbc.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    try:
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: risbc exited with {proc.returncode}")
        sweep, bound = checks.read_outputs(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    counts = {}
    for row in bound:
        counts[row["bound_name"]] = counts.get(row["bound_name"], 0) + 1
    lines = [
        "{",
        f' "workload": {json.dumps(workload)},',
        f' "seed": {checks.REFERENCE_SEED},',
        f' "argv": {json.dumps(WORKLOADS[workload])},',
        f' "bound_counts": {json.dumps(counts)},',
        ' "sweep_rows": [',
        ",\n".join("  " + json.dumps([r[k] for k in checks.SWEEP_HEADER]) for r in sweep),
        " ],",
        ' "bound_rows": [',
        ",\n".join("  " + json.dumps([r[k] for k in checks.BOUND_HEADER]) for r in bound),
        " ]",
        "}",
    ]
    path = checks.REFERENCE_DIR / f"{workload}.json"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: {len(sweep)} sweep rows, "
          f"{len(bound)} bound rows")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        make(name)
    try:
        WORK.rmdir()
    except OSError:
        pass
