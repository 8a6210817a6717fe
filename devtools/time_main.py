"""Time the first and the second `risbc.cli.main` of a fresh interpreter.

    python devtools/time_main.py

Run it from the root of the repository; it imports `risbc` from `src/`.
For each of the three benchmark workloads (`perfbench/run.py`'s argvs) it
starts RUNS fresh interpreters, taking the workloads in turn.  Each imports
`risbc.cli`, warms numpy up (a first LAPACK call and a few allocations,
as the benchmark's probe does), then runs `main(argv)` twice into a
temporary `--out` and times each call.  The medians in milliseconds print
as one JSON line.  Only `main` is called, so the script runs unchanged on
any commit that has it.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 9
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {
    "mit_aware": ["sweep", "--config", "perfbench/mit_aware.ini"],
    "fig2_power": ["figure", "2", "--reps", "200"],
    "fig5_elements": ["figure", "5", "--reps", "300"],
}
CHILD = """
import contextlib, io, json, sys, tempfile, time
import numpy as np
from risbc.cli import main
for n in range(50):
    np.linalg.eigh(np.eye(4) * n)
times = []
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        start = time.perf_counter()
        rc = main([*json.loads(sys.argv[1]), "--out", out])
        times.append(1e3 * (time.perf_counter() - start))
        assert rc == 0, rc
print(json.dumps(times))
"""


def first_and_second_ms(argv):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)], cwd=ROOT, check=True,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    times = {name: [] for name in WORKLOADS}
    for _ in range(RUNS):
        for name, argv in WORKLOADS.items():
            times[name].append(first_and_second_ms(argv))
    result = {"unit": "ms", "runs": RUNS}
    for name, pairs in times.items():
        first, second = zip(*pairs)
        result[name] = {
            "first": round(statistics.median(first), 3),
            "second": round(statistics.median(second), 3),
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
