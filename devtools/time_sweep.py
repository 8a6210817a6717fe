"""Time `sweep.run_sweep` in-process on three figure presets.

    PYTHONPATH=src python devtools/time_sweep.py

The plans are figure 2 at 2000 reps (one stage-1 point that nine powers
share), figure 5 at 3000 reps (five N_R points, the last four of which
build only their cascades) and figure 3 at 300 reps (eleven xi points from
one feed per block).  After one untimed call, each plan is timed over
CALLS warm calls, and the medians in milliseconds print as one JSON line.
Stage 1 and stage 2 are both timed; no CSV or manifest is written.  Only
public names are used, so the script runs unchanged on any commit that
has them.
"""

import json
import statistics
import sys
import time

import numpy as np

sys.dont_write_bytecode = True  # a timing run leaves no __pycache__ under src/risbc
from risbc.config import figure_preset
from risbc.sweep import run_sweep

CALLS = 5
# name: (figure, reps)
PLANS = {
    "fig2_r2000": (2, 2000),
    "fig5_r3000": (5, 3000),
    "fig3_r300": (3, 300),
}


def median_ms(plan, calls=CALLS) -> float:
    """The median wall time of `calls` warm run_sweep(plan) calls, in ms."""
    run_sweep(plan)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        run_sweep(plan)
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 3)


def main():
    result = {"unit": "ms", "calls": CALLS, "numpy": np.__version__}
    for name, (figure, reps) in PLANS.items():
        result[name] = median_ms(figure_preset(figure, reps=reps))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
