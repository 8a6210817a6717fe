"""Time `phases.optimize_mitigation_aware` in-process on three fixed stacks.

    PYTHONPATH=src python devtools/time_optimizer.py

The stacks are the default scenario's decomposed blocks: seed 0's two
draws (the first block of the `mit_aware` benchmark workload, N_R = 64),
and seed 7's 64 draws at N_R = 64 and at N_R = 256.  Each starts from the
aligned phases (`align_weak_user`).  After one untimed call, the optimizer
is timed over CALLS warm calls per stack, and the medians in milliseconds
print as one JSON line.  Only public names are used, so the
script runs unchanged on any commit that has them.
"""

import json
import statistics
import sys
import time

import numpy as np

sys.dont_write_bytecode = True  # a timing run leaves no __pycache__ under src/risbc
from risbc.channel import ScenarioConfig, draw_block, realize_block, stream_states
from risbc.phases import align_weak_user, optimize_mitigation_aware
from risbc.se import decompose

CALLS = 20
# name: (seed, draws, N_R)
STACKS = {
    "seed0_b2_nr64": (0, 2, 64),
    "seed7_b64_nr64": (7, 64, 64),
    "seed7_b64_nr256": (7, 64, 256),
}


def stack(seed, reps, n_ris):
    """The decomposed block of replications 0..reps-1 of the default scenario."""
    cfg = ScenarioConfig(seed=seed, n_ris=n_ris)
    _, pathlosses, x = draw_block(cfg, stream_states(seed, range(reps)))
    return decompose(realize_block(cfg, pathlosses, x))


def median_ms(cache, init):
    optimize_mitigation_aware(cache, init)
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        optimize_mitigation_aware(cache, init)
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 4)


def main():
    result = {"unit": "ms", "calls": CALLS, "numpy": np.__version__}
    for name, (seed, reps, n_ris) in STACKS.items():
        cache = stack(seed, reps, n_ris)
        result[name] = median_ms(cache, align_weak_user(cache.h_c_weak))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
