"""Run one `risbc` CLI invocation in this fresh interpreter and time it.

    python3 perfbench/child.py T0 RESULT_JSON SPANS_JSON|- -- RISBC_ARGV...

T0 is the parent's `time.perf_counter()` taken just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
the times written here are comparable with it.  With a SPANS_JSON path the
run is traced: every public `risbc` callable is wrapped by
`spans.SpanRecorder` after the import and before `main`.

Right before and right after `main` the child times `speed_probe`, a fixed
kernel with the same mix of interpreter work and small numpy calls as the
program.  The machine's speed drifts by tens of percent over seconds to
minutes; the parent divides by the probe time to report times at a fixed
reference speed.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE_ROUNDS = 3600


def peak_rss_kb():
    """High-water resident memory of this process image, in KiB.

    VmHWM belongs to the memory map created by exec; `ru_maxrss` would also
    carry the peak of the parent that forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def speed_probe(rounds=PROBE_ROUNDS):
    """Seconds taken by a fixed, seeded mix of small numpy and Python work."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(rounds):
        a = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        w, _ = np.linalg.eigh(a @ a.conj().T)
        acc += float(w[-1]) + abs(sum(complex(k, -k) for k in range(60)))
    if not acc > 0:
        raise RuntimeError("speed probe produced no result")
    return time.perf_counter() - start


def main():
    t0, result_path, spans_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py T0 RESULT SPANS|- -- ARGV...")
    argv = sys.argv[5:]

    sys.path.insert(0, str(SRC))
    import risbc.cli

    t_imported = time.perf_counter()
    speed_probe(rounds=50)  # warm-up: first LAPACK call and allocations
    probe_before = speed_probe()
    t_probed = time.perf_counter()
    recorder = None
    if spans_path != "-":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    t_main = time.perf_counter()
    try:
        rc = risbc.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a program failure is a result the gate counts
        traceback.print_exc()
        rc = -1
    t_end = time.perf_counter()
    rss_kb = peak_rss_kb()
    probe_after = speed_probe()

    if recorder is not None:
        recorder.dump(spans_path)
    record = {
        "rc": rc,
        "t0": t0,
        "t_imported": t_imported,
        "t_probed": t_probed,
        "t_main": t_main,
        "t_end": t_end,
        "peak_rss_kb": rss_kb,
        "probe_s": [probe_before, probe_after],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
