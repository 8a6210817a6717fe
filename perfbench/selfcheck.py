"""Self-check of the correctness gate in `checks.py`.

    python3 perfbench/selfcheck.py

For each workload, writes the stored reference rows as CSVs, gates them as
the outputs of a run at the reference seed (which must pass), and then gates
damaged copies, each of which must raise check_fail_frac:

    perturbed_value  one reference-checked value off by 1e-6 relative
    flipped_bound    one bound row's `satisfied` set to false
    missing_row      one row deleted
    optimizer_below  the mitigation-aware se_r_mean put below alignment

Runs no program; exits 1 if any expectation fails.
"""

import copy
import csv
import shutil
import sys

import checks
from run import WORK, WORKLOADS


def _write(out_dir, sweep, bound):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    for name, header, rows in (
        ("run.csv", checks.SWEEP_HEADER, sweep),
        ("run_bounds.csv", checks.BOUND_HEADER, bound),
    ):
        if rows:
            with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([row[k] for k in header] for row in rows)


def _damaged(ref):
    """(case name, sweep rows, bound rows) for each damage that applies."""
    sweep, bound = ref["sweep_rows"], ref["bound_rows"]
    cases = []
    plain = [i for i, r in enumerate(sweep) if r["strategy"] != checks.OPTIMIZER]
    if plain:
        s = copy.deepcopy(sweep)
        row = s[plain[0]]
        row["se_mean"] = format(float(row["se_mean"]) * (1 + 1e-6), ".9g")
        cases.append(("perturbed_value", s, bound))
    elif bound:
        b = copy.deepcopy(bound)
        b[0]["lhs"] = format(float(b[0]["lhs"]) * (1 + 1e-6), ".9g")
        cases.append(("perturbed_value", sweep, b))
    if bound:
        b = copy.deepcopy(bound)
        b[0]["satisfied"] = "false"
        cases.append(("flipped_bound", sweep, b))
    if sweep:
        cases.append(("missing_row", sweep[1:], bound))
    else:
        cases.append(("missing_row", sweep, bound[1:]))
    for i, row in enumerate(sweep):
        if row["strategy"] == checks.OPTIMIZER and row["mode"] == "asymptotic":
            s = copy.deepcopy(sweep)
            s[i]["se_r_mean"] = "-1"
            cases.append(("optimizer_below", s, bound))
            break
    return cases


def main():
    ok = True
    print(f"{'workload':14} {'case':16} {'attempted':>9} {'failed':>6} check_fail_frac")
    for workload in WORKLOADS:
        ref = checks.load_reference(workload)
        out_dir = WORK / f"selfcheck-{workload}"
        cases = [("clean", ref["sweep_rows"], ref["bound_rows"]), *_damaged(ref)]
        for case, sweep, bound in cases:
            _write(out_dir, sweep, bound)
            gate = checks.Gate()
            checks.check_run(gate, ref, out_dir, 0, checks.REFERENCE_SEED)
            frac = gate.failed / gate.attempted
            expected = frac == 0 if case == "clean" else frac > 0
            ok &= expected
            print(f"{workload:14} {case:16} {gate.attempted:9} {gate.failed:6} "
                  f"{frac:.6f}{'' if expected else '  <-- unexpected'}")
        shutil.rmtree(out_dir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass
    print("gate self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
