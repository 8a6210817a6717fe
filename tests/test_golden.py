"""The CSVs of the figure presets, `risbc bounds` and the
perfbench/mit_aware.ini sweep at seeds 0 and 3 equal the committed files in
tests/golden byte for byte.  A failure names the lines whose numbers differ
by more than GOLDEN_RTOL relative and the largest difference (`mismatch`).
`tests/golden/make.py` regenerates them.  The optimizer's sweep also holds
them when OpenBLAS runs other kernels than the ones that wrote them."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risbc
from golden.make import RUNS, SEEDS, golden_dir, run

GOLDEN_RTOL = 1e-8


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def mismatch(name, got_text, want_text):
    """None if the CSVs agree, else a message naming the file, the rows that
    differ and the largest difference."""
    got = list(csv.reader(got_text.splitlines()))
    want = list(csv.reader(want_text.splitlines()))
    if len(got) != len(want):
        return f"{name}: {len(got)} lines, golden has {len(want)}"
    header = want[0]
    bad_lines, worst = [], (0.0, None)
    for line, (g, w) in enumerate(zip(got, want), 1):
        if len(g) != len(w):
            return f"{name} line {line}: {len(g)} fields, golden has {len(w)}"
        bad = False
        for column, a, b in zip(header, g, w):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return f"{name} line {line}, {column}: {a!r}, golden {b!r}"
                continue
            rel = _relative(x, y)
            bad |= rel > GOLDEN_RTOL
            if rel > worst[0]:
                worst = (rel, f"line {line}, {column}: {a}, golden {b}")
        if bad:
            bad_lines.append(line)
    if not bad_lines:
        return None
    return (
        f"{name}: lines {bad_lines} differ by more than {GOLDEN_RTOL:g} "
        f"relative; the largest difference, {worst[0]:.3g}, is at {worst[1]}"
    )


def difference(name, got_text, want_text):
    """None if the texts are identical, else `mismatch`'s message, or the
    first differing line where every number agrees to GOLDEN_RTOL."""
    if got_text == want_text:
        return None
    message = mismatch(name, got_text, want_text)
    if message is not None:
        return message
    line, got, want = next(
        (i, g, w)
        for i, (g, w) in enumerate(
            zip(got_text.splitlines(True), want_text.splitlines(True)), 1
        )
        if g != w
    )
    return (
        f"{name} line {line} is not byte-identical, though its numbers agree "
        f"to {GOLDEN_RTOL:g} relative: {got!r}, golden {want!r}"
    )


@pytest.mark.parametrize(
    "argv, files, seed",
    [
        pytest.param(
            argv, files, seed,
            id=next(iter(files))[:-4] + (f"-seed{seed}" if seed else ""),
        )
        for seed in SEEDS
        for argv, files in RUNS
    ],
)
def test_outputs_match_golden(tmp_path, argv, files, seed):
    problems = [
        difference(
            name,
            path.read_text(encoding="utf-8"),
            (golden_dir(seed) / name).read_text(encoding="utf-8"),
        )
        for name, path in run(argv, files, tmp_path, seed).items()
    ]
    problems = [p for p in problems if p is not None]
    assert not problems, "\n".join(problems)


def test_mismatch_names_file_line_and_largest_difference():
    want = "a,value,note\nx,1.5,ok\ny,2,ok\n"
    assert mismatch("f.csv", want, want) is None
    assert mismatch("f.csv", "a,value,note\nx,1.500000001,ok\ny,2,ok\n", want) is None
    message = mismatch("f.csv", "a,value,note\nx,1.6,ok\ny,2.5,ok\n", want)
    assert message == (
        "f.csv: lines [2, 3] differ by more than 1e-08 relative; the largest "
        "difference, 0.2, is at line 3, value: 2.5, golden 2"
    )
    assert mismatch("f.csv", "a,value,note\nx,1.5,no\ny,2,ok\n", want) == (
        "f.csv line 2, note: 'no', golden 'ok'"
    )
    assert mismatch("f.csv", "a,value,note\nx,1.5,ok\n", want) == (
        "f.csv: 2 lines, golden has 3"
    )


def test_difference_requires_identical_text():
    want = "a,value,note\nx,1.5,ok\ny,2,ok\n"
    assert difference("f.csv", want, want) is None
    # within the tolerance, but not the same bytes
    assert difference("f.csv", "a,value,note\nx,1.500000001,ok\ny,2,ok\n", want) == (
        "f.csv line 2 is not byte-identical, though its numbers agree to 1e-08 "
        "relative: 'x,1.500000001,ok\\n', golden 'x,1.5,ok\\n'"
    )
    assert difference("f.csv", want.replace("\n", "\r\n"), want).startswith(
        "f.csv line 1 is not byte-identical"
    )
    # beyond it, the tolerance diff is the message
    got = "a,value,note\nx,1.6,ok\ny,2,ok\n"
    assert difference("f.csv", got, want) == mismatch("f.csv", got, want)


# The kernel set of the child run: not the one this machine picks (the
# golden files were written on SkylakeX kernels), and one that any CPU with
# AVX2 can run.
OTHER_KERNEL = "Haswell"

CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from golden.make import RUNS, SEEDS, run
for seed in SEEDS:
    for argv, files in RUNS:
        if "mit_aware.csv" in files:
            out = Path(sys.argv[2]) / str(seed)
            for name, path in run(argv, files, out, seed).items():
                print(seed, name, path)
"""


def _why_no_other_kernel():
    """None if numpy's BLAS can be switched to OTHER_KERNEL through
    OPENBLAS_CORETYPE, else the reason why not."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    config = blas.get("openblas configuration", "")
    if "openblas" not in blas.get("name", "").lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS ({blas.get('name')} {config}) is not a DYNAMIC_ARCH OpenBLAS"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return "cannot tell whether this CPU runs OpenBLAS's Haswell kernels"
    if " avx2" not in cpuinfo:
        return "this CPU cannot run OpenBLAS's Haswell kernels (no AVX2)"
    return None


def test_mit_aware_golden_holds_on_another_blas_kernel(tmp_path):
    # the optimizer stops each draw at a stationary point, so its rows do
    # not depend on where a kernel's rounding would have stopped it
    reason = _why_no_other_kernel()
    if reason is not None:
        pytest.skip(reason)
    src = str(Path(risbc.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": OTHER_KERNEL,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    here = str(Path(__file__).resolve().parent)
    child = subprocess.run(
        [sys.executable, "-c", CHILD, here, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    written = [line.split(" ", 2) for line in child.stdout.splitlines()]
    assert len(written) == len(SEEDS)
    problems = [
        difference(
            name,
            Path(path).read_text(encoding="utf-8"),
            (golden_dir(int(seed)) / name).read_text(encoding="utf-8"),
        )
        for seed, name, path in written
    ]
    problems = [p for p in problems if p is not None]
    assert not problems, "\n".join(problems)
