"""Regenerate the golden outputs that tests/test_golden.py and
tests/test_demos.py compare against.

    PYTHONPATH=src python tests/golden/make.py [--seed N]

Runs `risbc figure 2/3/4/5`, `risbc bounds` and `risbc sweep --config
perfbench/mit_aware.ini` at seed N (default 0) with their default settings
and copies each CSV they write, named without the config hash, into
`golden_dir(N)`: this directory for seed 0, `seed<N>/` under it otherwise.
The tests compare the runs at every seed of SEEDS.  It also writes the
stdout of each demo in DEMOS, which fixes its own seeds, to
`demos/<name>.txt` here.
A change that alters these values on purpose reruns this script and says
in CHANGES.md which rows changed, by how much and why.
"""

import argparse
import contextlib
import io
import runpy
import shutil
import tempfile
from pathlib import Path

from risbc.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SEEDS = (0, 3)
DEMOS = (
    "element_scaling",
    "exact_vs_asymptotic",
    "exponential_integral_bound",
    "orthogonality_tradeoff",
    "phase_strategies",
)

# (CLI arguments, {golden file: glob of the CSV the run writes})
RUNS = (
    (("figure", "2"), {"figure2.csv": "figure2_????????.csv"}),
    (("figure", "3"), {"figure3.csv": "figure3_????????.csv"}),
    (("figure", "4"), {"figure4.csv": "figure4_????????.csv"}),
    (
        ("figure", "5"),
        {
            "figure5.csv": "figure5_????????.csv",
            "figure5_bounds.csv": "figure5_????????_bounds.csv",
        },
    ),
    (("bounds",), {"bounds.csv": "bounds_????????.csv"}),
    (
        ("sweep", "--config", str(ROOT / "perfbench" / "mit_aware.ini")),
        {"mit_aware.csv": "sweep_ptx_dbm_????????.csv"},
    ),
)


def golden_dir(seed: int) -> Path:
    """Where the golden outputs of seed `seed` live."""
    return HERE if seed == 0 else HERE / f"seed{seed}"


def demo_golden(name: str) -> Path:
    """Where the golden stdout of demo `name` lives."""
    return HERE / "demos" / f"{name}.txt"


def demo_output(name: str) -> str:
    """The stdout of demos/<name>.py, run in-process as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    return out.getvalue()


def run(argv, files, out_dir, seed=0) -> dict:
    """Run `risbc *argv` at `seed` into out_dir; {golden file: CSV written}."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([*argv, "--seed", str(seed), "--out", str(out_dir)])
    if status != 0:
        raise RuntimeError(f"risbc {' '.join(argv)} exited with {status}")
    written = {}
    for name, pattern in files.items():
        (written[name],) = Path(out_dir).glob(pattern)
    return written


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    seed = parser.parse_args().seed
    target = golden_dir(seed)
    target.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (argv, files) in enumerate(RUNS):
            for name, path in run(argv, files, Path(tmp) / str(i), seed).items():
                shutil.copyfile(path, target / name)
                print(f"wrote {target / name}")
    for name in DEMOS:
        path = demo_golden(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(demo_output(name), encoding="utf-8")
        print(f"wrote {path}")
