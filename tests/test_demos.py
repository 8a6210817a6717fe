"""Smoke test: the demo scripts run to the end in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# phase_strategies.py is left out: it takes about 8 s, all of it in
# run_sweep's mitigation-aware optimizer, which test_sweep already covers.
SMOKE = (
    "element_scaling",
    "exact_vs_asymptotic",
    "exponential_integral_bound",
    "orthogonality_tradeoff",
)


@pytest.mark.parametrize("name", SMOKE)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
