"""Smoke tests: the demo scripts and the README quick start run to the end
in-process."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

SMOKE = (
    "element_scaling",
    "exact_vs_asymptotic",
    "exponential_integral_bound",
    "orthogonality_tradeoff",
    "phase_strategies",
)


@pytest.mark.parametrize("name", SMOKE)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()
