"""The developer scripts under devtools/ that the suite can afford to run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import risbc
from risbc.config import figure_preset

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(risbc.__file__).resolve().parent
LOC = ROOT / "devtools" / "loc.py"
TIME_SWEEP = ROOT / "devtools" / "time_sweep.py"


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_every_module_and_the_totals_add_up():
    proc = subprocess.run(
        [sys.executable, str(LOC)], capture_output=True, text=True, check=True
    )
    [line] = proc.stdout.splitlines()
    result = json.loads(line)
    modules = result["modules"]
    assert sorted(modules) == sorted(path.name for path in PACKAGE.glob("*.py"))
    kinds = ("code", "docstring", "comment", "blank")
    for name, counts in modules.items():
        lines = len((PACKAGE / name).read_text(encoding="utf-8").splitlines())
        assert counts["lines"] == lines == sum(counts[kind] for kind in kinds), name
        assert min(counts.values()) >= 0, name
    for key in (*kinds, "lines", "branches"):
        assert result["total"][key] == sum(counts[key] for counts in modules.values())


def test_loc_tells_code_docstrings_comments_and_blanks_apart():
    text = '''"""Module
docstring."""

# a comment
x = 1  # code that ends in a comment
s = """a string
that is code"""


def f():
    """One line."""
    # another comment

    return x
'''
    assert load(LOC).count(text) == {
        "code": 5, "docstring": 3, "comment": 2, "blank": 4, "lines": 14, "branches": 0,
    }


def test_loc_counts_if_statements_and_conditional_expressions_as_branches():
    # an if, its elif and two conditional expressions are branches; an else,
    # a comprehension's filter, a short-circuit `and` and a string are not
    text = '''def f(x):
    if x > 0:
        return 1 if x > 1 else 0
    elif x < 0 and x > -1:
        return [y for y in range(3) if y]
    else:
        return "if x else y"


g = (lambda y: -y if y else y)
'''
    assert load(LOC).count(text)["branches"] == 4


def test_time_sweep_times_a_tiny_plan(monkeypatch):
    # the script sets sys.dont_write_bytecode when it is loaded; the test
    # process gets its own setting back
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    time_sweep = load(TIME_SWEEP)
    for figure, reps in time_sweep.PLANS.values():
        assert figure_preset(figure, reps=reps).reps == reps
    ms = time_sweep.median_ms(figure_preset(2, reps=3), calls=2)
    assert isinstance(ms, float) and ms > 0.0
