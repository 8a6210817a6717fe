"""The developer scripts under devtools/ that the suite can afford to run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import risbc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(risbc.__file__).resolve().parent
LOC = ROOT / "devtools" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
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
    for key in (*kinds, "lines"):
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
    assert load_loc().count(text) == {
        "code": 5, "docstring": 3, "comment": 2, "blank": 4, "lines": 14,
    }
