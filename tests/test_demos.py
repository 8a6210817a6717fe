"""The demo scripts print, byte for byte, the stdout committed in
tests/golden/demos (`tests/golden/make.py` regenerates it), and the README
quick start runs to the end in-process."""

import re
from pathlib import Path

import pytest

from golden.make import DEMOS, demo_golden, demo_output

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    got = demo_output(name)
    want = demo_golden(name).read_text(encoding="utf-8")
    assert got.strip()
    assert got == want


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()
