"""A small AST lint of the runtime package: no unused import, no private
module-level name that nothing in the package refers to, and no module
importing another one's private name.

The first two are what a refactor leaves behind when it deletes the last
caller of a helper or the last use of an import; the third is a decision
that belongs in one module leaking into another.
"""

import ast
from pathlib import Path

import pytest

import risbc

PACKAGE = Path(risbc.__file__).resolve().parent


def _annotation_names(tree):
    """Names inside string annotations ("DecompositionCache")."""
    found = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                found |= {
                    n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                    if isinstance(n, ast.Name)
                }
    return found


def _used_names(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    used = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imports(tree):
    """(line, bound name) of every import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield node.lineno, name


def _private_imports(tree):
    """(line, name, module) of every private name imported from the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("risbc")
        ):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield node.lineno, alias.name, module


def _private_definitions(tree):
    """(line, name) of the module-level private functions, classes and
    assignments (dunder names excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def lint(sources):
    """Findings of {module name: source text}, as "module:line: message"."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {name: _used_names(tree) for name, tree in trees.items()}
    # a private name another module imports counts as used: the import is
    # the finding
    imported = {
        alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    findings = []
    for name, tree in trees.items():
        for line, bound in _imports(tree):
            if bound not in used[name]:
                findings.append(f"{name}:{line}: unused import {bound}")
        for line, private, module in _private_imports(tree):
            findings.append(
                f"{name}:{line}: private name {private} imported from {module}"
            )
        for line, private in _private_definitions(tree):
            if private not in used[name] and private not in imported:
                findings.append(f"{name}:{line}: unreferenced private name {private}")
    return findings


def test_runtime_package_is_lint_clean():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(sources) >= 9
    assert lint(sources) == []


@pytest.mark.parametrize(
    "source, finding",
    [
        ("import math\n\nX = 1\n", "m.py:1: unused import math"),
        ("from .se import extended_phase\n", "m.py:1: unused import extended_phase"),
        ("def f():\n    import re\n    return 1\n", "m.py:2: unused import re"),
        ("def _stale():\n    pass\n", "m.py:1: unreferenced private name _stale"),
        ("_LIMIT = 3\n", "m.py:1: unreferenced private name _LIMIT"),
    ],
)
def test_lint_finds_an_injected_leftover(source, finding):
    assert lint({"m.py": source}) == [finding]


def test_lint_accepts_uses_across_modules_and_in_annotations():
    sources = {
        "a.py": "import numpy as np\n\ndef _helper(x) -> 'np.ndarray':\n    return x\n",
        "b.py": "from .a import _helper\n\nY = _helper(1)\n",
        "c.py": "from .a import np\n\ndef f(x: 'np.ndarray'):\n    return x\n",
    }
    # the import of another module's private name is the one finding
    assert lint(sources) == ["b.py:1: private name _helper imported from .a"]
