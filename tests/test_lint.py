"""A small AST lint of the runtime package: no unused import, no private
module-level name that nothing in the package refers to, no module
importing another one's private name, no public module-level name that
nothing in the package, the tests or the demos refers to, and no
backticked `module.name` in a docstring or comment that the package's
module does not define.

The first two, the fourth and the last are what a refactor leaves behind
when it deletes the last caller of a helper, the last use of an import or
a function that prose still cites; the third is a decision that belongs in
one module leaking into another.
"""

import ast
import re
from pathlib import Path

import pytest

import risbc

PACKAGE = Path(risbc.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def _definitions(tree):
    """(line, name) of the module-level functions, classes and assignments
    (dunder names excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            # `A, B = 0, 1` binds both names
            targets = [e for t in targets for e in getattr(t, "elts", [t])]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield node.lineno, name


def _imported_names(trees):
    """Every name imported from a module, by any of the trees."""
    return {
        alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _members(tree):
    """{class: the names its body binds} of a module's module-level classes."""
    return {
        node.name: {name for _, name in _definitions(node)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


# a backticked `module.name` or `module.Class.member`
_REFERENCE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`")


def _stale_references(text, trees):
    """(line, reference) of every backticked `module.name` in a module's
    text whose module is one of `trees` ({file name: tree}) and defines no
    module-level `name` (or `name.member` of a class).  Python code holds no
    backticks, so each one is in a docstring, a comment or a message."""
    for line, text_line in enumerate(text.splitlines(), 1):
        for match in _REFERENCE.finditer(text_line):
            module, defined, member = match.groups()
            tree = trees.get(module + ".py")
            if tree is None:
                continue
            if member is None:
                ok = defined in {n for _, n in _definitions(tree)}
            else:
                ok = member in _members(tree).get(defined, ())
            if not ok:
                yield line, match.group(0).strip("`")


def lint(sources, users=None):
    """Findings of {module name: source text}, as "module:line: message".

    With `users` ({file name: source text}, the tests and demos), a public
    module-level name that neither the modules nor the users refer to is a
    finding too.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {name: _used_names(tree) for name, tree in trees.items()}
    # a private name another module imports counts as used: the import is
    # the finding
    imported = _imported_names(trees.values())
    referenced = None
    if users is not None:
        user_trees = [ast.parse(text) for text in users.values()]
        referenced = set().union(
            imported, _imported_names(user_trees), *used.values(),
            *map(_used_names, user_trees),
        )
    findings = []
    for name, tree in trees.items():
        for line, bound in _imports(tree):
            if bound not in used[name]:
                findings.append(f"{name}:{line}: unused import {bound}")
        for line, private, module in _private_imports(tree):
            findings.append(
                f"{name}:{line}: private name {private} imported from {module}"
            )
        for line, defined in _definitions(tree):
            if defined.startswith("_"):
                if defined not in used[name] and defined not in imported:
                    findings.append(f"{name}:{line}: unreferenced private name {defined}")
            elif referenced is not None and defined not in referenced:
                findings.append(f"{name}:{line}: unreferenced public name {defined}")
        for line, reference in _stale_references(sources[name], trees):
            findings.append(f"{name}:{line}: stale reference {reference}")
    return findings


def _sources(directory, pattern="*.py"):
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(directory.glob(pattern))
    }


def test_runtime_package_is_lint_clean():
    sources = _sources(PACKAGE)
    assert len(sources) >= 9
    users = {**_sources(ROOT / "tests"), **_sources(ROOT / "demos")}
    assert "test_lint.py" in users and "element_scaling.py" in users
    assert lint(sources, users) == []


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


@pytest.mark.parametrize(
    "source, finding",
    [
        ("def stale():\n    pass\n", "m.py:1: unreferenced public name stale"),
        ("class Old:\n    pass\n", "m.py:1: unreferenced public name Old"),
        ("LIMIT = 3\n", "m.py:1: unreferenced public name LIMIT"),
    ],
)
def test_lint_finds_an_unreferenced_public_name(source, finding):
    assert lint({"m.py": source}, users={}) == [finding]


def test_lint_counts_uses_of_public_names_in_the_package_and_its_users():
    sources = {
        "a.py": "LIMIT = 3\n\ndef run():\n    return LIMIT\n\nclass Kept:\n    pass\n",
        "b.py": "from .a import run\n\nX = run()\n",
    }
    users = {"test_a.py": "from risbc.a import Kept\n", "demo.py": "import risbc.b\nrisbc.b.X\n"}
    assert lint(sources, users) == []
    # without the users, Kept and X are left over
    assert lint(sources, users={}) == [
        "a.py:6: unreferenced public name Kept",
        "b.py:3: unreferenced public name X",
    ]


def test_lint_accepts_uses_across_modules_and_in_annotations():
    sources = {
        "a.py": "import numpy as np\n\ndef _helper(x) -> 'np.ndarray':\n    return x\n",
        "b.py": "from .a import _helper\n\nY = _helper(1)\n",
        "c.py": "from .a import np\n\ndef f(x: 'np.ndarray'):\n    return x\n",
    }
    # the import of another module's private name is the one finding
    assert lint(sources) == ["b.py:1: private name _helper imported from .a"]


def test_lint_finds_a_stale_reference():
    sources = {
        "a.py": (
            "LIMIT = 3\nLOW, HIGH = 0, 1\n\nclass Box:\n    size: int\n\n"
            "    def fill(self):\n        pass\n"
        ),
        "b.py": (
            '"""Reads `a.LIMIT`, `a.HIGH`, `a.Box`, `a.Box.size`, `a.Box.fill` and\n'
            '`np.linalg`; `a.gone` and `a.Box.empty` are stale."""\n'
            "# `a.old` too\n"
        ),
    }
    assert lint(sources) == [
        "b.py:2: stale reference a.gone",
        "b.py:2: stale reference a.Box.empty",
        "b.py:3: stale reference a.old",
    ]
