"""A small AST lint of the runtime package: no unused import, no private
module-level name that nothing in the package refers to, no module
importing another one's private name, no public module-level name that
nothing in the package or the demos refers to (a name only tests use is
runtime code without a runtime caller), no field of a dataclass or
NamedTuple that nothing in the package or the demos reads as an attribute,
and no
backticked `module.name` in a docstring or comment that the package's
module does not define, no import of a module in `BANNED`, and no
module-level list, dict or set that a function changes.

The first two, the fourth, the fifth and the sixth are what a refactor
leaves behind when it deletes the last caller of a helper, the last use of
an import or a field, or a function that prose still cites; the third is a
decision that belongs in one module leaking into another.  A module-level container that a function
fills is state shared by every run in the process (a cache that outlives
its run and holds its arrays): per-run state lives on an object the run
owns.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import risbc
from risbc.channel import ScenarioConfig
from risbc.config import _PARSERS

PACKAGE = Path(risbc.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# modules the runtime package must not import, at module level or in a
# function: configparser's import took about a seventh of a short
# `risbc sweep` run's main, and config reads its INI itself
BANNED = ("configparser",)


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


def _attribute_reads(tree):
    """Every name a module reads as an attribute (x.name, not x.name = ...)."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


# a class decorated with one of these (called or not), or derived from one,
# has fields: its annotated names
_RECORDS = ("dataclass", "NamedTuple")


def _fields(tree):
    """(line, class, field) of every field of a module-level dataclass or
    NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        makers = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(
            getattr(m, "id", getattr(m, "attr", None)) in _RECORDS
            for m in makers + node.bases
        ):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item.lineno, node.name, item.target.id


def _imports(tree):
    """(line, bound name) of every import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield node.lineno, name


def _imported_modules(tree):
    """(line, top-level module) of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


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


# constructors of a mutable container, and the methods that change one
_CONTAINERS = ("list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque")
_MUTATORS = (
    "append", "extend", "insert", "update", "setdefault", "add", "pop",
    "popitem", "clear", "remove", "discard",
)


def _module_containers(tree):
    """The names bound at module level to a list, dict or set: a display,
    a comprehension or a call of one of _CONTAINERS."""
    found = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            mutable = getattr(func, "id", getattr(func, "attr", None)) in _CONTAINERS
        else:
            mutable = isinstance(value, (
                ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
            ))
        if mutable:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


def _mutated_containers(tree):
    """(line, name) of every change a function makes to a module-level
    container: an item assigned, augmented or deleted, or a call of one of
    _MUTATORS on it or on one of its items.  A function that binds the name itself (an argument or
    a local) changes its own object, not the module's."""
    containers = _module_containers(tree)
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        local = {a.arg for a in args + [func.args.vararg, func.args.kwarg] if a}
        local |= {
            n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        declared = {
            name for n in ast.walk(func) if isinstance(n, ast.Global) for name in n.names
        }
        shared = containers - (local - declared)
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func.value if node.func.attr in _MUTATORS else None
                # an item of the container, such as a list in a dict of lists
                while isinstance(target, ast.Subscript):
                    target = target.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                found.add((node.lineno, target.id))
    return sorted(found)


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

    With `users` ({file name: source text}, such as the demos), a public
    module-level name that neither the modules nor the users refer to, and a
    field of a dataclass or NamedTuple that none of them reads as an
    attribute, are findings too.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {name: _used_names(tree) for name, tree in trees.items()}
    # a private name another module imports counts as used: the import is
    # the finding
    imported = _imported_names(trees.values())
    referenced = read = None
    if users is not None:
        user_trees = [ast.parse(text) for text in users.values()]
        referenced = set().union(
            imported, _imported_names(user_trees), *used.values(),
            *map(_used_names, user_trees),
        )
        read = set().union(*map(_attribute_reads, [*trees.values(), *user_trees]))
    findings = []
    for name, tree in trees.items():
        for line, bound in _imports(tree):
            if bound not in used[name]:
                findings.append(f"{name}:{line}: unused import {bound}")
        for line, module in _imported_modules(tree):
            if module in BANNED:
                findings.append(f"{name}:{line}: banned import {module}")
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
        for line, record, field in _fields(tree) if read is not None else ():
            if field not in read:
                findings.append(f"{name}:{line}: unread field {record}.{field}")
        for line, reference in _stale_references(sources[name], trees):
            findings.append(f"{name}:{line}: stale reference {reference}")
        for line, container in _mutated_containers(tree):
            findings.append(
                f"{name}:{line}: function changes module-level container {container}"
            )
    return findings


def _sources(directory, pattern="*.py"):
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(directory.glob(pattern))
    }


def test_every_scenario_field_has_a_checked_kind():
    # ScenarioConfig checks, and config.py parses, each field by the kind of
    # its default: a default of another kind than its annotation, or of a
    # kind neither knows, would let a new field's values pass unchecked
    for field in fields(ScenarioConfig):
        assert type(field.default) is field.type, field.name
        assert field.type in _PARSERS, field.name
        if field.type is tuple:
            assert field.default and all(type(v) is float for v in field.default)
        with pytest.raises(ValueError, match=f"^{field.name} must be "):
            ScenarioConfig(**{field.name: object()})


def test_runtime_package_is_lint_clean():
    sources = _sources(PACKAGE)
    assert len(sources) >= 9
    # the tests are no users: a public name only they call has no runtime
    # caller
    users = _sources(ROOT / "demos")
    assert "element_scaling.py" in users
    assert lint(sources, users) == []


@pytest.mark.parametrize(
    "source, finding",
    [
        ("import math\n\nX = 1\n", "m.py:1: unused import math"),
        ("from .se import extended_phase\n", "m.py:1: unused import extended_phase"),
        ("def f():\n    import re\n    return 1\n", "m.py:2: unused import re"),
        ("def _stale():\n    pass\n", "m.py:1: unreferenced private name _stale"),
        ("_LIMIT = 3\n", "m.py:1: unreferenced private name _LIMIT"),
        ("import configparser\n\nX = configparser\n", "m.py:1: banned import configparser"),
        (
            "def f():\n    from configparser import ConfigParser\n    return ConfigParser\n",
            "m.py:2: banned import configparser",
        ),
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


_RECORD_USERS = {"demo.py": "from risbc.m import Box, Terms, size\n"}


@pytest.mark.parametrize(
    "source, finding",
    [
        (
            "from dataclasses import dataclass\n\n@dataclass\nclass Box:\n"
            "    size: int\n    gone: int = 0\n\ndef size(b):\n    return b.size\n",
            "m.py:6: unread field Box.gone",
        ),
        (
            "import dataclasses\n\n@dataclasses.dataclass(frozen=True)\nclass Box:\n"
            "    gone: int\n\ndef size(b):\n    b.gone = 1\n",
            "m.py:5: unread field Box.gone",
        ),
        (
            "from typing import NamedTuple\n\nclass Terms(NamedTuple):\n    g: float\n"
            "    cross: float\n\ndef size(t):\n    return t.g\n",
            "m.py:5: unread field Terms.cross",
        ),
    ],
    ids=("dataclass", "written-only", "namedtuple"),
)
def test_lint_finds_an_unread_field(source, finding):
    assert lint({"m.py": source}, users=_RECORD_USERS) == [finding]


def test_lint_counts_field_reads_in_the_package_and_its_users_only():
    sources = {
        "m.py": (
            "from dataclasses import dataclass\n\n@dataclass\nclass Box:\n"
            "    size: int\n    kept: int\n\nclass Plain:\n    note: str\n"
        ),
        "n.py": "from .m import Box, Plain\n\ndef size(b: Box):\n    return b.size, Plain\n",
    }
    # a demo's read counts, and a plain class's annotations are no fields
    users = {"demo.py": "from risbc.n import size\nprint(size(b).kept)\n"}
    assert lint(sources, users) == []
    # a test is no user: a field only it reads is left over
    assert lint(sources, {"demo.py": "from risbc.n import size\n"}) == [
        "m.py:6: unread field Box.kept"
    ]


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


@pytest.mark.parametrize(
    "source, lines",
    [
        ("_SEEN = {}\n\ndef f(k, v):\n    _SEEN[k] = v\n", [4]),
        ("_SEEN = dict()\n\ndef f(k):\n    return _SEEN.setdefault(k, [])\n", [4]),
        ("_SEEN = {}\n\ndef f(d):\n    _SEEN.update(d)\n", [4]),
        ("_SEEN = []\n\ndef f(x):\n    _SEEN.append(x)\n", [4]),
        ("_SEEN = [0]\n\ndef f():\n    _SEEN[0] += 1\n", [4]),
        ("_SEEN = {1}\n\ndef f():\n    del _SEEN[0]\n", [4]),
        (
            "from collections import defaultdict\n\n_SEEN = defaultdict(list)\n\n"
            "def f(k):\n    def g():\n        _SEEN[k].append(1)\n        _SEEN[k] = []\n"
            "    return g\n",
            [7, 8],
        ),
    ],
)
def test_lint_finds_a_module_level_container_a_function_changes(source, lines):
    assert lint({"m.py": source}) == [
        f"m.py:{line}: function changes module-level container _SEEN" for line in lines
    ]


def test_lint_accepts_read_only_containers_and_local_ones():
    source = (
        "_TABLE = {'a': 1}\n_ORDER = ('a',)\n\n"
        "def f(k):\n    return _TABLE[k], _ORDER[0]\n\n"
        "def g(_TABLE):\n    _TABLE['a'] = 2\n\n"
        "def h():\n    _ORDER = []\n    _ORDER.append(1)\n    return _ORDER\n"
    )
    assert lint({"m.py": source}) == []


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
