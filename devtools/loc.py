"""Count the code, docstring and comment lines and the branches of each
`src/risbc` module.

    python devtools/loc.py

Prints one JSON line: for each module of the package, its physical lines
split into code, docstring, comment and blank lines, its branches, and the
sum of each count over the modules.  A docstring line is a line of a module,
class or function docstring; a comment line holds a comment and nothing
else; a code line is any other line with a token on it (a line of code that
ends in a comment is code); a blank line has none.  So the four counts of a
module add up to its lines.  Its branches are its `if` statements (an
`elif` is one more) and its conditional expressions (`a if c else b`), the
code paths it adds beyond one.  Only the stdlib `ast` and `tokenize`
modules are used.
"""

import ast
import io
import json
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risbc"
KINDS = ("code", "docstring", "comment", "blank")
# tokens that put nothing of their own on a line
_LAYOUT = {
    tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT,
}


def docstring_lines(tree) -> set:
    """The line numbers of every docstring of a parsed module."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count(text: str) -> dict:
    """{kind: lines} of one module's source, with its "lines" in all and
    its "branches"."""
    lines = len(text.splitlines())
    tree = ast.parse(text)
    docs = docstring_lines(tree)
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= code | docs
    counts = {"code": len(code), "docstring": len(docs), "comment": len(comments)}
    counts["blank"] = lines - sum(counts.values())
    counts["lines"] = lines
    branches = (ast.If, ast.IfExp)
    counts["branches"] = sum(isinstance(node, branches) for node in ast.walk(tree))
    return counts


def main():
    modules = {
        path.name: count(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    keys = (*KINDS, "lines", "branches")
    total = {key: sum(m[key] for m in modules.values()) for key in keys}
    print(json.dumps({"modules": modules, "total": total}))


if __name__ == "__main__":
    main()
