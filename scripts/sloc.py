#!/usr/bin/env python3
"""Count the code lines of the library, per file and in total.

    python3 scripts/sloc.py [FILE ...]

A code line holds at least one token other than a comment.  Blank lines,
comment lines and the lines of module, class and function docstrings do
not count, so shortening a docstring does not change the count.  With no
arguments it counts ``src/adlocal/*.py``; it prints one line per file,
largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "adlocal").glob("*.py"))
    counts = {path.name: code_lines(path.read_text()) for path in paths}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
