"""Count the total and the code lines of the Python files under a directory.

A code line carries a token outside comments and docstrings: docstrings are
found with ``ast``, the tokens with ``tokenize``, and a token that spans
lines (a multi-line string) counts on each of them.

Usage: ``python tools/loc.py src``
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(total lines, code lines) of one Python file."""
    source = path.read_text()
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and token.start[0] not in docs:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/loc.py <dir>", file=sys.stderr)
        return 2
    root = Path(argv[0])
    totals = [0, 0]
    print(f"{'total':>7} {'code':>7}  file")
    for path in sorted(root.rglob("*.py")):
        counts = count(path)
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:>7} {counts[1]:>7}  {path}")
    print(f"{totals[0]:>7} {totals[1]:>7}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
