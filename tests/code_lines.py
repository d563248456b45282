"""Count the code lines of Python modules: lines that are not blank, not a
comment and not part of a docstring.

Docstrings are found with ``ast`` (the leading string of a module, class or
function body); comments and blank lines with ``tokenize``.  A line counts
when it holds a token other than a comment, a newline or an indent.

    python3 tests/code_lines.py src/goodfilt

prints one count per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(paths) -> None:
    files = sorted(f for p in map(Path, paths) for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/goodfilt"])
