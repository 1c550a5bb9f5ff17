"""Count the code lines of a source tree: the lines that hold a token other
than a comment, a line break, an indent or a docstring.

A docstring is the string expression that opens a module, a class or a
function body.  Run from the repository root:

    python tests/code_lines.py [DIR]

It prints each module's count and the total for ``DIR`` (``src`` by
default), and exits 2 with a message naming ``DIR`` when it is not a
directory (a mistyped path, or an option such as ``--help``).  It uses the
standard library alone, and pytest does not collect it (its name does not
start with ``test_``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at ``path``."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in skip:
                lines.add(line)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    if not root.is_dir():
        print(f"usage: python tests/code_lines.py [DIR]\ncode_lines.py: {root} is not a directory", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6,d}  {path}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
