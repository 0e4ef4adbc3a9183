"""Per-module line counts of the package source: physical and code lines.

A code line holds at least one token of code.  Blank lines, comments and
docstrings (of the module, a class or a function) are not code lines; a
token that spans several lines, such as a multi-line string, counts each.

Run from anywhere in a checkout: ``python3 tools/src_lines.py [directory]``
(default: the checkout's ``src/ctfm_lab``).  Prints one ``module physical
code`` row per module and a ``total`` row; exits non-zero, printing nothing,
when the directory holds no module.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctfm_lab"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(directory: str = str(PACKAGE)) -> None:
    paths = sorted(Path(directory).glob("*.py"))
    if not paths:
        sys.exit(f"no module in {directory}")
    totals = [0, 0]
    for path in paths:
        physical, code = count(path.read_text())
        totals[0] += physical
        totals[1] += code
        print(f"{path.name:<20} {physical:>6} {code:>6}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main(*sys.argv[1:])
