"""Count the code lines of a Python package, per module and in total.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (a string that is the first statement
of a module, class or function) do not count.  A string that is not a
docstring counts on every line it spans.  Run from anywhere:

    python3 scripts/code_lines.py [DIR]

DIR defaults to the package source, src/tanglepoly.  Prints one line per
module, `<path relative to DIR> <count>`, sorted by path, then
`total <count>`.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tanglepoly"

# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_rows(tree: ast.Module) -> set[tuple[int, int]]:
    """(first row, last row) of every docstring in tree."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.add((first.lineno, first.end_lineno))
    return rows


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = _docstring_rows(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.STRING and any(
                lo <= first and last <= hi for lo, hi in docstrings):
            continue
        lines.update(range(first, last + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=pathlib.Path, default=PACKAGE)
    top = parser.parse_args(argv).dir
    total = 0
    for path in sorted(top.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(top).as_posix()} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
