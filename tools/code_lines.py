"""Count the code lines of the package, per module and in total.

A code line holds some token that is not a comment and is not part of a
docstring (of a module, class or function); blank lines do not count.
Standard library only.

Usage: python tools/code_lines.py [package directory, default src/decltrace]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        ):
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines: set[int] = set()
    for token in tokens:
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/decltrace")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules in {package}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
