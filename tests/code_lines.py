"""Count the code lines of each module under ``src/unitrail``.

A code line is a line that holds part of a token other than a comment: a
blank line, a comment line and the lines of a docstring (the string that
opens a module, a class or a function) are left out.  Docstrings are
found with ``ast`` and tokens with ``tokenize``, so a line of a string
that spans several lines counts when the string is not a docstring.

    python tests/code_lines.py            # one "count path" line per module, then the total
    python tests/code_lines.py DIR        # the same for another source tree

This script is not a test: pytest collects only ``test_*.py`` files.
"""

import ast
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "unitrail"

# tokens that hold no code of their own
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines: set[int] = set()
    owners = [tree, *(node for node in ast.walk(tree) if isinstance(
        node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))]
    for owner in owners:
        first = owner.body[0] if owner.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    text = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text, filename=str(path))))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SOURCE
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.relative_to(root)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
