"""Count the code lines of a package's modules.

A code line is a line that is not blank, not comment-only and not part of
the docstring of a module, class or function (found with ast). Prints the
count per module and the total:

    python3 tests/count_code_lines.py src/opnbounds
"""
import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docstrings = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main(package: str) -> None:
    total = 0
    for path in sorted(Path(package).glob("*.py")):
        count = code_lines(path.read_text())
        print(f"{count:6d} {path.name}")
        total += count
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/opnbounds")
