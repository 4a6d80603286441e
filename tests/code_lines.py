"""Code lines of each module of the package.

A code line is a line spanned by an AST node that is not part of a
docstring, not blank and not a comment alone.

    python tests/code_lines.py    # one line per module, then the total

tests/test_code_lines.py holds each module's count to a pinned budget.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branch_invariants"


def code_lines(text: str) -> int:
    """The code lines of one module's source text."""
    lines = text.splitlines()
    spanned, docstrings = set(), set()
    for node in ast.walk(ast.parse(text)):
        if getattr(node, "end_lineno", None):
            spanned.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i in spanned - docstrings
               if lines[i - 1].strip() and not lines[i - 1].lstrip().startswith("#"))


def module_code_lines(package: Path = PACKAGE) -> dict[str, int]:
    """The code lines of each module of package, by file name, in name order."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


if __name__ == "__main__":
    counts = module_code_lines()
    for name, count in counts.items():
        print(f"{name:20} {count:5}")
    print(f"{'total':20} {sum(counts.values()):5}")
