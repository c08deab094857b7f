"""Untested statements: which function-body statements of the package no test runs.

Runs the test suite under a line tracer limited to `src/adhocloc` and prints
`path:line: statement` for every statement inside a function body (docstrings
excluded) that never ran, then exits with pytest's status. Run it from the
repository root; extra arguments go to pytest:

    python tools/untested_lines.py
    python tools/untested_lines.py -x

A statement counts as run when any line of its span ran, so a compound
statement (`if`, `for`, `try`, ...) has run when its header or any statement
inside it did. The traced suite takes three to four times as long as a
plain one.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adhocloc"


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def function_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement inside a function body, docstrings excluded, each once."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for top in node.body:
                for stmt in ast.walk(top):
                    if isinstance(stmt, ast.stmt) and not _is_docstring(stmt):
                        found[id(stmt)] = stmt
    return sorted(found.values(), key=lambda stmt: stmt.lineno)


def _span(stmt: ast.stmt) -> range:
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    return range(first, stmt.end_lineno + 1)


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE)

    def tracer(frame, event, arg):
        if event == "call":
            return tracer if frame.f_code.co_filename.startswith(prefix) else None
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return tracer

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran[str(path)]
        for stmt in function_statements(ast.parse(source)):
            if hit.isdisjoint(_span(stmt)):
                print(f"{path.relative_to(ROOT)}:{stmt.lineno}: "
                      f"{lines[stmt.lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
