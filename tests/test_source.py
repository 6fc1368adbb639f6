"""Source-level checks on the radonnets package."""

import ast
from pathlib import Path

import radonnets

SOURCES = sorted(Path(radonnets.__file__).parent.rglob("*.py"))


def test_library_has_no_assertions():
    """`assert` vanishes under `python -O`, and an AssertionError escapes
    the CLI's error handling as a traceback; library code raises
    `ConsistencyError` or `ValueError` instead."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
            elif isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
    assert SOURCES
    assert found == []
