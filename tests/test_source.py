"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "floordiagrams"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_exports_resolve():
    # a stale name in __all__ breaks `from floordiagrams import *`
    import floordiagrams

    assert floordiagrams.__all__
    missing = [name for name in floordiagrams.__all__ if not hasattr(floordiagrams, name)]
    assert missing == []
