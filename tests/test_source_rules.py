"""Rules about the library source itself."""

import ast
from pathlib import Path

import posetlab

PACKAGE = Path(posetlab.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # silently stops being checked; the library raises real exceptions
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
