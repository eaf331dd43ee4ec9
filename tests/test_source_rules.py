"""Rules on the package source that no single behaviour test can enforce."""
import ast
from pathlib import Path

import qforge

SOURCES = sorted(Path(qforge.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    """Theorem checks raise InternalInconsistencyError: `python -O` strips
    assert statements, so they must not carry a check."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found
