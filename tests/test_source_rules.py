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


BOX_ENUMERATIONS = {"min_nonzero_abs", "all_values_divisible_by", "iter_box_values",
                    "enumerate_values"}
# Outside their home module lattice.py, box enumerations may run only in the
# `enumerate` command and in the --verify cross-check of the exact minimum.
BOX_ALLOWED = {"cli.py": {"cmd_enumerate", "verify_report"}}


def test_no_box_enumeration_on_default_paths():
    """Box enumerations certify only their box and grow with its height:
    the hyperbolic and parabolic paths use exact checks instead."""
    found = []
    for path in SOURCES:
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in BOX_ALLOWED.get(path.name, ())
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in BOX_ENUMERATIONS and id(node) not in exempt:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found
