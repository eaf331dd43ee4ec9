"""Rules on the package source that no single behaviour test can enforce."""
import ast
import subprocess
import sys
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


BOX_ENUMERATIONS = {"min_nonzero_abs", "iter_box_values", "enumerate_values"}
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


def _except_names():
    """(file:line, class name) for every class an `except` clause names."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        yield f"{path.name}:{node.lineno}", name.id


def test_no_internal_inconsistency_caught():
    """An InternalInconsistencyError is a bug: catching it would turn an
    exit 4 into a retry or a different outcome."""
    found = [where for where, name in _except_names() if name == "InternalInconsistencyError"]
    assert not found, found


# The class each exit code documents; any other class must be one a caller branches on.
EXIT_CODE_CLASSES = {2: "PreconditionError", 3: "SearchExhaustedError",
                     4: "InternalInconsistencyError"}


def test_every_error_class_is_caught_or_documented():
    from qforge import errors

    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.QforgeError)
        and cls is not errors.QforgeError
    }
    caught = {name for _, name in _except_names()}
    for code, name in EXIT_CODE_CLASSES.items():
        assert classes[name].exit_code == code
    unused = sorted(set(classes) - caught - set(EXIT_CODE_CLASSES.values()))
    assert not unused, unused


def test_search_exhausted_only_from_the_enumerate_budget():
    """Exit 3 means a spent budget: the one `raise SearchExhaustedError` of
    the package is the budget check of the box enumeration (`enumerate`)."""
    found = []  # file:top-level definition (or line) of each such raise
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            found += [f"{path.name}:{getattr(top, 'name', top.lineno)}" for node in ast.walk(top)
                      if isinstance(node, ast.Raise) and "SearchExhaustedError" in _names(node)]
    assert found == ["lattice.py:_check_budget"], found


L1_SHELL_SCANS = {"iter_search_vectors", "_shell"}


def test_no_l1_shell_scan_in_package():
    """Isotropic vectors and representations are constructed (padic); the
    canonical L1-shell order lives on only as a reference in tests/oracle_utils."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.name if isinstance(node, ast.FunctionDef) else (
                node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
            if name in L1_SHELL_SCANS:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_no_sympy_import_in_package():
    """The integer routines are in-house (intmath): sympy is a test-only
    oracle, and importing it would add about 0.4 s and 35 MB to every run."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "sympy" or m.startswith("sympy.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_parabolic_run_loads_no_sympy():
    """A full K3 parabolic run, --verify included, never imports sympy,
    lazily or otherwise."""
    script = (
        "import contextlib, io, sys\n"
        "import qforge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = qforge.cli.main(['parabolic', '--lattice', 'catalog:K3',\n"
        "                          '--n-bound', '2', '--verify'])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('sympy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"], proc.stdout


def test_hyperbolic_run_loads_no_argparse():
    """A hyperbolic --verify run reads its command line from the command
    table, so argparse, and the gettext and locale it loads, stay out; the
    records are namedtuples, so dataclasses, and the inspect it loads, too."""
    script = (
        "import contextlib, io, sys\n"
        "import qforge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = qforge.cli.main(['hyperbolic', '--lattice', 'catalog:K3',\n"
        "                          '--n-bound', '10', '--verify'])\n"
        "print(rc, sorted(m for m in ('argparse', 'gettext', 'locale', 'dataclasses', 'inspect')\n"
        "                 if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"], proc.stdout


# Functions of the parabolic and hyperbolic hot paths that work in integers:
# a rational vector is an integer vector with a denominator named beside it.
FRACTION_FREE = {
    "forge.py": {"find_w_odd_valuation"},
    "glue.py": {"_nondegenerate_flag", "_flag_images", "_flag_extend", "_flag_solve",
                "_next_image", "_eichler_reduce", "_cancel_plane", "_embedding_index",
                "_parabolic_sublattice", "_coordinates_first"},
    "isom.py": {"_positive_cone_flag"},
    "lattice.py": {"_diagonal_pivots", "saturate"},
    "linalg.py": {"saturation"},
}


def _functions(name: str):
    path = next(p for p in SOURCES if p.name == name)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef):
            yield node


def _names(node) -> set:
    return {sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            for sub in ast.walk(node)}


def test_witness_and_saturation_stay_fraction_free():
    """No Fraction on the hot path of explicit_rational_isometry (the
    functions making the flag and the images, and moving them back from
    G2 + U), of the embedding's index and final sublattice, of the
    congruent diagonalization, of the cone flag, of the saturation or of
    the rank-2 construction's w of p-valuation 1; the saturation neither
    takes a Smith form nor inverts a matrix."""
    checked = {name: {fn.name: fn for fn in _functions(name) if fn.name in wanted}
               for name, wanted in FRACTION_FREE.items()}
    assert {name: set(fns) for name, fns in checked.items()} == FRACTION_FREE
    found = [f"{name}:{where}" for name, fns in checked.items() for where, node in fns.items()
             if "Fraction" in _names(node)]
    for name, where in (("lattice.py", "saturate"), ("linalg.py", "saturation")):
        calls = _names(checked[name][where]) & {"invert_unimodular", "smith_normal_form"}
        found += [f"{name}:{where} calls {call}" for call in sorted(calls)]
    assert not found, found


def test_linalg_is_integer_only():
    """linalg takes and returns integer matrices; a rational matrix is an
    integer matrix over a denominator named beside it."""
    path = next(p for p in SOURCES if p.name == "linalg.py")
    assert "Fraction" not in _names(ast.parse(path.read_text(), filename=str(path)))


def test_intmath_is_integer_only():
    """intmath takes and returns integers: a rational's square class is the
    integer numerator * denominator, read where the rational is."""
    path = next(p for p in SOURCES if p.name == "intmath.py")
    assert "Fraction" not in _names(ast.parse(path.read_text(), filename=str(path)))


def test_glue_is_integer_only():
    """glue works in integers: a rational vector or matrix is an integer one
    over a denominator named beside it, such as the embedding (M, d)."""
    path = next(p for p in SOURCES if p.name == "glue.py")
    assert "Fraction" not in _names(ast.parse(path.read_text(), filename=str(path)))


# Library entry points that no package code calls, each with the module row
# of the README's library-layout table and the words there that document it.
LIBRARY_API: dict[str, tuple[str, str]] = {}


def test_every_top_level_name_is_used_or_documented():
    """Each top-level function and class of the package, and each method
    other than a dunder, is referenced from another place in it, or is a
    documented library entry point (with the methods of a documented
    class): a name only tests call belongs in the tests (oracle_utils)."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    top = [(name, node) for name, tree in trees.items() for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    methods = [(name, node) for name, cls in top
               if isinstance(cls, ast.ClassDef) and cls.name not in LIBRARY_API
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    uses: dict[str, list] = {}  # name -> (file, line) of every reference
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ref = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if ref:
                uses.setdefault(ref, []).append((name, node.lineno))
    unused = [f"{name}:{node.lineno} {node.name}" for name, node in top + methods
              if node.name not in LIBRARY_API
              and all(f == name and node.lineno <= line <= node.end_lineno
                      for f, line in uses.get(node.name, ()))]
    assert not unused, unused
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    rows = {line.split("|")[1].strip(" `"): line for line in readme
            if line.startswith("| `qforge.")}
    assert {node.name for _, node in top} >= LIBRARY_API.keys()
    undocumented = [name for name, (module, words) in LIBRARY_API.items()
                    if words not in rows.get(module, "")]
    assert not undocumented, undocumented


def test_every_import_is_used():
    """Each name a package module imports is referenced in that module;
    __init__.py imports to re-export and is exempt."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in referenced]
    assert SOURCES and not unused, unused
