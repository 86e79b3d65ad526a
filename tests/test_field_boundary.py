"""The int form of each field's scalars is known to `legmon.fields` only.

`linalg` and `monodromy` compute on that int form through the field
object (`Field.form`, `reduce`, `scalar`, `column`) or on the scalars'
own operators, so neither names a concrete scalar or field class.
`explorer` lifts prime-field witnesses to ℚ and checks their reduction
through the same methods, so it never names `ModP`.  `moduli` takes
its minors with its own `_det_closed` on that int form, and no other
module of the package imports `linalg`, the tests' oracles, or goes
back to `Matrix` or `determinant`.  A point carries its int form from
construction, and the loop maps, the minors and the xi check read it
there (`p.form`): none of them calls `.form(` to convert scalars.  A
point builds its scalar `columns` from that form only when they are
read, so no module outside `moduli` reads `.columns` or calls `.col(`,
and inside `moduli` only `col` and the JSON writer do.
The modules are read from their source, as `test_bench_traced` reads
the benchmark's table.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "legmon"
CONCRETE = {"ModP", "PrimeField", "Fraction"}
# Names each module may import from `fields`.
ALLOWED = {
    "monodromy": set(),
    "linalg": {"Field", "FieldScalar", "field_inverse"},
}


def _imports_from_fields(tree):
    """Names imported from `fields`, and "fields" if the module itself is."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fields"):
            names |= {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {"fields" for a in node.names if a.name.endswith("fields")}
    return names


def _names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_leaves_the_int_form_to_fields(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _imports_from_fields(tree) <= ALLOWED[module]
    assert not _names(tree) & CONCRETE


def test_explorer_lifts_through_the_int_form():
    tree = ast.parse((SRC / "explorer.py").read_text())
    assert "ModP" not in _names(tree)


def _imports_linalg(tree):
    """Whether the module imports `linalg` or any name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == "linalg" for a in node.names):
                return True
    return False


def test_scan_finds_linalg_imports():
    for source in ("from .linalg import wedge", "from . import linalg",
                   "import legmon.linalg", "from legmon.linalg import Matrix as M"):
        assert _imports_linalg(ast.parse(source)), source
    assert not _imports_linalg(ast.parse("from .moduli import wedge\nimport linalgebra"))


def test_product_modules_skip_the_oracles():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "linalg":
            tree = ast.parse(path.read_text())
            assert not _imports_linalg(tree), path.stem
            assert not _names(tree) & {"Matrix", "determinant"}, path.stem


def _form_calls(tree):
    """Lines of the calls `x.form(...)`; a read of the attribute `p.form` is no call."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "form"
    ]


def _function(module, name):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_kernels_read_the_carried_int_form():
    assert _form_calls(ast.parse((SRC / "monodromy.py").read_text())) == []
    assert _form_calls(_function("moduli", "minors")) == []
    assert _form_calls(_function("explorer", "xi_structural_ok")) == []


def _columns_readers(tree):
    """Names of the functions that read `.columns` or call `.col(`, and
    "<module>" for a read outside any function."""
    readers = set()

    def visit(node, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("columns", "col"):
            readers.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(tree, "<module>")
    return readers


def test_only_moduli_builds_point_scalars():
    for path in sorted(SRC.glob("*.py")):
        readers = _columns_readers(ast.parse(path.read_text()))
        if path.stem == "moduli":
            assert readers == {"col", "point_to_json"}
        else:
            assert not readers, path.stem
