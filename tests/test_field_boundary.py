"""The int form of each field's scalars is known to `legmon.fields` only.

`linalg` and `monodromy` compute on that int form through the field
object (`Field.ints`, `reduce`, `scalar`, `vector`) or on the scalars'
own operators, so neither names a concrete scalar or field class.
`explorer` lifts prime-field witnesses to ℚ and checks their reduction
through the same methods, so it never names `ModP`.  `moduli` takes
its minors with `linalg._det_closed` on that int form, so no `src/`
module outside `linalg` goes back to `Matrix` or `determinant`.  The
modules are read from their source, as `test_bench_traced` reads the
benchmark's table.
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


def test_minors_skip_the_matrix_oracle():
    tree = ast.parse((SRC / "moduli.py").read_text())
    from_linalg = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
        for a in node.names
    }
    assert from_linalg == {"_det_closed"}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "linalg":
            names = _names(ast.parse(path.read_text()))
            assert not names & {"Matrix", "determinant"}, path.stem
