"""The int form of each field's scalars is known to `legmon.fields` only.

`linalg` and `monodromy` compute on that int form through the field
object (`Field.form`, `reduce`, `scalar`, `column`) or on the scalars'
own operators, so neither names a concrete scalar or field class.
`explorer` lifts prime-field witnesses to ℚ and checks their reduction
through the same methods, so it never names `ModP`.  `moduli` takes
its minors with its own `_det_closed` on that int form, and no other
module of the package imports `linalg`, the tests' oracles, or goes
back to `Matrix` or `determinant`.  `moduli` imports nothing from
`braids`, not even inside a function.  A point carries its int form from
construction, and the loop maps, the minors and the xi check read it
there (`p.form`): none of them calls `.form(` to convert scalars.  A
point builds its scalar `columns` from that form only when they are
read, and no function of the package reads `.columns` or calls `.col(`,
`moduli` included: point JSON is written from the form.  Scalars are
outputs only, so no class defines a way to read them in: no `parse`,
`col` or `from_columns` (but `linalg`'s `Matrix`), and no field or its
base a `__contains__` test.
Every command is a fresh process that imports `cli`, so no module but
`linalg` (no command's) imports `dataclasses`, none imports `fractions`
as it loads, and `cli` imports `braids`, `monodromy` and `explorer`
only inside the handlers that run them; `test_cli` checks what each
command's process loads.  The modules are read from their source, as
`test_bench_traced` reads the benchmark's table.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "legmon"
CONCRETE = {"ModP", "PrimeField", "Fraction"}
# Names each module may import from `fields`.
ALLOWED = {
    "monodromy": set(),
    "linalg": {"Field", "FieldScalar"},
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


def _imports(tree, module):
    """Whether the code imports `module` or any name from it, at any depth,
    so inside a function too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module):
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == module for a in node.names):
                return True
    return False


def test_scan_finds_linalg_imports():
    for source in ("from .linalg import wedge", "from . import linalg",
                   "import legmon.linalg", "from legmon.linalg import Matrix as M",
                   "def f():\n    from .linalg import Matrix\n    return Matrix"):
        assert _imports(ast.parse(source), "linalg"), source
    assert not _imports(ast.parse("from .moduli import wedge\nimport linalgebra"), "linalg")


def test_product_modules_skip_the_oracles():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "linalg":
            tree = ast.parse(path.read_text())
            assert not _imports(tree, "linalg"), path.stem
            assert not _names(tree) & {"Matrix", "determinant"}, path.stem


def _imports_on_load(tree, module):
    """Whether running the code, as importing it does, imports `module`:
    `_imports` outside every function body."""
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports(node, module):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.extend(ast.iter_child_nodes(node))
    return False


def test_scan_finds_imports_on_load():
    for source in ("from .braids import verify_loop", "import legmon.braids",
                   "if True:\n    from . import braids", "class C:\n    from .braids import x"):
        assert _imports_on_load(ast.parse(source), "braids"), source
    for source in ("def f():\n    from .braids import x\n    return x",
                   "async def f():\n    import braids", "from .moduli import braids_x"):
        assert not _imports_on_load(ast.parse(source), "braids"), source


def test_commands_load_no_more_than_they_run():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "linalg":
            assert not _imports(tree, "dataclasses"), path.stem
        assert not _imports_on_load(tree, "fractions"), path.stem
    cli = ast.parse((SRC / "cli.py").read_text())
    for module in ("braids", "monodromy", "explorer"):
        assert not _imports_on_load(cli, module), module


def test_moduli_imports_nothing_from_braids():
    # Points, fields and minors stand without the braid-word layer.
    assert not _imports(ast.parse((SRC / "moduli.py").read_text()), "braids")


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
    # `ModuliPoint.columns` builds them, and no function reads them.
    for path in sorted(SRC.glob("*.py")):
        assert not _columns_readers(ast.parse(path.read_text())), path.stem


def _methods(tree):
    """Class name -> the names of the functions its body defines, and
    "<module>" -> those of the module's own body."""
    def defined(body):
        return {n.name for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}

    methods = {node.name: defined(node.body) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    return {"<module>": defined(tree.body), **methods}


def test_scan_finds_methods():
    tree = ast.parse("class A:\n    def col(self): pass\n    x = 1\n"
                     "    class B:\n        async def parse(self): pass\n"
                     "def from_columns(): pass\n")
    assert _methods(tree) == {"<module>": {"from_columns"}, "A": {"col"}, "B": {"parse"}}


def test_scalars_have_no_way_in():
    # A point enters from its int form or from point JSON.
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        for owner, names in _methods(ast.parse(path.read_text())).items():
            owners.add(owner)
            assert not names & {"parse", "col"}, (path.stem, owner)
            if owner != "Matrix":
                assert "from_columns" not in names, (path.stem, owner)
            if owner in ("RationalField", "PrimeField", "Frozen"):
                assert "__contains__" not in names, (path.stem, owner)
    assert {"ModuliPoint", "Matrix", "RationalField", "PrimeField", "Frozen"} <= owners
