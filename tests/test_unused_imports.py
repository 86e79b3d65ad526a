"""No module of `src/legmon/` or `tests/` imports a name it never uses.

The project configures no linter, so this stdlib `ast` scan is its
unused-import check: every name an `import` or `from … import` binds must
appear as a name somewhere else in the same module.  `from __future__`
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "legmon").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from fractions import Fraction\n"
        "from random import Random, randrange\n"
        "def f(x: Fraction) -> str:\n"
        "    return os.path.join(str(randrange(2)), str(x))\n"
    )
    assert unused_imports(source) == ["Random", "j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}.{p.stem}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
