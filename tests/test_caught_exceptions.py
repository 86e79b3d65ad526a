"""Every exception class that `src/legmon/` defines is caught there.

The package refuses work with `ValueError`, `DegeneracyError` or
`ZeroDivisionError`, each carrying its facts in its message.  A subclass
that no `except` clause of `src/legmon/` names tells a caller nothing
its base does not: only tests could tell it apart.  This stdlib `ast`
scan finds such classes.  An exception class is a class whose base is a
builtin `Exception` subclass or another exception class of the scanned
sources; an `except` clause names a class by a bare name or an
attribute, alone or in a tuple.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "legmon").glob("*.py"))


def _name(node: ast.expr) -> str | None:
    """The name a base or an `except` type spells: `X` or the `X` of `m.X`."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def uncaught_exceptions(sources: dict[str, str]) -> list[str]:
    """`module.Class` of each exception class defined in `sources` that no
    `except` clause in `sources` names, sorted."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    classes = {node.name: (module, [_name(b) for b in node.bases])
               for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def is_exception(name) -> bool:
        builtin = getattr(builtins, name or "", None)
        if isinstance(builtin, type):
            return issubclass(builtin, Exception)
        return name in classes and any(map(is_exception, classes[name][1]))

    caught = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= set(map(_name, types))
    return sorted(f"{module}.{name}" for name, (module, _) in classes.items()
                  if is_exception(name) and name not in caught)


def test_scan_flags_uncaught_exception_classes():
    sources = {
        "m": (
            "class Base(Exception):\n"
            "    pass\n"
            "class Kind(Base):\n"
            "    pass\n"
            "class Parse(ValueError):\n"
            "    pass\n"
            "class Lookup(KeyError):\n"
            "    pass\n"
            "class Plain:\n"
            "    pass\n"
            "class Signal(KeyboardInterrupt):\n"
            "    pass\n"
            "try:\n"
            "    pass\n"
            "except Base:\n"
            "    pass\n"
            "except (m.Parse, OSError) as exc:\n"
            "    raise\n"
        ),
        "n": (
            "from m import Kind\n"
            "class Deeper(Kind):\n"
            "    pass\n"
            "try:\n"
            "    pass\n"
            "except:\n"
            "    pass\n"
        ),
    }
    assert uncaught_exceptions(sources) == ["m.Kind", "m.Lookup", "n.Deeper"]
    sources["n"] += "try:\n    pass\nexcept (Kind, Deeper, m.Lookup):\n    pass\n"
    assert uncaught_exceptions(sources) == []


def test_package_catches_every_exception_class_it_defines():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert uncaught_exceptions(sources) == []
