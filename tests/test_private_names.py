"""Every module-level name of `src/legmon/` is read somewhere.

A `_private` function, class or constant is not part of the package's
interface, so one that no code in `src/legmon/` reads is dead.  A
public one is dead when nothing in `src/`, `tests/` or `bench/` reads
it and README.md does not name it.  This stdlib `ast` scan finds both.
A reference is a name or an attribute anywhere outside the definition
itself, so a recursive function that nothing else calls still counts as
unused.  Dunder names are exempt.  Likewise every attribute that
`src/legmon/` assigns as `self.X = …` must be read as an attribute
somewhere in `src/` or `bench/`: a payload that only tests read is dead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "legmon").glob("*.py"))
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree: ast.Module, private: bool) -> dict[str, ast.AST]:
    """Module-level private (or public) name -> the statement that binds it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") == private and not name.startswith("__"):
                found.setdefault(name, node)
    return found


def _references(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) for every name read and attribute taken in `tree`."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node))
    return refs


def unused_names(sources: dict[str, str], private: bool = True, readers=()) -> list[str]:
    """`module.name` of each private (or public) definition in `sources`
    that no other code in `sources` or in the `readers` sources reads, sorted."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    refs = [ref for tree in [*trees.values(), *map(ast.parse, readers)]
            for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree, private).items():
            inside = {id(n) for n in ast.walk(definition)}
            if not any(r == name and id(node) not in inside for r, node in refs):
                unused.append(f"{module}.{name}")
    return sorted(unused)


def test_scan_flags_unused_private_names():
    sources = {
        "m": (
            "_USED = 1\n"
            "_ORPHAN = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Cls:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return name\n"
        ),
        "n": "from . import m\nm._helper()\nx = m._Cls\nTABLE = 1\ndef api():\n    return api()\n",
    }
    assert unused_names(sources) == ["m._ORPHAN", "m._recursive"]
    assert unused_names(sources, private=False) == ["n.TABLE", "n.api", "n.x"]
    assert unused_names(sources, private=False, readers=["n.TABLE + x"]) == ["n.api"]


def test_package_uses_every_private_name():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unused_names(sources) == []


def test_every_public_name_is_read_or_documented():
    sources = {path.stem: path.read_text() for path in MODULES}
    readme = (ROOT / "README.md").read_text()
    unused = unused_names(sources, private=False, readers=[p.read_text() for p in READERS])
    assert [n for n in unused if not re.search(rf"\b{n.split('.')[1]}\b", readme)] == []


def unread_attributes(sources: dict[str, str], readers=()) -> list[str]:
    """`module.X` of each `self.X = …` in `sources` whose attribute X no
    code in `sources` or in the `readers` sources reads, sorted."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({
        f"{module}.{node.attr}" for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in read
    })


def test_scan_flags_unread_attributes():
    sources = {
        "m": (
            "class E(Exception):\n"
            "    def __init__(self, a, b, c):\n"
            "        super().__init__(a)\n"
            "        self.a = a\n"
            "        self.b = b\n"
            "        self.c: int = c\n"
            "    def first(self):\n"
            "        return self.a\n"
            "other.b = 1\n"
        ),
    }
    assert unread_attributes(sources) == ["m.b", "m.c"]
    assert unread_attributes(sources, readers=["print(err.c)"]) == ["m.b"]


def test_package_reads_every_assigned_attribute():
    sources = {path.stem: path.read_text() for path in MODULES}
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unread_attributes(sources, readers=bench) == []
