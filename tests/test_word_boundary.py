"""Group words are applied by `monodromy` alone.

A word is a tuple of `monodromy` tokens in every report, and only
`monodromy` knows which point map a token names (`_TOKENS`).  So
`explorer` imports nothing from `monodromy` but `act_word` and
`column_sources`, and of the module it reads only `_xi_blocks`, the
windows that `xi_structural_ok` audits, which is no point map.  Which
columns of the point a token's image copies is knowledge of the token,
so `column_sources` answers it inside `monodromy`, and `explorer` reads
Δ through it without knowing any token's map.  No module of the package
outside `monodromy` holds a token → point-map table: a dict whose keys
are tokens and whose values are not all strings.  A token → label table
such as `explorer._LABELS` maps to strings, so it is no such table.
The modules are read from their source, as `test_field_boundary` reads
them.
"""

import ast
from pathlib import Path

from legmon.monodromy import _TOKENS

SRC = Path(__file__).resolve().parent.parent / "src" / "legmon"
# The one attribute of the `monodromy` module that `explorer` may read.
EXPLORER_READS = {"_xi_blocks"}


def _taken_from_monodromy(tree):
    """Names imported from `monodromy`, and the attributes read off the
    module where a `from . import monodromy` binds it."""
    names, module_bound = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("monodromy"):
            names |= {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module_bound |= any(a.name.split(".")[-1] == "monodromy" for a in node.names)
    attrs = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "monodromy"
    } if module_bound else set()
    return names, attrs


def test_scan_finds_monodromy_imports():
    names, attrs = _taken_from_monodromy(ast.parse(
        "from .monodromy import act_word, act_xi\nfrom . import monodromy\n"
        "def f(p):\n    return monodromy.act_sigma1(p)\n"))
    assert names == {"act_word", "act_xi"} and attrs == {"act_sigma1"}
    assert _taken_from_monodromy(ast.parse("monodromy.act_xi(p, 1)")) == (set(), set())


def test_explorer_applies_words_through_act_word_only():
    names, attrs = _taken_from_monodromy(ast.parse((SRC / "explorer.py").read_text()))
    assert names <= {"act_word", "column_sources"}
    assert attrs <= EXPLORER_READS


def _point_map_tables(tree):
    """Lines of the dict displays whose keys are all string constants,
    one of them a token, and whose values are not all string constants."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict) or not node.keys:
            continue
        keys = [k.value if isinstance(k, ast.Constant) else None for k in node.keys]
        if not all(isinstance(k, str) for k in keys) or not set(keys) & set(_TOKENS):
            continue
        if not all(isinstance(v, ast.Constant) and isinstance(v.value, str)
                   for v in node.values):
            found.append(node.lineno)
    return found


def test_scan_finds_token_tables():
    assert _point_map_tables(ast.parse((SRC / "monodromy.py").read_text()))
    assert _point_map_tables(ast.parse('T = {"X1": lambda p: p, "X2": act}'))
    assert not _point_map_tables(ast.parse('L = {"A": "a", "A2": "a2", "B": "b"}'))
    assert not _point_map_tables(ast.parse('D = {"relation": f, "n": 2}'))


def test_only_monodromy_maps_tokens_to_point_maps():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "monodromy":
            assert _point_map_tables(ast.parse(path.read_text())) == [], path.stem
