"""Every function the benchmark's per-layer tracer wraps exists in legmon.

`bench/layers.py` looks each `(module, qualified name)` of its `TRACED`
table up by name, and a traced run fails on a name that is gone.  The
table is read from the file's source, so the benchmark is not imported.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _traced():
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {LAYERS}")


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for module, qualname in traced:
        mod = importlib.import_module(f"legmon.{module}")
        obj = reduce(getattr, qualname.split("."), mod)
        assert callable(obj), (module, qualname)
