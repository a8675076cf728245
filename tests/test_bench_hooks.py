"""The benchmark's tracer hooks package symbols by name (perfbench/tracer.py,
TRACED), and a hook whose symbol is gone is skipped silently, so its
per-layer metrics read 0.  This test reads that table without importing
the tracer and checks that every hooked symbol still exists."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# hooks whose symbols were removed from the package on purpose and that the
# tracer still lists: the polynomial gcd and normalization of the earlier
# rational-function layer, and the JSON writer `paths` replaced by a stream
KNOWN_ABSENT = {
    "alcovewalks.ratfunc.RationalFunction.make",
    "alcovewalks.ratfunc.poly_gcd",
    "alcovewalks.cli.canonical_json",
}


def traced_symbols():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TRACED table")


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part, None)
    return None if owner is None else inspect.getattr_static(owner, attr, None)


def test_every_traced_symbol_exists():
    entries = traced_symbols()
    assert len(entries) > 20
    absent = {f"{module}.{path}" for _, module, path in entries if resolve(module, path) is None}
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
    assert {f"{module}.{path}" for _, module, path in entries} >= {
        "alcovewalks.loopgroup.GroupMatrix.__matmul__",
        "alcovewalks.loopgroup.LoopSL.iwahori_normalize",
        "alcovewalks.loopgroup.LoopSL._check_state",
        "alcovewalks.ratfunc.RationalFunction.__mul__",
    }
