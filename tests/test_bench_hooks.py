"""The benchmark's tracer hooks package symbols by name (perfbench/tracer.py,
TRACED), and a hook whose symbol is gone is skipped silently, so its
per-layer metrics read 0.  This test reads that table without importing
the tracer and checks that every hooked symbol still exists."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import alcovewalks

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


def test_cli_import_leaves_json_and_example8_out_and_keeps_the_matrix_hooks():
    """`import alcovewalks.cli` loads neither json nor example8: the commands
    that use them import them.  The matrix layer lives in `matrices`, and
    every name the tracer hooks under alcovewalks.loopgroup is still there."""
    env = dict(os.environ, PYTHONPATH=str(Path(alcovewalks.__file__).parents[1]))
    probe = (
        "import sys; before = set(sys.modules); import alcovewalks.cli; "
        "print(sorted({'json', 'alcovewalks.example8'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
    from alcovewalks import loopgroup, matrices

    assert loopgroup.GroupMatrix is matrices.GroupMatrix
    hooked = [path for _, module, path in traced_symbols() if module == "alcovewalks.loopgroup"]
    assert "GroupMatrix.__matmul__" in hooked
    assert [path for path in hooked if resolve("alcovewalks.loopgroup", path) is None] == []
