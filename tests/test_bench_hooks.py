"""The benchmark's tracer hooks package symbols by name (perfbench/tracer.py,
TRACED), and a hook whose symbol is gone is skipped silently, so its
per-layer metrics read 0.  This test reads that table without importing
the tracer and checks that every hooked symbol still exists."""

import ast
import importlib
import inspect
import json
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


def probe(code, *paths):
    """Run `code` in a fresh interpreter that imports the package from src/
    (and then from `paths`); return its stderr."""
    src = str(Path(alcovewalks.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, *map(str, paths))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stderr


def test_count_and_paths_leave_the_lazy_layers_unrun(tmp_path):
    """`ratfunc`, `matrices`, `loopgroup` and `render` are in sys.modules
    from the start but run on first use: `count` and `paths` run none of
    them, and `render` runs only `render`.  A module that has run is a plain
    ModuleType again; vars() would run it, so the probe does not call it."""
    code = f"""if True:
        import sys, types
        before = set(sys.modules)
        import alcovewalks.cli

        def report(stage):
            ran = [name for name in ("ratfunc", "matrices", "loopgroup", "render")
                   if type(sys.modules["alcovewalks." + name]) is types.ModuleType]
            loaded = sorted({{"json", "alcovewalks.example8"}} & (set(sys.modules) - before))
            print(stage, ran, loaded, file=sys.stderr)

        report("import")
        alcovewalks.cli.main(["count", "--type", "C3", "--word", "1,2,3,0,1,2"])
        report("count")
        alcovewalks.cli.main(["paths", "--type", "A2", "--word", "2,1,0,2,0", "--end", "2,1"])
        report("paths")
        alcovewalks.cli.main(["render", "--type", "A2", "--radius", "1", "--out", {str(tmp_path / "a.svg")!r}])
        report("render")
    """
    assert probe(code).splitlines() == [
        "import [] []",
        "count [] []",
        "paths [] []",
        "render ['render'] []",
    ]


def test_the_tracer_hooks_the_lazily_loaded_layers():
    """Tracer.install() imports only alcovewalks.cli, so it reaches the lazy
    layers through sys.modules and must run them before it hooks them: every
    hook but the known absent ones and example8's (which no command imports
    before main) is found, and the functions `cli` reads from the lazy
    layers at call time are the wrapped ones."""
    code = """if True:
        import json, sys
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        from alcovewalks import loopgroup, render
        hooked = [hasattr(f, "__wrapped__")
                  for f in (render.render_arrangement, loopgroup.brute_force_cells)]
        print(json.dumps([sorted(tracer.absent), hooked]), file=sys.stderr)
    """
    absent, hooked = json.loads(probe(code, TRACER.parent))
    assert set(absent) == KNOWN_ABSENT | {"alcovewalks.example8.run_checks"}
    assert hooked == [True, True]
