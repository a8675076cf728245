"""The package's public names, which `__init__` serves in part from its
lazily loaded layers, the README's Library example that imports them, and
that no source module keeps an import it does not use."""

import ast
from pathlib import Path

import pytest

import alcovewalks

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves_star_imports_and_is_listed():
    for name in alcovewalks.__all__:
        assert getattr(alcovewalks, name) is not None, name
    namespace = {}
    exec("from alcovewalks import *", namespace)
    assert set(alcovewalks.__all__) <= set(namespace)
    assert namespace["LoopSL"] is alcovewalks.loopgroup.LoopSL
    assert namespace["QQ"] is alcovewalks.ratfunc.QQ
    assert set(alcovewalks.__all__) <= set(dir(alcovewalks))


def test_an_unknown_name_raises_attribute_error():
    assert not hasattr(alcovewalks, "no_such_name")


def test_readme_library_block_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the cells' (word, count) pairs, then the same counts from endpoint_counts
    cells, counts = lines[:5], lines[5:10]
    assert sorted(line.rsplit(" ", 1)[0] for line in cells) == sorted(counts)
    assert lines[10].startswith("(<StepKind.")
    assert lines[11].startswith("GroupMatrix(")


def imported_names(tree: ast.AST) -> set[str]:
    """The names the module's import statements bind, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names read in the module, listed in its __all__, or read inside a
    string annotation such as -> "FiniteRoot"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {getattr(t, "id", None) for t in node.targets}:
            names.update(ast.literal_eval(node.value))
        # ast.arg and ast.AnnAssign carry an annotation, a def its returns
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize(
    "path", sorted(Path(alcovewalks.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    assert imported_names(tree) - used_names(tree) == set()
