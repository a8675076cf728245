"""The package's public names, which `__init__` serves in part from its
lazily loaded layers, and the README's Library example that imports them."""

from pathlib import Path

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
