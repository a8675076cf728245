"""Value semantics of the slotted value types: type-strict equality, the
hash a frozen dataclass with the same fields would give, immutability, the
repr, and that a command line job loads neither `dataclasses` nor
`inspect`."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import alcovewalks
from alcovewalks import (
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    CartanDatum,
    Cell,
    CountPolynomial,
    Coweight,
    ExecutorState,
    FiniteRoot,
    FiniteWeylElement,
    FoldedPath,
    GroupMatrix,
    LoopSL,
    QQ,
    cells_by_endpoint,
    from_label,
)

coords = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(tuple)


def samples():
    """One instance of every value type, built by the package itself."""
    datum = from_label("A2")
    group = AffineWeylGroup(datum)
    cell = next(iter(cells_by_endpoint(group, (2, 1, 0)).values()))
    sl = LoopSL(datum, QQ)
    state = sl.execute_folding((2, 1, 0), (1, 2, 0))
    return [
        datum.roots()[0],
        Coweight((1, -2)),
        datum,
        group.from_word((2, 1)).finite,
        group.simple_affine_root(0),
        group.from_word((2, 1, 0)),
        cell.paths[0],
        cell.count,
        cell,
        sl.x_simple(1, 3),
        state,
    ]


VALUE_TYPES = {type(x) for x in samples()}


def fields_of(x):
    return {name: getattr(x, name) for name in type(x).__match_args__}


def as_dataclass(x):
    """x as an instance of the frozen dataclass with the same class name
    and fields, with FiniteWeylElement's datum left out of the hash."""
    unhashed = dataclasses.field(hash=False)
    spec = [
        (name, object, unhashed) if (type(x), name) == (FiniteWeylElement, "datum") else (name, object)
        for name in type(x).__match_args__
    ]
    return dataclasses.make_dataclass(type(x).__name__, spec, frozen=True)(**fields_of(x))


def test_every_value_type_is_sampled():
    assert VALUE_TYPES == {
        FiniteRoot, Coweight, CartanDatum, FiniteWeylElement, AffineRoot, AffineWeylElement,
        FoldedPath, CountPolynomial, Cell, GroupMatrix, ExecutorState,
    }


@given(coords)
def test_roots_and_coweights_are_never_equal(c):
    root, coweight = FiniteRoot(c), Coweight(c)
    assert root == FiniteRoot(tuple(c)) and coweight == Coweight(tuple(c))
    assert root != coweight and coweight != root
    assert root != c and coweight != c
    assert len({root: 1, coweight: 2}) == 2
    assert {root: 1, coweight: 2}[FiniteRoot(c)] == 1


@given(coords, st.integers(-3, 3))
def test_hash_is_the_hash_of_the_field_tuple(c, k):
    for x in (FiniteRoot(c), Coweight(c), CountPolynomial(c), AffineRoot(FiniteRoot(c), k)):
        assert hash(x) == hash(tuple(fields_of(x).values()))
        assert hash(x) == hash(as_dataclass(x))


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_hash_and_repr_match_the_frozen_dataclass(x):
    twin = as_dataclass(x)
    assert hash(x) == hash(twin)
    assert repr(x) == repr(twin)


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_equality_is_by_fields_and_class(x):
    same = type(x)(**fields_of(x))
    assert x == same and not x != same
    assert hash(x) == hash(same)
    assert x != as_dataclass(x)
    assert all(x != y for y in samples() if type(y) is not type(x))


def changed(x, name):
    """x with the field `name` replaced by a value unequal to it."""
    return type(x)(**{**fields_of(x), name: object()})


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_every_field_takes_part_in_equality(x):
    for name in type(x).__match_args__:
        assert x != changed(x, name)


def test_weyl_element_hash_reads_the_permutation_only():
    # G2 and A3 both have 12 roots, so their identities share a permutation
    g2, a3 = from_label("G2").identity_weyl(), from_label("A3").identity_weyl()
    assert g2.perm == a3.perm
    assert hash(g2) == hash(a3) == hash((g2.perm,))
    assert g2 != a3
    # equal data that are distinct objects compare equal
    a2, again = from_label("A2"), from_label("A2")
    assert a2 is not again
    s, t = a2.simple_reflection(1), again.simple_reflection(1)
    assert s == t and hash(s) == hash(t)
    assert s != a2.simple_reflection(2)


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    for name, value in fields_of(x).items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value
    with pytest.raises(AttributeError):
        x.extra = 1


def test_repr_text():
    assert repr(Coweight((1, 0))) == "Coweight(coords=(1, 0))"
    assert repr(AffineRoot(FiniteRoot((1, 1)), -2)) == (
        "AffineRoot(finite=FiniteRoot(coords=(1, 1)), k=-2)"
    )
    assert repr(CountPolynomial((0, -1, 1))) == "CountPolynomial(coeffs=(0, -1, 1))"
    datum = from_label("A2")
    datum.root_tables
    assert repr(datum) == "CartanDatum(size=2, entries=((2, -1), (-1, 2)), type_label='A2')"
    assert repr(datum.identity_weyl()) == f"FiniteWeylElement(datum={datum!r}, perm=(0, 1, 2, 3, 4, 5))"


def test_root_tables_are_cached_outside_equality_and_hash():
    datum, fresh = from_label("B2"), from_label("B2")
    before = hash(datum)
    tables = datum.root_tables
    assert datum.root_tables is tables
    assert vars(datum)["root_tables"] is tables
    assert "root_tables" not in vars(fresh)
    assert datum == fresh and hash(datum) == before == hash(fresh)


@pytest.mark.parametrize("x", samples(), ids=lambda x: type(x).__name__)
def test_copies_and_pickles_are_equal(x):
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import alcovewalks.cli"],
        ["-m", "alcovewalks.cli", "count", "--type", "A2", "--word", "2,1,0,2,0"],
    ],
    ids=["import", "count"],
)
def test_cli_job_loads_neither_dataclasses_nor_inspect(args):
    """Both modules cost every command start-up time and memory; -X importtime
    lists every module the job imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(alcovewalks.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, check=True,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "alcovewalks.folding" in imported
    assert not imported & {"dataclasses", "inspect"}
