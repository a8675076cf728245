"""Property tests of the matrix executor on random reduced type A words.

Each example runs execute_folding(..., validate=True), which re-checks the
running factorization, the memberships and det = 1 after every step, and
then compares the step kinds with the combinatorial folded paths.
"""

from fractions import Fraction

import pytest

from alcovewalks.affine import AffineWeylGroup
from alcovewalks.cartan import from_label
from alcovewalks.folding import enumerate_folded_paths
from alcovewalks.loopgroup import LoopSL, in_iwahori, in_uminus, is_monomial
from alcovewalks.ratfunc import QQ, PrimeField

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TYPES = ("A1", "A2", "A3")
GROUPS = {label: AffineWeylGroup(from_label(label)) for label in TYPES}
FIELDS = {"QQ": QQ, **{f"F_{p}": PrimeField(p) for p in (2, 3, 5)}}
LOOPS = {(label, name): LoopSL(from_label(label), field)
         for label in TYPES for name, field in FIELDS.items()}

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


@st.composite
def reduced_words(draw, label):
    """Extend by a letter that is not a right descent, so the word stays reduced."""
    group = GROUPS[label]
    length = draw(st.integers(min_value=0, max_value=8))
    h, word = group.identity(), []
    for _ in range(length):
        descents = group.right_descents(h)
        j = draw(st.sampled_from([i for i in range(group.rank + 1) if i not in descents]))
        word.append(j)
        h = h * group.simple_reflection(j)
    return tuple(word)


@st.composite
def executor_runs(draw):
    label = draw(st.sampled_from(TYPES))
    field_name = draw(st.sampled_from(tuple(FIELDS)))
    word = draw(reduced_words(label))
    if field_name == "QQ":
        labels = draw(st.lists(rationals, min_size=len(word), max_size=len(word)))
    else:
        labels = draw(st.lists(st.sampled_from(FIELDS[field_name].elements()),
                               min_size=len(word), max_size=len(word)))
    return label, field_name, word, tuple(labels)


@settings(max_examples=150, deadline=None)
@given(executor_runs())
def test_validated_executor_matches_exactly_one_folded_path(run):
    label, field_name, word, labels = run
    state = LOOPS[(label, field_name)].execute_folding(word, labels, validate=True)
    assert in_uminus(state.u)
    assert in_iwahori(state.b)
    assert is_monomial(state.v_rep)
    kinds = tuple(state.kinds)
    matches = [
        p for p in enumerate_folded_paths(GROUPS[label], word)
        if p.endpoint == state.v and tuple(p.kinds) == kinds
    ]
    assert len(matches) == 1
