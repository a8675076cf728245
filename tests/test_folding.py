import io
import json
import random

import pytest

from alcovewalks.affine import AffineRoot, AffineWeylGroup, WordError, is_uminus_positive
from alcovewalks.cartan import FiniteRoot, from_label
from alcovewalks.folding import (
    CountPolynomial,
    FoldedPath,
    StepKind,
    cells_by_endpoint,
    count_polynomial,
    endpoint_counts,
    enumerate_folded_paths,
    paths_to_json,
)

from helpers import (
    all_reduced_words,
    ball,
    bench_word,
    coxeter_order,
    q_power,
    relation_violations,
    sampled_states,
    times_q,
    times_q_minus_one,
)


def a1():
    return AffineWeylGroup(from_label("A1"))


def a2():
    return AffineWeylGroup(from_label("A2"))


LONG_WALK_WORD = (2, 1, 0, 2, 0, 1, 0, 2, 0)


def poly_mul(f: CountPolynomial, g: CountPolynomial) -> CountPolynomial:
    """Schoolbook product: the reference for the closed form and the shift updates."""
    if not f.coeffs or not g.coeffs:
        return CountPolynomial.zero()
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return CountPolynomial.make(out)


def paths_document(group, word, cells, nonreduced=False) -> dict:
    """The streamed paths JSON, parsed."""
    out = io.StringIO()
    paths_to_json(group, word, cells, out.write, nonreduced)
    return json.loads(out.getvalue())


def test_sends_to_uminus_at_identity():
    # a finite letter branches, the affine letter is forced
    g = a2()
    assert not g.sends_to_uminus(g.state(g.identity()), 1)
    assert g.sends_to_uminus(g.state(g.identity()), 0)


def test_sends_to_uminus_mid_walk():
    # after the first four crossings of the long walk, the affine letter branches
    g = a2()
    v = g.from_word((2, 1, 0, 2))
    assert v.act(g.simple_affine_root(0)) == AffineRoot(FiniteRoot((1, 0)), 0)
    assert not g.sends_to_uminus(g.state(v), 0)


def test_single_forced_step():
    g = a1()
    paths = enumerate_folded_paths(g, (0,))
    assert len(paths) == 1
    (p,) = paths
    assert p.kinds == (StepKind.POSITIVE_CROSSING,)
    assert p.endpoint == g.simple_reflection(0)
    assert p.walls == (g.simple_affine_root(0),)


def test_single_branch_step_fold_first():
    g = a1()
    paths = enumerate_folded_paths(g, (1,))
    assert len(paths) == 2
    fold, zero = paths
    assert fold.kinds == (StepKind.FOLD,)
    assert fold.endpoint.is_identity()
    assert zero.kinds == (StepKind.ZERO_CROSSING,)
    assert zero.endpoint == g.simple_reflection(1)
    # both record the uminus-positive wall -alpha_1
    assert fold.walls == zero.walls == (AffineRoot(FiniteRoot((-1,)), 0),)


def test_alcove_sequences_follow_kinds():
    # a path starts at the identity, stays put at a fold and crosses to
    # v s_j at every other step, so its kinds determine its endpoint
    g = a2()
    for word in [(0, 1, 2), LONG_WALK_WORD]:
        for p in enumerate_folded_paths(g, word):
            v = g.identity()
            for j, kind in zip(p.type_word, p.kinds):
                if kind is not StepKind.FOLD:
                    v = v * g.simple_reflection(j)
            assert p.endpoint == v


def test_walls_always_uminus_positive():
    g = a2()
    for word in [(0,), (1, 0), (2, 1, 0, 2), LONG_WALK_WORD]:
        for p in enumerate_folded_paths(g, word):
            assert all(is_uminus_positive(w) for w in p.walls)


def test_long_walk_unique_path():
    g = a2()
    target = g.from_word((2, 1, 0, 2, 1, 2, 0))
    matching = [p for p in enumerate_folded_paths(g, LONG_WALK_WORD) if p.endpoint == target]
    assert len(matching) == 1
    (p,) = matching
    assert "".join(k.value for k in p.kinds) == "ZZZZFZFPZ"
    assert count_polynomial(p).coeffs == (0, 1, -2, 1)
    assert str(count_polynomial(p)) == "q^3-2q^2+q"
    assert p.dimension == 3


def test_count_polynomial_basics():
    g = a1()
    (forced,) = enumerate_folded_paths(g, (0,))
    assert str(count_polynomial(forced)) == "q"
    fold, zero = enumerate_folded_paths(g, (1,))
    assert str(count_polynomial(fold)) == "q-1"
    assert str(count_polynomial(zero)) == "1"


def test_count_polynomial_algebra():
    q = q_power(1)
    one = CountPolynomial((1,))
    qm1 = q + CountPolynomial.make([-1])
    assert poly_mul(qm1, qm1).coeffs == (1, -2, 1)
    assert str(CountPolynomial.zero()) == "0"
    assert str(one) == "1"
    assert qm1.evaluate(7) == 6
    assert CountPolynomial.make([0, 1, -2, 1]).evaluate(3) == 12


def test_count_polynomial_closed_form_matches_repeated_product():
    q_minus_one = CountPolynomial((-1, 1))
    for a in range(13):
        for f in range(13):
            kinds = (StepKind.POSITIVE_CROSSING,) * a + (StepKind.ZERO_CROSSING, StepKind.FOLD) * f
            expected = q_power(a)
            for _ in range(f):
                expected = poly_mul(expected, q_minus_one)
            assert count_polynomial(FoldedPath((), kinds, (), ())) == expected


def test_shift_updates_match_multiplication():
    q, q_minus_one = CountPolynomial((0, 1)), CountPolynomial((-1, 1))
    rng = random.Random(5)
    samples = [CountPolynomial.zero(), CountPolynomial((1,))]
    for _ in range(50):
        samples.append(CountPolynomial.make(rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
    for f in samples:
        assert times_q(f) == poly_mul(f, q)
        assert times_q_minus_one(f) == poly_mul(f, q_minus_one)


def test_cells_by_endpoint_a1():
    g = a1()
    cells = cells_by_endpoint(g, (1,))
    by_word = {g.reduced_word(end): str(cell.count) for end, cell in cells.items()}
    assert by_word == {(): "q-1", (1,): "1"}
    cells0 = cells_by_endpoint(g, (0,))
    assert [str(c.count) for c in cells0.values()] == ["q"]
    assert list(cells0) == [g.simple_reflection(0)]


def test_sum_rule_small():
    for group, max_len in [(a1(), 6), (a2(), 4)]:
        for elem, ell in ball(group, max_len).items():
            for word in all_reduced_words(group, elem, cap=max_len):
                total = CountPolynomial.zero()
                for cell in cells_by_endpoint(group, word).values():
                    total = total + cell.count
                assert total == q_power(ell)


def test_endpoint_length_parity_and_fold_free_path():
    g = a2()
    for word in [(0,), (0, 1), (2, 1, 0, 2), LONG_WALK_WORD[:6]]:
        w = g.from_word(word)
        paths = enumerate_folded_paths(g, word)
        fold_free = [p for p in paths if p.kinds.count(StepKind.FOLD) == 0]
        assert len(fold_free) == 1
        assert fold_free[0].endpoint == w
        assert all(p.endpoint != w for p in paths if p.kinds.count(StepKind.FOLD) > 0)
        for p in paths:
            ell_end = g.length(p.endpoint)
            folds = p.kinds.count(StepKind.FOLD)
            assert ell_end <= len(word) - folds
            assert (ell_end - (len(word) - folds)) % 2 == 0


def test_reduced_word_independence_spot():
    g = a2()
    elem = g.from_word((0, 1, 0))  # braid-equal to (1, 0, 1)
    words = all_reduced_words(g, elem, cap=4)
    assert set(words) == {(0, 1, 0), (1, 0, 1)}
    reference = {
        end: cell.count for end, cell in cells_by_endpoint(g, words[0]).items()
    }
    for word in words[1:]:
        got = {end: cell.count for end, cell in cells_by_endpoint(g, word).items()}
        assert got == reference


def test_nonreduced_word_is_walked():
    # reducedness is checked by the CLI alone: the library walks any word
    g = a1()
    paths = enumerate_folded_paths(g, (1, 1))
    assert ["".join(k.value for k in p.kinds) for p in paths] == ["FF", "FZ", "ZP"]
    cells = cells_by_endpoint(g, (1, 1))
    assert [cell.count.coeffs for cell in cells.values()] == [(1, -1, 1), (-1, 1)]
    assert "warning" in paths_document(g, (1, 1), cells, nonreduced=True)
    assert "warning" not in paths_document(g, (1, 1), cells)


def test_invalid_letter():
    g = a1()
    with pytest.raises(WordError):
        enumerate_folded_paths(g, (2,))


def test_paths_json_shape():
    g = a1()
    doc = paths_document(g, (1,), cells_by_endpoint(g, (1,)))
    assert doc["type_word"] == [1]
    assert len(doc["paths"]) == 2
    for entry in doc["paths"]:
        assert set(entry) == {"kinds", "end", "walls", "count", "dim"}
    assert [e["count"] for e in doc["by_endpoint"]] == [[-1, 1], [1]]


def test_sum_rule_other_cartan_types():
    # the combinatorial layer is not limited to type A
    for label in ("B2", "G2"):
        group = AffineWeylGroup(from_label(label))
        for elem, ell in ball(group, 3).items():
            for word in all_reduced_words(group, elem, cap=3):
                total = CountPolynomial.zero()
                for cell in cells_by_endpoint(group, word).values():
                    total = total + cell.count
                assert total == q_power(ell)


def random_reduced_word(group, rng, length):
    """Grow a reduced word letter by letter; affine letters included."""
    g, word = group.identity(), []
    while len(word) < length:
        i = rng.randrange(group.rank + 1)
        if i not in group.right_descents(g):
            g = g * group.simple_reflection(i)
            word.append(i)
    return tuple(word)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "E6", "F4"])
def test_endpoint_counts_match_cells_by_endpoint(label):
    group = AffineWeylGroup(from_label(label))
    rng = random.Random(label)
    for length in (1, 4, 7, 9):
        word = random_reduced_word(group, rng, length)
        cells = cells_by_endpoint(group, word)
        counts = endpoint_counts(group, word)
        in_order = [(end, counts[end]) for end in group.canonical_words(counts)]
        assert in_order == [(end, cell.count) for end, cell in cells.items()]


def test_endpoint_counts_guards_match_the_enumerator():
    g = a1()
    with pytest.raises(WordError):
        endpoint_counts(g, (2,))
    counts = endpoint_counts(g, (1, 1))
    cells = cells_by_endpoint(g, (1, 1))
    assert counts == {end: cell.count for end, cell in cells.items()}
    assert sorted(count.coeffs for count in counts.values()) == [(-1, 1), (1, -1, 1)]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_enumeration_to_an_end_is_the_filtered_enumeration(label):
    group = AffineWeylGroup(from_label(label))
    rng = random.Random(f"end-{label}")
    for length in (0, 3, 8, 11):
        word = random_reduced_word(group, rng, length)
        paths = enumerate_folded_paths(group, word)
        # every endpoint, plus an alcove too long for any path to reach
        ends = list(group.canonical_words({p.endpoint for p in paths}))
        unreached = next(g for g, ell in ball(group, length + 1).items() if ell > length)
        for end in ends + [unreached]:
            want = tuple(p for p in paths if p.endpoint == end)
            assert enumerate_folded_paths(group, word, end=end) == want
            cell = cells_by_endpoint(group, word, end=end)
            assert list(cell) == ([end] if want else [])
            if want:
                assert cell[end].paths == want


def test_equal_walls_and_counts_are_one_object_per_call():
    group, word = bench_word("paths", "A2")
    paths = enumerate_folded_paths(group, word)
    walls = [w for p in paths for w in p.walls]
    assert len({id(w) for w in walls}) == len(set(walls))
    ends = [p.endpoint for p in paths]
    assert len({id(g) for g in ends}) == len(set(ends))


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_counts_to_an_end_are_the_filtered_counts(name):
    group, word = bench_word("count", name)
    counts = endpoint_counts(group, word)
    for end, count in counts.items():
        assert endpoint_counts(group, word, end=end) == {end: count}
    # one letter longer than any endpoint of the word
    top = group.from_word(word)
    j = next(i for i in range(group.rank + 1) if i not in group.right_descents(top))
    assert endpoint_counts(group, word, end=top * group.simple_reflection(j)) == {}


def test_enumeration_to_an_end_of_a_nonreduced_word():
    g = a1()
    paths = enumerate_folded_paths(g, (1, 1))
    for end in {p.endpoint for p in paths}:
        want = tuple(p for p in paths if p.endpoint == end)
        assert enumerate_folded_paths(g, (1, 1), end=end) == want


HECKE_TYPES = (
    "A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4", "E6", "E7", "E8", "A7", "B5", "C5", "D6"
)


def test_counting_dp_keeps_the_hecke_relations_at_sampled_states():
    # the relations are local, so they are checked at states sampled far
    # from the identity
    rng = random.Random(14)
    for label in HECKE_TYPES:
        group = AffineWeylGroup(from_label(label))
        states = sampled_states(group, rng, 200)
        assert relation_violations(group, states) == [], label


def test_hecke_relation_orders_are_read_off_the_group():
    assert coxeter_order(a1(), 0, 1) is None
    assert coxeter_order(a2(), 0, 1) == 3
    g2 = AffineWeylGroup(from_label("G2"))
    assert sorted(coxeter_order(g2, i, j) for i, j in ((0, 1), (0, 2), (1, 2))) == [2, 3, 6]
