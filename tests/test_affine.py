import itertools

import pytest

from alcovewalks.affine import (
    MAX_WORD_LENGTH,
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    InvariantError,
    WordError,
    element_from_json,
    element_to_json,
    is_iwahori_positive,
    is_uminus_positive,
    parse_word,
)
from alcovewalks.cartan import Coweight, FiniteRoot, from_label

from alcovewalks.folding import endpoint_counts

from helpers import all_reduced_words, ball, bench_word, deadline, inversion_sequence


def a1():
    return AffineWeylGroup(from_label("A1"))


def a2():
    return AffineWeylGroup(from_label("A2"))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3", "F4", "E6"])
def test_right_multiplication_by_simple_reflection_is_the_general_product(label):
    group = AffineWeylGroup(from_label(label))
    for v in ball(group, 4):
        state = group.state(v)
        assert group.element(state) == v
        for j in range(group.rank + 1):
            s = group.simple_reflection(j)
            general = AffineWeylElement(
                v.translation + v.finite.act_coweight(s.translation), v.finite * s.finite
            )
            assert v * s == general
            # the raw-state step table agrees with the element arithmetic
            beta = v.act(group.simple_affine_root(j))
            assert group.element(group.step(state, j)) == general
            wall = group.affine_root(group.uminus_wall(state, j))
            assert wall == (beta if is_uminus_positive(beta) else -beta)
            assert group.sends_to_uminus(state, j) == is_uminus_positive(beta)
            assert (j in group.right_descents(v)) == (not is_iwahori_positive(beta))


def test_reducible_rejected():
    with pytest.raises(ValueError):
        AffineWeylGroup(from_label("A1xA1"))


def test_translation_action_a1():
    g = a1()
    t = g.simple_reflection(0) * g.simple_reflection(1)  # t_{alpha_1 vee}
    assert t.translation == Coweight((1,))
    assert t.finite.is_identity()
    alpha = AffineRoot(FiniteRoot((1,)), 0)
    assert t.act(alpha) == AffineRoot(FiniteRoot((1,)), -2)


def test_finite_action_fixes_delta_coefficient():
    g = a1()
    s1 = g.simple_reflection(1)
    assert s1.act(AffineRoot(FiniteRoot((1,)), 1)) == AffineRoot(FiniteRoot((-1,)), 1)


def test_s0_reflects_its_own_root():
    g = a2()
    s0 = g.simple_reflection(0)
    alpha0 = g.simple_affine_root(0)
    assert alpha0 == AffineRoot(FiniteRoot((-1, -1)), 1)
    assert s0.act(alpha0) == -alpha0
    assert (s0 * s0).is_identity()


def test_simple_reflection_shapes():
    g2 = a2()
    s1 = g2.simple_reflection(1)
    assert s1.translation.is_zero()
    g = a1()
    s0 = g.simple_reflection(0)
    assert s0.translation == Coweight((1,))
    assert not s0.finite.is_identity()


@pytest.mark.parametrize(
    "coords, k, in_i, in_u",
    [
        ((1,), 0, True, False),
        ((-1,), 1, True, True),
        ((-1,), 0, False, True),
        ((1,), -1, False, False),
    ],
)
def test_positivity_sets_a1(coords, k, in_i, in_u):
    beta = AffineRoot(FiniteRoot(coords), k)
    assert is_iwahori_positive(beta) is in_i
    assert is_uminus_positive(beta) is in_u


def test_positivity_partition():
    d = from_label("A2")
    for finite in d.roots():
        for k in range(-3, 4):
            beta = AffineRoot(finite, k)
            assert is_iwahori_positive(beta) != is_iwahori_positive(-beta)
            assert is_uminus_positive(beta) != is_uminus_positive(-beta)


def test_identity_word():
    g = a2()
    assert g.length(g.identity()) == 0
    assert g.reduced_word(g.identity()) == ()


def test_translation_length_with_word_search_oracle():
    g = a1()
    t = g.from_word((0, 1))
    assert t.translation == Coweight((1,)) and t.finite.is_identity()
    # oracle: exhaustive search over words of length <= 2
    hits = [
        w
        for k in range(3)
        for w in itertools.product((0, 1), repeat=k)
        if g.from_word(w) == t
    ]
    assert hits == [(0, 1)]
    assert g.length(t) == 2
    assert g.reduced_word(t) == (0, 1)


def test_reduced_word_runs_past_the_cap_up_to_the_length_bound():
    # (-40, -40) pairs to 40, 40 and 80 with the positive roots: its word
    # passes MAX_WORD_LENGTH + 3 = 67 letters, within the bound 160 + 3
    g = a2()
    t = AffineWeylElement(Coweight((-40, -40)), g.identity().finite)
    word = g.reduced_word(t)
    assert len(word) == 160 and g.from_word(word) == t


def test_a_runaway_descent_stops_at_the_length_bound(monkeypatch):
    # a descent test that always answers letter 0 walks s_1, s_1 s_0, s_1, ...
    g = a1()
    monkeypatch.setattr(AffineWeylGroup, "_descends", lambda self, state, i: True)
    with deadline(1.0), pytest.raises(InvariantError, match="passed the length bound 1$"):
        g.reduced_word(g.simple_reflection(1))


def _bounded_inversions(group, g, window=10):
    """Independent inversion enumeration over a bounded delta window."""
    ginv = g.inverse()
    out = []
    for finite in group.datum.roots():
        for k in range(-window, window + 1):
            beta = AffineRoot(finite, k)
            if is_iwahori_positive(beta) and not is_iwahori_positive(ginv.act(beta)):
                out.append(beta)
    # the window must have captured everything
    assert all(abs(b.k) < window - 1 for b in out)
    return out


def test_long_walk_endpoint_length():
    g = a2()
    word = (2, 1, 0, 2, 1, 2, 0)
    v = g.from_word(word)
    assert g.is_reduced(word)
    assert g.length(v) == 7
    assert len(_bounded_inversions(g, v)) == 7


def test_length_equals_inversion_count_small_ball():
    for group in (a1(), a2()):
        for g, ell in ball(group, 6).items():
            assert group.length(g) == ell
            assert len(_bounded_inversions(group, g)) == ell


@pytest.mark.parametrize("label, radius", [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 4)])
def test_canonical_words_are_prefix_closed(label, radius):
    group = AffineWeylGroup(from_label(label))
    for g in ball(group, radius):
        word = group.reduced_word(g)
        for k in range(len(word) + 1):
            assert group.reduced_word(group.from_word(word[:k])) == word[:k]


def test_inversion_sequence_examples():
    g = a2()
    a1r, a2r = FiniteRoot((1, 0)), FiniteRoot((0, 1))
    assert inversion_sequence(g, ()) == ()
    assert inversion_sequence(g, (1, 2)) == (
        AffineRoot(a1r, 0),
        AffineRoot(FiniteRoot((1, 1)), 0),
    )
    assert inversion_sequence(g, (2, 1, 0)) == (
        AffineRoot(a2r, 0),
        AffineRoot(FiniteRoot((1, 1)), 0),
        AffineRoot(a2r, 1),
    )
    # oracle: compose the single-reflection action matrices directly
    s2, s1 = g.simple_reflection(2), g.simple_reflection(1)
    assert (s2 * s1).act(g.simple_affine_root(0)) == AffineRoot(a2r, 1)


def test_inversion_sequence_enumerates_inversion_set():
    group = a2()
    for g, ell in ball(group, 5).items():
        word = group.reduced_word(g)
        seq = inversion_sequence(group, word)
        assert len(set(seq)) == ell
        assert all(is_iwahori_positive(b) for b in seq)
        assert sorted(seq, key=str) == sorted(_bounded_inversions(group, g), key=str)


def test_from_word_is_homomorphism():
    g = a2()
    words = [(), (0,), (1, 2), (0, 1, 2), (2, 1, 0, 2)]
    for u in words:
        for v in words:
            assert g.from_word(u + v) == g.from_word(u) * g.from_word(v)


def test_all_reduced_words_share_inversion_multiset():
    g = a2()
    for elem, ell in ball(g, 4).items():
        words = all_reduced_words(g, elem, cap=4)
        assert all(len(w) == ell for w in words)
        assert all(g.from_word(w) == elem for w in words)
        reference = sorted(inversion_sequence(g, words[0]), key=str)
        for w in words[1:]:
            assert sorted(inversion_sequence(g, w), key=str) == reference


def test_all_reduced_words_cap():
    g = a2()
    long_elem = g.from_word((0, 1, 2, 0, 1, 2))
    with pytest.raises(WordError):
        all_reduced_words(g, long_elem, cap=3)


def test_affine_coxeter_relations_a2():
    g = a2()
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        prod = g.simple_reflection(i) * g.simple_reflection(j)
        acc = g.identity()
        for _ in range(3):
            acc = acc * prod
        assert acc.is_identity()


def test_a1_infinite_braid():
    g = a1()
    prod = g.simple_reflection(0) * g.simple_reflection(1)
    acc = g.identity()
    for _ in range(1, 8):
        acc = acc * prod
        assert not acc.is_identity()


def test_element_json_round_trip():
    g = a2()
    for word in [(), (0,), (2, 1, 0, 2, 1, 2, 0)]:
        elem = g.from_word(word)
        doc = element_to_json(g, elem)
        assert set(doc) == {"translation", "finite_word"}
        assert element_from_json(g, doc) == elem


def test_parse_word():
    assert parse_word("2,1,0") == (2, 1, 0)
    assert parse_word("") == ()
    with pytest.raises(WordError):
        parse_word("2,x")
    assert parse_word(",".join(["1"] * MAX_WORD_LENGTH)) == (1,) * MAX_WORD_LENGTH
    with pytest.raises(WordError, match="exceeds the maximum length"):
        parse_word(",".join(["1"] * (MAX_WORD_LENGTH + 1)))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3"])
def test_reduced_word_is_smallest_reduced_word(label):
    g = AffineWeylGroup(from_label(label))
    elements = ball(g, 4)
    for elem in elements:
        word = g.reduced_word(elem)
        assert word == min(all_reduced_words(g, elem, cap=4))
        assert g.from_word(word) == elem
    # sorting the whole ball with shared tails gives the same words
    words = g.canonical_words(elements)
    assert words == {elem: g.reduced_word(elem) for elem in words}
    assert [(len(w), w) for w in words.values()] == sorted((len(w), w) for w in words.values())


@pytest.mark.parametrize("label", ["A2", "C3", "G2"])
def test_inverse_state_is_state_of_inverse(label):
    group = AffineWeylGroup(from_label(label))
    for g in ball(group, 4):
        assert group.inverse_state(g) == group.state(g.inverse())


@pytest.mark.parametrize("label, radius", [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 4), ("B3", 4)])
def test_shared_tails_give_each_element_its_own_word(label, radius):
    # canonical_words keys the shared tails by a compact key; a collision
    # would give one element the word of another
    group = AffineWeylGroup(from_label(label))
    elements = ball(group, radius)
    assert group.canonical_words(elements) == {g: group.reduced_word(g) for g in elements}


def test_shared_tails_over_the_e6_bench_endpoints():
    group, word = bench_word("count", "E6")
    ends = endpoint_counts(group, word)
    assert group.canonical_words(ends) == {g: group.reduced_word(g) for g in ends}
