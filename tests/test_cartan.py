import itertools
import random

import pytest

from alcovewalks.affine import AffineWeylElement, AffineWeylGroup, element_to_json
from alcovewalks.cartan import (
    MAX_RANK,
    CartanError,
    Coweight,
    FiniteRoot,
    FiniteWeylElement,
    from_label,
    simple_coroot,
    simple_root,
    validate_cartan,
)

from helpers import reference_label


def test_validate_a2():
    datum = validate_cartan([[2, -1], [-1, 2]])
    assert datum.type_label == "A2"
    assert datum.size == 2


def test_validate_product():
    datum = validate_cartan([[2, 0], [0, 2]])
    assert datum.type_label == "A1xA1"
    assert datum.components() == ((1,), (2,))


def test_validate_rejects_affine_matrix():
    with pytest.raises(CartanError, match="not-finite-type"):
        validate_cartan([[2, -2], [-2, 2]])


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[2, -1]], "square"),
        ([[1]], "diagonal"),
        ([[2, 1], [1, 2]], "off-diagonal"),
        ([[2, 0], [-1, 2]], "asymmetric"),
        ([[2, -1], [-5, 2]], "not-finite-type"),
        # affine A2: a triangle, and no finite Dynkin diagram has a cycle
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "has a cycle"),
        # affine G2: symmetrizable but not symmetric, and singular
        ([[2, -1, 0], [-1, 2, -3], [0, -1, 2]], "not positive definite"),
        # a triangle that is not even symmetrizable
        ([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]], "has a cycle"),
    ],
)
def test_validate_rejections(matrix, message):
    with pytest.raises(CartanError, match=message):
        validate_cartan(matrix)


def _matrices(n, pairs):
    """The n x n Cartan matrices whose off-diagonal pairs (a_ij, a_ji), for
    i < j in order, are the given ones."""
    m = [[2] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), (a, b) in zip(cells, pairs):
        m[i][j], m[j][i] = a, b
    return m


def test_forest_rule_accepts_what_the_symmetrizer_rule_accepted():
    """validate_cartan accepts a matrix exactly when a rational symmetrizer
    exists and every component passes the elimination, with the same label:
    all 3 x 3 matrices and a seeded sample of 4 x 4 ones, over pairs (0, 0)
    and (-a, -b) with a, b in 1..3."""
    pairs = [(0, 0), *((-a, -b) for a in (1, 2, 3) for b in (1, 2, 3))]
    rng = random.Random(29)
    matrices = [
        *(_matrices(3, choice) for choice in itertools.product(pairs, repeat=3)),
        *(_matrices(4, rng.choices(pairs, k=6)) for _ in range(500)),
    ]
    accepted = 0
    for m in matrices:
        try:
            label = validate_cartan(m).type_label
        except CartanError as exc:
            assert str(exc).startswith("not-finite-type"), (m, exc)
            label = None
        assert label == reference_label(m), m
        accepted += label is not None
    # both sides of the rule occur: A3, B3, C3 and products, and rejections
    assert 0 < accepted < len(matrices)


# every label from_label accepts up to MAX_RANK
IRREDUCIBLE_LABELS = [
    *(f"A{n}" for n in range(1, MAX_RANK + 1)),
    *(f"{family}{n}" for family in "BC" for n in range(2, MAX_RANK + 1)),
    *(f"D{n}" for n in range(4, MAX_RANK + 1)),
    "E6", "E7", "E8", "F4", "G2",
]


@pytest.mark.parametrize("label", [*IRREDUCIBLE_LABELS, "A1xA2"])
def test_label_round_trip(label):
    datum = from_label(label)
    assert validate_cartan(datum.entries).type_label == label


def _permuted(entries, perm):
    return [[entries[i][j] for j in perm] for i in perm]


def test_labels_survive_index_permutations():
    # rank 2 names B2 and C2 by their numbering: test_rank_2_orientation
    rng = random.Random(18)
    for label in IRREDUCIBLE_LABELS:
        entries = from_label(label).entries
        if len(entries) < 3:
            continue
        for _ in range(5):
            perm = rng.sample(range(len(entries)), len(entries))
            assert validate_cartan(_permuted(entries, perm)).type_label == label


def test_shuffled_product_names_each_component():
    entries = from_label("B3xA2").entries
    # B3's chain 1-2-3 lands on the nodes 4-5-2 and A2's nodes on 1 and 3,
    # so the short root of the double edge sits at node 2
    datum = validate_cartan(_permuted(entries, (3, 2, 4, 0, 1)))
    assert datum.components() == ((1, 3), (2, 4, 5))
    assert datum.type_label == "A2xB3"


@pytest.mark.parametrize(
    "matrix, label",
    [
        ([[2, -2], [-1, 2]], "B2"),
        ([[2, -1], [-2, 2]], "C2"),
        ([[2, -1], [-3, 2]], "G2"),
        ([[2, -3], [-1, 2]], "G2"),
    ],
)
def test_rank_2_orientation(matrix, label):
    assert validate_cartan(matrix).type_label == label


def test_bad_labels():
    for label in ["H3", "G3", "F5", "A0", "B1", "Q", ""]:
        with pytest.raises(CartanError):
            from_label(label)


def test_pairing_a2():
    d = from_label("A2")
    a1, a2 = simple_root(2, 1), simple_root(2, 2)
    h1, h2 = simple_coroot(2, 1), simple_coroot(2, 2)
    assert d.pairing(h1, a1) == 2
    assert d.pairing(h1, a2) == -1
    assert d.pairing(h1 + h2, FiniteRoot((1, 1))) == 2


def test_pairing_dimension_mismatch():
    d = from_label("A2")
    with pytest.raises(ValueError):
        d.pairing(Coweight((1,)), simple_root(2, 1))


def test_reflections_a2():
    d = from_label("A2")
    assert d.reflect_root(1, simple_root(2, 2)) == FiniteRoot((1, 1))
    assert d.reflect_root(1, simple_root(2, 1)) == FiniteRoot((-1, 0))
    assert d.reflect_coweight(1, simple_coroot(2, 2)) == Coweight((1, 1))
    # involutions fixing the reflection hyperplane
    for i in (1, 2):
        for v in (simple_root(2, 1), simple_root(2, 2), FiniteRoot((1, 1))):
            assert d.reflect_root(i, d.reflect_root(i, v)) == v


def _closure_oracle(entries):
    """Exhaustive reflection closure computed straight from the matrix."""
    n = len(entries)

    def reflect(i, coords):
        c = list(coords)
        c[i] -= sum(coords[j] * entries[j][i] for j in range(n))
        return tuple(c)

    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    while True:
        grown = set(roots)
        for r in roots:
            for i in range(n):
                grown.add(reflect(i, r))
        if grown == roots:
            return roots
        roots = grown


@pytest.mark.parametrize("label, count", [("A1", 2), ("A2", 6), ("B2", 8), ("C2", 8), ("G2", 12)])
def test_root_counts(label, count):
    datum = from_label(label)
    roots = datum.roots()
    assert len(roots) == count
    assert {r.coords for r in roots} == _closure_oracle(datum.entries)


def test_roots_closed_under_negation_and_reflection():
    for label in ("A2", "G2"):
        d = from_label(label)
        roots = set(d.roots())
        assert {-r for r in roots} == roots
        for i in range(1, d.size + 1):
            assert {d.reflect_root(i, r) for r in roots} == roots


def test_highest_root():
    assert from_label("A1").highest_root() == FiniteRoot((1,))
    assert from_label("A2").highest_root() == FiniteRoot((1, 1))
    g2 = from_label("G2")
    top = g2.highest_root()
    assert top.height == 5
    assert top == max(g2.roots(), key=lambda r: r.height)


def test_highest_root_reducible():
    d = from_label("A1xA2")
    with pytest.raises(CartanError):
        d.highest_root()


@pytest.mark.parametrize("label", IRREDUCIBLE_LABELS)
def test_highest_root_is_the_only_root_of_greatest_height(label):
    # roots()[-1] is the highest root only because no other root shares its height
    datum = from_label(label)
    top = datum.highest_root()
    assert [r for r in datum.roots() if r.height >= top.height] == [top]


def test_weyl_group_laws_a2():
    d = from_label("A2")
    s1, s2 = d.simple_reflection(1), d.simple_reflection(2)
    e = d.identity_weyl()
    assert s1 * s1 == e
    assert (s1 * s2) * (s1 * s2) * (s1 * s2) == e
    # products apply the right factor first: (s1 s2) x = s1(s2(x))
    assert (s1 * s2).act_root(simple_root(2, 1)) == FiniteRoot((0, 1))
    assert (s2 * s1).act_root(simple_root(2, 1)) == FiniteRoot((-1, -1))
    # same values step by step through single reflections
    assert d.reflect_root(1, d.reflect_root(2, simple_root(2, 1))) == FiniteRoot((0, 1))
    assert d.reflect_root(2, d.reflect_root(1, simple_root(2, 1))) == FiniteRoot((-1, -1))


def test_braid_relation_g2():
    d = from_label("G2")
    s1, s2 = d.simple_reflection(1), d.simple_reflection(2)
    m = s1 * s2
    acc = d.identity_weyl()
    for _ in range(6):
        acc = acc * m
    assert acc == d.identity_weyl()
    acc = d.identity_weyl()
    for _ in range(3):
        acc = acc * m
    assert acc != d.identity_weyl()


def test_pairing_invariance():
    for label in ("A2", "B2", "G2"):
        d = from_label(label)
        gens = [d.simple_reflection(i) for i in range(1, d.size + 1)]
        words = itertools.chain.from_iterable(
            itertools.product(range(len(gens)), repeat=k) for k in range(4)
        )
        basis_roots = [simple_root(d.size, i) for i in range(1, d.size + 1)]
        basis_cowts = [simple_coroot(d.size, i) for i in range(1, d.size + 1)]
        for word in words:
            w = d.identity_weyl()
            for g in word:
                w = w * gens[g]
            for lam in basis_cowts:
                for mu in basis_roots:
                    assert d.pairing(w.act_coweight(lam), w.act_root(mu)) == d.pairing(lam, mu)


def _elements_with_words(datum):
    """Every element of W with its lexicographically smallest reduced word,
    by breadth-first search: the frontier of each length comes in the
    order of those words and each is extended by s_1, s_2, ... in turn, so
    the first word that reaches an element is its smallest."""
    gens = [datum.simple_reflection(i) for i in range(1, datum.size + 1)]
    found = {datum.identity_weyl(): ()}
    frontier = [datum.identity_weyl()]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in enumerate(gens, start=1):
                u = w * g
                if u not in found:
                    found[u] = found[w] + (i,)
                    nxt.append(u)
        frontier = nxt
    return found


def _all_elements(datum):
    return {w: len(word) for w, word in _elements_with_words(datum).items()}


def test_inversion_length_equals_word_metric():
    for label in ("A2", "B2"):
        datum = from_label(label)
        for w, word_metric in _all_elements(datum).items():
            if word_metric <= 5:
                assert w.length() == word_metric


def _finite_word(group, w, translation=None):
    translation = translation or Coweight((0,) * group.rank)
    return tuple(element_to_json(group, AffineWeylElement(translation, w))["finite_word"])


def test_canonical_word_is_lex_smallest_reduced():
    d = from_label("A2")
    group = AffineWeylGroup(d)
    w0 = d.weyl_from_word((1, 2, 1))
    assert w0 == d.weyl_from_word((2, 1, 2))
    assert _finite_word(group, w0) == (1, 2, 1)
    assert _finite_word(group, d.weyl_from_word((2, 1))) == (2, 1)
    assert _finite_word(group, d.identity_weyl()) == ()
    # every element of each group, against the breadth-first reference
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        d = from_label(label)
        group = AffineWeylGroup(d)
        shift = Coweight((-2,) + (0,) * (d.size - 1))
        for w, word in _elements_with_words(d).items():
            assert _finite_word(group, w) == word
            assert _finite_word(group, w, shift) == word


def test_action_permutes_roots():
    d = from_label("B2")
    roots = set(d.roots())
    for w in _all_elements(d):
        assert {w.act_root(r) for r in roots} == roots


def test_braid_relation_b2():
    d = from_label("B2")
    m = d.simple_reflection(1) * d.simple_reflection(2)
    acc = d.identity_weyl()
    for _ in range(4):
        acc = acc * m
    assert acc == d.identity_weyl()
    acc = d.identity_weyl()
    for _ in range(2):
        acc = acc * m
    assert acc != d.identity_weyl()


def test_commuting_generators_product_type():
    d = from_label("A1xA1")
    s1, s2 = d.simple_reflection(1), d.simple_reflection(2)
    assert s1 * s2 == s2 * s1
    assert (s1 * s2) * (s1 * s2) == d.identity_weyl()


@pytest.mark.parametrize("label, order", [("A3", 24), ("B3", 48), ("G2", 12), ("D4", 192)])
def test_weyl_inverse_and_pairing_on_whole_group(label, order):
    d = from_label(label)
    words = _elements_with_words(d)
    assert len(words) == order
    e = d.identity_weyl()
    basis_roots = [simple_root(d.size, i) for i in range(1, d.size + 1)]
    basis_cowts = [simple_coroot(d.size, i) for i in range(1, d.size + 1)]
    for w, word in words.items():
        winv = w.inverse()
        assert w * winv == e
        assert winv * w == e
        # independent reference: the reversed reduced word
        assert winv == d.weyl_from_word(tuple(reversed(word)))
        for lam in basis_cowts:
            for mu in basis_roots:
                assert d.pairing(w.act_coweight(lam), w.act_root(mu)) == d.pairing(lam, mu)


def test_weyl_inverse_is_exact():
    d = from_label("A2")
    size = len(d.roots())
    bad = (
        (0,) * size,
        tuple(range(size - 1)),
        tuple(range(1, size + 1)),
        tuple(range(size)) + (0,),
        (-size,) + tuple(range(1, size)),  # -size would index the first position
    )
    for perm in bad:
        with pytest.raises(ValueError):
            FiniteWeylElement(d, perm).inverse()
    # every short tuple over A1's two positions: only the two permutations pass
    d = from_label("A1")
    for n in range(4):
        for perm in itertools.product(range(-3, 4), repeat=n):
            if sorted(perm) == [0, 1]:
                assert FiniteWeylElement(d, perm).inverse().perm == perm
            else:
                with pytest.raises(ValueError):
                    FiniteWeylElement(d, perm).inverse()


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_permutation_actions_match_the_linear_action(label):
    d = from_label(label)
    coweights = [simple_coroot(d.size, i) for i in range(1, d.size + 1)]
    coweights.append(Coweight(tuple(range(2, d.size + 2))))
    for w, word in _elements_with_words(d).items():
        for alpha in d.roots():
            expected = alpha
            for i in reversed(word):
                expected = d.reflect_root(i, expected)
            assert w.act_root(alpha) == expected
        for lam in coweights:
            expected = lam
            for i in reversed(word):
                expected = d.reflect_coweight(i, expected)
            assert w.act_coweight(lam) == expected
        assert w.length() == len(word)


def test_act_root_rejects_non_roots():
    d = from_label("A2")
    with pytest.raises(ValueError):
        d.simple_reflection(1).act_root(FiniteRoot((2, 0)))


def test_rank_bound_is_checked_before_validation():
    assert MAX_RANK >= 8
    assert from_label("E8").size == 8
    assert from_label(f"A{MAX_RANK}").size == MAX_RANK
    for label in (f"A{MAX_RANK + 1}", f"A{MAX_RANK}xA1", "A1000000000"):
        with pytest.raises(CartanError, match="maximum rank"):
            from_label(label)
    # rows of the wrong length would fail validation; the rank fails first
    with pytest.raises(CartanError, match="maximum rank"):
        validate_cartan([[2]] * (MAX_RANK + 1))


def test_root_tables_are_built_once_and_leave_equality_and_hash_alone():
    d, fresh = from_label("B3"), from_label("B3")
    before = hash(d)
    assert d.root_tables is d.root_tables
    assert hash(d) == before == hash(fresh)
    assert d == fresh and d.root_tables == fresh.root_tables


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "E6"])
def test_simple_reflections_are_cached_reflections(label):
    d, fresh = from_label(label), from_label(label)
    before = hash(d)
    for i in range(1, d.size + 1):
        assert d.simple_reflection(i) == d.reflection(simple_root(d.size, i))
        assert d.simple_reflection(i) is d.simple_reflection(i)
    assert d._simple_reflections is d._simple_reflections
    assert hash(d) == before == hash(fresh)
    assert d == fresh
    with pytest.raises(IndexError):
        d.simple_reflection(d.size + 1)
    with pytest.raises(IndexError):
        d.simple_reflection(0)
