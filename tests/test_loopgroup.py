import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from alcovewalks.affine import AffineRoot, AffineWeylGroup, is_iwahori_positive, is_uminus_positive
from alcovewalks.cartan import Coweight, FiniteRoot, from_label, validate_cartan
from alcovewalks.folding import StepKind, cells_by_endpoint
from alcovewalks.loopgroup import (
    BRUTE_FORCE_GUARD,
    ExecutorState,
    GroupMatrix,
    InvariantError,
    LoopSL,
    NormalizationError,
    brute_force_cells,
    check_brute_force,
    in_iwahori,
    in_uminus,
    is_monomial,
)
from alcovewalks.ratfunc import QQ, PrimeField, RationalFunction

from helpers import (
    all_reduced_words,
    ball,
    bruhat_point_finite,
    coset_equal_borel,
    h_cochar,
    h_root,
    is_upper_triangular,
    n_simple,
    t_translation,
)


def sl2():
    return LoopSL(from_label("A1"), QQ)


def sl3():
    return LoopSL(from_label("A2"), QQ)


def rf(terms):
    if isinstance(terms, dict):
        return RationalFunction.from_laurent(QQ, terms)
    return RationalFunction.of(QQ, terms)


def mat(rows):
    return GroupMatrix(tuple(tuple(rf(e) for e in row) for row in rows))


# A3 as the path 1-3-2 and A4 as the path 1-2-4-3: type A, but not numbered
# along the chain, so alpha_i does not sit at the matrix position (i, i + 1)
PERMUTED_A3 = [[2, 0, -1], [0, 2, -1], [-1, -1, 2]]
PERMUTED_A4 = [[2, -1, 0, 0], [-1, 2, 0, -1], [0, 0, 2, -1], [0, -1, -1, 2]]


def test_matrix_layer_requires_type_a():
    with pytest.raises(ValueError):
        LoopSL(from_label("B2"), QQ)
    with pytest.raises(ValueError):
        LoopSL(from_label("A1xA1"), QQ)
    for matrix in (PERMUTED_A3, PERMUTED_A4):
        with pytest.raises(ValueError, match="numbered along the chain"):
            LoopSL(validate_cartan(matrix), QQ)


def test_x_root_positions():
    sl = sl3()
    c = Fraction(7)
    x1 = sl.x_root(AffineRoot(FiniteRoot((1, 0)), 0), c)
    assert x1 == mat([[1, 7, 0], [0, 1, 0], [0, 0, 1]])
    x0 = sl.x_root(AffineRoot(FiniteRoot((-1, -1)), 1), c)
    assert x0 == mat([[1, 0, 0], [0, 1, 0], [{1: 7}, 0, 1]])
    x2d = sl.x_root(AffineRoot(FiniteRoot((0, 1)), 1), c)
    assert x2d == mat([[1, 0, 0], [0, 1, {1: 7}], [0, 0, 1]])


def test_x_root_rejects_non_type_a_vectors():
    sl = sl3()
    with pytest.raises(ValueError):
        sl.x_root(AffineRoot(FiniteRoot((1, -1)), 0), 1)
    with pytest.raises(ValueError):
        sl.x_root(AffineRoot(FiniteRoot((2, 1)), 0), 1)
    with pytest.raises(ValueError):  # support {1, 3} is not an interval
        LoopSL(from_label("A3"), QQ).x_root(AffineRoot(FiniteRoot((1, 0, 1)), 0), 1)


def test_n_matrices():
    sl = sl3()
    assert n_simple(sl, 1) == mat([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert n_simple(sl, 2) == mat([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert n_simple(sl, 0) == mat([[0, 0, {-1: -1}], [0, 1, 0], [{1: 1}, 0, 0]])
    g = Fraction(5, 3)
    assert sl2().n_root(AffineRoot(FiniteRoot((1,)), 0), g) == GroupMatrix(
        (
            (rf(0), rf(g)),
            (rf(-1 / g), rf(0)),
        )
    )


def test_h_cochar_diagonals():
    sl = sl3()
    c = Fraction(4)
    assert h_cochar(sl, Coweight((1, 0)), c) == mat(
        [[4, 0, 0], [0, Fraction(1, 4), 0], [0, 0, 1]]
    )
    assert h_cochar(sl, Coweight((-1, -1)), c) == mat(
        [[Fraction(1, 4), 0, 0], [0, 1, 0], [0, 0, 4]]
    )
    # the same group element through n products, at the affine node
    affine_node = AffineRoot(FiniteRoot((-1, -1)), 1)
    assert h_root(sl, affine_node, c) == h_cochar(sl, Coweight((-1, -1)), c)


def test_t_translation():
    sl = sl3()
    t_phi = t_translation(sl, Coweight((1, 1)))
    assert t_phi == mat([[{-1: 1}, 0, 0], [0, 1, 0], [0, 0, {1: 1}]])
    image = sl.monomial_to_weyl(t_phi)
    assert image.translation == Coweight((1, 1))
    assert image.finite.is_identity()


def test_memberships():
    sl = sl3()
    assert in_iwahori(sl.identity())
    assert in_uminus(sl.identity())
    assert is_monomial(sl.identity())
    u9 = mat(
        [
            [1, 0, 0],
            [{0: Fraction(1, 2), 1: Fraction(-5, 12)}, 1, 0],
            [{-2: Fraction(1, 6)}, 0, 1],
        ]
    )
    assert in_uminus(u9) and not in_iwahori(u9)
    v9 = mat([[0, 1, 0], [{2: -1}, 0, 0], [0, 0, {-2: 1}]])
    assert is_monomial(v9) and not in_uminus(v9)
    assert not in_iwahori(mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))  # ev0 not triangular
    assert in_iwahori(mat([[1, 0, 0], [{1: 1}, 1, 0], [0, 0, 1]]))
    assert not in_iwahori(mat([[1, {-1: 1}, 0], [0, 1, 0], [0, 0, 1]]))  # pole
    assert not is_monomial(mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_iwahori_normalize_identity():
    sl = sl3()
    for j in (0, 1, 2):
        ct, b2 = sl.iwahori_normalize(sl.identity(), j, Fraction(9, 2))
        assert ct == Fraction(9, 2)
        assert b2 == sl.identity()


def test_iwahori_normalize_worked_steps():
    # the two normalizations spelled out in the nine-step walk, at c5 = 2
    sl = sl3()
    b5 = mat([[Fraction(1, 2), 0, 0], [0, 1, 0], [{1: -1}, 0, 2]])
    assert in_iwahori(b5)
    ct, b6 = sl.iwahori_normalize(b5, 1, Fraction(7))
    assert ct == Fraction(7, 2)  # c tilde = c5^{-1} c6
    assert in_iwahori(b6)
    b6_zero = sl.iwahori_normalize(b5, 1, Fraction(0))[1]
    assert b6_zero == mat([[1, 0, 0], [0, Fraction(1, 2), 0], [0, {1: 1}, 2]])
    ct7, _ = sl.iwahori_normalize(b6_zero, 0, Fraction(3))
    assert ct7 == Fraction(6)  # c tilde = c5 c7


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_iwahori_normalize_defining_identity_and_uniqueness(label, field):
    rng = random.Random(20240803)
    sl = LoopSL(from_label(label), field)
    rank = sl.datum.size
    pos_roots = [
        AffineRoot(finite, k)
        for finite in sl.datum.roots()
        for k in range(-1, 3)
        if is_iwahori_positive(AffineRoot(finite, k))
    ]
    for trial in range(100):
        b = sl.identity()
        for _ in range(rng.randint(1, 5)):
            beta = rng.choice(pos_roots)
            b = b @ sl.x_root(beta, Fraction(rng.randint(-3, 3)))
        if rng.random() < 0.4:
            lam = Coweight(tuple(rng.randint(-1, 1) for _ in range(rank)))
            b = b @ h_cochar(sl, lam, Fraction(rng.choice((1, -1, 2)), 1))
        assert in_iwahori(b)
        j = rng.randrange(rank + 1)
        c = field.of(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
        ct, b2 = sl.iwahori_normalize(b, j, c)
        assert in_iwahori(b2)
        lhs = b @ sl.x_simple(j, c) @ sl.n_simple_inv(j)
        rhs = sl.x_simple(j, ct) @ sl.n_simple_inv(j) @ b2
        assert lhs == rhs
        # uniqueness: shifting the label throws the result out of the subgroup
        shifted = n_simple(sl, j) @ (sl.x_simple(j, -(ct + 1)) @ lhs)
        assert not in_iwahori(shifted)


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_closed_forms_match_their_definitions(label):
    # h_root and n_simple_inv are built directly; these are their definitions
    sl = LoopSL(from_label(label), QQ)
    g = Fraction(-3, 2)
    for finite in sl.datum.roots():
        for k in (-1, 0, 1, 2):
            beta = AffineRoot(finite, k)
            assert h_root(sl, beta, g) == sl.n_root(beta, g) @ sl.n_root(beta, 1).inverse()
    for j in range(sl.datum.size + 1):
        assert sl.n_simple_inv(j) == n_simple(sl, j).inverse()


def test_iwahori_normalize_rejects_bad_input():
    sl = sl3()
    not_iwahori = mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(NormalizationError):
        sl.iwahori_normalize(not_iwahori, 1, Fraction(1))


def test_execute_empty_word():
    sl = sl3()
    state = sl.execute_folding((), ())
    assert state.u == state.v_rep == state.b == sl.identity()
    assert state.v.is_identity()
    assert state.u_factors == ()


def test_execute_single_fold_sl2():
    sl = sl2()
    state = sl.execute_folding((1,), (Fraction(4),), validate=True)
    assert state.kinds == (StepKind.FOLD,)
    assert state.u == mat([[1, 0], [Fraction(1, 4), 1]])
    assert state.v.is_identity()
    assert state.v_rep == sl.identity()
    expected_b = sl.x_simple(1, Fraction(-4)) @ h_cochar(sl, Coweight((1,)), Fraction(4))
    assert state.b == expected_b
    assert state.b == mat([[4, -1], [0, Fraction(1, 4)]])
    assert state.u_factors == ((AffineRoot(FiniteRoot((-1,)), 0), Fraction(1, 4)),)


def test_execute_label_count_mismatch():
    with pytest.raises(ValueError):
        sl2().execute_folding((1,), ())


def test_executor_invariants_hold_stepwise():
    # validate=True re-checks the running identity after every step
    sl = sl3()
    rng = random.Random(5)
    for word in [(0,), (2, 1), (2, 1, 0, 2), (2, 1, 0, 2, 0, 1, 0, 2, 0)]:
        labels = [Fraction(rng.randint(-3, 3)) for _ in word]
        state = sl.execute_folding(word, labels, validate=True)
        assert in_uminus(state.u) and in_iwahori(state.b) and is_monomial(state.v_rep)


def test_executor_kinds_match_combinatorial_path():
    # the executor reads kind, wall and endpoint off its matrices; replay v
    # in the affine Weyl group, crossing where v alpha_j is uminus positive,
    # on reduced and non-reduced words over QQ, F_2 and F_3
    rng = random.Random(99)
    seen = Counter()
    for label in ("A1", "A2", "A3", "A4"):
        for field in (QQ, PrimeField(2), PrimeField(3)):
            sl = LoopSL(from_label(label), field)
            group = sl.group
            for trial in range(6):
                length = rng.randint(1, 9)
                if trial % 2:
                    word = reduced_word(group, rng, length)
                else:
                    word = tuple(rng.randint(0, group.rank) for _ in range(length))
                reduced = group.length(group.from_word(word)) == len(word)
                labels = [field.of(0 if rng.random() < 0.35 else rng.randint(-3, 3)) for _ in word]
                state = sl.execute_folding(word, labels, validate=True)
                assert group.length(state.v) <= len(word)
                assert sl.monomial_to_weyl(state.v_rep) == state.v
                v = group.identity()
                for j, kind, (wall, coeff) in zip(word, state.kinds, state.u_factors):
                    beta = v.act(group.simple_affine_root(j))
                    if is_uminus_positive(beta):
                        assert (kind, wall) == (StepKind.POSITIVE_CROSSING, beta)
                    else:
                        want = StepKind.FOLD if coeff else StepKind.ZERO_CROSSING
                        assert (kind, wall) == (want, -beta)
                    if kind is not StepKind.FOLD:
                        v = v * group.simple_reflection(j)
                    seen[kind, j == 0, reduced] += 1
                assert state.v == v
    assert all(seen[kind, True, reduced] for kind in StepKind for reduced in (True, False))


def test_monomial_to_weyl():
    sl = sl3()
    group = sl.group
    assert sl.monomial_to_weyl(sl.identity()).is_identity()
    assert sl.monomial_to_weyl(n_simple(sl, 1)) == group.simple_reflection(1)
    assert sl.monomial_to_weyl(n_simple(sl, 0)) == group.simple_reflection(0)
    v9 = mat([[0, 1, 0], [{2: -1}, 0, 0], [0, 0, {-2: 1}]])
    assert sl.monomial_to_weyl(v9) == group.from_word((2, 1, 0, 2, 1, 2, 0))
    with pytest.raises(ValueError):
        sl.monomial_to_weyl(mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_monomial_round_trip_through_words():
    for label, size in (("A2", 46), ("A3", 121)):
        sl = LoopSL(from_label(label), QQ)
        group, rank = sl.group, sl.datum.size
        elements = ball(group, 5)
        assert len(elements) == size
        # constant torus factors rescale entries without moving t-exponents
        left = h_cochar(sl, Coweight((1,) * rank), Fraction(2))
        right = h_cochar(sl, Coweight(tuple(range(-1, rank - 1))), Fraction(-3, 5))
        for g in elements:
            m = sl.identity()
            for j in group.reduced_word(g):
                m = m @ sl.n_simple_inv(j)
            assert sl.monomial_to_weyl(m) == g
            assert sl.monomial_to_weyl(left @ m @ right) == g


def test_conjugation_relation_magnitudes():
    # n_i(g) x_j(f) n_i(g)^{-1} = x_{s_i alpha_j}(sign * g^{-<alpha_j, alpha_i vee>} f)
    sl = sl3()
    group = sl.group
    samples = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)]
    h_phi = sl.datum.coroot(group.highest_root)
    for i in range(3):
        for j in range(3):
            alpha_i = group.simple_affine_root(i)
            alpha_j = group.simple_affine_root(j)
            # pairing against the affine simple coroot; the delta part of
            # alpha_i contributes nothing at the matrix level
            cor = -h_phi if i == 0 else sl.datum.coroot(alpha_i.finite)
            exponent = -sl.datum.pairing(cor, alpha_j.finite)
            target = group.simple_reflection(i).act(alpha_j)
            for g in samples:
                for f in samples[:3]:
                    lhs = sl.n_root(alpha_i, g) @ sl.x_simple(j, f) @ sl.n_root(alpha_i, g).inverse()
                    magnitude = g ** exponent * f
                    plus = sl.x_root(target, magnitude)
                    minus = sl.x_root(target, -magnitude)
                    assert lhs == plus or lhs == minus


def test_folding_law_matrix_identity():
    # x_alpha(c) n_alpha^{-1} = x_{-alpha}(c^{-1}) x_alpha(-c) h_alpha(c)
    sl = sl3()
    group = sl.group
    for j in range(3):
        alpha = group.simple_affine_root(j)
        for c in [Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(5), Fraction(-7, 2)]:
            lhs = sl.x_simple(j, c) @ sl.n_simple_inv(j)
            rhs = (
                sl.x_root(-alpha, 1 / c)
                @ sl.x_simple(j, -c)
                @ h_root(sl, alpha, c)
            )
            assert lhs == rhs


def test_bruhat_point_sl2():
    sl = sl2()
    c = Fraction(11)
    assert bruhat_point_finite(sl, (1,), (c,)) == mat([[11, -1], [1, 0]])
    with pytest.raises(ValueError):
        bruhat_point_finite(sl, (0,), (c,))


def test_bruhat_distinct_labels_distinct_cosets():
    sl = sl3()
    word = (1, 2, 1)
    labels = list(itertools.product([Fraction(0), Fraction(1), Fraction(2)], repeat=3))
    points = [bruhat_point_finite(sl, word, lab) for lab in labels]
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            assert not coset_equal_borel(points[a], points[b])


def test_coset_equal_borel():
    sl = sl3()
    m = bruhat_point_finite(sl, (1, 2), (Fraction(1), Fraction(2)))
    shifted = m @ mat([[1, 5, 7], [0, 1, -2], [0, 0, 1]])
    assert coset_equal_borel(m, shifted)
    assert is_upper_triangular(shifted.inverse() @ m)
    other = bruhat_point_finite(sl, (1, 2), (Fraction(1), Fraction(3)))
    assert not coset_equal_borel(m, other)


def test_brute_force_cells_a1():
    datum = from_label("A1")
    group = AffineWeylGroup(datum)
    t0 = brute_force_cells(datum, (0,), 2)
    assert t0 == {group.simple_reflection(0): 2}
    t1 = brute_force_cells(datum, (1,), 2)
    assert t1 == {group.identity(): 1, group.simple_reflection(1): 1}
    t10 = brute_force_cells(datum, (1, 0), 3)
    assert sum(t10.values()) == 9
    cells = cells_by_endpoint(group, (1, 0))
    assert set(t10) == set(cells)
    for end, cell in cells.items():
        assert cell.count.evaluate(3) == t10[end]


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_cells(from_label("A1"), (0, 1) * 11, 2)


def test_brute_force_guard_counts_trie_steps():
    # the guard bounds p + p^2 + ... + p^L, the steps of the trie walk
    def steps(p, length):
        return sum(p**k for k in range(1, length + 1))

    for p in (2, 3, 5, 7):
        length = 0
        while steps(p, length + 1) <= BRUTE_FORCE_GUARD:
            length += 1
        check_brute_force((1,) * length, p)
        with pytest.raises(ValueError, match="exceed the guard"):
            check_brute_force((1,) * (length + 1), p)
    # every word the old bound p^L <= 10^6 rejected is still rejected
    for p in (2, 3, 5, 7, 11, 1009):
        length = next(k for k in itertools.count() if p**k > 10**6)
        with pytest.raises(ValueError, match="exceed the guard"):
            check_brute_force((1,) * length, p)


@pytest.mark.parametrize(
    "label, word, p",
    [
        ("A1", (1, 0, 1), 3),
        ("A1", (1, 1, 0), 2),  # not reduced
        ("A2", (2, 1, 0, 2), 3),
        ("A2", (1, 2, 0, 1), 2),
        ("A3", (3, 2, 1, 0), 2),
        ("A3", (1, 2, 3), 3),
    ],
)
def test_brute_force_trie_matches_tally_over_tuples(label, word, p):
    datum = from_label(label)
    field = PrimeField(p)
    sl = LoopSL(datum, field)
    reference = Counter(
        sl.execute_folding(word, labels).v
        for labels in itertools.product(field.elements(), repeat=len(word))
    )
    got = brute_force_cells(datum, word, p)
    want = [(end, reference[end]) for end in sl.group.canonical_words(reference)]
    assert list(got.items()) == want


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
def test_step_fold_matches_execute_folding(field):
    rng = random.Random(17)
    for label, word in [("A1", (1, 0, 1, 1)), ("A2", (2, 1, 0, 2, 0, 1)), ("A3", (3, 2, 1, 0, 3))]:
        sl = LoopSL(from_label(label), field)
        for _ in range(4):
            labels = [field.of(rng.randint(-2, 2)) for _ in word]
            state = sl.initial_state()
            for j, c in zip(word, labels):
                state = sl.step(state, j, c)
            want = sl.execute_folding(word, labels, validate=True)
            assert state.u == want.u
            assert state.u_factors == want.u_factors
            assert state.v == want.v
            assert state.v_rep == want.v_rep
            assert state.b == want.b
            assert state.kinds == want.kinds
            assert state == want


def test_brute_force_prime_field_executor():
    # a single fold over F_5 lands in the right subgroups
    field = PrimeField(5)
    sl = LoopSL(from_label("A1"), field)
    state = sl.execute_folding((1,), (field.of(2),), validate=True)
    assert state.kinds == (StepKind.FOLD,)
    assert state.u_factors[0][1] == field.of(3)  # 2^{-1} mod 5


def test_step_coerces_its_label():
    # a label enters the ring through field.of, so every form of a scalar steps alike
    field = PrimeField(5)
    sl = LoopSL(from_label("A2"), field)
    state = sl.execute_folding((1, 2), (1, 3))
    for j in (0, 1, 2):
        want = sl.step(state, j, 3)
        for label in (-2, 8, Fraction(3), Fraction(-1, 3)):
            assert sl.step(state, j, label) == want


def test_inverse_without_unit_pivots():
    # determinant 1, but the first Gaussian pivot 1+t is not a unit
    m = mat([[{0: 1, 1: 1}, {1: 1}], [1, 1]])
    assert m.determinant() == rf(1)
    inv = m.inverse()
    assert inv == mat([[1, {1: -1}], [-1, {0: 1, 1: 1}]])
    assert m @ inv == inv @ m == mat([[1, 0], [0, 1]])
    f5 = PrimeField(5)
    rows5 = [[{0: 1, 1: 1}, {1: 1}], [{0: 1}, {0: 1}]]
    m5 = GroupMatrix(
        tuple(tuple(RationalFunction.from_laurent(f5, e) for e in row) for row in rows5)
    )
    assert m5.inverse() @ m5 == LoopSL(from_label("A1"), f5).identity()


def test_non_unit_determinant_raises():
    m = mat([[1, {1: 1}], [1, 1]])  # determinant 1 - t
    assert m.determinant() == rf({0: 1, 1: -1})
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    with pytest.raises(ZeroDivisionError):
        mat([[1, 0, 0], [0, 0, 0], [0, 0, 1]]).inverse()


def test_determinant_and_inverse_on_random_products():
    # det 1 and M @ M^-1 = 1 on products of generators, in SL3 and SL4
    rng = random.Random(8)
    for sl in (sl3(), LoopSL(from_label("A3"), QQ)):
        for _ in range(10):
            m = sl.identity()
            for _ in range(6):
                j = rng.randrange(sl.datum.size + 1)
                m = m @ sl.x_simple(j, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) @ sl.n_simple_inv(j)
            assert m.determinant() == rf(1)
            assert m @ m.inverse() == sl.identity()


def test_bruhat_zero_labels_give_pure_n_product():
    sl = sl3()
    point = bruhat_point_finite(sl, (1, 2, 1), (Fraction(0),) * 3)
    n_product = sl.n_simple_inv(1) @ sl.n_simple_inv(2) @ sl.n_simple_inv(1)
    assert point == n_product
    # and stays in the same Borel coset as the other n-lift of w0
    other_lift = n_simple(sl, 1) @ n_simple(sl, 2) @ n_simple(sl, 1)
    assert coset_equal_borel(point, other_lift)


def test_brute_force_matches_counts_rank_two():
    # same oracle comparison as in the acceptance suite, but on A2
    datum = from_label("A2")
    group = AffineWeylGroup(datum)
    for elem, ell in ball(group, 3).items():
        if ell == 0:
            continue
        for word in all_reduced_words(group, elem, cap=3):
            cells = cells_by_endpoint(group, word)
            tallies = brute_force_cells(datum, word, 2)
            assert set(tallies) == set(cells)
            for end, cell in cells.items():
                assert cell.count.evaluate(2) == tallies[end]


def test_monomial_to_weyl_ignores_torus_part():
    sl = sl3()
    v9 = mat([[0, 1, 0], [{2: -1}, 0, 0], [0, 0, {-2: 1}]])
    torus = mat([[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    assert sl.monomial_to_weyl(v9 @ torus) == sl.monomial_to_weyl(v9)
    assert sl.monomial_to_weyl(torus @ v9) == sl.monomial_to_weyl(v9)


def test_generators_have_determinant_one():
    sl = sl3()
    one = RationalFunction.of(QQ, 1)
    mats = [
        sl.x_simple(0, Fraction(3)),
        sl.x_root(AffineRoot(FiniteRoot((1, 1)), -2), Fraction(-1, 2)),
        n_simple(sl, 0),
        n_simple(sl, 1),
        sl.n_root(AffineRoot(FiniteRoot((1, 1)), 1), Fraction(2, 3)),
        h_cochar(sl, Coweight((2, -1)), Fraction(5)),
        t_translation(sl, Coweight((1, 1))),
    ]
    for m in mats:
        assert m.determinant() == one


def test_label_tuples_per_path_match_polynomial():
    # sharper than per-endpoint tallies: the label tuples that realize a
    # given kind sequence number exactly q^{#P} (q-1)^{#F}
    import itertools as it

    from alcovewalks.folding import count_polynomial, enumerate_folded_paths

    datum = from_label("A1")
    group = AffineWeylGroup(datum)
    field = PrimeField(3)
    sl = LoopSL(datum, field)
    for word in [(0,), (1,), (1, 0), (0, 1, 0)]:
        by_kinds = {}
        for labels in it.product(field.elements(), repeat=len(word)):
            state = sl.execute_folding(word, labels)
            key = tuple(k.value for k in state.kinds)
            by_kinds[key] = by_kinds.get(key, 0) + 1
        paths = enumerate_folded_paths(group, word)
        assert len(by_kinds) == len(paths)
        for p in paths:
            key = tuple(k.value for k in p.kinds)
            assert by_kinds[key] == count_polynomial(p).evaluate(3)


def reduced_word(group, rng, length):
    """A random reduced word: each letter is not a right descent."""
    g, word = group.identity(), []
    while len(word) < length:
        j = rng.randrange(group.rank + 1)
        if j not in group.right_descents(g):
            g = g * group.simple_reflection(j)
            word.append(j)
    return tuple(word)


def nonzero_labels(rng, length):
    return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(length)]


def with_entry(m, r, c, value):
    rows = [list(row) for row in m.entries]
    rows[r][c] = value
    return GroupMatrix(tuple(map(tuple, rows)))


def lower_root(sl, k):
    """-alpha_1 + k delta: uminus positive, at matrix position (2, 1)."""
    return AffineRoot(-FiniteRoot((1,) + (0,) * (sl.n - 2)), k)


def replace(s, **changes):
    """A copy of the executor state s with the named fields changed."""
    fields = {name: getattr(s, name) for name in ExecutorState.__match_args__}
    return ExecutorState(**{**fields, **changes})


def bump_first_coeff(sl, s):
    (gamma, c), *rest = s.u_factors
    return replace(s, u_factors=((gamma, c + 1), *rest))


def negate_last_wall(sl, s):
    *rest, (gamma, c) = s.u_factors
    return replace(s, u_factors=(*rest, (-gamma, c)))


def u_off_uminus(sl, s):
    return replace(s, u=with_entry(s.u, 0, 1, rf(1)))


def u_times_extra_x(sl, s):
    return replace(s, u=s.u @ sl.x_root(lower_root(sl, 0), 1))


def u_and_factor_moved(sl, s):
    # u x_wall(1) with the last coefficient raised by 1 agrees with its
    # recorded factorization, since x_wall(c) x_wall(1) = x_wall(c + 1)
    *rest, (wall, c) = s.u_factors
    return replace(s, u=s.u @ sl.x_root(wall, 1), u_factors=(*rest, (wall, c + 1)))


def u_times_extra_x_b_compensating(sl, s):
    # u x and x^-1 moved into b: u . v_rep . b is unchanged, b stays Iwahori
    # (x's root sits high in t), so only u's recorded factorization is off
    gamma = lower_root(sl, 20)
    b = s.v_rep.inverse() @ sl.x_root(gamma, -1) @ s.v_rep @ s.b
    assert in_iwahori(b)
    return replace(s, u=s.u @ sl.x_root(gamma, 1), b=b)


def b_with_pole(sl, s):
    return replace(s, b=with_entry(s.b, 1, 0, s.b.entries[1][0] + rf({-1: 1})))


def v_rep_not_monomial(sl, s):
    r, c = next((r, c) for r in range(sl.n) for c in range(sl.n) if s.v_rep.entries[r][c].is_zero())
    return replace(s, v_rep=with_entry(s.v_rep, r, c, rf(1)))


def v_rep_off_by_t(sl, s):
    # still monomial, and over another affine Weyl element
    r, c = next((r, c) for r in range(sl.n) for c in range(sl.n) if s.v_rep.entries[r][c].terms)
    entry = s.v_rep.entries[r][c] * RationalFunction.t_power(sl.field, 1)
    return replace(s, v_rep=with_entry(s.v_rep, r, c, entry))


def b_scaled(sl, s):
    rows = (tuple(rf(2) * e for e in s.b.entries[0]),) + s.b.entries[1:]
    return replace(s, b=GroupMatrix(rows))


CORRUPTIONS = [
    (bump_first_coeff, "recorded factorization"),
    (negate_last_wall, "not uminus positive"),
    (u_off_uminus, "lower unipotent"),
    (u_times_extra_x, "recorded factorization"),
    (u_and_factor_moved, "running factorization identity"),
    (u_times_extra_x_b_compensating, "recorded factorization"),
    (b_with_pole, "Iwahori"),
    (v_rep_not_monomial, "v_rep is not monomial"),
    (v_rep_off_by_t, "running factorization identity"),
    # det(b) = 2 while the generators have det 1, so the product identity
    # fails first; the determinant check is exercised on its own below
    (b_scaled, "running factorization identity"),
]


@pytest.mark.parametrize("label", ["A2", "A3"])
@pytest.mark.parametrize("corrupt, message", CORRUPTIONS, ids=[f.__name__ for f, _ in CORRUPTIONS])
def test_each_invariant_raises_at_the_corrupted_step(monkeypatch, label, corrupt, message):
    sl = LoopSL(from_label(label), QQ)
    rng = random.Random(f"corrupt-{label}")
    word = reduced_word(sl.group, rng, 8)
    labels = nonzero_labels(rng, 8)
    sl.execute_folding(word, labels, validate=True)  # passes uncorrupted
    real_step, k, steps = LoopSL.step, 6, []

    def step(self, state, j, c):
        steps.append(j)
        out = real_step(self, state, j, c)
        return corrupt(self, out) if len(steps) == k else out

    monkeypatch.setattr(LoopSL, "step", step)
    with pytest.raises(InvariantError, match=message):
        sl.execute_folding(word, labels, validate=True)
    assert len(steps) == k


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_determinant_check_raises(label):
    sl = LoopSL(from_label(label), QQ)
    rng = random.Random(f"det-{label}")
    word = reduced_word(sl.group, rng, 5)
    labels = nonzero_labels(rng, 5)
    state = sl.execute_folding(word[:-1], labels[:-1], validate=True)
    prev_vb = state.v_rep @ state.b
    j, c = word[-1], labels[-1]
    good = sl.step(state, j, c)
    generator = sl.x_simple(j, c) @ sl.n_simple_inv(j)
    sl._check_state(generator, prev_vb, state, good)  # passes uncorrupted
    # d = diag(2, 1, ...) on the right of both sides keeps the identity, and
    # b d stays Iwahori, so only the generator's determinant is off
    d = with_entry(sl.identity(), 0, 0, rf(2))
    bad = replace(good, b=good.b @ d)
    with pytest.raises(InvariantError, match="determinant drifted from 1"):
        sl._check_state(generator @ d, prev_vb, state, bad)


def test_cached_n_must_be_a_signed_transposition(monkeypatch):
    # the step's row and column exchanges read their signs from n_j
    sl = sl3()
    monkeypatch.setattr(LoopSL, "n_root", lambda self, beta, g: self.x_root(beta, g))
    with pytest.raises(InvariantError, match="signed transposition"):
        n_simple(sl, 1)
    with pytest.raises(InvariantError, match="signed transposition"):
        sl.n_simple_inv(0)


def test_conjugate_needs_one_entry_in_the_column_and_row_it_reads():
    # gamma at (r, c) reads columns r and c of v_rep: v_rep^-1 has
    # 1 / v_rep[b][c] at (c, b), so row c of v_rep^-1 is column c of v_rep
    sl = sl3()
    gamma = AffineRoot(FiniteRoot((1, 0)), 1)  # position (1, 2)
    v_rep = n_simple(sl, 2) @ h_root(sl, gamma, 3)
    assert sl.conjugate(v_rep, gamma) == (-9, 1, 0, 2)
    for c in (Fraction(2), Fraction(-1, 3)):
        assert v_rep @ sl.x_root(gamma, c) @ v_rep.inverse() == with_entry(
            sl.identity(), 0, 2, rf({1: -9 * c})
        )
    two_in_column_r = with_entry(sl.identity(), 1, 0, rf(1))
    with pytest.raises(NormalizationError, match="not monomial"):
        sl.conjugate(two_in_column_r, gamma)
    two_in_column_c = with_entry(sl.identity(), 2, 1, rf(1))
    with pytest.raises(NormalizationError, match="not monomial"):
        sl.conjugate(two_in_column_c, gamma)
    empty_column = with_entry(sl.identity(), 0, 0, rf(0))
    with pytest.raises(NormalizationError, match="not monomial"):
        sl.conjugate(empty_column, gamma)


def test_root_coefficient_is_read_at_the_wall_position():
    # v_rep conjugates x_j(c) and x_{-j}(c) to root elements at mirror
    # positions; the step records the one below the diagonal, x_j(ct) for a
    # positive crossing and x_{-j}(1 / ct) for a fold, and takes a zero
    # crossing's wall from x_{-j}(1).  With b = 1, ct is the label itself.
    sl = sl3()
    gamma = AffineRoot(FiniteRoot((1, 0)), 1)
    v9 = mat([[0, 1, 0], [{2: -1}, 0, 0], [0, 0, {-2: 1}]])
    seen = set()
    for v_rep in (sl.identity(), n_simple(sl, 2) @ h_root(sl, gamma, 3), v9):
        state = ExecutorState(sl.identity(), (), v_rep, sl.identity(), ())
        for j in range(3):
            alpha = sl.group.simple_affine_root(j)
            for c in (Fraction(-2), Fraction(0), Fraction(3, 5)):
                out = sl.step(state, j, c)
                ((wall, coeff),), (kind,) = out.u_factors, out.kinds
                seen.add(kind)
                root = alpha if kind is StepKind.POSITIVE_CROSSING else -alpha
                value = c if kind is StepKind.POSITIVE_CROSSING else c and 1 / c
                assert kind is not StepKind.ZERO_CROSSING or c == 0
                x = v_rep @ sl.x_root(root, 1) @ v_rep.inverse()
                r, s = sl.root_position(wall.finite)
                f = x.entries[r - 1][s - 1]
                assert r > s and f.terms.keys() == {wall.k}
                assert x == with_entry(sl.identity(), r - 1, s - 1, f)
                assert sl.x_root(wall, coeff) == v_rep @ sl.x_root(root, value) @ v_rep.inverse()
                assert out.u == sl.x_root(wall, coeff) and in_uminus(out.u)
    assert seen == set(StepKind)


def test_validated_step_costs_a_fixed_number_of_products(monkeypatch):
    sl = LoopSL(from_label("A3"), QQ)
    rng = random.Random(12)
    products = [0]
    real_matmul, real_check = GroupMatrix.__matmul__, LoopSL._check_state

    def matmul(a, b):
        products[0] += 1
        return real_matmul(a, b)

    marks = []

    def check(self, generator, prev_vb, prev, state):
        vb = real_check(self, generator, prev_vb, prev, state)
        marks.append(products[0])
        return vb

    real_identity_with, built = LoopSL._identity_with, [0]

    def identity_with(self, changes):
        built[0] += 1
        return real_identity_with(self, changes)

    for j in range(sl.group.rank + 1):  # n_j and n_j^-1 are cached on first use
        sl.n_simple_inv(j)
    monkeypatch.setattr(GroupMatrix, "__matmul__", matmul)
    monkeypatch.setattr(LoopSL, "_check_state", check)
    monkeypatch.setattr(LoopSL, "_identity_with", identity_with)
    per_step = {}
    for length in (4, 12):
        costs = []
        for _ in range(3):
            word = reduced_word(sl.group, rng, length)
            labels = nonzero_labels(rng, length)
            products[0] = built[0] = 0
            sl.execute_folding(word, labels)
            # the step itself makes no matrix product and builds no matrix
            # but through row and column operations
            assert products[0] == built[0] == 0
            marks[:] = []
            sl.execute_folding(word, labels, validate=True)
            costs += [b - a for a, b in zip([0] + marks, marks)]
        assert len(costs) == 3 * length
        per_step[length] = costs
    # every product of a validated step is for its check: the generator
    # x_j(c) n_j^-1, prev.u x_gamma(c), prev_vb . generator, v_rep . b and
    # x_gamma(c) . (v_rep . b)
    assert max(per_step[12]) <= max(per_step[4]) <= 5
