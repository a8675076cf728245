"""Acceptance suite: one test per criterion, every assertion exact.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
verdict per criterion together with its runtime.
"""

import itertools
import time
from fractions import Fraction

from alcovewalks.affine import AffineRoot, AffineWeylGroup
from alcovewalks.cartan import FiniteRoot, from_label
from alcovewalks.example8 import (
    EXPECTED_FACTORS,
    KINDS,
    LABELS,
    WORD,
    expected_b,
    expected_u,
    expected_v_rep,
)
from alcovewalks.folding import (
    CountPolynomial,
    cells_by_endpoint,
    count_polynomial,
    enumerate_folded_paths,
)
from alcovewalks.loopgroup import LoopSL, brute_force_cells
from alcovewalks.ratfunc import QQ, PrimeField, RationalFunction
from alcovewalks.render import render_arrangement

from helpers import (
    all_reduced_words,
    ball,
    bruhat_point_finite,
    coset_equal_borel,
    h_root,
    q_power,
    reduced_word_sweep,
)
from test_render import GOLDEN, element_classes


class _Timer:
    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} {self.name} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"
        return False


def test_criterion_1_matrix_reproduction():
    with _Timer("criterion 1: nine-step SL3 walk reproduces u, v_rep, b exactly", 1.0):
        sl = LoopSL(from_label("A2"), QQ)
        state = sl.execute_folding(WORD, LABELS)
        u, v_rep, b = expected_u(), expected_v_rep(), expected_b()
        assert state.u == u
        assert state.v_rep == v_rep
        assert state.b == b
        assert state.u.entries[1][0] == RationalFunction.from_laurent(
            QQ, {0: Fraction(1, 2), 1: Fraction(-5, 12)}
        )
        assert state.u.entries[2][0] == RationalFunction.from_laurent(
            QQ, {-2: Fraction(1, 6)}
        )
        # the (2,1) entry of b is +t^2, the value forced by the running
        # factorization identity and by det = 1 (see the decisions ledger
        # for the sign discrepancy against the printed source value)
        assert state.b.entries[1][0] == RationalFunction.t_power(QQ, 2)


def test_criterion_2_factor_labels():
    with _Timer("criterion 2: recorded factors carry the stated walls and values", 1.0):
        sl = LoopSL(from_label("A2"), QQ)
        state = sl.execute_folding(WORD, LABELS)
        got = tuple((g.finite.coords, g.k, c) for g, c in state.u_factors)
        assert got == EXPECTED_FACTORS
        nonzero = [(g, c) for g, c in state.u_factors if c]
        assert [c for _, c in nonzero] == [
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(-5, 12),
        ]
        assert [g for g, _ in nonzero] == [
            AffineRoot(FiniteRoot((-1, 0)), 0),  # -alpha_1
            AffineRoot(FiniteRoot((-1, -1)), -2),  # -phi - 2 delta
            AffineRoot(FiniteRoot((-1, 0)), 1),  # -alpha_1 + delta
        ]


def test_criterion_3_combinatorial_cell():
    with _Timer("criterion 3: unique folded path, kinds ZZZZFZFPZ, count q^3-2q^2+q", 1.0):
        group = AffineWeylGroup(from_label("A2"))
        target = group.from_word((2, 1, 0, 2, 1, 2, 0))
        matching = [p for p in enumerate_folded_paths(group, WORD) if p.endpoint == target]
        assert len(matching) == 1
        (path,) = matching
        assert "".join(k.value for k in path.kinds) == KINDS
        assert count_polynomial(path) == CountPolynomial((0, 1, -2, 1))
        assert path.dimension == 3


def test_criterion_4_sum_rule():
    with _Timer("criterion 4: counts sum to q^l for A1 and A2, length <= 6", 60.0):
        for label in ("A1", "A2"):
            group = AffineWeylGroup(from_label(label))
            for elem, ell in ball(group, 6).items():
                for word in all_reduced_words(group, elem, cap=6):
                    total = CountPolynomial.zero()
                    for cell in cells_by_endpoint(group, word).values():
                        total = total + cell.count
                    assert total == q_power(ell)


def test_criterion_5_finite_field_oracle():
    with _Timer("criterion 5: brute force tallies match counts for A1, p in {2,3}", 60.0):
        datum = from_label("A1")
        group = AffineWeylGroup(datum)
        for elem, ell in ball(group, 4).items():
            if ell == 0:
                continue
            for word in all_reduced_words(group, elem, cap=4):
                cells = cells_by_endpoint(group, word)
                for p in (2, 3):
                    tallies = brute_force_cells(datum, word, p)
                    assert set(tallies) == set(cells)
                    for end, cell in cells.items():
                        assert cell.count.evaluate(p) == tallies[end]
                    assert sum(tallies.values()) == p ** ell


def test_criterion_6_reduced_word_independence():
    with _Timer("criterion 6: identical cell maps for all reduced words, A2 length <= 5", 60.0):
        group = AffineWeylGroup(from_label("A2"))
        for elem, ell in ball(group, 5).items():
            words = all_reduced_words(group, elem, cap=5)
            reference = None
            for word in words:
                cells = {
                    end: cell.count for end, cell in cells_by_endpoint(group, word).items()
                }
                if reference is None:
                    reference = cells
                else:
                    assert cells == reference


# (type, longest word) of the DP sweeps over every reduced word
DP_SWEEPS = (("A1", 12), ("A2", 12), ("B2", 12), ("G2", 12), ("A3", 7), ("B3", 6), ("C3", 6))


def test_criterion_4_sum_rule_by_dp():
    with _Timer("criterion 4 (DP): counts sum to q^l at every reduced word of the sweeps", 60.0):
        for label, max_length in DP_SWEEPS:
            group = AffineWeylGroup(from_label(label))
            for _, ell, frontier in reduced_word_sweep(group, max_length):
                total = map(sum, itertools.zip_longest(*frontier.values(), fillvalue=0))
                assert CountPolynomial.make(total) == q_power(ell)


def test_criterion_6_reduced_word_independence_by_dp():
    with _Timer("criterion 6 (DP): one frontier for all reduced words of an element", 60.0):
        for label, max_length in DP_SWEEPS:
            group = AffineWeylGroup(from_label(label))
            first = {}
            for g, _, frontier in reduced_word_sweep(group, max_length):
                assert first.setdefault(g, frontier) == frontier


def _finite_reduced_words(datum):
    """All (element, reduced words) pairs of the finite Weyl group, by
    exhaustive word search up to the longest element."""
    elements = {}
    n = datum.size
    for length in range(0, 4):
        for word in itertools.product(range(1, n + 1), repeat=length):
            w = datum.weyl_from_word(word)
            if w not in elements:
                elements[w] = (length, [word])
            elif elements[w][0] == length:
                elements[w][1].append(word)
    return elements


def test_criterion_7_finite_bruhat_labeling():
    with _Timer("criterion 7: 2^l distinct Borel cosets per word; 21 points total", 10.0):
        field = PrimeField(2)
        sl = LoopSL(from_label("A2"), field)
        elements = _finite_reduced_words(sl.datum)
        assert len(elements) == 6
        total = 0
        one_point_per_coset = []
        for w, (length, words) in elements.items():
            for word in words:
                points = [
                    bruhat_point_finite(sl, word, labels)
                    for labels in itertools.product(field.elements(), repeat=length)
                ]
                assert len(points) == 2 ** length
                for a in range(len(points)):
                    for b in range(a + 1, len(points)):
                        assert not coset_equal_borel(points[a], points[b])
            total += 2 ** length
            one_point_per_coset.extend(
                bruhat_point_finite(sl, words[0], labels)
                for labels in itertools.product(field.elements(), repeat=length)
            )
        assert total == 21
        # the 21 points across different w are also pairwise distinct: they
        # exhaust SL3(F_2)/B(F_2)
        for a in range(len(one_point_per_coset)):
            for b in range(a + 1, len(one_point_per_coset)):
                assert not coset_equal_borel(
                    one_point_per_coset[a], one_point_per_coset[b]
                )


def test_criterion_8_relation_spot_checks():
    with _Timer("criterion 8: conjugation magnitudes and the folding law in SL3", 10.0):
        sl = LoopSL(from_label("A2"), QQ)
        group = sl.group
        values = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)]
        h_phi = sl.datum.coroot(group.highest_root)
        for i in range(3):
            alpha_i = group.simple_affine_root(i)
            cor = -h_phi if i == 0 else sl.datum.coroot(alpha_i.finite)
            for j in range(3):
                alpha_j = group.simple_affine_root(j)
                exponent = -sl.datum.pairing(cor, alpha_j.finite)
                target = group.simple_reflection(i).act(alpha_j)
                signs = set()
                for g in values:
                    ni = sl.n_root(alpha_i, g)
                    ni_inv = ni.inverse()
                    for f in values:
                        lhs = ni @ sl.x_simple(j, f) @ ni_inv
                        magnitude = g ** exponent * f
                        if lhs == sl.x_root(target, magnitude):
                            signs.add(1)
                        else:
                            assert lhs == sl.x_root(target, -magnitude)
                            signs.add(-1)
                # the structure-constant sign depends only on the root pair
                assert len(signs) == 1
        for j in range(3):
            alpha = group.simple_affine_root(j)
            for c in values:
                lhs = sl.x_simple(j, c) @ sl.n_simple_inv(j)
                rhs = sl.x_root(-alpha, 1 / c) @ sl.x_simple(j, -c) @ h_root(sl, alpha, c)
                assert lhs == rhs


def test_criterion_9_render_structure():
    with _Timer("criterion 9: 15 wall lines, one shaded alcove, golden bytes", 10.0):
        svg = render_arrangement(AffineWeylGroup(from_label("A2")), radius=2)
        counts = element_classes(svg)
        assert counts["wall"] == 15
        assert counts["alcove"] == 1
        assert svg == GOLDEN.read_text()
