"""Constructions that only the tests use: balls and all reduced words of
affine Weyl groups, inversion sequences, the loop group's n_j, h_beta and
cocharacter matrices and finite Bruhat points, and CountPolynomial shifts.
They are built from the package's own operations, so a test that calls
them still exercises the package.  `is_canonical` states the form a
stored coefficient must have."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from alcovewalks.affine import (
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    Word,
    WordError,
    parse_word,
)
from alcovewalks.cartan import Coweight, from_label
from alcovewalks.folding import CountPolynomial, Frontier, _times_q, _times_q_minus_one, count_step
from alcovewalks.loopgroup import GroupMatrix, LoopSL
from alcovewalks.ratfunc import QQ, RationalFunction

# -- the benchmark's inputs ---------------------------------------------------

BENCH_CASES = json.loads((Path(__file__).parents[1] / "perfbench" / "cases.json").read_text())


def bench_word(command: str, name: str) -> tuple[AffineWeylGroup, Word]:
    """The group and the first pool word of the named benchmark case."""
    case = next(c for c in BENCH_CASES[command] if c["name"] == name)
    return AffineWeylGroup(from_label(case["type"])), parse_word(case["pool"][0]["word"])


# -- scalars ------------------------------------------------------------------


def is_canonical(c, field) -> bool:
    """Whether c has the form `field.of` gives: over QQ an int when c is
    integral and a Fraction with denominator > 1 otherwise, over F_p an
    int in 0..p-1."""
    if field == QQ:
        return type(c) is int or (type(c) is Fraction and c.denominator > 1)
    return type(c) is int and 0 <= c < field.p


# -- affine Weyl groups -------------------------------------------------------


def ball(group: AffineWeylGroup, max_length: int) -> dict[AffineWeylElement, int]:
    """All elements of length <= max_length, mapped to their lengths."""
    lengths = {group.identity(): 0}
    frontier = [group.identity()]
    for ell in range(1, max_length + 1):
        nxt = []
        for g in frontier:
            for i in range(group.rank + 1):
                h = g * group.simple_reflection(i)
                if h not in lengths:
                    lengths[h] = ell
                    nxt.append(h)
        frontier = nxt
    return lengths


def all_reduced_words(
    group: AffineWeylGroup, g: AffineWeylElement, cap: int = 12
) -> tuple[Word, ...]:
    """Every reduced word for g, guarded by a length cap."""
    if group.length(g) > cap:
        raise WordError(f"length exceeds cap {cap}")
    memo: dict[AffineWeylElement, tuple[Word, ...]] = {}

    def words(h: AffineWeylElement) -> tuple[Word, ...]:
        if h.is_identity():
            return ((),)
        if h in memo:
            return memo[h]
        out = []
        for i in group.right_descents(h):
            for w in words(h * group.simple_reflection(i)):
                out.append(w + (i,))
        memo[h] = tuple(sorted(out))
        return memo[h]

    return words(g)


def reduced_word_sweep(
    group: AffineWeylGroup, max_length: int
) -> Iterator[tuple[AffineWeylElement, int, Frontier]]:
    """Every reduced word of at most max_length letters, depth first over
    their trie, as (element, length, counting DP frontier).

    A node's children are the letters outside its element's right
    descents, and a child's frontier is its parent's after one count_step,
    so every word costs one step whatever its length.
    """
    stack = [(group.identity(), 0, {group.state(group.identity()): (1,)})]
    while stack:
        g, ell, frontier = stack.pop()
        yield g, ell, frontier
        if ell < max_length:
            descents = group.right_descents(g)
            for j in range(group.rank + 1):
                if j not in descents:
                    child = g * group.simple_reflection(j)
                    stack.append((child, ell + 1, count_step(group, frontier, j)))


def inversion_sequence(group: AffineWeylGroup, word: Sequence[int]) -> tuple[AffineRoot, ...]:
    """beta_k = s_{i_1} ... s_{i_{k-1}} alpha_{i_k}."""
    out = []
    prefix = group.identity()
    for i in word:
        out.append(prefix.act(group.simple_affine_root(i)))
        prefix = prefix * group.simple_reflection(i)
    return tuple(out)


# -- loop group -----------------------------------------------------------------


def n_simple(sl: LoopSL, j: int) -> GroupMatrix:
    """n_j = n_{alpha_j}(1), as cached by the executor and checked there to be
    a signed transposition."""
    return sl._letter(j)[3]


def h_root(sl: LoopSL, beta: AffineRoot, value) -> GroupMatrix:
    """n_beta(g) n_beta(1)^{-1}, the cocharacter of beta evaluated at g:
    g in row r and g^{-1} in row s of the root position (r, s), for any k."""
    g = sl._as_rf(value)
    r, s = sl.root_position(beta.finite)
    return sl._identity_with({(r - 1, r - 1): g, (s - 1, s - 1): g.inverse()})


def h_cochar(sl: LoopSL, lam: Coweight, value) -> GroupMatrix:
    """Diagonal matrix with entries g^{<lam, eps_a>} for the coordinate
    weights eps_a of the vector representation."""
    g = sl._as_rf(value)
    if g.is_zero():
        raise ZeroDivisionError("cocharacter needs an invertible parameter")
    coords = (0, *lam.coords, 0)
    return sl._identity_with({(a, a): g ** (coords[a + 1] - coords[a]) for a in range(sl.n)})


def t_translation(sl: LoopSL, lam: Coweight) -> GroupMatrix:
    """The translation t_lam: the cocharacter lam at t^-1."""
    return h_cochar(sl, lam, RationalFunction.t_power(sl.field, -1))


def bruhat_point_finite(sl: LoopSL, word: Sequence[int], labels: Sequence) -> GroupMatrix:
    """x_{i_1}(c_1) n_{i_1}^{-1} ... over constant scalars, finite letters only."""
    if len(labels) != len(word):
        raise ValueError("need exactly one label per letter")
    m = sl.identity()
    for j, c in zip(word, labels):
        if not 1 <= j <= sl.datum.size:
            raise ValueError("finite Bruhat points use letters 1..n only")
        m = m @ sl.x_simple(j, c) @ sl.n_simple_inv(j)
    return m


def is_upper_triangular(m: GroupMatrix) -> bool:
    return all(m.entries[r][c].is_zero() for r in range(m.n) for c in range(m.n) if r > c)


def coset_equal_borel(m1: GroupMatrix, m2: GroupMatrix) -> bool:
    """Whether m1 and m2 lie in the same coset of the upper triangular Borel."""
    return is_upper_triangular(m2.inverse() @ m1)


# -- count polynomials ----------------------------------------------------------


def q_power(n: int) -> CountPolynomial:
    return CountPolynomial((0,) * n + (1,))


def times_q(f: CountPolynomial) -> CountPolynomial:
    """q f, by the coefficient shift the counting DP uses."""
    return CountPolynomial(_times_q(f.coeffs))


def times_q_minus_one(f: CountPolynomial) -> CountPolynomial:
    """(q - 1) f, by the coefficient operation the counting DP uses."""
    return CountPolynomial(_times_q_minus_one(f.coeffs))
