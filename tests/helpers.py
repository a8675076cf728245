"""Constructions that only the tests use: balls and all reduced words of
affine Weyl groups, inversion sequences, the loop group's n_j, h_beta and
cocharacter matrices and finite Bruhat points, CountPolynomial shifts, the
Hecke relations of the counting DP, and the rational symmetrizer search
that once decided finite type.
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
    AlcoveState,
    Word,
    WordError,
    parse_word,
)
from alcovewalks.cartan import CartanError, Coweight, _classify_component, _components, from_label
from alcovewalks.folding import (
    CountPolynomial,
    Frontier,
    _plus,
    _times_q,
    _times_q_minus_one,
    count_step,
)
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


# -- Cartan matrices ------------------------------------------------------------


def solve_symmetrizer(entries: Sequence[Sequence[int]]) -> tuple[Fraction, ...] | None:
    """Find eps_i > 0 with eps_i a_ij = eps_j a_ji, or None if impossible."""
    n = len(entries)
    eps: list[Fraction | None] = [None] * n
    for comp in _components(entries):
        root = comp[0] - 1
        eps[root] = Fraction(1)
        stack = [root]
        while stack:
            v = stack.pop()
            for u in range(n):
                if u == v or entries[v][u] == 0:
                    continue
                # eps_v * a_vu = eps_u * a_uv
                want = eps[v] * Fraction(entries[v][u], entries[u][v])
                if eps[u] is None:
                    eps[u] = want
                    stack.append(u)
                elif eps[u] != want:
                    return None
    if any(e is None or e <= 0 for e in eps):
        return None
    return tuple(eps)  # type: ignore[arg-type]


def reference_label(entries: Sequence[Sequence[int]]) -> str | None:
    """The type label by the earlier rule, or None where it rejects: a
    symmetrizer must exist and every component must pass the elimination."""
    if solve_symmetrizer(entries) is None:
        return None
    try:
        return "x".join(
            _classify_component([[entries[u - 1][v - 1] for v in comp] for u in comp])
            for comp in _components(entries)
        )
    except CartanError:
        return None


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


def coxeter_order(group: AffineWeylGroup, i: int, j: int) -> int | None:
    """The order m_ij of s_i s_j, read off the group by stepping the
    identity's state; None when it exceeds 6, that is, when it is infinite."""
    start = state = group.state(group.identity())
    for m in range(1, 7):
        state = group.step(group.step(state, i), j)
        if state == start:
            return m
    return None


def _trimmed(frontier: Frontier) -> Frontier:
    """The counts with trailing zero coefficients, and then zero counts, dropped."""
    out = {}
    for w, c in frontier.items():
        end = len(c)
        while end and not c[end - 1]:
            end -= 1
        if end:
            out[w] = c[:end]
    return out


def _act(group: AffineWeylGroup, v: AlcoveState, word: Sequence[int]) -> Frontier:
    """e_v T_{j1} ... T_{jk} under the counting DP, trimmed."""
    frontier: Frontier = {v: (1,)}
    for j in word:
        frontier = count_step(group, frontier, j)
    return _trimmed(frontier)


def relation_violations(
    group: AffineWeylGroup, states: Sequence[AlcoveState]
) -> list[tuple[AlcoveState, tuple[int, ...]]]:
    """The (state, relation) pairs at which the counting DP, as the right
    action of T_0..T_n on per-alcove counts, breaks a Hecke relation: the
    quadratic T_j T_j = (q-1) T_j + q, named (j,), or the braid relation of
    length m_ij between i < j, named (i, j).  Pairs of infinite order are
    skipped."""
    letters = range(group.rank + 1)
    braids = [
        (i, j, m)
        for i in letters
        for j in letters
        if i < j and (m := coxeter_order(group, i, j)) is not None
    ]
    violations = []
    for v in states:
        for j in letters:
            rhs = {w: _times_q_minus_one(c) for w, c in count_step(group, {v: (1,)}, j).items()}
            rhs[v] = _plus(rhs.get(v, ()), (0, 1))
            if _act(group, v, (j, j)) != _trimmed(rhs):
                violations.append((v, (j,)))
        for i, j, m in braids:
            if _act(group, v, ((i, j) * m)[:m]) != _act(group, v, ((j, i) * m)[:m]):
                violations.append((v, (i, j)))
    return violations
