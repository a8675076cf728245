"""Built-in end-to-end check: one 9-step SL3 walk, verified exactly.

The walk has type word (2,1,0,2,0,1,0,2,0).  With the label choice
(0,0,0,0,2,0,3,5,5/3) the executor must reproduce a known factorization
u . v_rep . b over the rationals, the recorded lower-unipotent factors
must carry specific walls and coefficients, and the combinatorial
enumeration must produce exactly one path with the matching endpoint and
step kinds.  Everything is asserted with exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import from_label
from .folding import count_polynomial, enumerate_folded_paths
from .loopgroup import GroupMatrix, LoopSL, in_iwahori, in_uminus, is_monomial
from .ratfunc import QQ, RationalFunction

WORD = (2, 1, 0, 2, 0, 1, 0, 2, 0)
ENDPOINT_WORD = (2, 1, 0, 2, 1, 2, 0)
LABELS = (0, 0, 0, 0, 2, 0, 3, 5, Fraction(5, 3))
KINDS = "ZZZZFZFPZ"

# recorded lower-unipotent factors: (finite root coords, delta coefficient, value)
EXPECTED_FACTORS = (
    ((0, -1), 0, Fraction(0)),
    ((-1, -1), 0, Fraction(0)),
    ((0, -1), -1, Fraction(0)),
    ((-1, -1), -1, Fraction(0)),
    ((-1, 0), 0, Fraction(1, 2)),
    ((0, -1), -2, Fraction(0)),
    ((-1, -1), -2, Fraction(1, 6)),
    ((-1, 0), 1, Fraction(-5, 12)),
    ((0, -1), -3, Fraction(0)),
)


def _rf(terms) -> RationalFunction:
    if isinstance(terms, dict):
        return RationalFunction.from_laurent(QQ, terms)
    return RationalFunction.of(QQ, terms)


def _matrix(rows) -> GroupMatrix:
    return GroupMatrix(tuple(tuple(_rf(e) for e in row) for row in rows))


def expected_u() -> GroupMatrix:
    return _matrix(
        [
            [1, 0, 0],
            [{0: Fraction(1, 2), 1: Fraction(-5, 12)}, 1, 0],
            [{-2: Fraction(1, 6)}, 0, 1],
        ]
    )


def expected_v_rep() -> GroupMatrix:
    return _matrix(
        [
            [0, 1, 0],
            [{2: -1}, 0, 0],
            [0, 0, {-2: 1}],
        ]
    )


def expected_b() -> GroupMatrix:
    # entry (2,1) is +t^2: forced by the running factorization identity and
    # by determinant 1 (a -t^2 there gives determinant 1 - 25/18 t^2)
    return _matrix(
        [
            [
                {0: Fraction(1, 2), 1: Fraction(-5, 12)},
                Fraction(-25, 12),
                Fraction(25, 36),
            ],
            [{2: 1}, {0: 6, 1: 5}, {0: -2, 1: Fraction(-5, 3)}],
            [
                {2: Fraction(-1, 6)},
                {1: Fraction(-5, 6)},
                {0: Fraction(1, 3), 1: Fraction(5, 18)},
            ],
        ]
    )


def run_checks():
    """Yield (name, passed, detail) triples; detail is set on failure."""
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), "" if ok else detail))

    sl = LoopSL(from_label("A2"), QQ)
    group = sl.group
    state = sl.execute_folding(WORD, LABELS, validate=True)

    check(
        "executor matrices (u, v_rep, b) match the expected factorization",
        state.u == expected_u()
        and state.v_rep == expected_v_rep()
        and state.b == expected_b(),
        "matrix mismatch",
    )

    consumed = sl.identity()
    for j, c in zip(WORD, LABELS):
        consumed = consumed @ sl.x_simple(j, c) @ sl.n_simple_inv(j)
    check(
        "product of consumed generators equals u . v_rep . b",
        consumed == state.u @ state.v_rep @ state.b,
        "factorization identity broken",
    )

    check(
        "memberships: u lower unipotent, b Iwahori, v_rep monomial",
        in_uminus(state.u) and in_iwahori(state.b) and is_monomial(state.v_rep),
        "membership failed",
    )

    got_factors = tuple(
        (g.finite.coords, g.k, value) for g, value in state.u_factors
    )
    check(
        "lower-unipotent factors carry the expected walls and values",
        got_factors == EXPECTED_FACTORS,
        f"got {got_factors}",
    )

    target = group.from_word(ENDPOINT_WORD)
    check(
        "executor endpoint and v_rep image agree with the expected element",
        state.v == target,
        "endpoint mismatch",
    )

    matching = enumerate_folded_paths(group, WORD, end=target)
    kinds_ok = (
        len(matching) == 1
        and "".join(k.value for k in matching[0].kinds) == KINDS
        and tuple(k.value for k in state.kinds) == tuple(KINDS)
    )
    poly_ok = (
        kinds_ok
        and count_polynomial(matching[0]).coeffs == (0, 1, -2, 1)
        and matching[0].dimension == 3
    )
    check(
        "unique folded path to the endpoint with kinds "
        f"{KINDS} and count q^3-2q^2+q",
        kinds_ok and poly_ok,
        f"found {len(matching)} path(s)",
    )

    return results
