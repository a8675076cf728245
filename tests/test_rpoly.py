"""Kazhdan-Lusztig R-polynomials as an independent oracle for the counts
of words in the finite letters.

For x, w in a finite Weyl group, the cell of the finite-letter folded
paths of a reduced word of w that end at x has R_{x,w}(q) points, the
R-polynomial of the standard recursion (R_{x,x} = 1; for a right descent
s of w, R_{x,w} = R_{xs,ws} if xs < x and (q-1) R_{x,ws} + q R_{xs,ws}
otherwise).  The recursion shares no code with the folding DP.
"""

import pytest

from alcovewalks.affine import AffineWeylElement, AffineWeylGroup
from alcovewalks.cartan import from_label, zero_coweight
from alcovewalks.folding import endpoint_counts


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _times_q(a):
    return (0,) + a if a else a


def _times_q_minus_one(a):
    return _add(_times_q(a), tuple(-c for c in a))


def weyl_group(datum):
    """Every element of the finite Weyl group, by length."""
    simple = [datum.simple_reflection(i) for i in range(1, datum.size + 1)]
    seen = {datum.identity_weyl()}
    frontier = list(seen)
    while frontier:
        frontier = {w * s for w in frontier for s in simple} - seen
        seen |= frontier
    return sorted(seen, key=lambda w: (w.length(), w.perm))


def r_polynomials(datum, elements):
    """R[w][x] as ascending coefficient tuples, zero ones left out."""
    simple = [datum.simple_reflection(i) for i in range(1, datum.size + 1)]
    R = {}
    for w in elements:
        if w.is_identity():
            R[w] = {w: (1,)}
            continue
        s = next(s for s in simple if (w * s).length() < w.length())
        ws = R[w * s]
        row = {}
        for x in elements:
            xs = x * s
            if xs.length() < x.length():
                r = ws.get(xs, ())
            else:
                r = _add(_times_q_minus_one(ws.get(x, ())), _times_q(ws.get(xs, ())))
            if r:
                row[x] = r
        R[w] = row
    return R


def bruhat_below(datum, word):
    """Products of the subwords of a reduced word of w: the x <= w."""
    below = {datum.identity_weyl()}
    for i in word:
        s = datum.simple_reflection(i)
        below |= {x * s for x in below}
    return below


# Every (x, w) pair of each group: A4 has 14,400 and B4 147,456 (about 3.5 s).
# C4 is left out, since its Coxeter group is B4's, and F4 too, with 1,152^2
# pairs.
@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "A4", "B4"])
def test_finite_letter_counts_are_r_polynomials(label):
    datum = from_label(label)
    group = AffineWeylGroup(datum)
    elements = weyl_group(datum)
    R = r_polynomials(datum, elements)
    zero = zero_coweight(datum.size)
    for w in elements:
        word = group.reduced_word(AffineWeylElement(zero, w))
        assert all(1 <= i <= datum.size for i in word)
        counts = endpoint_counts(group, word)
        below = bruhat_below(datum, word)
        for x in elements:
            got = counts.get(AffineWeylElement(zero, x))
            want = R[w].get(x, ())
            assert (got.coeffs if got is not None else ()) == want, (label, w.perm, x.perm)
            assert bool(want) == (x in below)


def test_weyl_group_orders():
    orders = {"A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48, "D4": 192,
              "A4": 120, "B4": 384}
    for label, order in orders.items():
        assert len(weyl_group(from_label(label))) == order


def test_r_polynomials_of_a_simple_reflection():
    datum = from_label("A2")
    e, s = datum.identity_weyl(), datum.simple_reflection(1)
    R = r_polynomials(datum, weyl_group(datum))
    assert R[s] == {s: (1,), e: (-1, 1)}
