"""Square matrices over F[t, t^-1]: products, determinant, inverse,
two-row and two-column products, membership tests.

Every entry is a Laurent polynomial, so products and determinants are
division-free; an inverse divides only by a unit determinant.  A product
by a root element x_gamma(f), a signed transposition such as n_j^{+-1} or
a diagonal h_alpha(g) changes at most two rows or two columns, so the five
row and column functions apply it without an n x n product.  The
membership tests decide entry by entry whether a matrix lies in the
Iwahori subgroup, in the lower unipotent subgroup U^- or among the
monomial matrices.
"""

from __future__ import annotations

from .cartan import Frozen, _set
from .ratfunc import Field, RationalFunction

_ONE = {0: 1}  # the terms of the constant 1, over QQ and over F_p


class GroupMatrix(Frozen):
    """Square matrix of Laurent polynomials."""

    __slots__ = __match_args__ = ("entries",)
    entries: tuple[tuple[RationalFunction, ...], ...]

    def __init__(self, entries: tuple[tuple[RationalFunction, ...], ...]):
        _set(self, "entries", entries)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def field(self) -> Field:
        return self.entries[0][0].field

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        zero = RationalFunction(self.field, {})
        cols = [
            [(k, e, e.terms == _ONE) for k, e in enumerate(col) if e.terms]
            for col in zip(*other.entries)
        ]
        rows = []
        for row in self.entries:
            out = []
            for col in cols:
                acc = None
                for k, e, e_one in col:
                    a = row[k]
                    if a.terms:
                        # a factor 1 gives the other operand, whose terms are never mutated
                        f = a if e_one else e if a.terms == _ONE else a * e
                        acc = f if acc is None else acc + f
                out.append(zero if acc is None else acc)
            rows.append(tuple(out))
        return GroupMatrix(tuple(rows))

    def determinant(self) -> RationalFunction:
        """Cofactor expansion; division-free, so it never needs a unit pivot."""
        return _minor(self.entries, tuple(range(self.n)), {})

    def inverse(self) -> "GroupMatrix":
        """Adjugate times det^-1; raises ZeroDivisionError unless det is a unit."""
        n = self.n
        det_inv = self.determinant().inverse()
        adj = [[None] * n for _ in range(n)]
        for r in range(n):
            rest = self.entries[:r] + self.entries[r + 1 :]
            memo: dict = {}
            for c in range(n):
                m = _minor(rest, tuple(range(c)) + tuple(range(c + 1, n)), memo)
                adj[c][r] = (-m if (r + c) % 2 else m) * det_inv
        return GroupMatrix(tuple(tuple(row) for row in adj))


def _minor(rows, cols: tuple[int, ...], memo: dict) -> RationalFunction:
    """Determinant of the last len(cols) rows restricted to cols, expanded
    along its first row; zero entries are skipped and sub-minors memoized."""
    if cols in memo:
        return memo[cols]
    row = rows[len(rows) - len(cols)]
    if len(cols) == 1:
        return row[cols[0]]
    acc = RationalFunction(row[0].field, {})
    for i, c in enumerate(cols):
        e = row[c]
        if e.terms:
            sub = _minor(rows, cols[:i] + cols[i + 1 :], memo)
            if sub.terms:
                acc = acc - e * sub if i % 2 else acc + e * sub
    memo[cols] = acc
    return acc


# Products by a generator as row and column operations, on 0-based indices.
# A row operation rebuilds only the rows it changes and shares the others.


def add_col(m: GroupMatrix, src: int, dst: int, f: RationalFunction) -> GroupMatrix:
    """m . (1 + f E_{src,dst}): f times column src added to column dst."""
    if not f.terms:
        return m
    rows = []
    for row in m.entries:
        if row[src].terms:
            row = row[:dst] + (row[dst] + row[src] * f,) + row[dst + 1 :]
        rows.append(row)
    return GroupMatrix(tuple(rows))


def add_row(m: GroupMatrix, dst: int, src: int, f: RationalFunction) -> GroupMatrix:
    """(1 + f E_{dst,src}) . m: f times row src added to row dst."""
    if not f.terms:
        return m
    rows = list(m.entries)
    rows[dst] = tuple(a + f * e if e.terms else a for a, e in zip(rows[dst], rows[src]))
    return GroupMatrix(tuple(rows))


def scale_rows(m: GroupMatrix, r: int, g, s: int, h) -> GroupMatrix:
    """diag(g at r, h at s, 1 elsewhere) . m, for RationalFunctions g, h."""
    rows = list(m.entries)
    rows[r] = tuple(e * g if e.terms else e for e in rows[r])
    rows[s] = tuple(e * h if e.terms else e for e in rows[s])
    return GroupMatrix(tuple(rows))


def swap_cols(m: GroupMatrix, nm: GroupMatrix, r: int, s: int) -> GroupMatrix:
    """m . nm, for nm the identity outside rows and columns r, s and
    [[0, nm_rs], [nm_sr, 0]] on them: columns r and s exchanged and scaled."""
    nrs, nsr = nm.entries[r][s], nm.entries[s][r]
    rows = []
    for row in m.entries:
        row = list(row)
        er, es = row[r], row[s]
        row[r], row[s] = es * nsr if es.terms else es, er * nrs if er.terms else er
        rows.append(tuple(row))
    return GroupMatrix(tuple(rows))


def swap_rows(nm: GroupMatrix, r: int, s: int, m: GroupMatrix) -> GroupMatrix:
    """nm . m, for nm as in swap_cols: rows r and s exchanged and scaled."""
    nrs, nsr = nm.entries[r][s], nm.entries[s][r]
    rows = list(m.entries)
    rows[r] = tuple(e * nrs if e.terms else e for e in m.entries[s])
    rows[s] = tuple(e * nsr if e.terms else e for e in m.entries[r])
    return GroupMatrix(tuple(rows))


def in_iwahori(m: GroupMatrix) -> bool:
    """All entries t-integral, and the t=0 evaluation is upper triangular
    with nonzero diagonal."""
    for r, row in enumerate(m.entries):
        for c, e in enumerate(row):
            t = e.terms
            if r == c:
                if not t or min(t) != 0:
                    return False
            elif t and min(t) < (1 if r > c else 0):
                return False
    return True


def in_uminus(m: GroupMatrix) -> bool:
    """Lower triangular with unit diagonal; entries below may be any
    Laurent polynomial."""
    for r, row in enumerate(m.entries):
        for c, e in enumerate(row):
            if c == r:
                if e.terms != _ONE:
                    return False
            elif c > r and e.terms:
                return False
    return True


def is_monomial(m: GroupMatrix) -> bool:
    """One nonzero entry per row and column, each a unit scalar times t^k."""
    cols = set()
    for row in m.entries:
        hits = [c for c, e in enumerate(row) if e.terms]
        if len(hits) != 1 or len(row[hits[0]].terms) != 1:
            return False
        cols.update(hits)
    return len(cols) == m.n
