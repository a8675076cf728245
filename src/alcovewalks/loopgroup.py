"""SL_n realization of the loop group SL_n(F[t, t^-1]), the folding
executor and the F_p brute-force oracle.

Only type A data numbered along the chain, whose Cartan matrix is the
A_n matrix itself, get a matrix layer: the finite root e_a - e_b maps to
the matrix position (a, b), the affine generator attached to
alpha + j delta is x_alpha(c t^j), and translations are cocharacters
evaluated at t^{-1}.  `matrices` holds the matrices and their row and
column products.  A monomial v_rep is read back into the affine Weyl
group through one table from each root to its position and back: its
column permutation gives the finite part, its t-exponents the
translation, and no word is formed.

The folding executor consumes a word letter by letter, keeping the exact
identity

    (product of consumed generators) = u . v_rep . b

with u lower unipotent, v_rep monomial, and b in the Iwahori subgroup.
Each step moves b past x_j(c) n_j^{-1} with the closed form
b x_j(c) n_j^{-1} = x_j(ct) n_j^{-1} b2, ct = (a c + x) / d, where
[[a, x], [0, d]] is the level-zero SL_2 block of b at alpha_j.
Every factor a step multiplies by is a generator x_gamma(f), n_j^{+-1} or
h_alpha(g), so the step applies them as row and column operations and
makes no n x n product; conjugating x_gamma(f) by the monomial v_rep
moves its one entry, to the position (a, b) where v_rep's columns carry
alpha_j's, so the step reads its kind, wall and endpoint off v_rep
(Steinberg, Lectures on Chevalley groups, section 3): it crosses into U^-
iff a > b, and the entry's t-exponent is the wall's delta coefficient.
Structure-constant signs are never tabulated: they are read from the
cached n_j, built as products x_b(1) x_{-b}(-1) x_b(1) and checked to be
signed transpositions.  Validation checks each step against independent
dense products, and the executor never inverts a matrix.

`LoopSL.step` is the one executor step: the factorization of a prefix,
a letter and a label give the factorization one letter longer.
`execute_folding` folds it over a word.  Validation is inductive: each
step is checked against the previous, already checked state, and the run
carries that state's v_rep . b in place of the product of the generators
read so far.  prev.u . prev_vb is that product and u = prev.u x_gamma(c)
is checked first, so the identity after the next generator g reduces to
prev_vb g == x_gamma(c) v_rep b.  A validated step thus costs a fixed
number of matrix products whatever the word's length, and only u's own
factor check multiplies by u.  The F_p brute force walks the
trie of label tuples depth first with the same step, so a label prefix
shared by many tuples is stepped once: p + p^2 + ... + p^L steps for a
word of L letters instead of L p^L.
"""

from __future__ import annotations

import functools
from itertools import accumulate, permutations
from typing import Sequence

from .affine import (
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    InvariantError,
    NormalizationError,
)
from .cartan import CartanDatum, Coweight, FiniteRoot, FiniteWeylElement, Frozen, from_label
from .folding import StepKind
from .matrices import (
    GroupMatrix,
    add_col,
    add_row,
    in_iwahori,
    in_uminus,
    is_monomial,
    scale_rows,
    swap_cols,
    swap_rows,
)
from .ratfunc import Field, PrimeField, RationalFunction


class ExecutorState(Frozen):
    """Running factorization u . v_rep . b of a partially consumed word.
    v_rep is monomial, so a step reads v_rep^-1 off v_rep and never
    inverts a matrix."""

    __slots__ = __match_args__ = ("u", "u_factors", "v_rep", "b", "kinds")
    u: GroupMatrix
    u_factors: tuple[tuple[AffineRoot, object], ...]
    v_rep: GroupMatrix
    b: GroupMatrix
    kinds: tuple[StepKind, ...]

    @property
    def v(self) -> AffineWeylElement:
        """The affine Weyl element under v_rep, read off it on each access."""
        return _weyl_of_monomial(self.v_rep)


def check_type_a(datum: CartanDatum) -> None:
    """Raise ValueError unless the datum has a matrix layer: the A_n matrix
    numbered along its chain, which puts alpha_i at (i, i + 1)."""
    if datum.entries != _chain_tables(datum.size + 1)[0].entries:
        raise ValueError("the matrix layer supports type A data numbered along the chain only")


@functools.cache
def _chain_tables(n: int) -> tuple[CartanDatum, dict, dict]:
    """The A_{n-1} datum along its chain, which every datum check_type_a
    accepts equals; the 1-based matrix position of each root by its
    coordinates; and the index in datum.roots() of the root at each 0-based
    position.  e_a - e_b = alpha_a + ... + alpha_{b-1} sits at (a, b)."""
    datum = from_label(f"A{n - 1}")
    index = datum.root_tables.index
    positions: dict[tuple[int, ...], tuple[int, int]] = {}
    root_at: dict[tuple[int, int], int] = {}
    for a, b in permutations(range(1, n + 1), 2):
        lo, hi, sign = (a, b, 1) if a < b else (b, a, -1)
        coords = tuple(sign if lo <= i < hi else 0 for i in range(1, n))
        positions[coords] = a, b
        root_at[a - 1, b - 1] = index[coords]
    return datum, positions, root_at


def _weyl_of_monomial(m: GroupMatrix) -> AffineWeylElement:
    """The affine Weyl element of an n x n matrix m known to be monomial.
    m sends e_c to a multiple of e_sigma(c), so it conjugates the root at
    (a, b) to the one at (sigma(a), sigma(b)): that is the finite part,
    read through the position table.  The rows' t-exponents give the
    translation."""
    datum, _, root_at = _chain_tables(len(m.entries))
    sigma = [0] * len(m.entries)  # column -> row, 0-based
    exps = []  # row -> t exponent
    for r, row in enumerate(m.entries):
        c, e = next((c, e) for c, e in enumerate(row) if e.terms)
        sigma[c] = r
        exps.append(e.valuation())
    perm = [0] * len(root_at)
    for (a, b), r in root_at.items():
        perm[r] = root_at[sigma[a], sigma[b]]
    # diag(t^{e_a}) is the cocharacter at t^{-1} of the coweight with
    # partial sums -(e_1 + ... + e_a)
    translation = Coweight(tuple(-acc for acc in accumulate(exps[:-1])))
    return AffineWeylElement(translation, FiniteWeylElement(datum, tuple(perm)))


class LoopSL:
    """SL_n over Laurent polynomials in t, attached to a type A datum."""

    def __init__(self, datum: CartanDatum, field: Field):
        check_type_a(datum)
        self.datum = datum
        self.field = field
        self.n = datum.size + 1
        self.group = AffineWeylGroup(datum)
        self._zero = RationalFunction.of(field, 0)
        self._one = RationalFunction.of(field, 1)
        self._identity = GroupMatrix(
            tuple(
                tuple(self._one if r == c else self._zero for c in range(self.n))
                for r in range(self.n)
            )
        )
        _, self._positions, self._root_at = _chain_tables(self.n)
        self._letters: dict[int, tuple] = {}

    # -- elementary constructors ----------------------------------------

    def identity(self) -> GroupMatrix:
        return self._identity

    def _identity_with(self, changes: dict) -> GroupMatrix:
        """The identity with the entries at the 0-based positions of `changes` replaced."""
        rows = [list(row) for row in self._identity.entries]
        for (r, c), e in changes.items():
            rows[r][c] = e
        return GroupMatrix(tuple(map(tuple, rows)))

    def _as_rf(self, value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            return value
        return RationalFunction.of(self.field, value)

    def _laurent(self, value, k: int) -> RationalFunction:
        """The scalar value, in the canonical form `field.of` gives, times t^k."""
        return RationalFunction(self.field, {k: value} if value else {})

    def root_position(self, alpha: FiniteRoot) -> tuple[int, int]:
        """Matrix position (row, col) of the root +-(e_a - e_b), 1-based."""
        pos = self._positions.get(alpha.coords)
        if pos is None:
            raise ValueError(f"{alpha} is not a type A root")
        return pos

    def x_root(self, beta: AffineRoot, value) -> GroupMatrix:
        """Identity plus (value * t^k) in the matrix position of the finite part."""
        r, c = self.root_position(beta.finite)
        f = self._as_rf(value) * RationalFunction.t_power(self.field, beta.k)
        return self._identity_with({(r - 1, c - 1): f})

    def x_simple(self, j: int, value) -> GroupMatrix:
        return self.x_root(self.group.simple_affine_root(j), value)

    def n_root(self, beta: AffineRoot, value) -> GroupMatrix:
        """x_beta(g) x_{-beta}(-1/g) x_beta(g) for invertible g."""
        g = self._as_rf(value)
        if g.is_zero():
            raise ZeroDivisionError("n element needs an invertible parameter")
        return self.x_root(beta, g) @ self.x_root(-beta, -g.inverse()) @ self.x_root(beta, g)

    def n_simple_inv(self, j: int) -> GroupMatrix:
        """n_j^{-1} = n_j(-1), since n_beta(g)^{-1} = n_beta(-g)."""
        return self._letter(j)[4]

    def _letter(self, j: int) -> tuple:
        """alpha_j, its 0-based matrix position r, s, n_j and n_j^{-1}, cached.

        Each n_j(g) is checked to be the identity outside rows and columns
        r, s and [[0, unit], [unit, 0]] on them, the shape swap_cols and
        swap_rows rely on."""
        letter = self._letters.get(j)
        if letter is None:
            alpha = self.group.simple_affine_root(j)
            r, s = (i - 1 for i in self.root_position(alpha.finite))
            ns = tuple(self.n_root(alpha, g) for g in (1, -1))
            for g, m in zip((1, -1), ns):
                nrs, nsr = m.entries[r][s], m.entries[s][r]
                block = {(r, r): self._zero, (s, s): self._zero, (r, s): nrs, (s, r): nsr}
                units = nrs.is_unit_monomial() and nsr.is_unit_monomial()
                if not units or m != self._identity_with(block):
                    raise InvariantError(f"n_{j}({g}) is not a signed transposition")
            letter = self._letters[j] = (alpha, r, s, *ns)
        return letter

    # -- reading a monomial matrix back into the affine Weyl group -------

    def monomial_to_weyl(self, m: GroupMatrix) -> AffineWeylElement:
        if not is_monomial(m):
            raise ValueError("matrix is not monomial")
        return _weyl_of_monomial(m)

    # -- Iwahori coset normalization -------------------------------------

    def iwahori_normalize(self, b: GroupMatrix, j: int, c) -> tuple[object, GroupMatrix]:
        """Unique scalar ct and b2 in the Iwahori subgroup with
        b x_j(c) n_j^{-1} = x_j(ct) n_j^{-1} b2.

        b acts on the line I s_j I / I = {x_j(c) n_j^{-1} I} through its
        level-zero SL_2 block at alpha_j = (e_r - e_s) + k delta, which is
        upper triangular [[a, x], [0, d]] with a = b_rr(0), d = b_ss(0) and
        x the t^k coefficient of b_rs; so ct = (a c + x) / d.  The affine
        letter 0 is the case r = n, s = 1, k = 1.  ct is unique because the
        cells x_j(c') n_j^{-1} I are disjoint.

        a, d, x and ct are plain field scalars, the coefficients the
        entries store; ct comes back in the canonical form `field.of` gives.
        """
        if not in_iwahori(b):
            raise NormalizationError("normalization input is not in the Iwahori subgroup")
        alpha, r, s, n, n_inv = self._letter(j)
        field = self.field
        c = field.of(c)
        a = b.entries[r][r].coeff(0)
        d = b.entries[s][s].coeff(0)
        x = b.entries[r][s].coeff(alpha.k)
        ct = field.of((a * c + x) * field.inv(d))
        # b2 = n_j x_j(-ct) b x_j(c) n_j^{-1}, x_j at (r, s)
        m = swap_cols(add_col(b, r, s, self._laurent(c, alpha.k)), n_inv, r, s)
        b2 = swap_rows(n, r, s, add_row(m, r, s, self._laurent(field.of(-ct), alpha.k)))
        if not in_iwahori(b2):
            raise NormalizationError("solved label does not yield an Iwahori element")
        return ct, b2

    # -- the matrix folding executor --------------------------------------

    def initial_state(self) -> ExecutorState:
        """The factorization of the empty word: u = v_rep = b = 1."""
        one = self._identity
        return ExecutorState(one, (), one, one, ())

    def step(self, state: ExecutorState, j: int, label) -> ExecutorState:
        """The factorization of the prefix one letter longer: `state`
        followed by x_j(label) n_j^{-1}.  v_rep conjugates x_j(c) to
        x(c e t^m) at (a, b) and x_{-j}(c) to x(c t^-m / e) at (b, a): the
        wall is the root at the one of the two below the diagonal."""
        ct, b2 = self.iwahori_normalize(state.b, j, label)
        alpha, r, s, n, n_inv = self._letter(j)
        e, m, a, b = self.conjugate(state.v_rep, alpha)
        x = self.field.of(ct * e)
        if a > b:
            kind, coeff, row, col, k = StepKind.POSITIVE_CROSSING, x, a, b, m
        elif ct:
            kind, coeff, row, col, k = StepKind.FOLD, self.field.inv(x), b, a, -m
        else:
            kind, coeff, row, col, k = StepKind.ZERO_CROSSING, x, b, a, -m
        wall = AffineRoot(self.datum.roots()[self._root_at[row, col]], k)
        u = add_col(state.u, row, col, self._laurent(coeff, k))  # u x_wall(coeff)
        u_factors = state.u_factors + ((wall, coeff),)
        kinds = state.kinds + (kind,)
        if kind is StepKind.FOLD:
            # b = x_j(-ct) h_alpha(ct) b2
            hb2 = scale_rows(b2, r, self._laurent(ct, 0), s, self._laurent(self.field.inv(ct), 0))
            b_fold = add_row(hb2, r, s, self._laurent(self.field.of(-ct), alpha.k))
            return ExecutorState(u, u_factors, state.v_rep, b_fold, kinds)
        return ExecutorState(u, u_factors, swap_cols(state.v_rep, n_inv, r, s), b2, kinds)

    def conjugate(self, v_rep: GroupMatrix, gamma: AffineRoot) -> tuple[object, int, int, int]:
        """The scalar e, exponent m and 0-based position (a, b) with v_rep
        x_gamma(c) v_rep^{-1} = 1 + c e t^m E_ab for every scalar c.  v_rep
        is monomial, so v_rep^{-1} has 1 / v_rep[b][c] at (c, b): for gamma
        at (r, c), e1 t^k1 is the one nonzero entry of column r of v_rep, in
        row a, e2 t^k2 that of column c, in row b; e = e1 / e2, m = k + k1 - k2."""
        r, c = self.root_position(gamma.finite)
        rows = v_rep.entries
        hits = [[i for i, row in enumerate(rows) if row[col].terms] for col in (r - 1, c - 1)]
        if any(len(h) != 1 for h in hits):
            raise NormalizationError("v_rep is not monomial")
        (a,), (b,) = hits
        ((k1, e1),), ((k2, e2),) = rows[a][r - 1].terms.items(), rows[b][c - 1].terms.items()
        return self.field.of(e1 * self.field.inv(e2)), gamma.k + k1 - k2, a, b

    def execute_folding(
        self, word: Sequence[int], labels: Sequence, validate: bool = False
    ) -> ExecutorState:
        """Consume x_{i_1}(c_1) n_{i_1}^{-1} ... left to right, one `step`
        per letter, maintaining the exact factorization u . v_rep . b.

        With validate=True every invariant is checked after each step
        (see _check_state) and a failure raises InvariantError.
        """
        word = tuple(word)
        if len(labels) != len(word):
            raise ValueError("need exactly one label per letter")
        labels = [self.field.of(c) for c in labels]
        state, vb = self.initial_state(), self._identity
        for j, label in zip(word, labels):
            prev, state = state, self.step(state, j, label)
            if validate:
                generator = self.x_simple(j, label) @ self.n_simple_inv(j)
                vb = self._check_state(generator, vb, prev, state)
        return state

    def _check_state(
        self,
        generator: GroupMatrix,
        prev_vb: GroupMatrix,
        prev: ExecutorState,
        state: ExecutorState,
    ) -> GroupMatrix:
        """Check `state`, one step past the already checked `prev`, whose
        v_rep . b is `prev_vb`, after the next generator x_j(c) n_j^{-1};
        return state's v_rep . b.

        u's recorded factorization is checked by induction: prev's factors
        are kept, the new wall sits below the diagonal (is uminus positive)
        and prev.u x_gamma(c) == u for the new factor (gamma, c), so u is
        the product of all of them (the initial state's u and factors are 1
        and ()).  The running
        identity is inductive too: prev.u . prev_vb is the product of the
        earlier generators and prev.u is invertible, so u . v_rep . b is
        the product up to `generator` exactly when
        prev_vb . generator == x_gamma(c) . v_rep . b.  det(u . v_rep . b)
        is then the product of the generators' determinants, each earlier
        one checked to be 1, so det(generator) == 1 holds exactly when
        det(u . v_rep . b) == 1, without forming u . v_rep . b.  With the
        generator, a validated step makes five matrix products, and only
        prev.u x_gamma(c) has u as a factor.
        """
        u, v_rep, b = state.u, state.v_rep, state.b
        if not in_uminus(u):
            raise InvariantError("u left the lower unipotent subgroup")
        if not in_iwahori(b):
            raise InvariantError("b left the Iwahori subgroup")
        if not is_monomial(v_rep):
            raise InvariantError("v_rep is not monomial")
        factors = state.u_factors
        if len(factors) != len(prev.u_factors) + 1 or factors[:-1] != prev.u_factors:
            raise InvariantError("u does not match its recorded factorization")
        gamma, coeff = factors[-1]
        row, col = self.root_position(gamma.finite)
        if row <= col:
            raise InvariantError("recorded wall is not uminus positive")
        x = self.x_root(gamma, coeff)
        if prev.u @ x != u:
            raise InvariantError("u does not match its recorded factorization")
        vb = v_rep @ b
        if prev_vb @ generator != x @ vb:
            raise InvariantError("running factorization identity failed")
        if generator.determinant() != self._one:
            raise InvariantError("determinant drifted from 1")
        return vb


# Most executor steps a brute force makes: p + p^2 + ... + p^L for L
# letters over F_p, one per node of the label-tuple trie.  At the bound
# a run takes about 12 s in A2 and longer at higher rank, the step cost
# growing with the matrix size; README has the measured times.
BRUTE_FORCE_GUARD = 10**5


def check_brute_force(word: Sequence[int], p: int) -> PrimeField:
    """The label field F_p of a brute force over `word`; raises ValueError
    when its p + p^2 + ... + p^L executor steps exceed BRUTE_FORCE_GUARD
    or p is not prime.  p itself is bounded too, since field.elements()
    builds all p labels, even for the empty word."""
    steps = sum(p**k for k in range(1, len(word) + 1))
    if steps > BRUTE_FORCE_GUARD:
        raise ValueError(
            f"{steps} executor steps over F_{p}^{len(word)} exceed the guard {BRUTE_FORCE_GUARD}"
        )
    if p > BRUTE_FORCE_GUARD:
        raise ValueError(f"p = {p} exceeds the guard {BRUTE_FORCE_GUARD}")
    return PrimeField(p)


def brute_force_cells(
    datum: CartanDatum, word: Sequence[int], p: int
) -> dict[AffineWeylElement, int]:
    """Endpoint tallies of the executor over every label tuple in F_p.

    The label tuples form a trie walked depth first: a node's state is
    its parent's after one executor step, so each label prefix is stepped
    once and the walk makes p + p^2 + ... + p^L steps, not L p^L.  Leaves
    come in `itertools.product` order and only one state per depth is held.
    Each leaf's u must lie in U^-, or InvariantError is raised: a tally
    agreeing with the counts does not show that the crossing rule kept u
    lower unipotent.
    """
    word = tuple(word)
    field = check_brute_force(word, p)
    sl = LoopSL(datum, field)
    labels = field.elements()
    tallies: dict[AffineWeylElement, int] = {}

    def walk(state: ExecutorState, depth: int) -> None:
        if depth == len(word):
            if not in_uminus(state.u):
                raise InvariantError("u left the lower unipotent subgroup")
            end = state.v
            tallies[end] = tallies.get(end, 0) + 1
            return
        j = word[depth]
        for label in labels:
            walk(sl.step(state, j, label), depth + 1)

    walk(sl.initial_state(), 0)
    return {end: tallies[end] for end in sl.group.canonical_words(tallies)}

