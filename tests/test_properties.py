"""Property tests of the matrix executor on random reduced type A words.

Each example runs execute_folding(..., validate=True), which re-checks the
memberships, u's recorded factors, the running factorization and det = 1
after every step, each against the previous step's state.  The example
then checks the identity itself: u . v_rep . b equals the left-to-right
product of the generators x_j(c) n_j^{-1} of the word, of determinant 1.
It compares the step kinds with the combinatorial folded paths and
checks that every stored coefficient has the canonical form `field.of`
gives.  The row and column operations the step uses in place of matrix
products are compared with the dense products they replace, and the dense
product and the determinant with naive references.
"""

import itertools
from fractions import Fraction

import pytest

from alcovewalks.affine import AffineRoot, AffineWeylGroup
from alcovewalks.cartan import from_label
from alcovewalks.folding import enumerate_folded_paths
from alcovewalks.loopgroup import (
    GroupMatrix,
    LoopSL,
    add_col,
    add_row,
    in_iwahori,
    in_uminus,
    is_monomial,
    scale_rows,
    swap_cols,
    swap_rows,
)
from alcovewalks.ratfunc import QQ, PrimeField, RationalFunction

from helpers import h_root, is_canonical, n_simple

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TYPES = ("A1", "A2", "A3")
SPARSE_TYPES = TYPES + ("A4",)
GROUPS = {label: AffineWeylGroup(from_label(label)) for label in SPARSE_TYPES}
FIELDS = {"QQ": QQ, **{f"F_{p}": PrimeField(p) for p in (2, 3, 5)}}
LOOPS = {(label, name): LoopSL(from_label(label), field)
         for label in SPARSE_TYPES for name, field in FIELDS.items()}


def affine_roots(label):
    """Every affine root alpha + k delta of height 1 or 2 in absolute value,
    delta having height n + 1 in type A_n."""
    datum = from_label(label)
    return [
        AffineRoot(alpha, k)
        for alpha in datum.roots()
        for k in range(-3, 4)
        if 1 <= abs(alpha.height + k * (datum.size + 1)) <= 2
    ]


ROOTS = {label: affine_roots(label) for label in SPARSE_TYPES}

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


@st.composite
def reduced_words(draw, label):
    """Extend by a letter that is not a right descent, so the word stays reduced."""
    group = GROUPS[label]
    length = draw(st.integers(min_value=0, max_value=8))
    h, word = group.identity(), []
    for _ in range(length):
        descents = group.right_descents(h)
        j = draw(st.sampled_from([i for i in range(group.rank + 1) if i not in descents]))
        word.append(j)
        h = h * group.simple_reflection(j)
    return tuple(word)


@st.composite
def executor_runs(draw, types=TYPES):
    label = draw(st.sampled_from(types))
    field_name = draw(st.sampled_from(tuple(FIELDS)))
    word = draw(reduced_words(label))
    if field_name == "QQ":
        labels = draw(st.lists(rationals, min_size=len(word), max_size=len(word)))
    else:
        labels = draw(st.lists(st.sampled_from(FIELDS[field_name].elements()),
                               min_size=len(word), max_size=len(word)))
    return label, field_name, word, tuple(labels)


def stored_coefficients(*matrices):
    return [c for m in matrices for row in m.entries for e in row for c in e.terms.values()]


@settings(max_examples=150, deadline=None)
@given(executor_runs())
def test_validated_executor_matches_exactly_one_folded_path(run):
    label, field_name, word, labels = run
    field = FIELDS[field_name]
    sl = LOOPS[(label, field_name)]
    state = sl.execute_folding(word, labels, validate=True)
    # the literal identity, which the validated run checks only inductively
    product = sl.identity()
    for j, c in zip(word, labels):
        product = product @ sl.x_simple(j, c) @ sl.n_simple_inv(j)
    assert product == state.u @ state.v_rep @ state.b
    assert product.determinant() == RationalFunction.of(field, 1)
    assert all(is_canonical(c, field) for _, c in state.u_factors)
    stored = stored_coefficients(state.u, state.v_rep, state.b)
    assert all(c and is_canonical(c, field) for c in stored)
    assert in_uminus(state.u)
    assert in_iwahori(state.b)
    assert is_monomial(state.v_rep)
    kinds = tuple(state.kinds)
    matches = [
        p for p in enumerate_folded_paths(GROUPS[label], word)
        if p.endpoint == state.v and tuple(p.kinds) == kinds
    ]
    assert len(matches) == 1


def scalars(field):
    if field == QQ:
        return st.one_of(st.sampled_from((1, -1)), st.fractions(-4, 4, max_denominator=3))
    return st.integers(0, field.p - 1)


@st.composite
def laurent(draw, field, max_terms=3):
    """Zero, a unit c t^k or a sum of several terms (zero coefficients drop)."""
    exps = draw(st.lists(st.integers(-2, 2), max_size=max_terms, unique=True))
    return RationalFunction.from_laurent(field, {k: draw(scalars(field)) for k in exps})


@st.composite
def sparse_cases(draw):
    """A loop, a random Laurent matrix and a Laurent polynomial."""
    label = draw(st.sampled_from(SPARSE_TYPES))
    sl = LOOPS[(label, draw(st.sampled_from(tuple(FIELDS))))]
    m = GroupMatrix(tuple(
        tuple(draw(laurent(sl.field)) for _ in range(sl.n)) for _ in range(sl.n)
    ))
    return label, sl, m, draw(laurent(sl.field))


def zero_based(sl, root):
    r, c = sl.root_position(root.finite)
    return r - 1, c - 1


def entry_terms(field):
    """{exponent: coefficient} maps: zero, 1, -1, +-t^k, and sums of up to
    three terms, with fractional coefficients over QQ."""
    return st.one_of(
        st.sampled_from(({}, {0: 1}, {0: -1})),
        st.builds(lambda k, sign: {k: sign}, st.integers(-2, 2), st.sampled_from((1, -1))),
        st.dictionaries(st.integers(-2, 2), scalars(field), max_size=3),
    )


@st.composite
def matrix_pairs(draw):
    """A field, QQ or F_5, and two n x n matrices of raw term maps, 2 <= n <= 4."""
    field = draw(st.sampled_from((QQ, PrimeField(5))))
    n = draw(st.integers(2, 4))
    a = [[draw(entry_terms(field)) for _ in range(n)] for _ in range(n)]
    b = [[draw(entry_terms(field)) for _ in range(n)] for _ in range(n)]
    return field, a, b


# Naive references on raw {exponent: coefficient} maps, with plain int and
# Fraction arithmetic: they call no RationalFunction operation.


def naive_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) + c
    return out


def naive_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def naive_reduce(f: dict, p: int) -> dict:
    """Reduce mod p (p > 0) and drop zero coefficients."""
    return {k: c for k, v in f.items() if (c := v % p if p else v)}


def naive_matmul(a, b, p: int):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for r, c, k in itertools.product(range(n), repeat=3):
        out[r][c] = naive_add(out[r][c], naive_mul(a[r][k], b[k][c]))
    return [[naive_reduce(e, p) for e in row] for row in out]


def leibniz_determinant(a, p: int) -> dict:
    """sum over permutations s of sign(s) a[0][s(0)] ... a[n-1][s(n-1)]."""
    n = len(a)
    out: dict = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = {0: (-1) ** inversions}
        for r, c in enumerate(perm):
            term = naive_mul(term, a[r][c])
        out = naive_add(out, term)
    return naive_reduce(out, p)


@settings(max_examples=80, deadline=None)
@given(matrix_pairs())
def test_matmul_and_determinant_match_naive_references(case):
    field, a, b = case
    p = field.characteristic
    ma, mb = (
        GroupMatrix(tuple(tuple(RationalFunction.from_laurent(field, e) for e in row) for row in m))
        for m in (a, b)
    )
    product = ma @ mb
    assert [[e.terms for e in row] for row in product.entries] == naive_matmul(a, b, p)
    det = ma.determinant()
    assert det.terms == leibniz_determinant(a, p)
    stored = stored_coefficients(product) + list(det.terms.values())
    assert all(c and is_canonical(c, field) for c in stored)


@settings(max_examples=40, deadline=None)
@given(sparse_cases())
def test_row_and_column_operations_equal_dense_products(case):
    label, sl, m, f = case
    for gamma in ROOTS[label]:
        r, c = zero_based(sl, gamma)
        entry = f * RationalFunction.t_power(sl.field, gamma.k)
        assert add_col(m, r, c, entry) == m @ sl.x_root(gamma, f)
        assert add_row(m, r, c, entry) == sl.x_root(gamma, f) @ m
        if f.is_unit_monomial():
            assert scale_rows(m, r, f, c, f.inverse()) == h_root(sl, gamma, f) @ m
    for j in range(sl.group.rank + 1):
        r, s = zero_based(sl, sl.group.simple_affine_root(j))
        for nm in (n_simple(sl, j), sl.n_simple_inv(j)):
            assert swap_cols(m, nm, r, s) == m @ nm
            assert swap_rows(nm, r, s, m) == nm @ m


@st.composite
def conjugation_cases(draw):
    """A state the executor reaches on a random reduced word and a scalar."""
    label, name, word, labels = draw(executor_runs(SPARSE_TYPES))
    sl = LOOPS[(label, name)]
    return label, sl, sl.execute_folding(word, labels), draw(scalars(sl.field))


@settings(max_examples=60, deadline=None)
@given(conjugation_cases())
def test_conjugation_by_v_rep_equals_dense_product(case):
    label, sl, state, value = case
    for gamma in ROOTS[label]:
        e, m, a, b = sl.conjugate(state.v_rep, gamma)
        assert e and is_canonical(e, sl.field)
        f = RationalFunction.of(sl.field, value) * RationalFunction(sl.field, {m: e})
        rows = [list(row) for row in sl.identity().entries]
        rows[a][b] = rows[a][b] + f
        x = GroupMatrix(tuple(map(tuple, rows)))
        assert x == state.v_rep @ sl.x_root(gamma, value) @ state.v_rep.inverse()
        assert all(c and is_canonical(c, sl.field) for c in stored_coefficients(x))
        assert a != b
