"""Finite-type Cartan data, root systems, and the finite Weyl group.

All arithmetic is exact, in integers; every value is
immutable and hashable, so elements can be shared freely and used as dict
keys.  The value types of the package derive from `Frozen`: slotted
classes whose __init__ is written out per class, so that building them
stays cheap.  Equality holds only between instances of the same class, and
the hash is that of the tuple of the fields; `Frozen` gives both, and the
few types compared on hot paths write out their own.

`validate_cartan` rejects a Dynkin diagram with a cycle, then names each
connected component by its rank, lacing and determinant, from one exact
elimination that also decides finite type.

A finite Weyl group element is the permutation it induces on the roots,
listed in the fixed order of `CartanDatum.roots()`; its actions on roots
and coweights are read from the tables of `CartanDatum.root_tables`.

Index conventions: simple roots/coroots are numbered 1..n.  The matrix
entry a[i][j] is the value of the i-th simple root on the j-th simple
coroot, so a row of the matrix is a simple root written as a functional
on the coroot basis.
"""

from __future__ import annotations

import functools
from operator import mul
from typing import NamedTuple, Sequence


class CartanError(ValueError):
    """Input is not a finite-type Cartan matrix (with a reason attached)."""


# Largest rank validate_cartan and from_label accept, checked before any
# other work.  Setting up a datum and its affine Weyl group grows quickly
# with the rank: about 0.25 s for D16 (480 roots) and 3 s for A40 (1640
# roots) under CPython 3.11 on a 2-core Xeon.
MAX_RANK = 16


def _check_rank(n: int) -> None:
    if n > MAX_RANK:
        raise CartanError(f"rank {n} exceeds the maximum rank {MAX_RANK}")


# sets a field of a value type in its __init__, past Frozen.__setattr__
_set = object.__setattr__


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields in __slots__ and __match_args__ and sets
    each once in its __init__ with `_set`.  The base holds what no hot loop
    calls: equality (true only against the same class, else NotImplemented)
    compares the tuples of the fields, the hash is that of the tuple,
    assigning or deleting a field raises AttributeError, the repr is
    Name(field=value, ...), and copy and pickle rebuild through __init__.
    A type whose equality runs on a measured path writes out its own
    __eq__ and __hash__ with the same meaning.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FiniteRoot(Frozen):
    """Integer coefficient vector on the simple roots."""

    __slots__ = __match_args__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]):
        _set(self, "coords", coords)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __neg__(self) -> "FiniteRoot":
        return FiniteRoot(tuple(-c for c in self.coords))

    @property
    def height(self) -> int:
        return sum(self.coords)

    def is_positive(self) -> bool:
        return any(self.coords) and all(c >= 0 for c in self.coords)

    def is_negative(self) -> bool:
        return any(self.coords) and all(c <= 0 for c in self.coords)


class Coweight(Frozen):
    """Integer coefficient vector on the simple coroots."""

    __slots__ = __match_args__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]):
        _set(self, "coords", coords)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __neg__(self) -> "Coweight":
        return Coweight(tuple(-c for c in self.coords))

    def __add__(self, other: "Coweight") -> "Coweight":
        if len(self.coords) != len(other.coords):
            raise ValueError("coweight dimension mismatch")
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)


def simple_root(n: int, i: int) -> FiniteRoot:
    return FiniteRoot(tuple(1 if j == i - 1 else 0 for j in range(n)))


def simple_coroot(n: int, i: int) -> Coweight:
    return Coweight(tuple(1 if j == i - 1 else 0 for j in range(n)))


def zero_coweight(n: int) -> Coweight:
    return Coweight((0,) * n)


# ---------------------------------------------------------------------------
# Cartan matrix validation and classification


class CartanDatum(Frozen):
    """A validated finite-type Cartan matrix with its classification tag.

    Construct through :func:`validate_cartan` or :func:`from_label`; the
    raw constructor performs no checking.  Besides its fields a datum has
    an instance __dict__, which holds only the cached properties.
    """

    __match_args__ = ("size", "entries", "type_label")
    __slots__ = (*__match_args__, "__dict__")
    size: int
    entries: tuple[tuple[int, ...], ...]
    type_label: str

    def __init__(self, size: int, entries: tuple[tuple[int, ...], ...], type_label: str):
        _set(self, "size", size)
        _set(self, "entries", entries)
        _set(self, "type_label", type_label)

    # -- basic queries ------------------------------------------------

    def pairing(self, lam: Coweight, mu: FiniteRoot) -> int:
        """Evaluate the root mu on the coroot lam: mu(h_lam)."""
        if len(lam.coords) != self.size or len(mu.coords) != self.size:
            raise ValueError("dimension mismatch")
        return sum(
            m * sum(map(mul, row, lam.coords)) for m, row in zip(mu.coords, self.entries) if m
        )

    # -- simple reflections --------------------------------------------

    def reflect_root(self, i: int, alpha: FiniteRoot) -> FiniteRoot:
        """Apply s_i to a root: alpha - alpha(h_i) * alpha_i."""
        self._check_index(i)
        c = list(alpha.coords)
        c[i - 1] -= sum(alpha.coords[j] * self.entries[j][i - 1] for j in range(self.size))
        return FiniteRoot(tuple(c))

    def reflect_coweight(self, i: int, lam: Coweight) -> Coweight:
        """Apply s_i to a coweight: lam - alpha_i(lam) * h_i."""
        self._check_index(i)
        c = list(lam.coords)
        c[i - 1] -= sum(self.entries[i - 1][j] * lam.coords[j] for j in range(self.size))
        return Coweight(tuple(c))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.size:
            raise IndexError(f"simple index {i} out of range 1..{self.size}")

    # -- Weyl group ------------------------------------------------------

    def identity_weyl(self) -> "FiniteWeylElement":
        return FiniteWeylElement(self, tuple(range(len(self.root_tables.roots))))

    def simple_reflection(self, i: int) -> "FiniteWeylElement":
        self._check_index(i)
        return self._simple_reflections[i - 1]

    @functools.cached_property
    def _simple_reflections(self) -> tuple["FiniteWeylElement", ...]:
        """s_1..s_n, built on first use and kept like root_tables."""
        return tuple(self.reflection(simple_root(self.size, i)) for i in range(1, self.size + 1))

    def reflection(self, alpha: FiniteRoot) -> "FiniteWeylElement":
        """s_alpha, acting on roots by beta -> beta - beta(h_alpha) alpha."""
        h = self.coroot(alpha).coords
        tables = self.root_tables
        perm = []
        for beta, values in zip(tables.roots, tables.pairing):
            m = sum(map(mul, values, h))
            perm.append(tables.index[tuple(b - m * a for b, a in zip(beta.coords, alpha.coords))])
        return FiniteWeylElement(self, tuple(perm))

    def weyl_from_word(self, word: Sequence[int]) -> "FiniteWeylElement":
        w = self.identity_weyl()
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    # -- root system -----------------------------------------------------

    @functools.cached_property
    def root_tables(self) -> "RootTables":
        """The lookup tables of the roots, built on first use.  The value is
        kept in the instance __dict__, apart from the slotted fields, so the
        equality, hash and repr of the datum do not see it."""
        table = _root_coroot_table(self)
        roots = tuple(sorted(table, key=lambda r: (r.height, r.coords)))
        columns = tuple(zip(*self.entries))
        index = {alpha.coords: r for r, alpha in enumerate(roots)}
        return RootTables(
            roots=roots,
            index=index,
            negative=tuple(alpha.is_negative() for alpha in roots),
            coroots=tuple(table[alpha].coords for alpha in roots),
            pairing=tuple(_mat_vec(columns, alpha.coords) for alpha in roots),
            simple=tuple(index[simple_root(self.size, i).coords] for i in range(1, self.size + 1)),
        )

    def roots(self) -> tuple[FiniteRoot, ...]:
        """Every root, by height and then coordinates: the order Weyl
        elements permute."""
        return self.root_tables.roots

    def positive_roots(self) -> tuple[FiniteRoot, ...]:
        return tuple(r for r in self.roots() if r.is_positive())

    def coroot(self, alpha: FiniteRoot) -> Coweight:
        """The coroot h_alpha attached to a root alpha (w h_i for alpha = w alpha_i)."""
        tables = self.root_tables
        if alpha.coords not in tables.index:
            raise ValueError(f"{alpha} is not a root of this datum")
        return Coweight(tables.coroots[tables.index[alpha.coords]])

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the Dynkin diagram, as sorted 1-based index tuples."""
        return _components(self.entries)

    def highest_root(self) -> FiniteRoot:
        """The unique root of greatest height, last in the order of roots();
        only irreducible data have one."""
        if not self.is_irreducible():
            raise CartanError("highest_root is defined for irreducible data only")
        return self.roots()[-1]

    def is_irreducible(self) -> bool:
        return len(self.components()) == 1


def _root_coroot_table(datum: CartanDatum) -> dict[FiniteRoot, Coweight]:
    """Closure of the simple roots under simple reflections, with coroots.

    BFS over the Weyl orbit; tracks h_alpha alongside alpha.  Read through
    CartanDatum.root_tables, which builds it once per datum.
    """
    n = datum.size
    table: dict[FiniteRoot, Coweight] = {}
    frontier = [(simple_root(n, i), simple_coroot(n, i)) for i in range(1, n + 1)]
    while frontier:
        nxt = []
        for alpha, h in frontier:
            if alpha in table:
                continue
            table[alpha] = h
            for i in range(1, n + 1):
                nxt.append((datum.reflect_root(i, alpha), datum.reflect_coweight(i, h)))
        frontier = nxt
    return table


def _components(entries: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    n = len(entries)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            for u in range(n):
                if u != v and entries[v][u] != 0:
                    stack.append(u)
        comps.append(tuple(sorted(i + 1 for i in comp)))
    return tuple(comps)


def validate_cartan(matrix: Sequence[Sequence[int]]) -> CartanDatum:
    """Check the Cartan axioms and finite type; classify on success."""
    if not isinstance(matrix, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in matrix
    ):
        raise CartanError("not-Cartan: matrix must be a list of rows")
    n = len(matrix)
    _check_rank(n)
    if n == 0 or any(len(row) != n for row in matrix):
        raise CartanError("not-Cartan: matrix must be square and nonempty")
    if any(isinstance(x, bool) or not isinstance(x, int) for row in matrix for x in row):
        raise CartanError("not-Cartan: entries must be integers")
    entries = tuple(tuple(row) for row in matrix)
    for i in range(n):
        if entries[i][i] != 2:
            raise CartanError(f"not-Cartan: diagonal entry a[{i+1}][{i+1}] != 2")
        for j in range(n):
            if i != j and entries[i][j] > 0:
                raise CartanError(f"not-Cartan: off-diagonal entry a[{i+1}][{j+1}] > 0")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise CartanError(f"not-Cartan: zero pattern asymmetric at ({i+1},{j+1})")
    # a graph on n nodes with c components has n - c edges if it is a forest
    # and more otherwise
    components = _components(entries)
    edges = sum(entries[i][j] != 0 for i in range(n) for j in range(i))
    if edges > n - len(components):
        raise CartanError("not-finite-type: Dynkin diagram has a cycle")
    label = "x".join(
        _classify_component([[entries[u - 1][v - 1] for v in comp] for u in comp])
        for comp in components
    )
    return CartanDatum(n, entries, label)


def _classify_component(block: list[list[int]]) -> str:
    """Name a block whose Dynkin diagram is a tree by its rank n, its lacing
    (the largest a_ij a_ji) and its determinant; raise unless it is of
    finite type.

    Every connected finite type is a tree (Kac, Infinite-dimensional Lie
    algebras, 4.8, Table Fin), so validate_cartan rejects a cycle first and
    loses no finite type by it.  A tree's matrix is symmetrizable: walking
    out from one node, eps_v a_vu = eps_u a_uv fixes each new eps_u > 0
    once, and without a cycle no second path contradicts it.  So the block
    is D S with D diagonal and positive and S symmetric, and its leading
    minors have the signs of S's, all positive exactly when S is positive
    definite (Sylvester).  Fraction-free elimination without row exchanges
    (Bareiss) makes each pivot a leading minor, the last being the
    determinant.  Among the connected finite types (ibid.) det A_n = n + 1,
    det B_n = det C_n = 2, det D_n = 4 for n >= 4, det E_n = 9 - n and
    det F4 = det G2 = 1.  a_uv = -2 makes alpha_v the short root of the
    double edge, and B_n has it at a leaf of the chain (in rank 2, where
    both nodes are leaves, B2 has it second).
    """
    n = len(block)
    a, det = [row[:] for row in block], 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise CartanError("not-finite-type: symmetrized matrix is not positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // det
        det = pivot
    lacing = max((block[i][j] * block[j][i] for i in range(n) for j in range(i)), default=1)
    if lacing == 3:
        return "G2"
    if lacing == 2:
        if det == 1:
            return "F4"
        u, v = next((i, j) for i in range(n) for j in range(n) if block[i][j] == -2)
        # at a leaf, alpha_v's row holds its 2 and one neighbour's entry
        short_leaf = sum(map(bool, block[v])) == 2 and (n > 2 or v > u)
        return ("B" if short_leaf else "C") + str(n)
    if det == n + 1:
        return f"A{n}"
    return f"D{n}" if det == 4 else f"E{n}"


_LABEL_BUILDERS = {
    "A": lambda n: _chain(n, {}),
    "B": lambda n: _chain(n, {(n - 2, n - 1): -2}),
    "C": lambda n: _chain(n, {(n - 1, n - 2): -2}),
    "D": lambda n: _fork(n),
    "G": lambda n: ((2, -1), (-3, 2)),
    "F": lambda n: ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "E": lambda n: _e_type(n),
}


def _chain(n: int, overrides: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    for (i, j), v in overrides.items():
        m[i][j] = v
    return tuple(tuple(row) for row in m)


def _fork(n: int) -> tuple[tuple[int, ...], ...]:
    if n < 4:
        raise CartanError(f"D{n} is not a valid type label")
    m = [list(row) for row in _chain(n, {})]
    m[n - 1][n - 2] = m[n - 2][n - 1] = 0
    m[n - 1][n - 3] = m[n - 3][n - 1] = -1
    return tuple(tuple(row) for row in m)


def _e_type(n: int) -> tuple[tuple[int, ...], ...]:
    if n not in (6, 7, 8):
        raise CartanError(f"E{n} is not a valid type label")
    m = [list(row) for row in _chain(n, {})]
    # node n attaches to the third node of an (n-1)-chain
    m[n - 1][n - 2] = m[n - 2][n - 1] = 0
    m[n - 1][2] = m[2][n - 1] = -1
    return tuple(tuple(row) for row in m)


def from_label(label: str) -> CartanDatum:
    """Build a datum from a type label such as "A2", "G2", or "A1xA1"."""
    parts = []
    for part in label.split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] not in _LABEL_BUILDERS or not part[1:].isdigit():
            raise CartanError(f"unrecognized type label {part!r}")
        family, rank = part[0], int(part[1:])
        if rank < 1 or (family == "G" and rank != 2) or (family == "F" and rank != 4):
            raise CartanError(f"unrecognized type label {part!r}")
        if family in "BC" and rank < 2:
            raise CartanError(f"unrecognized type label {part!r}")
        parts.append((family, rank))
    _check_rank(sum(rank for _, rank in parts))
    blocks = [_LABEL_BUILDERS[family](rank) for family, rank in parts]
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                m[off + i][off + j] = v
        off += len(b)
    return validate_cartan(m)


# ---------------------------------------------------------------------------
# Finite Weyl elements


class RootTables(NamedTuple):
    """Per-datum lookup tables over the roots in the fixed order of
    `CartanDatum.roots()`; a Weyl element is a permutation of this order."""

    roots: tuple[FiniteRoot, ...]
    index: dict[tuple[int, ...], int]  # root coords -> position
    negative: tuple[bool, ...]
    coroots: tuple[tuple[int, ...], ...]  # coords of h_beta
    pairing: tuple[tuple[int, ...], ...]  # (beta(h_1), ..., beta(h_n))
    simple: tuple[int, ...]  # positions of alpha_1, ..., alpha_n


class FiniteWeylElement(Frozen):
    """Weyl group element stored as the permutation it induces on the roots.

    perm[r] is the position of w beta_r in `datum.roots()`.  A product is
    a composition of permutations and the inverse is the inverse
    permutation; the linear actions on roots and coweights are read from
    `datum.root_tables`: w alpha_i is the root at perm of alpha_i's
    position, and w h_i is its coroot.  The hash is that of perm; equality
    also compares the datum (by identity first), so elements of different
    data with equal permutations stay distinct.
    """

    __slots__ = __match_args__ = ("datum", "perm")
    datum: CartanDatum
    perm: tuple[int, ...]

    def __init__(self, datum: CartanDatum, perm: tuple[int, ...]):
        _set(self, "datum", datum)
        _set(self, "perm", perm)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.perm == other.perm and (
                self.datum is other.datum or self.datum == other.datum
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.perm,))

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        if self.datum is not other.datum and self.datum != other.datum:
            raise ValueError("datum mismatch")
        return FiniteWeylElement(self.datum, tuple(map(self.perm.__getitem__, other.perm)))

    def inverse(self) -> "FiniteWeylElement":
        """The inverse permutation; a tuple that is not a permutation of the
        root positions raises ValueError."""
        perm = self.perm
        size = len(self.datum.root_tables.roots)
        inv = [-1] * size
        try:
            for r, image in enumerate(perm):
                inv[image] = r
        except (IndexError, TypeError):
            raise ValueError("perm is not a permutation of the root positions") from None
        # Checked by two C-level sums instead of a test per image: every r
        # survives in inv, which then sums to 0 + 1 + ... + (size-1), only
        # if no image repeats; then the images are the positions, less size
        # for each negative one that wrapped round, so perm has that sum too
        # only if no image is negative.
        total = size * (size - 1) // 2
        if len(perm) != size or sum(inv) != total or sum(perm) != total:
            raise ValueError("perm is not a permutation of the root positions")
        return FiniteWeylElement(self.datum, tuple(inv))

    def _position(self, alpha: FiniteRoot) -> tuple[RootTables, int]:
        """The tables and the position of w alpha in them."""
        tables = self.datum.root_tables
        try:
            return tables, self.perm[tables.index[alpha.coords]]
        except KeyError:
            raise ValueError(f"{alpha} is not a root of this datum") from None

    def act_root(self, alpha: FiniteRoot) -> FiniteRoot:
        tables, r = self._position(alpha)
        return tables.roots[r]

    def act_root_paired(self, alpha: FiniteRoot, lam: Coweight) -> tuple[FiniteRoot, int]:
        """w alpha together with its value on the coweight lam, (w alpha)(lam)."""
        tables, r = self._position(alpha)
        return tables.roots[r], sum(map(mul, lam.coords, tables.pairing[r]))

    def act_coweight(self, lam: Coweight) -> Coweight:
        return Coweight(coweight_image(self.datum.root_tables, self.perm, lam.coords))

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        tables = self.datum.root_tables
        negative = tables.negative
        return sum(1 for r, image in enumerate(self.perm) if negative[image] and not negative[r])


def coweight_image(tables: RootTables, perm: tuple[int, ...], lam: Sequence) -> tuple:
    """The coroot coordinates of w lam, for w the root permutation perm:
    column i of w on coroot coordinates is w h_i, the coroot at perm's
    image of alpha_i's position.  lam may hold ints or Fractions."""
    columns = [tables.coroots[perm[r]] for r in tables.simple]
    return tuple(sum(map(mul, row, lam)) for row in zip(*columns))


def _mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)
