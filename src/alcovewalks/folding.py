"""Folded path enumeration and q-point counting for Iwasawa cells.

A step of a walk of type (i_1, ..., i_l) at the alcove v looks at
beta = v alpha_{i_k}:

  * beta in the uminus set: the crossing is forced and carries a free
    label (positive crossing),
  * otherwise the step branches: a nonzero label folds the path (the
    alcove stays), a zero label crosses anyway (zero crossing).

Each path contributes q^{#positive} (q-1)^{#fold} points; summing over
paths grouped by endpoint yields the cell counts.  paths_to_json streams
the paths and cells as the JSON document of the `paths` command.

The counting DP and the enumerator walk raw alcove states (see affine):
AffineWeylGroup.step is the one place where s_j acts on them, and
AffineWeylGroup.sends_to_uminus the one forced/branch test.
"""

from __future__ import annotations

import enum
from math import comb
from operator import add, sub
from typing import Callable, Iterable, Sequence

from .affine import (
    AffineRoot,
    AlcoveState,
    AffineWeylElement,
    AffineWeylGroup,
    Word,
    WordError,
    affine_root_to_json,
    element_to_json,
)
from .cartan import Frozen, _set


class StepKind(enum.Enum):
    POSITIVE_CROSSING = "P"
    FOLD = "F"
    ZERO_CROSSING = "Z"


class FoldedPath(Frozen):
    """One labeled folded path of a fixed type.

    walls[k] is the uminus-positive wall recorded at step k.  The alcoves
    the path passes follow from its kinds: it starts at the identity, a
    fold stays at v and every other step crosses to v s_j.
    """

    __slots__ = __match_args__ = ("type_word", "kinds", "walls", "endpoint")
    type_word: Word
    kinds: tuple[StepKind, ...]
    walls: tuple[AffineRoot, ...]
    endpoint: AffineWeylElement

    def __init__(
        self,
        type_word: Word,
        kinds: tuple[StepKind, ...],
        walls: tuple[AffineRoot, ...],
        endpoint: AffineWeylElement,
    ):
        _set(self, "type_word", type_word)
        _set(self, "kinds", kinds)
        _set(self, "walls", walls)
        _set(self, "endpoint", endpoint)

    def count(self, kind: StepKind) -> int:
        return self.kinds.count(kind)

    @property
    def shape(self) -> tuple[int, int]:
        """(positive crossings, folds): all that the count and dimension read."""
        return self.count(StepKind.POSITIVE_CROSSING), self.count(StepKind.FOLD)

    @property
    def dimension(self) -> int:
        return sum(self.shape)


# CountPolynomial arithmetic on bare coefficient tuples, ascending; the
# counting DP runs on these and wraps only the final counts.


def _plus(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficientwise sum, as long as the longer input (not trimmed)."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b + (0,) * (len(a) - len(b))))


def _times_q(c: tuple[int, ...]) -> tuple[int, ...]:
    return (0,) + c if c else c


def _times_q_minus_one(c: tuple[int, ...]) -> tuple[int, ...]:
    """q f - f: shift, then subtract; the leading coefficient stays."""
    return tuple(map(sub, (0,) + c, c + (0,))) if c else c


class CountPolynomial(Frozen):
    """Integer polynomial in q, coefficients ascending, trailing zeros trimmed."""

    __slots__ = __match_args__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]):
        _set(self, "coeffs", coeffs)

    @staticmethod
    def make(coeffs: Iterable[int]) -> "CountPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return CountPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "CountPolynomial":
        return CountPolynomial(())

    @staticmethod
    def one() -> "CountPolynomial":
        return CountPolynomial((1,))

    def __add__(self, other: "CountPolynomial") -> "CountPolynomial":
        return CountPolynomial.make(_plus(self.coeffs, other.coeffs))

    def evaluate(self, q: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}q^{e}"
            terms.append(("-" if c < 0 else "+", body))
        head_sign, head = terms[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in terms[1:]:
            text += sign + body
        return text


def count_polynomial(path: FoldedPath) -> CountPolynomial:
    """q^a (q-1)^f for a positive crossings and f folds, by the binomial
    theorem: the coefficient of q^(a+k) is (-1)^(f-k) C(f, k)."""
    a, f = path.shape
    return CountPolynomial((0,) * a + tuple((-1) ** (f - k) * comb(f, k) for k in range(f + 1)))


def _check_word(group: AffineWeylGroup, word: Sequence[int], allow_nonreduced: bool) -> Word:
    """Letters must lie in 0..n; non-reduced words are rejected unless allowed."""
    word = tuple(word)
    for i in word:
        group._check_letter(i)
    if not allow_nonreduced and not group.is_reduced(word):
        raise WordError(f"word {word} is not reduced (pass allow_nonreduced to override)")
    return word


def _reaching_states(
    group: AffineWeylGroup, word: Word, end: AffineWeylElement
) -> list[set[AlcoveState]]:
    """reach[k]: the states from which the steps word[k:] can end at `end`.

    Read backwards from reach[L] = {end}: a step at (y, j) may cross to
    y s_j, and may also stay at y when it branches, so reach[k] is
    reach[k+1] s_j together with the branch states of reach[k+1].
    """
    reach = [{group.state(end)}]
    for j in reversed(word):
        after = reach[-1]
        crossing = {group.step(z, j) for z in after}
        reach.append(crossing | {y for y in after if not group.sends_to_uminus(y, j)})
    return reach[::-1]


def enumerate_folded_paths(
    group: AffineWeylGroup,
    word: Sequence[int],
    allow_nonreduced: bool = False,
    end: AffineWeylElement | None = None,
) -> tuple[FoldedPath, ...]:
    """Depth-first enumeration of all folded paths of type `word`, or with
    `end` of those that end there.

    Branch steps explore the fold child before the zero crossing, so the
    output order is deterministic.  Non-reduced words are rejected unless
    explicitly allowed.  The walk runs on raw alcove states; paths merge
    at alcoves and cross the same walls, so each distinct endpoint and
    each distinct wall is one object per call.  With `end` only children
    that can still reach it are pushed, so the paths come in the order of
    the full enumeration.
    """
    word = _check_word(group, word, allow_nonreduced)
    reach = None if end is None else _reaching_states(group, word, end)
    out = []
    elements: dict[AlcoveState, AffineWeylElement] = {}
    distinct_walls: dict[tuple[int, int], AffineRoot] = {}
    start = group.state(group.identity())
    stack = [(0, start, (), ())] if reach is None or start in reach[0] else []
    while stack:
        step, v, kinds, walls = stack.pop()
        if step == len(word):
            g = elements.get(v)
            if g is None:
                g = elements[v] = group.element(v)
            out.append(FoldedPath(word, kinds, walls, g))
            continue
        j = word[step]
        nv = group.step(v, j)
        key = group.uminus_wall(v, j)
        wall = distinct_walls.get(key)
        if wall is None:
            wall = distinct_walls[key] = group.affine_root(key)
        if group.sends_to_uminus(v, j):
            children = ((nv, StepKind.POSITIVE_CROSSING, wall),)
        else:
            # pushed in reverse so the fold child is explored first
            children = ((nv, StepKind.ZERO_CROSSING, wall), (v, StepKind.FOLD, wall))
        ahead = None if reach is None else reach[step + 1]
        for child, kind, wall in children:
            if ahead is None or child in ahead:
                stack.append((step + 1, child, kinds + (kind,), walls + (wall,)))
    return tuple(out)


def endpoint_counts(
    group: AffineWeylGroup,
    word: Sequence[int],
    allow_nonreduced: bool = False,
    end: AffineWeylElement | None = None,
) -> dict[AffineWeylElement, CountPolynomial]:
    """Cell count polynomials by endpoint, without building any path; with
    `end` only its count, if any path reaches it.

    Whether a step branches depends only on the current alcove and the
    letter, so the paths are summed per alcove as the word is read: a
    forced step sends v to v s_j with factor q, a branch step keeps v with
    factor q-1 and sends v s_j with factor 1.  The counts equal those of
    cells_by_endpoint; the keys come in the order the frontier reached
    them, and AffineWeylGroup.canonical_words puts them in canonical
    order together with the reduced words it sorted by.  The frontier maps
    raw alcove states to bare coefficient tuples, one dict lookup and one
    store per move; elements and CountPolynomials are built only for the
    final endpoints.  With `end` the frontier keeps only the states that
    can still reach it, as enumerate_folded_paths does.
    """
    word = _check_word(group, word, allow_nonreduced)
    reach = None if end is None else _reaching_states(group, word, end)
    start = group.state(group.identity())
    frontier = {start: (1,)} if reach is None or start in reach[0] else {}
    for step, j in enumerate(word):
        ahead = None if reach is None else reach[step + 1]
        nxt: dict[AlcoveState, tuple[int, ...]] = {}
        get = nxt.get
        for v, count in frontier.items():
            vs = group.step(v, j)
            if group.sends_to_uminus(v, j):
                moves = ((vs, _times_q(count)),)
            else:
                moves = ((v, _times_q_minus_one(count)), (vs, count))
            for w, c in moves:
                if ahead is None or w in ahead:
                    old = get(w)
                    nxt[w] = c if old is None else _plus(old, c)
        frontier = nxt
    # a count's leading coefficient is its number of top-dimensional paths,
    # so sums never cancel at the top and need no trimming
    return {group.element(v): CountPolynomial(count) for v, count in frontier.items()}


class Cell(Frozen):
    """All folded paths of one type sharing an endpoint."""

    __slots__ = __match_args__ = ("paths", "count")
    paths: tuple[FoldedPath, ...]
    count: CountPolynomial

    def __init__(self, paths: tuple[FoldedPath, ...], count: CountPolynomial):
        _set(self, "paths", paths)
        _set(self, "count", count)

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(p.dimension for p in self.paths)


def cells_by_endpoint(
    group: AffineWeylGroup,
    word: Sequence[int],
    allow_nonreduced: bool = False,
    end: AffineWeylElement | None = None,
) -> dict[AffineWeylElement, Cell]:
    """Group folded paths by endpoint, in canonical endpoint order; with
    `end` only its cell, if any path reaches it."""
    grouped: dict[AffineWeylElement, list[FoldedPath]] = {}
    for path in enumerate_folded_paths(group, word, allow_nonreduced, end):
        grouped.setdefault(path.endpoint, []).append(path)
    out: dict[AffineWeylElement, Cell] = {}
    for end in group.canonical_words(grouped):
        paths = tuple(grouped[end])
        total = CountPolynomial.zero()
        for p in paths:
            total = total + count_polynomial(p)
        out[end] = Cell(paths, total)
    return out


# The paths document has a fixed shape, so paths_to_json prints it from
# templates; the pads are the indents of its nesting depths 2 to 6.
_PAD4, _PAD6, _PAD8, _PAD10, _PAD12 = (" " * n for n in (4, 6, 8, 10, 12))
_KIND_TEXT = {k: f'"{k.value}"' for k in StepKind}
_NONREDUCED_WARNING = "type word is not reduced; path/cell bijection is not guaranteed"


def _list(items: Iterable[str], pad: str) -> str:
    """A list of formatted JSON values as json.dumps(indent=2) prints it,
    the items at pad."""
    body = f",\n{pad}".join(items)
    return f"[\n{pad}{body}\n{pad[2:]}]" if body else "[]"


def _element_text(group: AffineWeylGroup, g: AffineWeylElement) -> str:
    """The element_to_json object of g as the value of a key at depth 3."""
    doc = element_to_json(group, g)
    fields = (f'{_PAD8}"{key}": {_list(map(str, doc[key]), _PAD10)}' for key in sorted(doc))
    return "{\n" + ",\n".join(fields) + f"\n{_PAD6}}}"


def _write_records(write: Callable[[str], object], key: str, records: Iterable[str]) -> None:
    """A top-level list of objects, one write per record."""
    empty = True
    for text in records:
        write((f'  "{key}": [\n' if empty else ",\n") + text)
        empty = False
    write(f'  "{key}": [],\n' if empty else "\n  ],\n")


def paths_to_json(
    group: AffineWeylGroup,
    word: Word,
    cells: dict[AffineWeylElement, Cell],
    write: Callable[[str], object],
    nonreduced: bool = False,
) -> None:
    """Stream the paths document of `cells` to `write`, one call per record.

    The text is json.dumps(doc, indent=2, sort_keys=True) + "\n" of
    doc = {"by_endpoint": [{"count", "dims", "end"}, ...], "paths":
    [{"count", "dim", "end", "kinds", "walls"}, ...], "type_word", and a
    "warning" when `nonreduced`}, with endpoints as element_to_json objects
    and walls as affine_root_to_json lists, but no document is built: each
    endpoint is formatted once for its cell and its paths, each wall once
    per root, and a path's count and dim once per shape.
    """
    ends = [_element_text(group, end) for end in cells]
    walls: dict[tuple[tuple[int, ...], int], str] = {}
    shapes: dict[tuple[int, int], str] = {}

    def wall_text(beta: AffineRoot) -> str:
        key = (beta.finite.coords, beta.k)
        text = walls.get(key)
        if text is None:
            coords, k = affine_root_to_json(beta)
            text = walls[key] = _list((_list(map(str, coords), _PAD12), str(k)), _PAD10)
        return text

    def shape_text(p: FoldedPath) -> str:
        shape = p.shape
        text = shapes.get(shape)
        if text is None:
            coeffs = count_polynomial(p).coeffs
            text = shapes[shape] = (
                f'"count": {_list(map(str, coeffs), _PAD8)},\n{_PAD6}"dim": {sum(shape)}'
            )
        return text

    def path_records():
        for end, cell in zip(ends, cells.values()):
            for p in cell.paths:
                yield (
                    f'{_PAD4}{{\n{_PAD6}{shape_text(p)},\n{_PAD6}"end": {end},\n'
                    f'{_PAD6}"kinds": {_list(map(_KIND_TEXT.__getitem__, p.kinds), _PAD8)},\n'
                    f'{_PAD6}"walls": {_list(map(wall_text, p.walls), _PAD8)}\n{_PAD4}}}'
                )

    write("{\n")
    _write_records(
        write,
        "by_endpoint",
        (
            f'{_PAD4}{{\n{_PAD6}"count": {_list(map(str, cell.count.coeffs), _PAD8)},\n'
            f'{_PAD6}"dims": {_list(map(str, cell.dimensions), _PAD8)},\n'
            f'{_PAD6}"end": {end}\n{_PAD4}}}'
            for end, cell in zip(ends, cells.values())
        ),
    )
    _write_records(write, "paths", path_records())
    write(f'  "type_word": {_list(map(str, word), _PAD4)}')
    write(f',\n  "warning": "{_NONREDUCED_WARNING}"\n}}\n' if nonreduced else "\n}\n")
