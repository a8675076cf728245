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

_moves is this step rule, written once on raw alcove states (see affine)
next to AffineWeylGroup.step, the one place where s_j acts on them, and
AffineWeylGroup.sends_to_uminus, the one forced test.
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
    affine_root_to_json,
    element_to_json,
)
from .cartan import Frozen


class StepKind(enum.Enum):
    POSITIVE_CROSSING = "P"
    FOLD = "F"
    ZERO_CROSSING = "Z"

    __hash__ = object.__hash__  # members compare by identity; Enum's hash runs Python code


_POSITIVE, _FOLD, _ZERO = StepKind  # for the hot loops: Enum attribute lookups are slow


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

    @property
    def shape(self) -> tuple[int, int]:
        """(positive crossings, folds): all that the count and dimension read."""
        return self.kinds.count(_POSITIVE), self.kinds.count(_FOLD)

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

    @staticmethod
    def make(coeffs: Iterable[int]) -> "CountPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return CountPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "CountPolynomial":
        return CountPolynomial(())

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


def _moves(group: AffineWeylGroup, v: AlcoveState, j: int) -> tuple[tuple[AlcoveState, StepKind], ...]:
    """The step rule at v with letter j as (alcove, kind) moves, the fold first."""
    vs = group.step(v, j)
    if group.sends_to_uminus(v, j):
        return ((vs, _POSITIVE),)
    return ((v, _FOLD), (vs, _ZERO))


def _walk_setup(
    group: AffineWeylGroup, word: Sequence[int], end: AffineWeylElement | None
) -> tuple[Word, tuple[AlcoveState, ...], Sequence[set[AlcoveState] | None]]:
    """The checked word, the start states and the pruning sets `ahead`.

    Without `end` nothing is pruned.  With it, ahead[k] holds the states
    from which word[k+1:] can still end there, read backwards from {end}:
    y is kept if y s_j is kept, or if y is kept and branches.
    """
    word = tuple(word)
    for i in word:
        group._check_letter(i)
    start = group.state(group.identity())
    if end is None:
        return word, (start,), (None,) * len(word)
    reach = [{group.state(end)}]
    for j in reversed(word):
        after = reach[-1]
        crossing = {group.step(z, j) for z in after}
        reach.append(crossing | {y for y in after if not group.sends_to_uminus(y, j)})
    reach.reverse()
    return word, (start,) if start in reach[0] else (), reach[1:]


def enumerate_folded_paths(
    group: AffineWeylGroup, word: Sequence[int], end: AffineWeylElement | None = None
) -> tuple[FoldedPath, ...]:
    """Depth-first enumeration of all folded paths of type `word`, or with
    `end` of those that end there.

    Branch steps explore the fold child before the zero crossing, so the
    output order is deterministic.  Any word is walked: the labelled paths
    of a non-reduced word index the points of I s_j1 I x^I ... x^I I s_jL I / I
    rather than of a cell.  The walk runs on raw alcove states; paths merge
    at alcoves and cross the same walls, so each distinct endpoint and
    each distinct wall is one object per call.  With `end` only children
    that can still reach it are pushed, so the paths come in the order of
    the full enumeration.
    """
    word, starts, aheads = _walk_setup(group, word, end)
    out = []
    elements: dict[AlcoveState, AffineWeylElement] = {}
    distinct_walls: dict[tuple[int, int], AffineRoot] = {}
    stack = [(0, v, (), ()) for v in starts]
    while stack:
        step, v, kinds, walls = stack.pop()
        if step == len(word):
            g = elements.get(v)
            if g is None:
                g = elements[v] = group.element(v)
            out.append(FoldedPath(word, kinds, walls, g))
            continue
        j = word[step]
        key = group.uminus_wall(v, j)
        wall = distinct_walls.get(key)
        if wall is None:
            wall = distinct_walls[key] = group.affine_root(key)
        ahead = aheads[step]
        # pushed in reverse so the fold child is explored first
        for child, kind in reversed(_moves(group, v, j)):
            if ahead is None or child in ahead:
                stack.append((step + 1, child, kinds + (kind,), walls + (wall,)))
    return tuple(out)


Frontier = dict[AlcoveState, tuple[int, ...]]  # the counting DP's per-alcove counts


def count_step(group: AffineWeylGroup, frontier: Frontier, j: int, ahead=None) -> Frontier:
    """The right action of T_j on per-alcove counts, keeping with `ahead`
    only the moves into it.  Each move of _moves carries its count times q
    when it crosses positively, q-1 when it folds and 1 when it crosses at zero."""
    nxt: Frontier = {}
    get = nxt.get
    for v, count in frontier.items():
        for w, kind in _moves(group, v, j):
            if ahead is None or w in ahead:
                if kind is _POSITIVE:
                    c = _times_q(count)
                elif kind is _FOLD:
                    c = _times_q_minus_one(count)
                else:
                    c = count
                old = get(w)
                nxt[w] = c if old is None else _plus(old, c)
    return nxt


def endpoint_counts(
    group: AffineWeylGroup, word: Sequence[int], end: AffineWeylElement | None = None
) -> dict[AffineWeylElement, CountPolynomial]:
    """Cell count polynomials by endpoint, without building any path; with
    `end` only its count, if any path reaches it.

    Whether a step branches depends only on the current alcove and the
    letter, so the paths are summed per alcove as the word is read, one
    count_step per letter, as in Ram's expansion of T_j1 ... T_jL, which
    holds for any word: for a non-reduced one each count is that of the
    points of I s_j1 I x^I ... x^I I s_jL I / I over the endpoint's cell.
    The counts equal those of cells_by_endpoint; the keys come in the order
    the frontier reached them, and AffineWeylGroup.canonical_words puts
    them in canonical order together with the reduced words it sorted by.
    Elements and CountPolynomials are built only for the final endpoints.
    With `end` the frontier keeps only the states that can still reach it,
    as enumerate_folded_paths does.
    """
    word, starts, aheads = _walk_setup(group, word, end)
    frontier = dict.fromkeys(starts, (1,))
    for j, ahead in zip(word, aheads):
        frontier = count_step(group, frontier, j, ahead)
    # a count's leading coefficient is its number of top-dimensional paths,
    # so sums never cancel at the top and need no trimming
    return {group.element(v): CountPolynomial(count) for v, count in frontier.items()}


class Cell(Frozen):
    """All folded paths of one type sharing an endpoint."""

    __slots__ = __match_args__ = ("paths", "count")
    paths: tuple[FoldedPath, ...]
    count: CountPolynomial

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(p.dimension for p in self.paths)


def cells_by_endpoint(
    group: AffineWeylGroup, word: Sequence[int], end: AffineWeylElement | None = None
) -> dict[AffineWeylElement, Cell]:
    """Group folded paths by endpoint, in canonical endpoint order; with
    `end` only its cell, if any path reaches it."""
    grouped: dict[AffineWeylElement, list[FoldedPath]] = {}
    for path in enumerate_folded_paths(group, word, end):
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
