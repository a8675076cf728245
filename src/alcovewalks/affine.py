"""Affine roots, the affine Weyl group, and its words.

The group is the semidirect product of coroot-lattice translations with
the finite Weyl group; elements are stored as (translation, finite part)
pairs and multiply by t_lam u . t_mu v = t_{lam + u mu} (uv).

Only real affine roots (finite root plus an integer multiple of delta)
exist here; the two positivity sets are

    iwahori set:  positive finite part with k >= 0, or negative with k > 0
    uminus set:   negative finite part, any k

The hot loops (the counting DP, path enumeration, the reduced-word
descent) work on raw alcove states (translation.coords, finite.perm)
instead of elements.  AffineWeylGroup.step, read from a table built once
per group, is the one place where s_j acts on a raw state; the forced
test and the descent test read the same table.
"""

from __future__ import annotations

from operator import itemgetter, mul, sub
from typing import Iterable, Sequence

from .cartan import (
    CartanDatum,
    Coweight,
    FiniteRoot,
    FiniteWeylElement,
    Frozen,
    _set,
    coweight_image,
    simple_root,
    zero_coweight,
)

Word = tuple[int, ...]

# Longest word parse_word and element_from_json accept, checked before the
# letters are read.  The counting DP's cost grows polynomially with the
# length, in a degree that grows with the rank: `count` on a 64-letter
# translation word takes about 0.2 s in A2 (1,539 cells), 0.9 s in C3 and
# 2.3 s in A3 (17,162 cells), and `paths` about 1 s in A2 (4,945 paths),
# under CPython 3.11 on a 2-core Xeon.
MAX_WORD_LENGTH = 64

# the raw state of t_lam w: (lam.coords, w.perm)
AlcoveState = tuple[tuple[int, ...], tuple[int, ...]]


class WordError(ValueError):
    """A word uses letters outside 0..n or violates a reducedness guard."""


# The two internal errors every command maps to exit 3.  They live here,
# in a module every command loads; `loopgroup` raises them too.
class NormalizationError(RuntimeError):
    """The Iwahori coset normalization found no (or no unique) solution."""


class InvariantError(RuntimeError):
    """A computation broke one of its invariants: a validated executor run,
    or a reduced-word descent that found no descent."""


class AffineRoot(Frozen):
    """A real affine root: finite root plus k copies of delta."""

    __slots__ = __match_args__ = ("finite", "k")
    finite: FiniteRoot
    k: int

    def __init__(self, finite: FiniteRoot, k: int):
        _set(self, "finite", finite)
        _set(self, "k", k)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(-self.finite, -self.k)


def is_iwahori_positive(beta: AffineRoot) -> bool:
    """Membership in the set indexing root subgroups of the Iwahori subgroup."""
    if beta.finite.is_positive():
        return beta.k >= 0
    return beta.k > 0


def is_uminus_positive(beta: AffineRoot) -> bool:
    """Membership in the set indexing root subgroups of U minus."""
    return beta.finite.is_negative()


class AffineWeylElement(Frozen):
    """Pair (translation coweight, finite Weyl part)."""

    __slots__ = __match_args__ = ("translation", "finite")
    translation: Coweight
    finite: FiniteWeylElement

    def __init__(self, translation: Coweight, finite: FiniteWeylElement):
        _set(self, "translation", translation)
        _set(self, "finite", finite)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.translation == other.translation and self.finite == other.finite
        return NotImplemented

    def __hash__(self) -> int:
        # hash((translation, finite)), with the fields' hash((coords,)) and
        # hash((perm,)) inlined: the same value without two method calls
        return hash(((self.translation.coords,), (self.finite.perm,)))

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        translation = self.translation
        if not other.translation.is_zero():
            translation = translation + self.finite.act_coweight(other.translation)
        return AffineWeylElement(translation, self.finite * other.finite)

    def inverse(self) -> "AffineWeylElement":
        winv = self.finite.inverse()
        return AffineWeylElement(-winv.act_coweight(self.translation), winv)

    def is_identity(self) -> bool:
        return self.translation.is_zero() and self.finite.is_identity()

    def act(self, beta: AffineRoot) -> AffineRoot:
        """t_lam w sends mu + k delta to w mu + (k - <lam, w mu>) delta."""
        mu, pairing = self.finite.act_root_paired(beta.finite, self.translation)
        return AffineRoot(mu, beta.k - pairing)


class AffineWeylGroup:
    """Context object for one irreducible finite-type datum.

    Provides the simple affine reflections s_0..s_n and word/length
    machinery driven by the iwahori-positivity descent test.  The alcove
    geometry that pictures the group in rank <= 2 lives in `render`.
    """

    def __init__(self, datum: CartanDatum):
        if not datum.is_irreducible():
            raise ValueError("affine Weyl group needs an irreducible datum")
        self.datum = datum
        self.rank = datum.size
        self.highest_root = datum.highest_root()
        self.highest_coroot = datum.coroot(self.highest_root)
        self._simple_roots = (AffineRoot(-self.highest_root, 1),) + tuple(
            AffineRoot(simple_root(self.rank, i), 0) for i in range(1, self.rank + 1)
        )
        s_phi = datum.reflection(self.highest_root)
        self._simple_reflections = (
            AffineWeylElement(self.highest_coroot, s_phi),
        ) + tuple(
            AffineWeylElement(zero_coweight(self.rank), datum.simple_reflection(i))
            for i in range(1, self.rank + 1)
        )
        tables = datum.root_tables
        self._roots = tables.roots
        self._negative = tables.negative
        self._coroots = tables.coroots
        self._pairing = tables.pairing
        self._simple = tables.simple
        self._opposite = tuple(tables.index[(-alpha).coords] for alpha in self._roots)
        # the step table: per letter j, the gather w -> w s_j on root
        # permutations, the position of alpha_j's finite part, and k_j
        self._steps = tuple(
            (itemgetter(*s.finite.perm), tables.index[alpha.finite.coords], alpha.k)
            for s, alpha in zip(self._simple_reflections, self._simple_roots)
        )
        self._identity_state = self.state(self.identity())
        # element_to_json's finite words by permutation, at most |W| of them
        self._finite_words: dict[tuple[int, ...], Word] = {}

    # -- raw alcove states ---------------------------------------------------

    @staticmethod
    def state(g: AffineWeylElement) -> AlcoveState:
        return g.translation.coords, g.finite.perm

    def inverse_state(self, g: AffineWeylElement) -> AlcoveState:
        """The state of g^{-1} = t_{-w^{-1} lam} w^{-1} for g = t_lam w,
        without building g^{-1}."""
        winv = g.finite.inverse().perm
        lam = coweight_image(self.datum.root_tables, winv, g.translation.coords)
        return tuple([-c for c in lam]), winv

    def element(self, state: AlcoveState) -> AffineWeylElement:
        t, w = state
        return AffineWeylElement(Coweight(t), FiniteWeylElement(self.datum, w))

    def step(self, state: AlcoveState, j: int) -> AlcoveState:
        """The state of g s_j from the state of g, for a letter j in 0..n.

        s_j = t_{-k_j h} s with h the coroot of alpha_j's finite part, so
        the finite part gathers and, for j = 0, the translation loses
        w h = h_{w(-theta)}: the coroot at w's image of alpha_0's position.
        """
        t, w = state
        gather, pos, k = self._steps[j]
        if k:
            t = tuple(map(sub, t, self._coroots[w[pos]]))
        return t, gather(w)

    def sends_to_uminus(self, state: AlcoveState, j: int) -> bool:
        """Whether g alpha_j is uminus-positive: its finite part w alpha_j
        is negative, whatever the translation does to its delta part."""
        return self._negative[state[1][self._steps[j][1]]]

    def uminus_wall(self, state: AlcoveState, j: int) -> tuple[int, int]:
        """The uminus-positive one of +-g alpha_j, as the position of its
        finite part and its delta coefficient: two ints that determine the
        root, for affine_root to build.  t_lam w sends alpha + k delta to
        w alpha + (k - <lam, w alpha>) delta."""
        t, w = state
        _, pos, k = self._steps[j]
        r = w[pos]
        k -= sum(map(mul, t, self._pairing[r]))
        return (r, k) if self._negative[r] else (self._opposite[r], -k)

    def affine_root(self, wall: tuple[int, int]) -> AffineRoot:
        """The root of a (position, delta coefficient) pair from uminus_wall."""
        r, k = wall
        return AffineRoot(self._roots[r], k)

    def _descends(self, state: AlcoveState, i: int) -> bool:
        """Whether g alpha_i fails iwahori positivity (i is a right descent
        of g): its delta coefficient is negative, or zero on a negative root."""
        t, w = state
        _, pos, k = self._steps[i]
        r = w[pos]
        return k - sum(map(mul, t, self._pairing[r])) < self._negative[r]

    # -- generators ------------------------------------------------------

    def identity(self) -> AffineWeylElement:
        return AffineWeylElement(zero_coweight(self.rank), self.datum.identity_weyl())

    def simple_affine_root(self, i: int) -> AffineRoot:
        self._check_letter(i)
        return self._simple_roots[i]

    def simple_reflection(self, i: int) -> AffineWeylElement:
        self._check_letter(i)
        return self._simple_reflections[i]

    def _check_letter(self, i: int) -> None:
        if not 0 <= i <= self.rank:
            raise WordError(f"letter {i} out of range 0..{self.rank}")

    # -- words and length --------------------------------------------------

    def from_word(self, word: Sequence[int]) -> AffineWeylElement:
        state = self._identity_state
        for i in word:
            self._check_letter(i)
            state = self.step(state, i)
        return self.element(state)

    def length(self, g: AffineWeylElement) -> int:
        return len(self.reduced_word(g))

    def _tail_key(self, state: AlcoveState) -> tuple[int, ...]:
        """The translation of the state followed by the positions its finite
        part sends the simple roots to: 2n ints that determine the state,
        since a Weyl element is determined by its images of the simple roots."""
        t, w = state
        return t + tuple([w[r] for r in self._simple])

    def reduced_word(
        self, g: AffineWeylElement, tails: dict[tuple[int, ...], Word] | None = None
    ) -> Word:
        """Lexicographically smallest reduced word, by greedy left descent.
        Such canonical words are prefix-closed: a prefix u of the word uv of
        g is the word of its own element, or a smaller reduced word u' of it
        would make u'v a smaller reduced word of g.

        The descent test is: i is a left descent iff g^{-1} alpha_i fails
        iwahori positivity.  Removing the descent replaces g^{-1} by
        g^{-1} s_i, so only the inverse is tracked, as a raw state.

        The word of s_i g is the rest of the word of g, so words computed
        together share tails: `tails` maps the _tail_key of the state of
        h^{-1} to the word of h for every h already passed, and the descent
        stops at the first one.  Keys are 2n ints where a state holds a
        whole root permutation, so the states passed are not kept.
        """
        if tails is None:
            tails = {}
        letters = range(self.rank + 1)
        word: list[int] = []
        passed: list[tuple[int, ...]] = []
        state = self.inverse_state(g)
        key = self._tail_key(state)
        while key not in tails and state != self._identity_state:
            for i in letters:
                if self._descends(state, i):
                    break
            else:  # impossible for genuine group elements
                raise InvariantError("no descent found for a non-identity element")
            passed.append(key)
            word.append(i)
            state = self.step(state, i)
            key = self._tail_key(state)
        tail = tails.get(key, ())
        for k, hinv in enumerate(passed):
            tails[hinv] = tuple(word[k:]) + tail
        return tuple(word) + tail

    def is_reduced(self, word: Sequence[int]) -> bool:
        return len(word) == self.length(self.from_word(word))

    def right_descents(self, g: AffineWeylElement) -> tuple[int, ...]:
        state = self.state(g)
        return tuple(i for i in range(self.rank + 1) if self._descends(state, i))

    def canonical_words(
        self, elements: Iterable[AffineWeylElement]
    ) -> dict[AffineWeylElement, Word]:
        """Each element's reduced word, in canonical order: shorter words
        first, then lexicographically.  One reduced_word call per element,
        so callers that print the words reuse them instead of recomputing."""
        tails: dict[tuple[int, ...], Word] = {}
        words = [(g, self.reduced_word(g, tails)) for g in elements]
        words.sort(key=lambda item: (len(item[1]), item[1]))
        return dict(words)


# ---------------------------------------------------------------------------
# JSON-facing serialization helpers


def element_to_json(group: AffineWeylGroup, g: AffineWeylElement) -> dict:
    """g = t_lam w as its translation lam and the lexicographically
    smallest reduced word of w.  All reduced words of an element use the
    same letters, so those of the finite w have no letter 0 and the word is
    the reduced word of t_0 w; it is kept per group by w's permutation."""
    perm = g.finite.perm
    word = group._finite_words.get(perm)
    if word is None:
        finite = AffineWeylElement(zero_coweight(group.rank), g.finite)
        word = group._finite_words[perm] = group.reduced_word(finite)
    return {"translation": list(g.translation.coords), "finite_word": list(word)}


def element_from_json(group: AffineWeylGroup, data: dict) -> AffineWeylElement:
    """Inverse of element_to_json; anything but two lists of ints raises WordError."""
    if not isinstance(data, dict):
        raise WordError("endpoint JSON must be an object")
    for key in ("translation", "finite_word"):
        value = data.get(key)
        # JSON true/false load as bools, which are ints to isinstance
        if not isinstance(value, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in value
        ):
            raise WordError(f"endpoint JSON needs {key!r} as a list of integers")
    translation = Coweight(tuple(data["translation"]))
    if len(translation.coords) != group.rank:
        raise WordError("translation has wrong rank")
    _check_length(len(data["finite_word"]))
    word = tuple(data["finite_word"])
    if any(not 1 <= i <= group.rank for i in word):
        raise WordError(f"finite word letters must lie in 1..{group.rank}")
    return AffineWeylElement(translation, group.datum.weyl_from_word(word))


def affine_root_to_json(beta: AffineRoot) -> list:
    return [list(beta.finite.coords), beta.k]


def _check_length(letters: int) -> None:
    if letters > MAX_WORD_LENGTH:
        raise WordError(f"word of {letters} letters exceeds the maximum length {MAX_WORD_LENGTH}")


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        return ()
    _check_length(text.count(",") + 1)
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise WordError(f"cannot parse word {text!r}: letters must be integers") from exc
