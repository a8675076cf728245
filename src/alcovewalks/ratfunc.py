"""Exact scalar fields and Laurent polynomials in one variable t.

Two scalar fields are supported: the rationals (ints and
fractions.Fraction) and prime fields F_p.  No floating point is used
anywhere.

The matrix layer works in the loop group SL_n(F[t, t^-1]), so its
entries are Laurent polynomials: finite sums c_k t^k with k of either
sign.  A RationalFunction (the name is historical) is such an element,
stored as a sparse {exponent: coefficient} map without zero
coefficients.  A field's scalar is the coefficient its Laurent
polynomials store.  Over QQ it is an int when the value is integral and
a Fraction with denominator > 1 otherwise, so the +-1 entries of the
generators multiply as plain ints; over F_p it is an int residue 0..p-1.
Each field has one coercion into that canonical form, `of`, and one scalar
inverse, `inv`.  Only the units c * t^k can be inverted; the inverse of
anything else raises ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Mapping, Union


def _qq(c: int | Fraction) -> int | Fraction:
    """The rational c in the form QQ.of gives."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class RationalField:
    """Marker object for exact rationals."""

    characteristic = 0

    def of(self, value) -> int | Fraction:
        """Coerce an int, bool or Fraction: an int when integral, else a
        Fraction with denominator > 1."""
        if isinstance(value, Fraction):
            return _qq(value)
        if isinstance(value, int):
            return int(value)
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    def inv(self, c: int | Fraction) -> int | Fraction:
        """1 / c; raises ZeroDivisionError for c = 0."""
        return _qq(Fraction(1, c))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field with p elements, p prime; its scalars are the residues 0..p-1."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def of(self, value) -> int:
        """Coerce an int or Fraction to its residue."""
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def inv(self, c: int) -> int:
        """The residue of 1 / c; raises ZeroDivisionError for c = 0."""
        if not c % self.p:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return pow(c, -1, self.p)

    def elements(self):
        return tuple(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


Field = Union[RationalField, PrimeField]
QQ = RationalField()


class RationalFunction:
    """Element sum c_k t^k of the Laurent ring F[t, t^-1].

    `terms` maps each exponent to its nonzero coefficient and is never
    mutated after construction.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms

    def _reduced(self, terms: dict) -> "RationalFunction":
        """Drop zero coefficients (after reduction mod p over F_p) and store
        integral rationals as ints."""
        p = self.field.characteristic
        if p:
            return RationalFunction(
                self.field, {k: r for k, c in terms.items() if (r := c % p)}
            )
        return RationalFunction(self.field, {k: _qq(c) for k, c in terms.items() if c})

    @staticmethod
    def of(field: Field, value) -> "RationalFunction":
        c = field.of(value)
        return RationalFunction(field, {0: c} if c else {})

    @staticmethod
    def t_power(field: Field, k: int) -> "RationalFunction":
        return RationalFunction(field, {k: field.of(1)})

    @staticmethod
    def from_laurent(field: Field, terms: Mapping[int, object]) -> "RationalFunction":
        """Build sum of c * t^k from a {k: c} mapping (k may be negative)."""
        return RationalFunction(
            field, {k: c for k, v in terms.items() if (c := field.of(v))}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.terms == other.terms and (self.field is other.field or self.field == other.field)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._reduced(out)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return self._reduced(out)

    def __neg__(self) -> "RationalFunction":
        return self._reduced({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # times a unit c * t^k: no coefficient can cancel
            ((j, y),) = b.items()
            p = self.field.characteristic
            if y == 1:
                if not j:
                    # times 1: the other operand, whose terms are never mutated
                    return self if a is self.terms else other
                return RationalFunction(self.field, {i + j: x for i, x in a.items()})
            if len(a) == 1:
                ((i, x),) = a.items()
                return RationalFunction(self.field, {i + j: x * y % p if p else _qq(x * y)})
            if p:
                if y == p - 1:
                    return RationalFunction(self.field, {i + j: p - x for i, x in a.items()})
                return RationalFunction(self.field, {i + j: x * y % p for i, x in a.items()})
            if y == -1:
                return RationalFunction(self.field, {i + j: -x for i, x in a.items()})
            return RationalFunction(self.field, {i + j: _qq(x * y) for i, x in a.items()})
        if not b:
            return RationalFunction(self.field, {})
        out: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return self._reduced(out)

    def inverse(self) -> "RationalFunction":
        """Inverse of a unit c * t^k; anything else raises ZeroDivisionError."""
        if len(self.terms) != 1:
            raise ZeroDivisionError(f"{self} is not a unit of F[t, t^-1]")
        ((k, c),) = self.terms.items()
        return RationalFunction(self.field, {-k: self.field.inv(c)})

    def __pow__(self, k: int) -> "RationalFunction":
        out = RationalFunction.of(self.field, 1)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out * base
        return out

    def valuation(self) -> int | None:
        """t-adic valuation; None for the zero function."""
        return min(self.terms) if self.terms else None

    def coeff(self, i: int):
        """Coefficient of t^i, a scalar of the field."""
        c = self.terms.get(i)
        return self.field.of(0) if c is None else c

    def is_unit_monomial(self) -> bool:
        """Of the form c * t^k with c a nonzero scalar."""
        return len(self.terms) == 1

    def __repr__(self) -> str:
        return f"RationalFunction({self.field!r}, {self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            cs = str(self.terms[k])
            if k == 0:
                parts.append(cs)
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                parts.append(tpow if cs == "1" else f"{cs}*{tpow}")
        return " + ".join(parts)
