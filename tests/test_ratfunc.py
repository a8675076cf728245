import random
import time
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest

from alcovewalks.ratfunc import PrimeField, QQ, RationalFunction

from helpers import is_canonical


def test_prime_field_validation():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(7).p == 7
    with pytest.raises(TypeError):
        PrimeField(7.0)


@pytest.mark.parametrize("huge", [2**1024, 10**400], ids=["2^1024", "10^400"])
def test_huge_composite_is_rejected_without_a_float(huge):
    # the trial-division bound is an integer square root: p ** 0.5 overflows
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(huge)


def test_large_primes_are_decided_at_once():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert PrimeField(10**12 + 39).p == 10**12 + 39
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_pseudoprimes_are_rejected(n):
    # Carmichael numbers, and the least strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(n)


def test_primality_agrees_with_trial_division():
    for n in range(-2, 20_000):
        prime = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        try:
            assert PrimeField(n).p == n and prime
        except ValueError:
            assert not prime


def test_primality_beyond_the_miller_rabin_bound_is_refused():
    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to the twelve bases, so from there on the test is not exact
    for n in (318665857834031151167461, 2**89 - 1):
        with pytest.raises(ValueError, match="318665857834031151167461"):
            PrimeField(n)


def test_fp_field_coercion():
    # a scalar of F_p is the int residue 0..p-1 its Laurent polynomials store
    f5 = PrimeField(5)
    assert f5.of(-1) == 4 and f5.of(-10) == 0 and f5.of(12) == 2
    assert f5.of(Fraction(1, 2)) == 3  # 2^{-1} = 3 mod 5
    assert f5.of(Fraction(-7, 3)) == 1  # -7 * 3^{-1} = 3 * 2 mod 5
    for value in (-1, 7, Fraction(1, 2), Fraction(10, 3)):
        assert type(f5.of(value)) is int
    with pytest.raises(ZeroDivisionError):
        f5.of(Fraction(1, 10))
    # anything but an int is read by its numerator and denominator
    for value in (1.5, "7", Decimal("1.5"), 2 + 0j):
        with pytest.raises(TypeError):
            f5.of(value)
    assert f5.of(True) == 1 and type(f5.of(True)) is int
    assert f5.elements() == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_inverse(p):
    field = PrimeField(p)
    for c in range(1, p):
        assert field.inv(c) * c % p == 1
        assert 0 <= field.inv(c) < p
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_rational_inverse():
    assert QQ.inv(Fraction(-5, 3)) == Fraction(-3, 5)
    assert QQ.inv(QQ.of(2)) == Fraction(1, 2)
    assert type(QQ.inv(QQ.of(7))) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.of(0))


def test_polynomial_trim_and_degree():
    # trailing and leading zero coefficients are dropped; the lowest exponent
    # left is the valuation and the highest is the degree
    p = RationalFunction.from_laurent(QQ, {0: 1, 1: 2, 2: 0, 3: 0})
    assert p.terms == {0: Fraction(1), 1: Fraction(2)}
    assert max(p.terms) == 1 and p.valuation() == 0
    assert RationalFunction.from_laurent(QQ, {0: 0}).is_zero()
    assert RationalFunction.from_laurent(QQ, {}).terms == {}
    assert RationalFunction.from_laurent(QQ, {0: 0, 1: 0, 2: 3}).valuation() == 2
    assert RationalFunction.from_laurent(QQ, {-4: 0, -1: 5, 2: 0}).terms == {-1: Fraction(5)}
    assert RationalFunction.from_laurent(QQ, {}).valuation() is None


def test_rational_function_normalization():
    # the canonical form: no zero coefficients, over QQ an int when integral
    # and a Fraction with denominator > 1 otherwise, residues 0..p-1 over
    # F_p, so equal elements compare and hash equal
    f = RationalFunction.from_laurent(
        QQ, {-1: 0, 0: 1, 1: Fraction(4, 2), 2: Fraction(-3, 6), 3: 0}
    )
    assert f.terms == {0: 1, 1: 2, 2: Fraction(-1, 2)}
    assert [type(f.terms[k]) for k in (0, 1, 2)] == [int, int, Fraction]
    assert all(is_canonical(c, QQ) for c in f.terms.values())
    for value, want in ((True, 1), (False, 0), (Fraction(4, 2), 2), (-3, -3)):
        assert type(QQ.of(value)) is int and QQ.of(value) == want
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    half = RationalFunction.of(QQ, Fraction(1, 2))
    for product in (half * RationalFunction.of(QQ, 2), RationalFunction.of(QQ, 2) * half):
        assert product.terms == {0: 1} and type(product.terms[0]) is int
    assert type((half + half).terms[0]) is int
    assert hash(RationalFunction.of(QQ, Fraction(6, 3))) == hash(RationalFunction.of(QQ, 2))
    assert RationalFunction.from_laurent(QQ, {2: 0}).is_zero()
    assert RationalFunction.from_laurent(QQ, {}) == RationalFunction.of(QQ, 0)
    f5 = PrimeField(5)
    g = RationalFunction.from_laurent(f5, {-2: 7, 0: 5, 1: f5.of(4), 2: Fraction(1, 2)})
    assert g.terms == {-2: 2, 1: 4, 2: 3}
    assert all(type(c) is int for c in g.terms.values())
    t = RationalFunction.t_power(QQ, 1)
    one = RationalFunction.of(QQ, 1)
    assert (one + t) - t == one
    assert hash((one + t) - t) == hash(one)
    assert ((one + t) - t).terms == {0: 1}
    assert RationalFunction.of(QQ, 2) != RationalFunction.of(f5, 2)


def _random_laurent(rng, field):
    return RationalFunction.from_laurent(
        field, {k: rng.randint(-4, 4) for k in range(rng.randint(-3, 1), rng.randint(-1, 4))}
    )


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_field_laws_on_samples(field):
    # ring laws of F[t, t^-1] on seeded samples, plus the inverse of units
    rng = random.Random(11)
    samples = [_random_laurent(rng, field) for _ in range(12)]
    zero = RationalFunction.of(field, 0)
    one = RationalFunction.of(field, 1)
    for f in samples:
        assert f + zero == f and f * one == f and (f * zero).is_zero()
        assert f - f == zero
        assert f + (-f) == zero
        for g in samples[:6]:
            assert f + g == g + f
            assert f * g == g * f
            assert (f - g) + g == f
            for h in samples[:3]:
                assert (f + g) + h == f + (g + h)
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                assert f * (g - h) == f * g - f * h
    t = RationalFunction.t_power(field, 1)
    for c in (1, 2, 3, 4):
        for k in (-3, 0, 2):
            unit = RationalFunction.of(field, c) * t ** k
            assert unit.inverse() * unit == one
            for f in samples[:4]:
                assert (f * unit) * unit.inverse() == f


def test_non_unit_inverse_raises():
    for field in (QQ, PrimeField(3)):
        t = RationalFunction.t_power(field, 1)
        one = RationalFunction.of(field, 1)
        for f in (one + t, one - t, t ** -1 + t, RationalFunction.of(field, 0)):
            with pytest.raises(ZeroDivisionError):
                f.inverse()
            with pytest.raises(ZeroDivisionError):
                f ** -1


def test_valuation():
    t = RationalFunction.t_power(QQ, 1)
    one = RationalFunction.of(QQ, 1)
    assert (t ** 3 * (one + t)).valuation() == 3
    assert (t ** 2).inverse().valuation() == -2
    assert (t ** -2 + t).valuation() == -2
    assert RationalFunction.of(QQ, 0).valuation() is None
    rng = random.Random(3)
    for _ in range(20):
        f, g = _random_laurent(rng, QQ), _random_laurent(rng, QQ)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).valuation() == f.valuation() + g.valuation()


def test_from_laurent_round_trip():
    terms = {-2: Fraction(1, 6), 0: Fraction(1, 2), 3: Fraction(-5)}
    f = RationalFunction.from_laurent(QQ, terms)
    for k in range(-4, 6):
        assert f.coeff(k) == terms.get(k, Fraction(0))
    assert f.valuation() == -2


def test_unit_monomial_and_constant():
    t = RationalFunction.t_power(QQ, 1)
    one = RationalFunction.of(QQ, 1)
    assert (t ** -3).is_unit_monomial()
    assert (RationalFunction.of(QQ, -5) * t).is_unit_monomial()
    assert not (one + t).is_unit_monomial()
    assert not RationalFunction.of(QQ, 0).is_unit_monomial()
    assert RationalFunction.of(QQ, Fraction(5, 3)).terms == {0: Fraction(5, 3)}
    assert RationalFunction.of(QQ, 0).terms == {}
    assert (one + t).terms == {0: Fraction(1), 1: Fraction(1)}
    assert t.terms == {1: Fraction(1)}


def test_pow_negative():
    t = RationalFunction.t_power(QQ, 1)
    assert t ** -2 == RationalFunction.t_power(QQ, -2)
    unit = RationalFunction.of(QQ, 2) * t
    assert unit ** 2 * unit ** -2 == RationalFunction.of(QQ, 1)
    assert unit ** -1 == RationalFunction.from_laurent(QQ, {-1: Fraction(1, 2)})
    with pytest.raises(ZeroDivisionError):
        (RationalFunction.of(QQ, 2) + t) ** -1


def test_prime_field_rational_functions():
    f3 = PrimeField(3)
    t = RationalFunction.t_power(f3, 1)
    one = RationalFunction.of(f3, 1)
    f = (one + t) * (one + t) * (one + t)
    # freshman's dream in characteristic 3
    assert f == one + t ** 3


def test_str():
    f = RationalFunction.from_laurent(QQ, {-2: Fraction(1, 6), 0: 1, 1: 1, 3: -5})
    assert str(f) == "1/6*t^-2 + 1 + t + -5*t^3"
    assert str(RationalFunction.of(PrimeField(5), 0)) == "0"


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
def test_product_with_one_is_the_other_operand(field):
    one = RationalFunction.of(field, 1)
    cases = [
        RationalFunction.of(field, 0),
        RationalFunction.from_laurent(field, {-2: 2}),
        RationalFunction.from_laurent(field, {-1: 1, 0: 2, 3: 1}),
        one,
    ]
    for f in cases:
        terms = dict(f.terms)
        for product in (f * one, one * f):
            assert product == f and product.field == field
        assert f.terms == terms  # neither operand was mutated
        assert one.terms == {0: 1}
    # a unit other than 1 still multiplies
    two = RationalFunction.of(field, 2)
    assert (two * cases[2]).terms == {k: field.of(2 * c) for k, c in cases[2].terms.items()}


def convolve(field, f: dict, g: dict) -> dict:
    """The terms of the product of two {exponent: coefficient} maps, by the
    schoolbook sum, reduced in the field with zero coefficients dropped."""
    out: dict = {}
    for i, x in f.items():
        for j, y in g.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, v in out.items() if (c := field.of(v))}


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=["QQ", "F2", "F3", "F5"]
)
def test_products_by_plus_and_minus_t_powers(field):
    # over F_2, -t^k is t^k; over F_p, -1 is stored as p - 1
    cases = [{}, {0: 1}, {0: -1}, {3: 2}, {-2: 1, 0: 2, 1: -1, 4: 3}, {-1: 3, 2: 4}]
    if field == QQ:
        cases.append({-1: Fraction(1, 2), 3: Fraction(-5, 3)})
    for terms in cases:
        f = RationalFunction.from_laurent(field, terms)
        f_terms = {k: field.of(c) for k, c in terms.items()}
        for k in (-2, 0, 1, 3):
            for sign in (1, -1):
                unit = RationalFunction.from_laurent(field, {k: sign})
                want = convolve(field, f_terms, {k: sign})
                for product in (f * unit, unit * f):
                    assert product.terms == want and product.field == field, (terms, k, sign)
                    assert all(c and is_canonical(c, field) for c in product.terms.values())
        assert f.terms == {k: c for k, c in f_terms.items() if c}  # f was not mutated
