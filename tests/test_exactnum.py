"""Exact number tower: combinatorics, surd arithmetic, float rendering."""

from __future__ import annotations

import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from chainbrackets import exactnum
from chainbrackets.exactnum import (
    DomainError,
    GaussianRational,
    SurdSumError,
    SurdValue,
    binomial,
    double_factorial,
    pochhammer,
    rational,
    rational_sqrt,
    sqrt_to_float,
)


@pytest.mark.parametrize("m, expected", [(0, 1), (-1, 1), (7, 105), (1, 1), (6, 48), (10, 3840)])
def test_double_factorial_values(m, expected):
    assert double_factorial(m) == expected


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(DomainError):
        double_factorial(-2)
    with pytest.raises(DomainError):
        double_factorial(-3)


def test_double_factorial_matches_a_loop_reference():
    for m in range(-1, 201):
        expected, k = 1, m
        while k > 1:
            expected *= k
            k -= 2
        assert double_factorial(m) == expected, m
    for m in (-2, -5):
        with pytest.raises(DomainError, match=rf"^double factorial undefined for {m} < -1$"):
            double_factorial(m)


def test_double_factorial_recurrence_and_identities():
    for m in range(1, 40):
        assert double_factorial(m) == m * double_factorial(m - 2)
    for m in range(0, 25):
        assert double_factorial(2 * m) == 2**m * math.factorial(m)
        assert double_factorial(2 * m - 1) * double_factorial(2 * m) == math.factorial(2 * m)


@pytest.mark.parametrize(
    "a, k, expected",
    [
        (rational(1, 2), 0, rational(1)),
        (rational(1, 2), 3, rational(15, 8)),
        (rational(-2), 3, rational(0)),
        (5, 4, rational(1680)),
    ],
)
def test_pochhammer_values(a, k, expected):
    assert pochhammer(a, k) == expected


def test_pochhammer_recurrence():
    for num in range(-6, 7):
        a = rational(num, 2)
        for k in range(6):
            assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


@pytest.mark.parametrize(
    "top, bottom, expected", [(5, 2, 10), (3, 0, 1), (2, 5, 0), (4, -1, 0), (0, 0, 1)]
)
def test_binomial_values(top, bottom, expected):
    assert binomial(top, bottom) == expected


def test_surd_mul_examples():
    assert SurdValue.sqrt(rational(1, 2)) * SurdValue.sqrt(2) == SurdValue.one()
    minus_three = -SurdValue.sqrt(3) * SurdValue.sqrt(3)
    assert minus_three == SurdValue(-1, 9)
    assert minus_three.rational_value() == -3
    assert SurdValue.zero() * SurdValue.sqrt(5) == SurdValue.zero()


def test_surd_scale_examples():
    assert SurdValue.sqrt(3).scale(rational(-1, 2)) == SurdValue(-1, rational(3, 4))
    assert SurdValue.sqrt(5).scale(0) == SurdValue.zero()
    assert SurdValue(-1, rational(1, 4)).scale(2) == SurdValue(-1, 1)


def test_surd_mul_commutative_associative():
    values = [
        SurdValue.zero(),
        SurdValue.one(),
        -SurdValue.sqrt(rational(2, 3)),
        SurdValue.sqrt(rational(5, 7)),
        SurdValue(-1, rational(9, 4)),
    ]
    for a in values:
        for b in values:
            assert a * b == b * a
            for c in values:
                assert (a * b) * c == a * (b * c)


def test_surd_add_compatible_and_incompatible():
    a = SurdValue.sqrt(rational(1, 3))
    b = SurdValue.sqrt(rational(4, 3))
    assert a + b == SurdValue.sqrt(3)
    assert a + (-a) == SurdValue.zero()
    assert SurdValue.zero() + a == a
    with pytest.raises(SurdSumError):
        a + SurdValue.sqrt(rational(1, 2))


def test_surd_of_rational_and_inverse():
    assert SurdValue.of_rational(rational(-1, 2)) == SurdValue(-1, rational(1, 4))
    assert SurdValue.of_rational(0) == SurdValue.zero()
    v = SurdValue(-1, rational(4, 9))
    assert v.inverse() * v == SurdValue.one()
    with pytest.raises(ZeroDivisionError):
        SurdValue.zero().inverse()


def test_surd_invariants_enforced():
    with pytest.raises(DomainError):
        SurdValue(0, 1)
    with pytest.raises(DomainError):
        SurdValue(1, 0)
    with pytest.raises(DomainError):
        SurdValue(2, 1)
    with pytest.raises(DomainError):
        SurdValue.sqrt(-1)


@pytest.mark.parametrize(
    "sign, radicand",
    [
        (2, 1),
        (-2, rational(1, 4)),
        (1, -1),
        (-1, rational(-1, 3)),
        (0, 1),
        (0, rational(1, 2)),
        (1, 0),
        (-1, rational(0)),
    ],
    ids=[
        "sign-int", "sign-rational", "negative-int", "negative-rational",
        "zero-sign-int", "zero-sign-rational", "zero-radicand-int", "zero-radicand-rational",
    ],
)
def test_each_surd_invariant_raises_for_int_and_rational_radicands(sign, radicand):
    with pytest.raises(DomainError):
        SurdValue(sign, radicand)


def test_surd_zero_is_shared_and_int_embedding_matches_rational():
    assert SurdValue.zero() is SurdValue.zero() is SurdValue.of_rational(0)
    for q in (-7, -1, 1, 12, 10**30):
        assert SurdValue.of_rational(q) == SurdValue.of_rational(rational(q))
        assert type(SurdValue.of_rational(q).radicand) is type(rational(1))


def _surd_sum_by_fraction(x: SurdValue, y: SurdValue) -> SurdValue:
    """Reference sum through the Fraction square root of the radicand ratio."""
    ratio = Fraction(x.radicand) / Fraction(y.radicand)
    root = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
    if root * root != ratio:
        raise SurdSumError("not a square")
    coeff = x.sign * root + y.sign
    return SurdValue((coeff > 0) - (coeff < 0), coeff * coeff * Fraction(y.radicand))


def test_surd_add_matches_a_fraction_reference_on_seeded_radicands():
    # one radicand of the ratio is a square and the other is not
    for x, y in ((1, 2), (2, 1), (rational(9, 4), 3), (5, rational(1, 16))):
        with pytest.raises(SurdSumError, match="radicand ratio is not a perfect rational square"):
            SurdValue.sqrt(x) + SurdValue.sqrt(y)
    rng = random.Random(77)
    zeros = raised = 0
    for _ in range(3000):
        base = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        a = Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 10**4))
        b = -a if rng.random() < 0.1 else Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 10**4))
        x = SurdValue.of_rational(a) * SurdValue.sqrt(base)
        if rng.random() < 0.2:  # an unlike radicand: the ratio is rarely a square
            y = SurdValue.sqrt(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)))
        else:
            y = SurdValue.of_rational(b) * SurdValue.sqrt(base)
        if x.is_zero or y.is_zero:
            assert x + y == (y if x.is_zero else x)
            continue
        try:
            want = _surd_sum_by_fraction(x, y)
        except SurdSumError:
            raised += 1
            with pytest.raises(SurdSumError, match="radicand ratio is not a perfect rational square"):
                x + y
            continue
        got = x + y
        assert got == want
        zeros += got.is_zero
    assert zeros > 100 and raised > 100


def test_rational_sqrt():
    assert rational_sqrt(rational(4, 9)) == rational(2, 3)
    assert rational_sqrt(rational(0)) == 0
    assert rational_sqrt(rational(2, 3)) is None
    assert rational_sqrt(rational(18, 2)) == 3


def test_sqrt_to_float_is_correctly_rounded():
    samples = [rational(1, 3), rational(2, 3), rational(9, 4), rational(1), rational(7, 11)]
    samples += [rational(p, q) for p in (1, 3, 17, 121) for q in (2, 5, 64, 997)]
    for r in samples:
        x = sqrt_to_float(r)
        if rational_sqrt(r) is not None:
            assert Fraction(x) ** 2 == r
            continue
        lo = math.nextafter(x, -math.inf)
        hi = math.nextafter(x, math.inf)
        mid_lo = (Fraction(lo) + Fraction(x)) / 2
        mid_hi = (Fraction(x) + Fraction(hi)) / 2
        assert mid_lo**2 <= r <= mid_hi**2


def _mantissa_even(x: float) -> bool:
    return struct.unpack("<Q", struct.pack("<d", x))[0] & 1 == 0


def _nearer_by_fraction_midpoint(a: float, b: float, q) -> float:
    """Reference rounding: compare q with the squared Fraction midpoint of a <= b."""
    if a == b:
        return a
    mid = (Fraction(a) + Fraction(b)) / 2
    mid_sq = mid * mid
    if q < mid_sq:
        return a
    if q > mid_sq:
        return b
    return a if _mantissa_even(a) else b


def _reference_pick(q, x: float) -> float:
    """The neighbour of x (or x itself) that the Fraction-midpoint reference picks for sqrt(q)."""
    lo = max(0.0, math.nextafter(x, -math.inf))
    hi = math.nextafter(x, math.inf)
    best = _nearer_by_fraction_midpoint(lo, x, q)
    if hi != math.inf:
        best = _nearer_by_fraction_midpoint(best, hi, q)
    return best


def test_integer_rounding_decision_matches_fraction_midpoint_on_ties():
    doubles = [5e-324, 2.2250738585072014e-308, 1e-150, 0.1, 1.0, 1.5, 3.0, 2.0**52, 1e150, 1e300]
    for x in doubles:
        for a in (math.nextafter(x, -math.inf), x):
            b = math.nextafter(a, math.inf)
            mid_sq = ((Fraction(a) + Fraction(b)) / 2) ** 2
            for q in (mid_sq, mid_sq * (1 - Fraction(1, 10**40)), mid_sq * (1 + Fraction(1, 10**40))):
                q = rational(q.numerator, q.denominator)
                x_q = sqrt_to_float(q)
                assert x_q in (a, b)
                assert x_q == _nearer_by_fraction_midpoint(a, b, q) == _reference_pick(q, x_q)
            tie = sqrt_to_float(rational(mid_sq.numerator, mid_sq.denominator))
            assert _mantissa_even(tie)


def test_integer_rounding_decision_matches_fraction_midpoint_on_seeded_radicands():
    # 10**+-640 reaches subnormal results and radicands on both sides of overflow
    threshold_sq = (Fraction(sys.float_info.max) + Fraction(2) ** 970) ** 2
    rng = random.Random(2024)
    overflowed = subnormal = 0
    for _ in range(2500):
        mantissa = rational(rng.randrange(1, 10**17), rng.randrange(1, 10**17))
        q = mantissa * rational(10) ** rng.randint(-640, 640)
        x = sqrt_to_float(q)
        if x == math.inf:
            assert q >= threshold_sq
            overflowed += 1
            continue
        subnormal += x < sys.float_info.min
        assert x == _reference_pick(q, x)
    assert overflowed and subnormal


def test_sqrt_to_float_at_the_overflow_threshold():
    big = Fraction(sys.float_info.max)
    assert sqrt_to_float(big**2) == sys.float_info.max
    assert SurdValue(1, big**2).to_float() == sys.float_info.max
    assert SurdValue(-1, big**2).to_float() == -sys.float_info.max
    assert sqrt_to_float(4 * big**2) == math.inf
    # the first double past max is 2**1024; its midpoint with max is the overflow threshold
    threshold = big + Fraction(2) ** 970
    assert sqrt_to_float(threshold**2 - 1) == sys.float_info.max
    assert sqrt_to_float(threshold**2) == math.inf


def test_surd_render():
    v = SurdValue(-1, rational(1, 3))
    assert v.render() == "-sqrt(1/3)"
    assert v.to_float() == -0.5773502691896257
    assert SurdValue.zero().render() == "0"
    assert SurdValue.one().render() == "+sqrt(1)"


def test_gaussian_rational_arithmetic():
    a = GaussianRational(rational(1), rational(2))
    b = GaussianRational(rational(1, 2), rational(-1))
    assert a * b == GaussianRational(rational(5, 2), rational(0))
    assert a + b == GaussianRational(rational(3, 2), rational(1))
    assert a - b == GaussianRational(rational(1, 2), rational(3))
    assert a.is_zero is False
    assert (a - a).is_zero
    assert hash(a * b) == hash(GaussianRational(rational(5, 2), rational(0)))
    assert repr(b) == "GaussianRational(1/2, -1)"



def test_rational_is_fraction():
    assert rational is Fraction
    assert exactnum.current_backend() == "fractions"
    assert type(SurdValue(1, 2).radicand) is Fraction
