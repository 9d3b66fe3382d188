"""Exact number tower: big-integer combinatorics, Gaussian rationals, quadratic surds.

Every coefficient produced by this package is of the form
sign * sqrt(nonnegative rational), so the value domain is closed under the
operations provided here and no floating point enters any computation.
Floats exist only as a rendering of the exact result.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "DomainError",
    "SurdSumError",
    "GaussianRational",
    "SurdValue",
    "current_backend",
    "rational",
    "rational_sqrt",
    "sqrt_to_float",
    "double_factorial",
    "factorial",
    "binomial",
    "pochhammer",
]

factorial = math.factorial

# The one exact rational type: rational(num, den) is num/den in lowest terms
# with a positive denominator, and its parts are ints.
rational = Fraction


def current_backend() -> str:
    """Name of the exact rational type; kept for callers that record it."""
    return "fractions"


class DomainError(ValueError):
    """An argument left the domain the formulas are defined on."""


class SurdSumError(ArithmeticError):
    """A sum of surds left the representable domain sign * sqrt(rational)."""


def double_factorial(m: int) -> int:
    """m!! with the conventions (-1)!! = 0!! = 1; m < -1 is rejected loudly."""
    if m < -1:
        raise DomainError(f"double factorial undefined for {m} < -1")
    return math.prod(range(m, 1, -2))


def binomial(top: int, bottom: int) -> int:
    """C(top, bottom); returns 0 when bottom < 0 or bottom > top."""
    if top < 0:
        raise DomainError(f"binomial needs top >= 0, got {top}")
    if bottom < 0 or bottom > top:
        return 0
    return math.comb(top, bottom)


def pochhammer(a, k: int):
    """Rising product a (a+1) ... (a+k-1); exact for rational a, 1 for k = 0."""
    if k < 0:
        raise DomainError(f"pochhammer needs k >= 0, got {k}")
    result = rational(1)
    term = rational(a)
    for _ in range(k):
        result *= term
        term += 1
    return result


def signed_half_power(e: int):
    """(-1/2)**e as an exact rational, valid for negative e as well."""
    if e >= 0:
        return rational((-1) ** e, 2**e)
    return rational((-2) ** (-e))


def rational_sqrt(q):
    """Exact square root of a rational if it is a perfect square, else None."""
    num, den = q.numerator, q.denominator
    if num < 0:
        return None
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return rational(rn, rd)
    return None


def sqrt_to_float(q) -> float:
    """Correctly rounded double of sqrt(q) for rational q >= 0 (ties to even).

    With s chosen so that t = isqrt(q * 4**s) has at least 55 bits, an inexact
    root is rounded to odd (sticky low bit set): the sticky bit then lies
    below the rounding bit of any double, so the correctly rounded int true
    division t / 2**s rounds sqrt(q) correctly, subnormals included.
    """
    num, den = q.numerator, q.denominator
    if num < 0:
        raise DomainError("sqrt of a negative rational")
    if num == 0:
        return 0.0
    s = max(0, (112 - num.bit_length() + den.bit_length()) // 2)
    m, rem = divmod(num << (2 * s), den)
    t = math.isqrt(m)
    if rem or t * t != m:
        t |= 1
    try:
        return t / (1 << s)
    except OverflowError:
        return math.inf


class GaussianRational:
    """Complex number with exact rational real and imaginary parts: the value `inner` returns."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


class SurdValue:
    """Exact value sign * sqrt(radicand) with sign in {-1, 0, +1}.

    The radicand equals the square of the value, so (sign, radicand) is a
    canonical form and equality of the pair is equality of values.  Addition
    is defined only when the two radicands have a rational square ratio;
    every formula in this package is factored so that restriction never
    bites (rational k-sum times a single surd prefactor).
    """

    __slots__ = ("sign", "radicand")

    def __init__(self, sign: int, radicand):
        if type(radicand) is not Fraction:
            radicand = Fraction(radicand)
        if sign not in (-1, 0, 1):
            raise DomainError(f"surd sign must be -1, 0 or +1, got {sign}")
        num = radicand.numerator  # a Fraction's denominator is positive
        if num < 0:
            raise DomainError("surd radicand must be nonnegative")
        if (sign == 0) != (num == 0):
            raise DomainError("surd sign is 0 exactly when the radicand is 0")
        self.sign = sign
        self.radicand = radicand

    @classmethod
    def zero(cls) -> "SurdValue":
        """The shared zero; surds are never mutated, so one instance serves every caller."""
        return _SURD_ZERO

    @classmethod
    def one(cls) -> "SurdValue":
        return cls(1, rational(1))

    @classmethod
    def sqrt(cls, q) -> "SurdValue":
        """The nonnegative square root +sqrt(q) of a rational q >= 0."""
        q = rational(q)
        if q < 0:
            raise DomainError("sqrt of a negative rational")
        return cls(1 if q > 0 else 0, q)

    @classmethod
    def of_rational(cls, q) -> "SurdValue":
        """Exact embedding of a rational: sign(q) * sqrt(q**2)."""
        if type(q) is int:
            return cls((q > 0) - (q < 0), rational(q * q)) if q else _SURD_ZERO
        q = rational(q)
        if q > 0:
            return cls(1, q * q)
        if q < 0:
            return cls(-1, q * q)
        return _SURD_ZERO

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SurdValue") -> "SurdValue":
        return SurdValue(self.sign * other.sign, self.radicand * other.radicand)

    def scale(self, q) -> "SurdValue":
        """Product with an exact rational q, staying in surd form."""
        q = rational(q)
        if not q or self.sign == 0:
            return SurdValue.zero()
        sign = self.sign if q > 0 else -self.sign
        return SurdValue(sign, q * q * self.radicand)

    def __neg__(self) -> "SurdValue":
        return SurdValue(-self.sign, self.radicand)

    def inverse(self) -> "SurdValue":
        if self.sign == 0:
            raise ZeroDivisionError("inverse of zero surd")
        return SurdValue(self.sign, 1 / self.radicand)

    def __add__(self, other: "SurdValue") -> "SurdValue":
        """Sum of two surds whose radicands have a rational square ratio, on integers.

        With radicands n1/d1 and n2/d2 and g = gcd(n1 d2, n2 d1), the ratio is
        a square exactly when n1 d2 / g = a**2 and n2 d1 / g = b**2; then the
        sum is c sqrt(g / (d1 d2)) with c = sign1 a + sign2 b.
        """
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        r1, r2 = self.radicand, other.radicand
        n1, d1 = r1.numerator, r1.denominator
        n2, d2 = r2.numerator, r2.denominator
        p, q = n1 * d2, n2 * d1
        g = math.gcd(p, q)
        p //= g
        q //= g
        a, b = math.isqrt(p), math.isqrt(q)
        if a * a != p or b * b != q:
            raise SurdSumError(
                f"cannot add sqrt({r1}) and sqrt({r2}): "
                "radicand ratio is not a perfect rational square"
            )
        c = self.sign * a + other.sign * b
        if not c:
            return _SURD_ZERO
        return SurdValue(1 if c > 0 else -1, rational(c * c * g, d1 * d2))

    def __sub__(self, other: "SurdValue") -> "SurdValue":
        return self + (-other)

    def rational_value(self):
        """The exact rational value if the radicand is a perfect square, else None."""
        root = rational_sqrt(self.radicand)
        if root is None:
            return None
        return self.sign * root

    def to_float(self) -> float:
        return self.sign * sqrt_to_float(self.radicand)

    def render(self) -> str:
        """Exact text form, e.g. '-sqrt(1/3)' or '0'."""
        if self.sign == 0:
            return "0"
        prefix = "+" if self.sign > 0 else "-"
        return f"{prefix}sqrt({self.radicand})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurdValue):
            return NotImplemented
        return self.sign == other.sign and self.radicand == other.radicand

    def __hash__(self):
        return hash((self.sign, self.radicand))

    def __repr__(self) -> str:
        return f"SurdValue({self.render()})"


_SURD_ZERO = SurdValue(0, rational(0))
