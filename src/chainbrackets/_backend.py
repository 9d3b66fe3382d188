"""Exact rational backend: GMP-backed gmpy2.mpq when importable, else fractions.Fraction.

Both types expose .numerator/.denominator, hash and compare equal for equal
values, and mix freely in arithmetic, so results are bit-identical under
either backend — only speed differs.  The benchmark module times both.
"""

from __future__ import annotations

from fractions import Fraction

try:
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - gmpy2 is optional
    _gmpy2 = None

_BACKENDS = {"fractions": Fraction}
if _gmpy2 is not None:
    _BACKENDS["gmpy2"] = _gmpy2.mpq

# Every rational type this module can construct; values of these need no conversion.
RATIONAL_TYPES = tuple(_BACKENDS.values())

_name = "gmpy2" if _gmpy2 is not None else "fractions"
_make = _BACKENDS[_name]


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def current_backend() -> str:
    return _name


def set_backend(name: str) -> None:
    """Switch the rational constructor.  Values from both backends interoperate."""
    global _name, _make
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown rational backend {name!r}; available: {available_backends()}"
        )
    _name = name
    _make = _BACKENDS[name]


def rational(num=0, den=1):
    """Exact rational num/den in lowest terms with positive denominator."""
    return _make(num, den)
