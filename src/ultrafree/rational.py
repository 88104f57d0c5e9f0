"""Exact rational parsing and dyadic (power-of-two) helpers.

Every quantity in this package is a :class:`fractions.Fraction`.  Floats are
rejected at the boundary so that equality assertions stay decidable.
"""

from __future__ import annotations

import operator
from fractions import Fraction

__all__ = ["parse_rational", "is_power_of_two", "dyadic_floor", "dyadic_exponent"]


def parse_rational(value: object) -> Fraction:
    """Convert an int, Fraction, or string ("7", "3/4", "0.75") to a Fraction.

    Floats are refused: a binary float does not carry the decimal the user
    wrote, so accepting one would silently lose exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass a string such as '3/4' or '0.75'")
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def _index(value: object) -> int:
    """``operator.index(value)``, so never a truncated float: anything else raises TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"expected an integer index, got {type(value).__name__} {value!r}") from None


def _rationals(values) -> tuple[Fraction, ...]:
    """:func:`parse_rational` of each value, passing Fractions through without parsing them again."""
    # the exact type: isinstance of the ABC Fraction is slow on anything else
    return tuple(x if type(x) is Fraction else parse_rational(x) for x in values)


def _rational_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    """:func:`_rationals` of each row, parsing each distinct string entry once.

    The memo is local to the call and keyed on ``str`` entries only: 1,
    True, 1.0 and Fraction(1) compare equal and hash alike, so a broader key
    would let a bool or a float through after an equal int.
    """
    parsed: dict[str, Fraction] = {}

    def rational(x: object) -> Fraction:
        if type(x) is not str:
            return parse_rational(x)
        if x not in parsed:
            parsed[x] = parse_rational(x)
        return parsed[x]

    return tuple(tuple(x if type(x) is Fraction else rational(x) for x in row) for row in rows)


def is_power_of_two(q: Fraction) -> bool:
    """True iff q == 2**k for some integer k (negative k allowed)."""
    if q <= 0:
        return False
    num, den = q.numerator, q.denominator
    return num & (num - 1) == 0 and den & (den - 1) == 0


def dyadic_floor(q: Fraction) -> Fraction:
    """Largest power of two <= q, from the bit lengths and one exact comparison.

    With a and b the bit lengths of the numerator and the denominator,
    2**(a-b-1) < q < 2**(a-b+1), so the answer is 2**(a-b) when
    2**(a-b) <= q and 2**(a-b-1) otherwise.  Never touches logarithms.
    """
    if q <= 0:
        raise ValueError(f"dyadic_floor needs a positive value, got {q}")
    num, den = q.numerator, q.denominator
    k = num.bit_length() - den.bit_length()
    below = num < den << k if k >= 0 else num << -k < den  # q < 2**k
    if below:
        k -= 1
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def dyadic_exponent(q: Fraction) -> int:
    """The integer k with q == 2**k; raises if q is not a power of two."""
    if not is_power_of_two(q):
        raise ValueError(f"{q} is not a power of two")
    return q.numerator.bit_length() - q.denominator.bit_length()
