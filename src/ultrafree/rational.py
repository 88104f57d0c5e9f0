"""Exact rational parsing and dyadic (power-of-two) helpers.

Every quantity in this package is a :class:`fractions.Fraction`.  Floats are
rejected at the boundary so that equality assertions stay decidable.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional

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


# (scale, rows): a matrix of rationals rows[i][j] / scale, all over one denominator
_Scaled = tuple[int, tuple[tuple[int, ...], ...]]


def _integer_rows(keys, exact: dict) -> _Scaled:
    """The integer view of the matrix whose entry (i, j) is ``exact[keys[i][j]]``, each value scaled once.

    ``exact`` maps each distinct key of the rows ``keys`` to its Fraction.
    The scale is the lcm of the denominators of those values, so it is the
    lcm of the denominators of every entry; each value becomes one integer
    on that scale, and the integer rows are read off ``keys`` by lookup.
    """
    scale = lcm(*(q.denominator for q in exact.values()))
    scaled = {key: q.numerator * (scale // q.denominator) for key, q in exact.items()}
    return scale, tuple(tuple(map(scaled.__getitem__, row)) for row in keys)


def _rational_rows(rows) -> tuple[tuple[tuple[Fraction, ...], ...], Optional[_Scaled]]:
    """:func:`_rationals` of each row, parsing each distinct string entry once, and the integer view when it comes free.

    Rows of exact Fractions come back without a view, as given when they
    are a tuple of tuples already, else as one.  Rows whose every
    entry is a string, as a JSON or CSV file gives them, are parsed one
    distinct string at a time in reading order, so the first bad entry is
    named; both the Fraction rows and the view (:func:`_integer_rows`) are
    then read off the strings by lookup.  Any other rows are read entry by
    entry with a memo that is local to the call and keyed on ``str``
    entries only: 1, True, 1.0 and Fraction(1) compare equal and hash
    alike, so a broader key would let a bool or a float through after an
    equal int; their view is left to be computed when it is asked for.
    """
    if not (type(rows) is tuple and {*map(type, rows)} <= {tuple}):
        rows = tuple(map(tuple, rows))
    types = {*map(type, chain.from_iterable(rows))}
    if types <= {Fraction}:
        return rows, None
    if types == {str}:
        exact = {x: parse_rational(x) for x in dict.fromkeys(chain.from_iterable(rows))}
        return tuple(tuple(map(exact.__getitem__, row)) for row in rows), _integer_rows(rows, exact)
    parsed: dict[str, Fraction] = {}

    def rational(x: object) -> Fraction:
        if type(x) is not str:
            return parse_rational(x)
        if x not in parsed:
            parsed[x] = parse_rational(x)
        return parsed[x]

    return tuple(tuple(x if type(x) is Fraction else rational(x) for x in row) for row in rows), None


def is_power_of_two(q: Fraction) -> bool:
    """True iff q == 2**k for some integer k (negative k allowed)."""
    return _is_power_of_two_over(q.numerator, q.denominator)


def _is_power_of_two_over(num: int, den: int) -> bool:
    """:func:`is_power_of_two` of num / den, for a positive den; the two need not be coprime."""
    if num <= 0:
        return False
    common = gcd(num, den)
    num, den = num // common, den // common
    return num & (num - 1) == 0 and den & (den - 1) == 0


def dyadic_floor(q: Fraction) -> Fraction:
    """Largest power of two <= q, from the bit lengths and one exact comparison.

    With a and b the bit lengths of a numerator and a denominator of q,
    2**(a-b-1) < q < 2**(a-b+1), so the answer is 2**(a-b) when
    2**(a-b) <= q and 2**(a-b-1) otherwise.  Never touches logarithms.
    """
    if q <= 0:
        raise ValueError(f"dyadic_floor needs a positive value, got {q}")
    return _power_of_two_below(q.numerator, q.denominator)


def _power_of_two_below(num: int, den: int) -> Fraction:
    """:func:`dyadic_floor` of num / den for positive integers, which need not be coprime."""
    k = num.bit_length() - den.bit_length()
    below = num < den << k if k >= 0 else num << -k < den  # num / den < 2**k
    if below:
        k -= 1
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def dyadic_exponent(q: Fraction) -> int:
    """The integer k with q == 2**k; raises if q is not a power of two."""
    if not is_power_of_two(q):
        raise ValueError(f"{q} is not a power of two")
    return q.numerator.bit_length() - q.denominator.bit_length()
