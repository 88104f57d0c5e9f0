import random
from fractions import Fraction

import pytest

from ultrafree.rational import dyadic_exponent, dyadic_floor, is_power_of_two, parse_rational

from _oracles import loop_dyadic_floor


def test_parse_forms():
    assert parse_rational(3) == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.75") == Fraction(3, 4)
    assert parse_rational(" 7 ") == 7
    assert parse_rational(Fraction(-2, 5)) == Fraction(-2, 5)


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        parse_rational(0.75)
    with pytest.raises(TypeError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("three")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1024), Fraction(1, 4096)])
def test_powers_of_two(q):
    assert is_power_of_two(q)


@pytest.mark.parametrize("q", [Fraction(3, 4), Fraction(0), Fraction(-2), Fraction(3), Fraction(2, 3)])
def test_non_powers_of_two(q):
    assert not is_power_of_two(q)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(3), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(3, 4), Fraction(1, 2)),
        (Fraction(5, 3), Fraction(1)),
        (Fraction(1, 3), Fraction(1, 4)),
        (Fraction(1023), Fraction(512)),
    ],
)
def test_dyadic_floor(value, expected):
    floor = dyadic_floor(value)
    assert floor == expected
    assert floor <= value < 2 * floor


def test_dyadic_floor_matches_the_doubling_loop():
    rng = random.Random(3)
    powers = [Fraction(2) ** k for k in range(-80, 81)]
    just_below = [p - Fraction(1, 2**90) for p in powers] + [p * Fraction(2**61 - 1, 2**61) for p in powers]
    huge = [Fraction(rng.getrandbits(rng.randint(1, 200)) + 1, rng.getrandbits(rng.randint(1, 200)) + 1)
            for _ in range(2000)]
    coprime = [Fraction(10**40 + 1, 10**39 - 1), Fraction(3**50, 2**79), Fraction(2**79, 3**50), Fraction(1, 3**60)]
    for q in powers + just_below + huge + coprime:
        assert dyadic_floor(q) == loop_dyadic_floor(q), q


def test_dyadic_floor_rejects_nonpositive():
    with pytest.raises(ValueError):
        dyadic_floor(Fraction(0))


def test_dyadic_exponent():
    assert dyadic_exponent(Fraction(8)) == 3
    assert dyadic_exponent(Fraction(1)) == 0
    assert dyadic_exponent(Fraction(1, 8)) == -3
    with pytest.raises(ValueError):
        dyadic_exponent(Fraction(3))
