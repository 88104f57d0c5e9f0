from fractions import Fraction

import pytest

from ultrafree.metric import FiniteMetricSpace


@pytest.fixture
def triangle():
    """Three points: two unit sides, short side 1/2; ultrametric and dyadic."""
    half = Fraction(1, 2)
    return FiniteMetricSpace(
        ("0", "x", "y"),
        ((0, 1, 1), (1, 0, half), (1, half, 0)),
    )


@pytest.fixture
def equilateral():
    """Three points, all distances 1 (tie-breaking exercises)."""
    return FiniteMetricSpace(
        ("0", "x", "y"),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    )


@pytest.fixture
def collinear():
    """Coordinates 0, 1, 2 with the absolute-value metric; not ultrametric."""
    return FiniteMetricSpace(
        ("0", "1", "2"),
        ((0, 1, 2), (1, 0, 1), (2, 1, 0)),
    )


@pytest.fixture
def four_cluster():
    """Four points: d(a,b)=1/4, d(a,c)=d(b,c)=1/2, everything to base is 1."""
    q = Fraction(1, 4)
    h = Fraction(1, 2)
    return FiniteMetricSpace(
        ("0", "a", "b", "c"),
        ((0, 1, 1, 1), (1, 0, q, h), (1, q, 0, h), (1, h, h, 0)),
    )


@pytest.fixture
def lopsided():
    """The triangle with d(0, y) lowered to 3/4: a metric, not an ultrametric."""
    return FiniteMetricSpace(
        ("0", "x", "y"),
        ((0, 1, Fraction(3, 4)), (1, 0, Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2), 0)),
    )
