import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultrafree.simplex import (
    LpError,
    LpInfeasibleError,
    LpUnboundedError,
    dense_columns,
    solve_lp,
)

from _oracles import feasible_basis, lp_vertex_minimum


def _solve_dense(costs, rows, rhs, basis=None):
    return solve_lp(
        [Fraction(c) for c in costs],
        dense_columns([[Fraction(x) for x in row] for row in rows]),
        [Fraction(b) for b in rhs],
        basis=basis,
    )


def test_simple_equality():
    # min x + 2y  s.t.  x + y = 1
    res = _solve_dense([1, 2], [[1, 1]], [1])
    assert res.value == 1
    assert res.x == (1, 0)
    assert res.dual == (1,)


def test_two_constraints():
    # min x + 3y + z  s.t.  x + y = 2, y + z = 1; unique optimum at y = 0
    res = _solve_dense([1, 3, 1], [[1, 1, 0], [0, 1, 1]], [2, 1])
    assert res.value == 3
    assert res.x == (2, 0, 1)


def test_negative_rhs_handled():
    # min x + y  s.t.  -x - y = -1  (same as x + y = 1)
    res = _solve_dense([1, 1], [[-1, -1]], [-1])
    assert res.value == 1


def test_infeasible():
    # x = -1 with x >= 0
    with pytest.raises(LpInfeasibleError):
        _solve_dense([1], [[1]], [-1])


def test_unbounded():
    # min -x  s.t.  x - y = 0: push x = y -> infinity
    with pytest.raises(LpUnboundedError):
        _solve_dense([-1, 0], [[1, -1]], [0])


def test_redundant_row_dropped():
    # duplicated constraint row; solvable, duals consistent
    res = _solve_dense([1, 1], [[1, 1], [1, 1]], [1, 1])
    assert res.value == 1
    assert sum(res.dual) == 1


def test_warm_basis_matches_cold():
    res_cold = _solve_dense([3, 1, 4], [[1, 1, 0], [0, 1, 1]], [1, 1])
    res_warm = _solve_dense([3, 1, 4], [[1, 1, 0], [0, 1, 1]], [1, 1], basis=[0, 2])
    assert res_cold.value == res_warm.value == 1


def test_bad_warm_basis_rejected():
    with pytest.raises(LpError):
        _solve_dense([1, 1], [[1, 1]], [1], basis=[0, 1])


def test_random_instances_certified():
    # random feasible instances: b = A x0 with x0 >= 0, nonnegative costs
    rng = random.Random(0)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(2, 7)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        rhs = [sum(row[j] * x0[j] for j in range(n)) for row in rows]
        costs = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        res = _solve_dense(costs, rows, rhs)
        baseline = sum(c * x for c, x in zip(costs, x0))
        assert res.value <= baseline  # x0 is feasible, optimum can only improve
        assert sum(y * b for y, b in zip(res.dual, rhs)) == res.value


def test_redundant_row_whose_artificial_moved():
    # the last row is redundant; Bland's rule re-enters an artificial in
    # another row, so the constraint to drop is the one whose artificial
    # stays basic, not the one at that tableau position
    rows = [[0, 3, 3, -2], [-2, -2, 2, 1], [1, 3, -3, 2], [3, -3, -3, -2], [-4, -1, 7, 0]]
    res = _solve_dense([5, 0, 4, 3], rows, [7, -1, 5, -11, 5])
    assert res.value == 7
    assert res.x == (0, 2, 1, 1)


_entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def _programs(draw):
    """Small programs: coprime denominators, signed data, sometimes a redundant row."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(_entries)
        rows.append([x + k * y for x, y in zip(rows[a], rows[b])])
    if draw(st.booleans()):
        x0 = [abs(draw(_entries)) for _ in range(n)]
        rhs = [sum(r * x for r, x in zip(row, x0)) for row in rows]
    else:
        rhs = [draw(_entries) for _ in rows]
    costs = [draw(_entries) for _ in range(n)]
    return costs, rows, rhs


@settings(max_examples=200, deadline=None)
@given(program=_programs())
def test_matches_basic_solution_enumeration(program):
    costs, rows, rhs = program
    status, value = lp_vertex_minimum(costs, rows, rhs)
    if status == "infeasible":
        with pytest.raises(LpInfeasibleError):
            _solve_dense(costs, rows, rhs)
        return
    basis = feasible_basis(rows, rhs)
    for start in [None] if basis is None else [None, basis]:
        if status == "unbounded":
            with pytest.raises(LpUnboundedError):
                _solve_dense(costs, rows, rhs, basis=start)
        else:
            assert _solve_dense(costs, rows, rhs, basis=start).value == value
