from fractions import Fraction

import pytest

from ultrafree.linalg import SingularMatrixError, fraction_rank, invert_matrix, solve_linear

F = Fraction


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def test_solve_linear_needs_a_row_swap():
    # the leading zero forces a pivot search below the diagonal
    matrix = [[F(0), F(2), F(1)], [F(1), F(1), F(0)], [F(3), F(0), F(1, 2)]]
    rhs = [F(1), F(2), F(3)]
    x = solve_linear(matrix, rhs)
    assert all(isinstance(v, Fraction) for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs


def test_solve_linear_integer_input_stays_exact():
    assert solve_linear([[2, 0], [0, 3]], [1, 1]) == [F(1, 2), F(1, 3)]


def test_invert_matrix_round_trip():
    matrix = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(-1)], [F(2), F(0), F(3)]]
    inverse = invert_matrix(matrix)
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert _matmul(matrix, inverse) == identity
    assert _matmul(inverse, matrix) == identity


def test_empty_system():
    assert solve_linear([], []) == []
    assert invert_matrix([]) == []
    assert fraction_rank([]) == 0


@pytest.mark.parametrize("call", [lambda m: solve_linear(m, [F(1)] * 3), invert_matrix])
def test_singular_matrix_raises(call):
    # third row is the sum of the first two
    matrix = [[F(1), F(2), F(3)], [F(0), F(1), F(1)], [F(1), F(3), F(4)]]
    with pytest.raises(SingularMatrixError):
        call(matrix)


def test_shape_errors():
    with pytest.raises(ValueError):
        solve_linear([[F(1), F(0)]], [F(1)])
    with pytest.raises(ValueError):
        solve_linear([[F(1)]], [F(1), F(2)])
    with pytest.raises(ValueError):
        invert_matrix([[F(1), F(2)]])


@pytest.mark.parametrize(
    "matrix, rank",
    [
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 2),
        ([[0, 0], [0, 0]], 0),
        ([[1, 0, 1, 0], [0, 1, 0, 1]], 2),
        ([[1, 2], [2, 4], [3, 6]], 1),
        ([[F(1, 3), 1], [1, 3], [0, 1]], 2),
    ],
)
def test_fraction_rank(matrix, rank):
    assert fraction_rank(matrix) == rank
    assert fraction_rank([list(col) for col in zip(*matrix)]) == rank
