from fractions import Fraction

import pytest

from ultrafree import linalg
from ultrafree.ell1 import edge_molecules, l1_equivalence_constants
from ultrafree.linalg import SingularMatrixError, invert_matrix, solve_linear
from ultrafree.metric import CertificationError, random_ultrametric
from ultrafree.rtree import dendrogram

from _oracles import fraction_rank

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


def test_invert_matrix_checks_the_product_with_its_matrix(monkeypatch):
    # entry (1, 0) of the eliminated inverse raised by 1/2: row 0 of A against column 0 of it gives 5/4
    real = linalg._solve_square

    def corrupted(matrix, rhs_rows):
        inverse = real(matrix, rhs_rows)
        inverse[1][0] += F(1, 2)
        return inverse

    monkeypatch.setattr(linalg, "_solve_square", corrupted)
    matrix = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(-1)], [F(2), F(0), F(3)]]
    with pytest.raises(CertificationError, match=r"^the inverse fails A A\^-1 = I at entry \(0, 0\): 5/4, not 1$"):
        invert_matrix(matrix)
    # the general route of the l1 constants inverts its family, and so meets the same check
    tree = dendrogram(random_ultrametric(4, 2))
    family = edge_molecules(tree)
    with pytest.raises(CertificationError, match=r"^the inverse fails A A\^-1 = I at entry \(1, 0\): 2, not 0$"):
        l1_equivalence_constants(family.space, family)


def test_solve_linear_checks_each_row_of_its_solution(monkeypatch):
    # x_1 of the eliminated solution (1, 1, 1) raised by 1/2: row 0 of A x gives 1 + 3/4 = 7/4, not the 3/2 of b
    real = linalg._solve_square

    def corrupted(matrix, rhs_rows):
        solution = real(matrix, rhs_rows)
        solution[1][0] += F(1, 2)
        return solution

    monkeypatch.setattr(linalg, "_solve_square", corrupted)
    matrix = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(-1)], [F(2), F(0), F(3)]]
    with pytest.raises(CertificationError, match=r"^the solution fails A x = b at row 0: 7/4, not 3/2$"):
        solve_linear(matrix, [F(3, 2), F(0), F(5)])
