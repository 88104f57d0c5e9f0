"""Small exact linear algebra over the rationals (internal helpers)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .metric import CertificationError


class SingularMatrixError(ValueError):
    pass


def _reduce(rows: list[list[Fraction]], ncols: int) -> int:
    """Gauss-Jordan in place, pivoting in the first ``ncols`` columns; returns the rank.

    Pivot rows are scaled to 1 and cleared above and below, so a square
    block of full rank ends as the identity and any columns to its right
    carry the solved right-hand sides.
    """
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pval = rows[rank][col]
        if pval != 1:
            rows[rank] = [x / pval for x in rows[rank]]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * p if p else a for a, p in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _solve_square(matrix: Sequence[Sequence[Fraction]], rhs_rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Reduce [matrix | rhs] and return the right-hand block of the solution."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    aug = [[Fraction(x) for x in row] + list(extra) for row, extra in zip(matrix, rhs_rows)]
    if _reduce(aug, n) < n:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in aug]


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square system exactly by Gaussian elimination.

    The solution is certified before it is returned: A x = b must hold row
    by row, in O(n^2); the first row that fails raises
    :class:`CertificationError` naming it.
    """
    if len(rhs) != len(matrix):
        raise ValueError("system must be square with matching right-hand side")
    x = [row[0] for row in _solve_square(matrix, [[Fraction(b)] for b in rhs])]
    for i, (row, b) in enumerate(zip(matrix, rhs)):
        value = sum((a * y for a, y in zip(row, x) if a and y), Fraction(0))
        if value != b:
            raise CertificationError(f"the solution fails A x = b at row {i}: {value}, not {Fraction(b)}")
    return x


def invert_matrix(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises SingularMatrixError if singular.

    The inverse is certified before it is returned: A A^-1 must be the
    identity, entry by entry, in O(n^3) like the elimination; the first
    entry that differs, row by row, raises :class:`CertificationError`
    naming it.
    """
    n = len(matrix)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inverse = _solve_square(matrix, identity)
    columns = list(zip(*inverse))
    for i, row in enumerate(matrix):
        for j, column in enumerate(columns):
            entry = sum((a * b for a, b in zip(row, column) if a and b), Fraction(0))
            if entry != (i == j):
                raise CertificationError(f"the inverse fails A A^-1 = I at entry ({i}, {j}): {entry}, not {int(i == j)}")
    return inverse
