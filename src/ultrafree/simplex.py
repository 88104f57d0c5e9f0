"""Exact two-phase simplex for linear programs in standard equality form.

    minimize c.x   subject to   A x = b,  x >= 0

The solver pivots on a fraction-free integer tableau.  Each row of A is
scaled by the lcm of its denominators, the right-hand side by one common
lcm and the costs by theirs, so the data become integers; the tableau is
then kept as an integer matrix T with one positive common denominator
``det``, T/det being the rational tableau, and every pivot is an exact
integer elimination (Edmonds, Bareiss) whose division by ``det`` leaves no
remainder.  Positive scalings change no sign and no ratio, so Bland's rule
takes exactly the pivots it would take over :class:`fractions.Fraction`,
and it terminates on every input.  Columns are supplied sparsely as
(row, coefficient) pairs because the transport programs solved here have
two nonzeros per column; results are returned as Fractions.

Every result is self-certified before it is returned: the primal point is
re-checked feasible against the original Fraction data, the dual point
dual-feasible, and the two objective values equal.  A failed certificate
raises, it is never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .linalg import SingularMatrixError, solve_linear

SparseColumn = Sequence[tuple[int, Fraction]]

_MAX_PIVOTS = 200_000


class LpError(RuntimeError):
    """Internal solver failure (bad basis, broken certificate)."""


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    pass


@dataclass(frozen=True)
class LpResult:
    x: tuple[Fraction, ...]
    value: Fraction
    dual: tuple[Fraction, ...]


def solve_lp(
    costs: Sequence[Fraction],
    columns: Sequence[SparseColumn],
    rhs: Sequence[Fraction],
    basis: Optional[Sequence[int]] = None,
) -> LpResult:
    """Solve min c.x, A x = b, x >= 0 exactly.

    ``basis`` may name column indices of a known feasible basis, in which
    case phase one is skipped.  Raises :class:`LpInfeasibleError` /
    :class:`LpUnboundedError` accordingly.
    """
    m, n = len(rhs), len(costs)
    if len(columns) != n:
        raise ValueError("one column per cost coefficient required")

    rows, scales, rhs_scale = _integer_rows(columns, rhs, m, n)
    if basis is not None:
        base = list(basis)
        det = _tableau_from_basis(rows, base, m)
        kept = list(range(m))
    else:
        base, det, kept = _phase_one(rows, scales, m, n)

    cost_scale = lcm(*(c.denominator for c in costs))
    int_costs = [c.numerator * (cost_scale // c.denominator) for c in costs]
    rows.append(_reduced_costs(int_costs, rows, base, det))
    det = _optimize(rows, base, det)
    rows.pop()

    x = [Fraction(0)] * n
    for i, var in enumerate(base):
        x[var] = Fraction(rows[i][-1], det * rhs_scale)
    value = sum((costs[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    dual = _dual_solution(costs, columns, base, kept, m)
    _certify(costs, columns, rhs, x, value, dual)
    return LpResult(tuple(x), value, tuple(dual))


# -- internals ---------------------------------------------------------------
#
# A tableau is a list of integer rows, each ending in its right-hand side,
# with a common denominator ``det > 0``; the basic column of row i holds
# ``det`` in row i and 0 elsewhere.  While the simplex runs, the last row is
# the reduced-cost row, scaled by ``det`` times the cost scale.


def _integer_rows(columns: Sequence[SparseColumn], rhs: Sequence[Fraction], m: int, n: int):
    """Integer rows [s_i A_i | L s_i b_i], the row scales s_i and the common rhs scale L."""
    dense = [[0] * n for _ in range(m)]
    for j, col in enumerate(columns):
        for i, a in col:
            dense[i][j] = a
    scales = [lcm(*(a.denominator for a in row if a)) for row in dense]
    scaled_rhs = [Fraction(b) * s for b, s in zip(rhs, scales)]
    rhs_scale = lcm(*(b.denominator for b in scaled_rhs))
    rows = [
        [a.numerator * (s // a.denominator) if a else 0 for a in row]
        + [b.numerator * (rhs_scale // b.denominator)]
        for row, s, b in zip(dense, scales, scaled_rhs)
    ]
    return rows, scales, rhs_scale


def _pivot(rows, r, s, det):
    """Pivot on entry (r, s) and return the new common denominator.

    Row i becomes (p * T[i] - T[i][s] * T[r]) // det with p = T[r][s], the
    pivot row's sign flipped first if p < 0; Sylvester's identity makes
    every division exact.
    """
    prow = rows[r]
    p = prow[s]
    if p < 0:
        p = -p
        rows[r] = prow = [-a for a in prow]
    for i, row in enumerate(rows):
        q = row[s]
        if i == r or (not q and p == det):
            continue
        if p == det:
            rows[i] = [a - q * b // det if b else a for a, b in zip(row, prow)]
        else:
            rows[i] = [(p * a - q * b) // det for a, b in zip(row, prow)]
    return p


def _tableau_from_basis(rows, base, m):
    if len(base) != m:
        raise LpError("basis size must equal the number of rows")
    det = 1
    for k, col in enumerate(base):
        pivot = next((r for r in range(k, m) if rows[r][col] != 0), None)
        if pivot is None:
            raise LpError("starting basis is singular")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        det = _pivot(rows, k, col, det)
    if any(rows[i][-1] < 0 for i in range(m)):
        raise LpError("starting basis is not primal feasible")
    return det


def _phase_one(rows, scales, m, n):
    """Reach a feasible basis through artificials; returns base, det and the kept rows.

    Row i's artificial is weighted lcm(scales) / scales[i], so the phase-one
    objective is a positive multiple of the unscaled sum of artificials.
    """
    for i in range(m):
        row = rows[i]
        if row[-1] < 0:
            row = [-a for a in row]
        rows[i] = row[:n] + [int(k == i) for k in range(m)] + row[n:]
    common = lcm(*scales)
    objective = [0] * (n + m + 1)
    for i in range(m):
        w = common // scales[i]
        objective = [c - w * a for c, a in zip(objective, rows[i])]
    for j in range(n, n + m):
        objective[j] = 0
    rows.append(objective)
    base = [n + i for i in range(m)]
    det = _optimize(rows, base, 1)
    if rows.pop()[-1] != 0:
        raise LpInfeasibleError("phase one optimum is positive: no feasible point")
    # drive leftover artificials out of the basis; rows that cannot be
    # pivoted are redundant, and the constraint whose artificial stays
    # basic there is dropped
    kept = list(range(m))
    drop: list[int] = []
    for i in range(m):
        if base[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                det = _pivot(rows, i, col, det)
                base[i] = col
    for i in sorted(drop, reverse=True):
        kept.remove(base[i] - n)
        del rows[i]
        del base[i]
    rows[:] = [row[:n] + [row[-1]] for row in rows]
    return base, det, kept


def _reduced_costs(costs, rows, base, det):
    cost_row = [det * c for c in costs] + [0]
    for i, var in enumerate(base):
        f = costs[var]
        if f:
            cost_row = [c - f * a if a else c for c, a in zip(cost_row, rows[i])]
    return cost_row


def _optimize(rows, base, det):
    """Run Bland's rule on the constraint rows and the trailing cost row; return det."""
    cost_row = rows[-1]
    width = len(cost_row) - 1
    pivots = 0
    while True:
        enter = next((j for j in range(width) if cost_row[j] < 0), None)
        if enter is None:
            return det
        leave = -1
        best_b = best_a = 0
        best_var = -1
        for i, var in enumerate(base):
            row = rows[i]
            a = row[enter]
            if a > 0:
                # ratio row[-1] / a against best_b / best_a, by cross-multiplying
                cmp = row[-1] * best_a - best_b * a
                if leave < 0 or cmp < 0 or (cmp == 0 and var < best_var):
                    best_b, best_a, leave, best_var = row[-1], a, i, var
        if leave < 0:
            raise LpUnboundedError("objective is unbounded below")
        det = _pivot(rows, leave, enter, det)
        cost_row = rows[-1]
        base[leave] = enter
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise LpError("pivot budget exceeded")


def _dual_solution(costs, columns, base, kept, m):
    mk = len(base)
    row_pos = {orig: i for i, orig in enumerate(kept)}
    system = [[Fraction(0)] * mk for _ in range(mk)]
    for k, var in enumerate(base):
        for i, a in columns[var]:
            pos = row_pos.get(i)
            if pos is not None:  # dropped redundant rows carry dual value 0
                system[k][pos] = a
    try:
        y_kept = solve_linear(system, [Fraction(costs[v]) for v in base])
    except SingularMatrixError as exc:
        raise LpError("optimal basis is singular") from exc
    dual = [Fraction(0)] * m
    for i, orig in enumerate(kept):
        dual[orig] = y_kept[i]
    return dual


def _certify(costs, columns, rhs, x, value, dual):
    m = len(rhs)
    residual = [Fraction(0)] * m
    for j, xj in enumerate(x):
        if xj < 0:
            raise LpError(f"negative primal variable {j}")
        if xj:
            for i, a in columns[j]:
                residual[i] += a * xj
    if residual != [Fraction(v) for v in rhs]:
        raise LpError("primal point violates the constraints")
    for j, col in enumerate(columns):
        slack = costs[j] - sum(dual[i] * a for i, a in col)
        if slack < 0:
            raise LpError(f"dual point violates column {j}")
    dual_value = sum((dual[i] * rhs[i] for i in range(m) if rhs[i]), Fraction(0))
    if dual_value != value:
        raise LpError("strong duality certificate failed")
