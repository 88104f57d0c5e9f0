"""Independent oracles used to pin expected values in the tests.

The transport norm is re-derived here by brute-force vertex enumeration of
the dual polytope (all 1-Lipschitz potentials vanishing at the base): every
basic feasible point of that polytope is constructed by solving equality
subsystems exactly, and the objective is maximized over them.  General
linear programs in equality form are minimized the same way, over their
basic feasible solutions.  No simplex code is shared with the package path
under test.

The lower l1-equivalence constant of a basis family is re-derived by the
definition: the minimum of the transport norm over the l1 sphere of the
family, one sign orthant at a time, each a joint linear program in the
weights and the flow.  It runs on the package simplex, which the
enumeration above checks, and shares nothing with the molecule expansion
of the closed form it is compared with.

The operator norm of a linearized point map is re-derived by its
definition on the extreme points of the unit ball: the largest transport
norm, one LP each, of the images of the domain molecules.  It shares
nothing with the Lipschitz-constant closed form it is compared with.

On ultrametric input the package reads the transport norm off the merge
tree.  Two references check that route without sharing its code: the
transport program solved by the package simplex directly, and the sum over
the distinct closed balls of half the radius gap to the next larger ball
times the absolute mass of the ball.

The projection algebra of a retraction chain is re-derived on its matrices:
integer products of the 0/1 projection matrices against the min rule, and
their exact ranks by Gauss-Jordan elimination.  It shares nothing with the
point-map identities the package checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ultrafree.chain import BasisFamily, ProjectionAlgebraReport, RetractionChain, projection_matrix
from ultrafree.freespace import FreeVector, PointMap, _transport_program, free_norm, molecule, push_forward
from ultrafree.linalg import SingularMatrixError, fraction_rank, solve_linear
from ultrafree.metric import FiniteMetricSpace
from ultrafree.simplex import solve_lp


def dual_vertex_norm(space: FiniteMetricSpace, v: FreeVector) -> Fraction:
    """max sum(v_k g_k) over |g_i - g_j| <= d(i,j), g_base = 0, via vertices.

    Exponential in the point count; intended for spaces with up to ~5 points.
    """
    n = len(space)
    dim = n - 1
    if dim == 0:
        return Fraction(0)
    # each constraint: row.g <= bound, rows over coordinates g_1..g_{n-1}
    constraints: list[tuple[list[Fraction], Fraction]] = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * dim
            if i != 0:
                row[i - 1] = Fraction(1)
            row[j - 1] = Fraction(-1)
            constraints.append((row, space.dist[i][j]))
            constraints.append(([-x for x in row], space.dist[i][j]))
    best: Fraction | None = None
    for subset in combinations(range(len(constraints)), dim):
        matrix = [constraints[k][0] for k in subset]
        rhs = [constraints[k][1] for k in subset]
        try:
            g = solve_linear(matrix, rhs)
        except SingularMatrixError:
            continue
        if all(sum(r * x for r, x in zip(row, g)) <= bound for row, bound in constraints):
            value = sum(c * x for c, x in zip(v.coeffs, g))
            if best is None or value > best:
                best = value
    assert best is not None, "dual polytope has no vertices"
    return best


def orthant_l1_lower(space: FiniteMetricSpace, family: BasisFamily) -> Fraction:
    """min of the transport norm of sum_k t_k e_k / |e_k| over sum_k |t_k| = 1.

    The sphere is the union of the faces {sigma_k t_k >= 0}, one per sign
    vector sigma; on each face the weights and the flow are jointly linear,
    so its minimum is one LP.  Opposite faces have equal minima, so sigma_0
    is fixed to +1: 2^(count-1) LPs, intended for families of up to 7
    vectors (N <= 8).
    """
    n = len(space)
    count = len(family.vectors)
    units = [(1 / norm) * vector for vector, norm in zip(family.vectors, family.norms)]
    best: Fraction | None = None
    for mask in range(1 << (count - 1)):
        signs = [1] + [-1 if (mask >> b) & 1 else 1 for b in range(count - 1)]
        arcs, costs, columns, basis = _transport_program(space, [signs[0] * c for c in units[0].coeffs])
        for sign, unit in zip(signs, units):
            column = [(r, -sign * c) for r, c in enumerate(unit.coeffs) if c]
            columns.append(column + [(n - 1, Fraction(1))])
            costs.append(Fraction(0))
        basis.append(len(arcs))
        value = solve_lp(costs, columns, [Fraction(0)] * (n - 1) + [Fraction(1)], basis=basis).value
        if best is None or value < best:
            best = value
    assert best is not None
    return best


def molecule_operator_norm(point_map: PointMap) -> Fraction:
    """max over domain molecules m_ij of the transport norm of their images, one LP each."""
    dom = point_map.domain
    n = len(dom)
    return max(
        (
            free_norm(point_map.codomain, push_forward(point_map, molecule(dom, i, j)))
            for i in range(n)
            for j in range(i + 1, n)
        ),
        default=Fraction(0),
    )


def lp_vertex_minimum(costs, rows, rhs) -> tuple[str, Fraction | None]:
    """min c.x over A x = b, x >= 0 by enumerating basic solutions.

    Returns ("optimal", value), ("infeasible", None) or ("unbounded", None).
    The program is unbounded when it is feasible and some vertex d of
    {A d = 0, sum d = 1, d >= 0} has c.d < 0.  Exponential; intended for a
    handful of rows and columns.
    """
    points = _basic_feasible_points(rows, rhs)
    if not points:
        return "infeasible", None
    n = len(costs)
    rays = _basic_feasible_points(list(rows) + [[Fraction(1)] * n], [Fraction(0)] * len(rows) + [Fraction(1)])
    if any(_dot(costs, d) < 0 for d in rays):
        return "unbounded", None
    return "optimal", min(_dot(costs, x) for x in points)


def feasible_basis(rows, rhs) -> list[int] | None:
    """The first m-column subset whose square system has a nonnegative solution, if any."""
    m, n = len(rows), len(rows[0])
    for cols in combinations(range(n), m):
        try:
            x = solve_linear([[row[j] for j in cols] for row in rows], list(rhs))
        except SingularMatrixError:
            continue
        if all(v >= 0 for v in x):
            return list(cols)
    return None


def _basic_feasible_points(rows, rhs) -> list[list[Fraction]]:
    """Every nonnegative solution of A x = b supported on a nonsingular square subsystem.

    Each vertex has linearly independent support columns, so some square
    subsystem on those columns is nonsingular and yields it; redundant rows
    only mean that the subsystem is smaller than A.
    """
    m, n = len(rows), len(rows[0])
    found = []
    for size in range(min(m, n) + 1):
        for cols in combinations(range(n), size):
            for picked in combinations(range(m), size):
                try:
                    values = solve_linear([[rows[i][j] for j in cols] for i in picked], [rhs[i] for i in picked])
                except SingularMatrixError:
                    continue
                x = [Fraction(0)] * n
                for j, v in zip(cols, values):
                    x[j] = v
                if all(v >= 0 for v in x) and all(_dot(row, x) == b for row, b in zip(rows, rhs)):
                    found.append(x)
    return found


def _dot(a, b) -> Fraction:
    return sum((p * q for p, q in zip(a, b)), Fraction(0))


def lp_transport_norm(space: FiniteMetricSpace, v: FreeVector) -> Fraction:
    """The transport program of the package, solved by the simplex whatever the metric."""
    arcs, costs, columns, basis = _transport_program(space, v.coeffs)
    return solve_lp(costs, columns, v.coeffs, basis=basis).value


def ball_transport_norm(space: FiniteMetricSpace, v: FreeVector) -> Fraction:
    """sum over distinct balls B of (r(parent) - r(B)) / 2 * |mu(B)| on an ultrametric.

    B runs over the closed balls {y : d(x, y) <= r} with r a distance from
    x; r(B) is the largest such distance inside B (0 for a point), the
    parent is the next larger ball about the same centre, and mu includes
    the base mass -sum(v).  The whole space has no parent and mass 0.
    """
    n = len(space)
    mass = [-sum(v.coeffs, Fraction(0)), *v.coeffs]
    terms = {}
    for x in range(n):
        radii = sorted(set(space.dist[x]))
        for r, outer in zip(radii, radii[1:]):
            ball = frozenset(y for y in range(n) if space.dist[x][y] <= r)
            terms[ball] = (outer - r) / 2 * abs(sum(mass[y] for y in ball))
    return sum(terms.values(), Fraction(0))


def matrix_projection_algebra(chain: RetractionChain) -> ProjectionAlgebraReport:
    """P_n P_m = P_min(n,m) by integer matrix products, and rank P_n = n - 1 by fraction_rank.

    The stage norms are not checked: ``norm_failures`` is always empty.
    """
    size = chain.size
    mats = [projection_matrix(chain, n) for n in range(1, size + 1)]

    def product(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)

    min_rule = tuple(
        (n, m)
        for n in range(1, size + 1)
        for m in range(1, size + 1)
        if product(mats[n - 1], mats[m - 1]) != mats[min(n, m) - 1]
    )
    rank_failures = tuple(
        n for n in range(1, size + 1)
        if fraction_rank([[Fraction(v) for v in row] for row in mats[n - 1]]) != n - 1
    )
    return ProjectionAlgebraReport(min_rule, rank_failures, ())
