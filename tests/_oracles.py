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

The route's potential is pinned, not only checked for validity, by the
sign potential computed here in Fractions, cluster by cluster on the
single-linkage merges, sharing no code with the package's integer
tree-transport kernel.

The projection algebra of a retraction chain is re-derived on its matrices:
integer products of the 0/1 projection matrices against the min rule, and
their exact ranks by Gauss-Jordan elimination.  It shares nothing with the
point-map identities the package checks.  The package certifies the min
rule from adjacent stages; the full scan of every (n, m) on the point maps
that it replaced is kept as a second reference.

The package builds a retraction chain, rounds a space down to powers of
two and decides its dyadic flag on the integer view and the merge
heights.  The references do each per entry in Fractions: every rank table
entry by its definition (the least position among the first n attaining
the least distance), ``loop_dyadic_floor`` of every distance, and
``is_power_of_two`` of every distance.

The basis constant is re-derived by its definition: every molecule is
expanded by the inverse of the family matrix, and every truncation of
every expansion is normed by the transport solver.  It shares nothing
with the closed forms the package reads the constant from.

The package checks the chain identities and reads the closed-form basis
constant off one scan of the rank table: the merge-tree rule on an
ultrametric, and otherwise every stage and pair.  Two exhaustive scans
are kept as references: every identity at every stage and pair, and the
maximum of d(r_n i, r_n j) / d(i, j) over every stage n >= 2 and pair,
by cross-multiplication.  Both run on the distances scaled to integers
here and on a retraction table read off the ranks here; neither touches
the package's integer view, its merges or its cluster tree.

The package validates a space, builds its dendrogram, certifies it and
checks the retraction claims in integers, from one single-linkage merge
tree.  The Fraction scans these replaced are kept as references: the
triple scan of ``validate`` (on the distances scaled to integers here, as
the chain scans are), the doubling/halving ``dyadic_floor``, the
branching points as every canonical <m, d(m, n)/2>, each node's parent as
the lowest higher node whose ball covers its anchor, the node space by the
quotient formula on every pair, and the retraction claims by
``tree_distance``, ``generating_partner`` and ``dyadic_exponent`` on every
pair.  None of them touches the integer view or the merges.

Most spaces of the package are born with their integer view, read off
their distinct values, and the merge tree is built on the merges' integer
heights.  What these replaced is kept as a reference: ``scale_rows``
scales every entry of ``space.dist`` over the lcm of all its denominators,
and ``fraction_merge_tree`` builds the dendrogram's nodes, parents and edge
lengths in Fraction arithmetic, each node through ``TreePoint``'s checks.

The package decides l1-isometry from the extreme molecules, each pair
certified by a segment witness or a separating potential.  The reference
decides extremality by its definition: one LP feasibility problem per
pair, on the package simplex, asking whether the molecule is a convex
combination of the other +-molecules.

The package checks every transport certificate in integers on the
space's cached view, the potential of an ultrametric merge by merge.  The
Fraction check it replaced is kept as a reference: the same checks in the
same order, on ``space.dist`` and the certificate's own Fractions, with
its own common denominator for the Lipschitz scan over every pair.  The
package matches the masses of the tree route in cluster lists that merge
in place; the matching that builds each merged list afresh, by
concatenation, is kept as a reference.

The package certifies a dendrogram node by node and reads its node
distances off the quotient formula.  The certificate it replaced is kept
as a reference: ``walk_certificate`` walks the tree from every node for
its path sums and compares each node pair with the quotient formula, with
its own integer view of the space; it shares nothing with the per-node
checks but the tree.  With the node spaces read off those distances, the
package checks no node pair of the edge-flow battery; the two node-pair
checks it once ran are kept as references for each other: the certificate
of delta_i - delta_j on its own tree path, pair by pair, and the dense
edge-flow check of it over the whole tree, with its own subtree masses and
potential on its own prepared tree, each followed by the distance
comparison.  The package checks every edge flow with the one transport
certificate of the free-space routes, compares the ratios of a Lipschitz
constant and of the chain branch of the l1 constant by cross-multiplication
on integer views, and builds one Fraction at the end; the bi-Lipschitz
distortion is found the same way.  What these replaced is kept as a
reference: the two Fraction maxima over every pair's ratio; and the
Fraction minimum and maximum of the distortion ratios.

The package reads a chain's telescoping identity off the report of its
one scan and a bound on its ranks, and reads the l1 constant Phi of the
chain's family off one walk of the anchor tree per point.  What these
replaced is kept as a reference: the check of the identity on the point
maps, stage by stage; the 0/1 Dirac rows of every point read off the rank
table, the telescoping check of those rows; and the scan of every pair for
the largest sum of the norms where two rows differ over the distance, by
cross-multiplication on the distances scaled to integers here.  None of
them reads the scan, walks a tree or touches the integer view.

The package writes a report in one walk over its objects.  The route it
replaced is kept as a reference: the recursive conversion to plain JSON
data, then the standard library's ``indent=2`` encoder, sharing nothing
with the walk.

Four helpers that only the tests use live here rather than in the
package: the strict-max triple check, the path sum along a dendrogram, the
0/1 projection matrices of a chain and the exact rank of a matrix.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple, Sequence

from ultrafree.chain import BasisFamily, ChainReport, ProjectionAlgebraReport, RetractionChain
from ultrafree.freespace import FreeVector, PointMap, _transport_program, free_norm, molecule, push_forward
from ultrafree.linalg import SingularMatrixError, _reduce, invert_matrix, solve_linear
from ultrafree.metric import (
    CertificationError,
    FiniteMetricSpace,
    StructuralError,
    ValidationReport,
    _cluster_parents,
    validate,
)
from ultrafree.rational import dyadic_exponent, is_power_of_two
from ultrafree.rtree import (
    DendrogramTree,
    RetractionClaimReport,
    TreePoint,
    canonicalize,
    _node_distances,
    _node_labels,
    generating_partner,
    retract_to_space,
    tree_distance,
)
from ultrafree.simplex import LpInfeasibleError, solve_lp


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


def fraction_lipschitz_witness(point_map: PointMap) -> tuple[Fraction, int, int]:
    """Lip(f) and the first pair i < j, row by row, attaining it: a Fraction max over every pair."""
    dom, cod, img = point_map.domain, point_map.codomain, point_map.image
    n = len(dom)
    return max(
        (
            (cod.dist[img[i]][img[j]] / dom.dist[i][j], i, j)
            for i in range(n)
            for j in range(i + 1, n)
        ),
        key=lambda entry: entry[0],
        default=(Fraction(0), 0, 0),
    )


def fraction_bilipschitz_distortion(a: FiniteMetricSpace, b: FiniteMetricSpace) -> tuple[Fraction, Fraction]:
    """Min and max of d_b / d_a over every pair, as Fractions; (1, 1) on one point."""
    n = len(a)
    ratios = [b.dist[i][j] / a.dist[i][j] for i in range(n) for j in range(i + 1, n)]
    return (min(ratios), max(ratios)) if ratios else (Fraction(1), Fraction(1))


def fraction_chain_phi(
    space: FiniteMetricSpace, norms: Sequence[Fraction], rows: Sequence[Sequence[int]]
) -> tuple[Fraction, int, int]:
    """max Phi(m_ij) over the Dirac rows of a chain's family, and the first pair attaining it, in Fractions."""
    n = len(space)
    return max(
        (
            (sum((norm for a, b, norm in zip(rows[i], rows[j], norms) if a != b), Fraction(0)) / space.dist[i][j], i, j)
            for i in range(n)
            for j in range(i + 1, n)
        ),
        key=lambda entry: entry[0],
    )


def dirac_rows(chain: RetractionChain) -> list[tuple[int, ...]]:
    """The 0/1 coordinates of every Dirac in the chain basis, read off the rank table.

    Row x holds c_n(delta_x) for n = 1..N-1, which is 1 exactly when x is
    nearest to the point added at stage n + 1.
    """
    return [
        tuple(int(chain.ranks[n][x] == n + 1) for n in range(1, chain.size))
        for x in range(chain.size)
    ]


def rows_telescope(chain: RetractionChain, rows: Sequence[Sequence[int]]) -> bool:
    """Certify the rows as the coordinates of every Dirac in the basis of the chain.

    Checks delta_{r_{n+1} x} - delta_{r_n x} = rows[x][n-1] * e_n for every
    stage n < N and every point x, where e_n = delta_{p} - delta_{r_n p} for
    the point p added at stage n + 1, together with r_1 x = base and
    r_N x = x.  The maps r_n are read off the rank rows.
    """
    order, size = chain.ordering, chain.size
    maps = _retraction_table(chain)
    if any(maps[0][x] != 0 or maps[-1][x] != x for x in range(size)):
        return False
    for n in range(1, size):
        added, before, after = order[n], maps[n - 1], maps[n]
        anchor = before[added]
        for x in range(size):
            if (after[x], before[x]) != (added, anchor) if rows[x][n - 1] else after[x] != before[x]:
                return False
    return True


def maps_telescope(chain: RetractionChain) -> bool:
    """Certify the telescoping identity of the chain's basis on its point maps, read off the rank rows.

    Checks r_1 x = base, r_N x = x, and for every stage n < N and point x
    that r_{n+1} x = r_n x, or r_{n+1} x = p and r_n x = r_n p for the point
    p added at stage n + 1.  Then delta_{r_{n+1} x} - delta_{r_n x} is
    e_n = delta_p - delta_{r_n p} where the map changes and 0 elsewhere.
    It reads no Dirac row and no report of the chain's scan.
    """
    order, size = chain.ordering, chain.size
    maps = _retraction_table(chain)
    if any(maps[0][x] != 0 or maps[-1][x] != x for x in range(size)):
        return False
    for n in range(1, size):
        added, before, after = order[n], maps[n - 1], maps[n]
        anchor = before[added]
        for x in range(size):
            if after[x] != before[x] and (after[x] != added or before[x] != anchor):
                return False
    return True


def rows_chain_phi(
    space: FiniteMetricSpace, norms: Sequence[Fraction], rows: Sequence[Sequence[int]]
) -> tuple[Fraction, int, int]:
    """max_{i<j} Phi(m_ij) over the Dirac rows of a chain's family, and the first pair i < j, row by row, attaining it.

    Phi(m_ij) is the sum of the norms where rows i and j differ, over
    d(i, j), compared by cross-multiplication on the scaled distances and
    the norms over the lcm of their denominators.  A distance that is not
    positive raises ValueError naming its pair.
    """
    d = _scaled_distances(space)
    unit = lcm(*(norm.denominator for norm in norms))
    weights = [norm.numerator * (unit // norm.denominator) for norm in norms]
    best = None
    for i, row in enumerate(d):
        for j in range(i + 1, len(row)):
            if row[j] <= 0:
                raise ValueError(f"the distance of the pair ({i}, {j}) is {space.dist[i][j]}, not positive")
            total = sum(w for a, b, w in zip(rows[i], rows[j], weights) if a != b)
            if best is None or total * best[1] > best[0] * row[j]:
                best = total, row[j], i, j
    total, _, i, j = best
    return Fraction(total, unit) / space.dist[i][j], i, j


class ScaledTree(NamedTuple):
    """A dendrogram prepared for the dense edge-flow check, on the scale L of its certified node distances.

    ``edges`` holds (child, parent, length) in root-based node-space
    indices, highest child first, the lengths in units of 1/L, and
    ``parent`` the parent of each root-based index, -1 at the root.
    ``rows`` are the certified node distances by tree node, the side the
    lengths are checked against; ``node`` maps a root-based index to its
    tree node.  ``labels`` are the node labels, root-based.
    """

    scale: int
    edges: tuple[tuple[int, int, int], ...]
    parent: tuple[int, ...]
    rows: Sequence[Sequence[int]]
    node: tuple[int, ...]
    labels: tuple[str, ...]


def scaled_tree(tree: DendrogramTree) -> ScaledTree:
    """``tree`` prepared against its certified node distances, its edges sorted by the height of their child."""
    scale, rows = _node_distances(tree)
    count, labels = len(tree.nodes), _node_labels(tree)
    order = sorted(range(count - 1), key=lambda k: tree.nodes[k].height, reverse=True)
    edges = []
    for k in order:
        length = tree.edge_length[k]
        edges.append((k + 1, (tree.parent[k] + 1) % count, length.numerator * (scale // length.denominator)))
    return ScaledTree(
        scale,
        tuple(edges),
        (-1, *((p + 1) % count for p in tree.parent[:-1])),
        rows,
        (count - 1, *range(count - 1)),
        (labels[-1], *labels[:-1]),
    )


def _edge(tree: ScaledTree, a: int, b: int) -> str:
    return f"({tree.labels[a]}, {tree.labels[b]})"


def dense_edge_flow_check(tree: ScaledTree, coeffs: Sequence[int], unit: int) -> int:
    """The edge-flow norm of ``coeffs`` / ``unit`` over the whole tree, checked; the value is in units of 1/(scale unit).

    The solution is built here: the subtree masses children first, the flow
    of |mass| along each edge, out of the subtree when the mass is
    positive, and the potential stepping from parent to child by the
    length, up towards positive mass.  The flow must run along tree edges
    with positive amounts, balance every node to its coefficient and cost
    the value; the potential must be tight on every edge that carries flow,
    1-Lipschitz on every edge and attain the value, every edge length being
    read off ``tree.rows``.
    """
    net = [0, *coeffs]
    for child, up, _ in reversed(tree.edges):
        net[up] += net[child]
    g = [0] * len(net)
    flow, value = [], 0
    for child, up, length in tree.edges:
        mass = net[child]
        g[child] = g[up] + (length if mass > 0 else -length if mass < 0 else 0)
        if mass:
            flow.append((child, up, mass) if mass > 0 else (up, child, -mass))
            value += length * abs(mass)
    rows, node, parent = tree.rows, tree.node, tree.parent
    divergence = [0] * len(g)
    cost = 0
    for a, b, amount in flow:
        if parent[a] != b and parent[b] != a:
            raise CertificationError(f"flow arc {_edge(tree, a, b)} is not a tree edge")
        if amount <= 0:
            raise CertificationError(f"flow on edge {_edge(tree, a, b)} is not positive")
        length = rows[node[a]][node[b]]
        if g[a] - g[b] != length:
            raise CertificationError(f"potential does not drop by the length of edge {_edge(tree, a, b)}")
        divergence[a] += amount
        divergence[b] -= amount
        cost += amount * length
    dual = 0
    for child in range(1, len(g)):
        up = parent[child]
        if abs(g[child] - g[up]) > rows[node[child]][node[up]]:
            raise CertificationError(f"potential is not 1-Lipschitz on edge {_edge(tree, child, up)}")
        if divergence[child] != coeffs[child - 1]:
            raise CertificationError(f"flow on edge {_edge(tree, child, up)} does not balance {tree.labels[child]}")
        dual += coeffs[child - 1] * g[child]
    if cost != value:
        exact = tree.scale * unit
        raise CertificationError(f"edge flow costs {Fraction(cost, exact)}, not the value {Fraction(value, exact)}")
    if dual != value:
        raise CertificationError(f"sign potential does not attain the value {Fraction(value, tree.scale * unit)}")
    return value


def dense_pair_check(tree: ScaledTree, i: int, j: int, distance: Fraction) -> None:
    """Certify delta_i - delta_j by the dense edge-flow check over the whole tree, then against ``distance``.

    The root is point 0 and carries no coefficient.
    """
    coeffs = [0] * len(tree.edges)
    if i:
        coeffs[i - 1] = 1
    coeffs[j - 1] = -1
    value = dense_edge_flow_check(tree, coeffs, 1)
    if value * distance.denominator != distance.numerator * tree.scale:
        raise CertificationError(
            f"edge-flow norm of the pair ({tree.labels[i]}, {tree.labels[j]}) is not its distance"
        )


def path_solution(tree, i: int, j: int) -> tuple[int, list[tuple[int, int, int]], dict[int, int]]:
    """The edge-flow solution of delta_i - delta_j on the tree path from i to j, unchecked.

    ``tree`` is a :class:`ScaledTree`; the root is point 0.  One
    unit of flow runs up from i to the lowest common ancestor of i and j
    and down from it to j.  Returns the value, the sum of the path's edge
    lengths; the arcs (position, a, b), one unit from a to b along the edge
    at ``position`` in ``tree.edges``, in that order; and the potential on
    the path nodes, in units of 1/scale: 0 at the ancestor, stepping by
    + length down to i and by - length down to j.
    """
    parent, edges = tree.parent, tree.edges
    position = {child: k for k, (child, _, _) in enumerate(edges)}
    rise = [i]
    while rise[-1]:
        rise.append(parent[rise[-1]])
    above = {x: k for k, x in enumerate(rise)}
    fall = []
    top = j
    while top not in above:
        fall.append(top)
        top = parent[top]
    g = {top: 0}
    arcs = []
    value = 0
    for step, nodes in ((1, rise[: above[top]]), (-1, fall)):
        for x in reversed(nodes):
            k = position[x]
            _, up, length = edges[k]
            g[x] = g[up] + step * length
            value += length
            arcs.append((k, x, up) if step > 0 else (k, up, x))
    arcs.sort()
    return value, arcs, g


def path_pair_check(tree, i: int, j: int, distance: Fraction) -> None:
    """Certify that the edge-flow norm of delta_i - delta_j is ``distance``, on the tree path alone.

    Checked on the solution of :func:`path_solution`, whose arcs run along
    tree edges: the potential is tight on each path arc against its node
    distance in ``tree.rows``; the cost, the sum of those distances along
    the path, is the value, the sum of the kernel lengths; g(i) - g(j) is
    the value; and the value is ``distance``.  The messages are those of
    the dense check, which :func:`dense_pair_check` runs on the same pair.
    """
    value, arcs, g = path_solution(tree, i, j)
    rows, node, labels = tree.rows, tree.node, tree.labels
    cost = 0
    for _, a, b in arcs:
        length = rows[node[a]][node[b]]
        if g[a] - g[b] != length:
            raise CertificationError(f"potential does not drop by the length of edge ({labels[a]}, {labels[b]})")
        cost += length
    if cost != value:
        raise CertificationError(
            f"edge flow costs {Fraction(cost, tree.scale)}, not the value {Fraction(value, tree.scale)}"
        )
    if g[i] - g[j] != value:
        raise CertificationError(f"sign potential does not attain the value {Fraction(value, tree.scale)}")
    if value * distance.denominator != distance.numerator * tree.scale:
        raise CertificationError(f"edge-flow norm of the pair ({labels[i]}, {labels[j]}) is not its distance")


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


def sign_potential(merges, masses) -> list[Fraction]:
    """The sign potential of the merge tree in Fractions, shifted to vanish at the base.

    ``merges`` are those of ``metric._single_linkage`` with their heights
    as Fractions, and ``masses`` one per point, the base carrying -sum(v).  Going down from the root, each
    cluster moves from its parent by half the gap between their heights,
    up when its net mass is positive, down when negative, not at all when
    zero.  The points are the clusters at height 0.
    """
    n = len(masses)
    net = list(masses)
    height = [Fraction(0)] * n
    for h, a, b in merges:
        net.append(net[a] + net[b])
        height.append(h)
    g = [Fraction(0)] * len(net)
    for k in reversed(range(len(merges))):
        h, a, b = merges[k]
        for child in (a, b):
            sign = (net[child] > 0) - (net[child] < 0)
            g[child] = g[n + k] + sign * (h - height[child]) / 2
    return [x - g[0] for x in g[:n]]


def concat_lca_flow(merges, masses) -> tuple[int, list[tuple[int, int, int]]]:
    """The lowest-merge matching of opposite-signed masses, each merged cluster list built by concatenation.

    Every cluster keeps its unmatched (point, mass) entries; a merge at
    height h matches the last entries of its two lists while their signs
    differ, at cost h per unit, then the cluster keeps left + right.
    Returns the cost and the arcs sorted by (i, j).
    """
    unmatched = [[(x, m)] if m else [] for x, m in enumerate(masses)]
    arcs = []
    value = 0
    for h, a, b in merges:
        left, right = unmatched[a], unmatched[b]
        while left and right and (left[-1][1] > 0) != (right[-1][1] > 0):
            (x, p), (y, q) = left.pop(), right.pop()
            amount = min(abs(p), abs(q))
            arcs.append((x, y, amount) if p > 0 else (y, x, amount))
            value += h * amount
            if abs(p) > amount:
                left.append((x, p + q))
            if abs(q) > amount:
                right.append((y, p + q))
        unmatched.append(left + right)
    arcs.sort()
    return value, arcs


def fraction_certify_transport(space: FiniteMetricSpace, coeffs, value, flow, potential) -> None:
    """Check a transport certificate in Fractions against the metric alone; a failure names its witness.

    The arcs must carry positive amounts, the flow's divergence must be the
    coefficients and its cost the value; the potential must vanish at the
    base, be 1-Lipschitz on every pair and pair with the coefficients to the
    value.
    """
    d = space.dist
    n = len(space)
    divergence = [Fraction(0)] * n
    cost = Fraction(0)
    for i, j, amount in flow:
        if amount <= 0 or i == j:
            raise CertificationError(f"transport arc ({i}, {j}) carries {amount}")
        divergence[i] += amount
        divergence[j] -= amount
        cost += d[i][j] * amount
    for k, c in enumerate(coeffs, 1):
        if divergence[k] != c:
            raise CertificationError(f"transport flow leaves point {k} with {divergence[k]}, not {c}")
    if cost != value:
        raise CertificationError(f"transport flow costs {cost}, not the value {value}")
    if potential[0] != 0:
        raise CertificationError(f"dual potential is {potential[0]} at the base, not 0")
    # over one common denominator q: |g_i - g_j| <= d(i, j) iff |G_i - G_j| <= q d(i, j)
    q = lcm(*(x.denominator for x in potential))
    scaled = [x.numerator * (q // x.denominator) for x in potential]
    for i in range(n):
        gi, row = scaled[i], d[i]
        for j in range(i + 1, n):
            if abs(gi - scaled[j]) * row[j].denominator > q * row[j].numerator:
                raise CertificationError(f"dual potential is not 1-Lipschitz on the pair ({i}, {j})")
    dual = sum((c * x for c, x in zip(coeffs, potential[1:])), Fraction(0))
    if dual != value:
        raise CertificationError(f"primal and dual transport optima differ: {value} against {dual}")


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



def scan_projection_algebra(chain: RetractionChain) -> ProjectionAlgebraReport:
    """P_n P_m = P_min(n,m) on the point maps for every (n, m), and rank P_n = n - 1; no stage norms."""
    size = chain.size
    maps = [[0] + [chain.ordering[chain.ranks[n][x] - 1] for x in range(1, size)] for n in range(size)]
    min_rule = tuple(
        (n, m)
        for n in range(1, size + 1)
        for m in range(1, size + 1)
        if any(maps[n - 1][maps[m - 1][x]] != maps[min(n, m) - 1][x] for x in range(1, size))
    )
    rank_failures = tuple(n for n in range(1, size + 1) if len(set(maps[n - 1][1:]) - {0}) != n - 1)
    return ProjectionAlgebraReport(min_rule, rank_failures, ())


def fraction_ranks(space: FiniteMetricSpace, ordering: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The rank table by its definition: the least 1-based position among the first n at the least distance."""
    d = space.dist
    return tuple(
        tuple(min(range(1, n + 1), key=lambda k: (d[x][ordering[k - 1]], k)) for x in range(len(space)))
        for n in range(1, len(space) + 1)
    )


def _scaled_distances(space: FiniteMetricSpace) -> list[list[int]]:
    """The distances times the lcm of their denominators: integers with the same order and ratios."""
    scale = lcm(*(q.denominator for row in space.dist for q in row))
    return [[q.numerator * (scale // q.denominator) for q in row] for row in space.dist]


def _retraction_table(chain: RetractionChain) -> list[list[int]]:
    """Row n - 1 holds r_n x for every point x, read off the rank table."""
    order = chain.ordering
    return [[order[rank - 1] for rank in row] for row in chain.ranks]


def scan_verify_chain(chain: RetractionChain) -> ChainReport:
    """The chain identities of ``verify_chain`` by the exhaustive scan of every stage and pair."""
    d = _scaled_distances(chain.space)
    order, table = chain.ordering, _retraction_table(chain)
    n_points = len(d)
    lip, comm, rcomm, loc, loc_dist, fixed = [], [], [], [], [], []
    for n in range(1, n_points + 1):
        row, image = chain.ranks[n - 1], table[n - 1]
        for k in range(n):
            if row[order[k]] != k + 1:
                fixed.append((n, order[k]))
        for x in range(n_points):
            rx = image[x]
            dist_x = d[x][rx]
            for y in range(x + 1, n_points):
                ry = image[y]
                if d[rx][ry] > d[x][y]:
                    lip.append((n, x, y))
                if d[x][y] < dist_x:
                    if row[y] != row[x]:
                        loc.append((n, x, y))
                    if d[y][ry] != dist_x:
                        loc_dist.append((n, x, y))
        if n < n_points:
            nxt = chain.ranks[n]
            for x in range(n_points):
                if row[order[nxt[x] - 1]] != row[x]:
                    comm.append((n, x))
                if nxt[image[x]] != row[x]:
                    rcomm.append((n, x))
    return ChainReport(tuple(lip), tuple(comm), tuple(rcomm), tuple(loc), tuple(loc_dist), tuple(fixed))


def scan_basis_constant(chain: RetractionChain) -> Fraction:
    """The closed form max_{n >= 2} max_{i<j} d(r_n i, r_n j) / d(i, j) by the exhaustive scan; 1 with no pairs.

    Ratios are compared by cross-multiplication on the scaled distances,
    and the largest is returned as one Fraction.
    """
    d, table, size = _scaled_distances(chain.space), _retraction_table(chain), chain.size
    best, over = 0, 0
    for image in table[1:]:
        for i in range(size):
            for j in range(i + 1, size):
                moved, gap = d[image[i]][image[j]], d[i][j]
                if not over or moved * over > best * gap:
                    best, over = moved, gap
    return Fraction(best, over) if over else Fraction(1)


def solver_basis_constant(family: BasisFamily) -> Fraction:
    """The basis constant by its definition, the transport solver on every truncation.

    Each molecule is expanded by the inverse of the family matrix, and
    every truncation of every expansion is normed by ``free_norm``; the
    constant is the largest norm, 1 for an empty family.
    """
    space, vectors = family.space, [v.coeffs for v in family.vectors]
    if not vectors:
        return Fraction(1)
    dim = len(vectors)
    inverse = invert_matrix([[vectors[k][r] for k in range(dim)] for r in range(dim)])
    best = Fraction(0)
    for i, j in combinations(range(len(space)), 2):
        m = molecule(space, i, j).coeffs
        partial = [Fraction(0)] * dim
        for row, vec in zip(inverse, vectors):
            c = _dot(row, m)
            partial = [p + c * x for p, x in zip(partial, vec)]
            best = max(best, free_norm(space, FreeVector(tuple(partial))))
    return best


def scan_validate(space: FiniteMetricSpace) -> ValidationReport:
    """The structure checks of ``validate`` in Fractions, then the triple scan, every order of every triple.

    The scan runs on the distances scaled to integers by the lcm of their
    denominators (:func:`_scaled_distances`), which keeps every sum and
    maximum in the same order.
    """
    n = len(space)
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            raise StructuralError(f"nonzero diagonal at index {i}: {d[i][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise StructuralError(f"asymmetric entries at ({i},{j}): {d[i][j]} vs {d[j][i]}")
            if d[i][j] < 0:
                raise StructuralError(f"negative distance at ({i},{j}): {d[i][j]}")
            if d[i][j] == 0:
                raise StructuralError(f"zero distance between distinct points ({i},{j})")
    scaled = _scaled_distances(space)
    metric_fail = ultra_fail = None
    for a, b, c in combinations(range(n), 3):
        for i, j, k in ((a, b, c), (b, a, c), (a, c, b)):
            if metric_fail is None and scaled[i][k] > scaled[i][j] + scaled[j][k]:
                metric_fail = (i, j, k)
            if ultra_fail is None and scaled[i][k] > max(scaled[i][j], scaled[j][k]):
                ultra_fail = (i, j, k)
        if metric_fail is not None and ultra_fail is not None:
            break
    return ValidationReport(
        is_metric=metric_fail is None,
        is_ultrametric=ultra_fail is None,
        failing_triple=metric_fail if metric_fail is not None else ultra_fail,
        is_dyadic=all(is_power_of_two(d[i][j]) for i in range(n) for j in range(i + 1, n)),
    )


def loop_dyadic_floor(q: Fraction) -> Fraction:
    """The largest power of two <= q > 0, by doubling or halving from 1."""
    p = Fraction(1)
    if p <= q:
        while p * 2 <= q:
            p *= 2
    else:
        while p > q:
            p /= 2
    return p


def scan_branching_points(space: FiniteMetricSpace) -> list[TreePoint]:
    """Every class <m, d(m,n)/2> over distinct pairs, canonicalized, deduplicated, by (height, anchor)."""
    found = set()
    for m in range(len(space)):
        for n in range(len(space)):
            if m != n:
                found.add(canonicalize(space, TreePoint(m, space.dist[m][n] / 2)))
    return sorted(found, key=lambda p: (p.height, p.anchor))


def scan_dendrogram(space: FiniteMetricSpace) -> DendrogramTree:
    """Leaves then branching points; each node's parent is the lowest higher node covering its anchor."""
    nodes = [TreePoint(i, Fraction(0)) for i in range(len(space))] + scan_branching_points(space)
    parent = [-1] * len(nodes)
    edge = [Fraction(0)] * len(nodes)
    for idx, u in enumerate(nodes):
        best = -1
        for jdx, w in enumerate(nodes):
            if w.height > u.height and space.dist[u.anchor][w.anchor] <= 2 * w.height:
                if best < 0 or w.height < nodes[best].height:
                    best = jdx
        parent[idx] = best
        if best >= 0:
            edge[idx] = nodes[best].height - u.height
    return DendrogramTree(space, tuple(nodes), tuple(parent), tuple(edge))


def scale_rows(space: FiniteMetricSpace) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Every distance on the lcm of every denominator of ``space.dist``, entry by entry."""
    scale = lcm(*(h.denominator for row in space.dist for h in row))
    return scale, tuple(tuple(h.numerator * (scale // h.denominator) for h in row) for row in space.dist)


def fraction_merge_tree(space: FiniteMetricSpace, merges) -> tuple[list[TreePoint], list[int], list[Fraction]]:
    """The nodes, parents and edge lengths of the dendrogram off the integer ``merges``, in Fraction arithmetic.

    Each merge height goes back to a Fraction on the scale of ``scale_rows``;
    the tied merges are contracted by ``_cluster_parents``, the branching
    points sorted by (height, anchor) and every edge length taken as a
    difference of node heights.
    """
    n, scale = len(space), scale_rows(space)[0]
    merges = [(Fraction(h, scale), a, b) for h, a, b in merges]
    above = _cluster_parents(n, merges)
    low = list(range(len(above)))
    height = [Fraction(0)] * n + [h for h, _, _ in merges]
    for k, (_, a, b) in enumerate(merges):
        low[n + k] = min(low[a], low[b])
    closing = sorted({*above} - {-1}, key=lambda u: (height[u], low[u]))
    index = {-1: -1, **{u: n + k for k, u in enumerate(closing)}}
    nodes = [TreePoint(x, Fraction(0)) for x in range(n)] + [TreePoint(low[u], height[u] / 2) for u in closing]
    parent = [index[above[u]] for u in (*range(n), *closing)]
    edge = [nodes[p].height - node.height if p >= 0 else Fraction(0) for node, p in zip(nodes, parent)]
    return nodes, parent, edge


def walk_certificate(tree: DendrogramTree) -> tuple[int, list[tuple[int, ...]]]:
    """Raise unless the tree's path metric is the quotient metric on every node pair; returns (L, rows).

    The tree must be rooted at its top node, with every parent strictly
    higher than its child, so that it is a tree, and every node above the
    leaves must have at least two children.  The heights, the edge lengths
    and half of every distance go on one integer scale L; one breadth-first
    walk from each node gives its path sums, and each pair (p, q), p < q in
    node order, must have path sum 2 max(h_p, h_q, d(m, n)/2) - h_p - h_q.
    The rows are the path sums in units of 1/L.
    """
    nodes, parent, space = tree.nodes, tree.parent, tree.space
    roots = [k for k, p in enumerate(parent) if p == -1]
    if len(roots) != 1 or parent[-1] != -1:
        raise CertificationError(f"dendrogram roots are {roots}, not the top node alone")
    scale, d = scale_rows(space)
    unit = lcm(2 * scale, *(p.height.denominator for p in nodes), *(x.denominator for x in tree.edge_length))
    half = unit // (2 * scale)
    height = [p.height.numerator * (unit // p.height.denominator) for p in nodes]
    for k, p in enumerate(parent):
        if p >= 0 and height[p] <= height[k]:
            raise CertificationError(f"parent {nodes[p]} of {nodes[k]} is not higher")
    count = len(nodes)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for k, (p, x) in enumerate(zip(parent, tree.edge_length)):
        if p >= 0:
            length = x.numerator * (unit // x.denominator)
            adjacent[k].append((p, length))
            adjacent[p].append((k, length))
    rows = []
    for i in range(count):
        path: list = [None] * count
        path[i] = 0
        reached = [i]
        for u in reached:
            for v, length in adjacent[u]:
                if path[v] is None:
                    path[v] = path[u] + length
                    reached.append(v)
        hi, di = height[i], d[nodes[i].anchor]
        for j in range(i + 1, count):
            hj = height[j]
            if path[j] != 2 * max(hi, hj, di[nodes[j].anchor] * half) - hi - hj:
                raise CertificationError(f"path metric disagrees with the quotient metric on ({nodes[i]}, {nodes[j]})")
        rows.append(tuple(path))
    children = [0] * count
    for p in parent:
        if p >= 0:
            children[p] += 1
    for k, u in enumerate(nodes):
        if u.height > 0 and children[k] < 2:
            raise CertificationError(f"branching node {u} has fewer than two children")
    return unit, rows


def quotient_node_distances(tree: DendrogramTree) -> tuple[tuple[Fraction, ...], ...]:
    """``tree_distance`` of every node pair, as a symmetric matrix."""
    nodes = tree.nodes
    dist = [[Fraction(0)] * len(nodes) for _ in nodes]
    for i, j in combinations(range(len(nodes)), 2):
        dist[i][j] = dist[j][i] = tree_distance(tree.space, nodes[i], nodes[j])
    return tuple(map(tuple, dist))


def scan_retraction_claims(space: FiniteMetricSpace) -> RetractionClaimReport:
    """Every retraction claim on every pair, in Fractions, on a dyadic ultrametric space."""
    branching = scan_branching_points(space)
    d = space.dist
    leaf_branch, anchor_gap = [], []
    for a in range(len(space)):
        leaf = TreePoint(a, Fraction(0))
        for b in branching:
            rho = tree_distance(space, leaf, b)
            if d[a][b.anchor] > 2 * rho:
                leaf_branch.append((a, b))
            partner = generating_partner(space, b)
            gap = 2 * max(d[b.anchor][partner], d[b.anchor][a]) - d[b.anchor][partner]
            if d[a][b.anchor] > gap:
                anchor_gap.append((a, b))
    branch_pair, exponent_gap, same_height = [], [], []
    for a, b in combinations(branching, 2):
        rho = tree_distance(space, a, b)
        if d[a.anchor][b.anchor] > 4 * rho:
            branch_pair.append((a, b))
        if a.height == b.height and d[a.anchor][b.anchor] <= 2 * a.height:
            same_height.append((a, b))
        if d[a.anchor][b.anchor] > 0:
            expo_m = dyadic_exponent(d[a.anchor][b.anchor])
            expo_n = dyadic_exponent(2 * a.height)
            expo_k = dyadic_exponent(2 * b.height)
            if expo_n < expo_k:
                expo_n, expo_k = expo_k, expo_n
            lhs = Fraction(2) ** expo_m
            rhs = 4 * (Fraction(2) ** max(expo_m, expo_n) - Fraction(2) ** (expo_n - 1) - Fraction(2) ** (expo_k - 1))
            if lhs > rhs:
                exponent_gap.append((a, b))
    nodes = [TreePoint(i, Fraction(0)) for i in range(len(space))] + branching
    images = {p: retract_to_space(space, p, branching) for p in nodes}
    idempotent = all(images[TreePoint(images[p], Fraction(0))] == images[p] for p in nodes)
    attained = Fraction(0)
    for p, q in combinations(nodes, 2):
        ratio = d[images[p]][images[q]] / tree_distance(space, p, q)
        if ratio > attained:
            attained = ratio
    return RetractionClaimReport(
        tuple(leaf_branch),
        tuple(branch_pair),
        tuple(anchor_gap),
        tuple(exponent_gap),
        tuple(same_height),
        idempotent,
        attained,
    )


def hull_extreme_pairs(space: FiniteMetricSpace) -> list[tuple[int, int]]:
    """The pairs x < y whose molecule is not a convex combination of the other +-molecules.

    One LP feasibility problem per pair: weights lambda >= 0 on the other
    molecules and their negatives with sum 1 whose combination is m_xy.
    """
    n = len(space)
    pairs = list(combinations(range(n), 2))
    extreme = []
    for x, y in pairs:
        columns = [
            [(r, sign * c) for r, c in enumerate(molecule(space, i, j).coeffs) if c] + [(n - 1, Fraction(1))]
            for i, j in pairs
            if (i, j) != (x, y)
            for sign in (1, -1)
        ]
        if not columns:
            extreme.append((x, y))
            continue
        try:
            solve_lp([Fraction(0)] * len(columns), columns, [*molecule(space, x, y).coeffs, Fraction(1)])
        except LpInfeasibleError:
            extreme.append((x, y))
    return extreme


def strict_max_check(space: FiniteMetricSpace) -> list[tuple[int, int, int]]:
    """Check that unequal legs force d(i,k) = max of the legs, over all triples.

    The property is a theorem for ultrametric spaces, so the returned list is
    empty unless the arithmetic is broken; non-ultrametric input is rejected.
    """
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("strict_max_check requires an ultrametric space")
    d = space.dist
    violations = []
    for a, b, c in combinations(range(len(space)), 3):
        for i, j, k in ((a, b, c), (b, a, c), (a, c, b)):
            if d[i][j] != d[j][k] and d[i][k] != max(d[i][j], d[j][k]):
                violations.append((i, j, k))
    return violations


def path_distance(tree: DendrogramTree, i: int, j: int) -> Fraction:
    """Sum of edge lengths along the unique path between two nodes."""
    total = Fraction(0)
    while i != j:
        if tree.nodes[i].height <= tree.nodes[j].height and tree.parent[i] >= 0:
            total += tree.edge_length[i]
            i = tree.parent[i]
        else:
            total += tree.edge_length[j]
            j = tree.parent[j]
    return total


def projection_matrix(chain: RetractionChain, n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the induced projection in base-reduced coordinates.

    Column x-1 carries the evaluation vector of r_n(x); entries are 0/1
    integers, rank is n-1, and the matrix is idempotent.
    """
    if not 1 <= n <= chain.size:
        raise ValueError(f"stage {n} out of range")
    dim = chain.size - 1
    rows = [[0] * dim for _ in range(dim)]
    for x in range(1, chain.size):
        target = chain.retract(n, x)
        if target != 0:
            rows[target - 1][x - 1] = 1
    return tuple(tuple(r) for r in rows)


def fraction_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals, by elimination on a working copy."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    return _reduce(rows, len(rows[0]))


def reference_jsonable(obj):
    """Package objects as plain JSON data: Fractions as strings, dataclasses as dicts in field order, tuples as lists."""
    if type(obj) is Fraction:
        return str(obj)
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def stdlib_report_text(obj) -> str:
    """The report text of ``obj`` by :func:`reference_jsonable` and the standard library's ``indent=2`` encoder."""
    return json.dumps(reference_jsonable(obj), indent=2) + "\n"
