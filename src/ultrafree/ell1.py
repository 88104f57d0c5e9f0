"""The l1 side of the construction, at finite scale.

On a metric tree the transport norm has explicit l1 coordinates: the norm of
a coefficient vector equals the sum over edges of edge length times the
absolute net coefficient mass hanging below the edge (Godard 2010).  The
rooted node space of a dendrogram keeps its tree, so its transport norm
takes the tree route of :mod:`ultrafree.freespace` and its one
certificate.  This module certifies a battery of vectors on that route,
the node pairs off the certified node distances, plays it against the
simplex in :func:`oracle_vs_lp`, computes the l1-equivalence constants of
a basis family in closed form, and decides exactly, from the extreme
molecules, whether a free space is isometric to l1.

The unit ball of the free space is the convex hull of the +-molecules
m_ij = (delta_i - delta_j) / d(i, j), so the lower l1 constant of a family
is 1 / max_{i<j} Phi(m_ij), where Phi(x) = sum |c_k(x)| * norm(e_k) over
the coefficients c(x) of x in the family; its witness, the maximizing
molecule scaled to Phi = 1, is certified by one transport solve.  On the
family of a chain, which keeps its chain, Phi(m_ij) is a path length in
the chain's anchor tree over d(i, j), as for tree metrics (Godard 2010).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .chain import (
    BasisFamily,
    _certified_chain,
    _combination,
    _molecule_expansions,
    basis_constant,
    basis_vectors,
    build_chain,
    verify_chain,
)
from .freespace import (
    FreeNormCertificate,
    FreeVector,
    PointMap,
    _certify_transport,
    _edge_flow,
    _lp_certificate,
    _point_difference,
    _tree_transport,
    dirac,
    free_norm,
    free_norm_certificate,
    molecule,
    operator_norm_of_extension,
    zero_vector,
)
from .metric import (
    CertificationError,
    FiniteMetricSpace,
    _Scaled,
    _integer_view,
    _tree_edges,
    identity_distortion,
    round_to_dyadic,
    validate,
)
from .rational import parse_rational
from .rtree import (
    DendrogramTree, _node_distances, _node_labels, _path_sums, _retraction_claims, dendrogram, node_space, rooted_node_space
)


@dataclass(frozen=True)
class EdgeFlowCoordinates:
    """Net coefficient mass below each edge (away from the root), plus lengths.

    Indexed by the non-root tree nodes, one coordinate per parent edge.
    These are l1 coordinates: the map from node coefficients to edge masses
    is a linear bijection and the norm is sum(length * |mass|).
    """

    masses: tuple[Fraction, ...]
    lengths: tuple[Fraction, ...]

    def norm(self) -> Fraction:
        return sum(
            (l * abs(m) for l, m in zip(self.lengths, self.masses)), Fraction(0)
        )


def edge_flow_coordinates(tree: DendrogramTree, v: FreeVector) -> EdgeFlowCoordinates:
    """The subtree masses of :func:`_tree_transport` on the edges the rooted node space keeps; linear time.

    Coefficient k belongs to tree node k, with the root (always the last
    node) carrying none: these are free-space coordinates based at the root.
    """
    count = len(tree.nodes)
    if len(v.coeffs) != count - 1:
        raise ValueError("vector dimension does not match the tree nodes")
    net, _ = _tree_transport(_tree_edges(rooted_node_space(tree)), [Fraction(0), *v.coeffs])
    return EdgeFlowCoordinates(tuple(net[1:]), tree.edge_length[: count - 1])


def vector_from_edge_flows(tree: DendrogramTree, masses: Sequence[Fraction]) -> FreeVector:
    """Invert the edge-flow map: coefficient = own mass minus children's masses."""
    count = len(tree.nodes)
    if len(masses) != count - 1:
        raise ValueError("one mass per non-root node required")
    coeffs = list(masses)
    for k in range(count - 1):
        p = tree.parent[k]
        if p < count - 1:
            coeffs[p] -= masses[k]
    return FreeVector(tuple(coeffs))


def tree_free_norm(tree: DendrogramTree, v: FreeVector) -> Fraction:
    """Edge-flow norm: sum over edges of length(e) * |net mass below e|, the value of :func:`tree_norm_certificate`."""
    return tree_norm_certificate(tree, v).value


@dataclass(frozen=True)
class OracleReport:
    vectors_checked: int
    mismatches: tuple[tuple[FreeVector, Fraction, Fraction], ...]
    pair_mismatches: tuple[tuple[FreeVector, Fraction, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not (self.mismatches or self.pair_mismatches)


# the lcm of the denominators 1, 2, 3, 4 that a random coefficient is drawn with
_DRAW_UNIT = 12
# _DRAW_UNIT // b for the denominators b = 1, 2, 3, 4, indexed by b - 1
_DRAW_STEPS = (12, 6, 4, 3)


def _random_integers(rng: random.Random, dim: int) -> list[int]:
    """dim random coefficients k / b, k in -6..6 and b in 1..4, as integers over :data:`_DRAW_UNIT`.

    Each draw reads the bit stream as ``rng.randint(-6, 6)`` and then
    ``rng.choice((1, 2, 3, 4))`` read it through CPython's
    ``_randbelow_with_getrandbits``: 4 bits for k + 6, drawn again while
    they are 13 or more, then 3 bits for b - 1, drawn again while they are
    4 or more.  So the values are those two calls give, and the rng ends in
    the state they leave, at a fraction of the method calls.
    """
    bits, draws = rng.getrandbits, []
    for _ in range(dim):
        k = bits(4)
        while k >= 13:
            k = bits(4)
        b = bits(3)
        while b >= 4:
            b = bits(3)
        draws.append((k - 6) * _DRAW_STEPS[b])
    return draws


def _random_coeffs(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    """The draws of :func:`_random_integers` as Fractions."""
    return tuple(Fraction(c, _DRAW_UNIT) for c in _random_integers(rng, dim))


def _battery_draws(space: FiniteMetricSpace, ambient: FiniteMetricSpace, vectors: int, seed: int) -> list[list[int]]:
    """The random vectors of the battery, as integer coefficients over :data:`_DRAW_UNIT`.

    ``vectors`` random vectors on every node, then max(5, vectors // 5)
    random vectors supported on the original leaves, all drawn by
    :func:`_random_integers` from one ``random.Random(seed)``, so the
    battery is the one that ``randint`` and ``choice`` give.
    """
    if vectors < 0:
        raise ValueError("the oracle battery size must be non-negative")
    dim, leaves = len(ambient) - 1, len(space)
    rng = random.Random(seed)
    draws = [_random_integers(rng, dim) for _ in range(vectors)]
    draws += [_random_integers(rng, leaves) + [0] * (dim - leaves) for _ in range(max(5, vectors // 5))]
    return draws


def _battery(
    space: FiniteMetricSpace, ambient: FiniteMetricSpace, vectors: int, seed: int
) -> tuple[list[FreeVector], list[tuple[int, int, FreeVector]]]:
    """The edge-flow battery in the root-based coordinates of the node set.

    The random vectors of :func:`_battery_draws` as Fractions, then the
    difference of every node pair (i, j) of ``ambient``, whose norm must
    be their distance.
    """
    battery = [
        FreeVector._exact(tuple(Fraction(c, _DRAW_UNIT) for c in coeffs))
        for coeffs in _battery_draws(space, ambient, vectors, seed)
    ]
    size = len(ambient)
    pairs = [
        (i, j, FreeVector._exact(_point_difference(size, i, j))) for i in range(size) for j in range(i + 1, size)
    ]
    return battery, pairs


def oracle_vs_lp(space: FiniteMetricSpace, vectors: int = 50, seed: int = 0) -> OracleReport:
    """Play the edge-flow oracle against the transport solver, exactly.

    Both sides use the root-based coordinates of the node set.  The battery
    contains random rational vectors, random vectors supported on the
    original leaves only, and every pairwise evaluation difference (whose
    common value must also be the tree distance of the pair), on the
    dendrogram kept on the space.  The LP side is solved by
    :func:`ultrafree.freespace._lp_certificate`, once per vector, since
    :func:`free_norm` takes the tree route on the node space.
    """
    tree = dendrogram(space)
    ambient = rooted_node_space(tree)
    battery, pairs = _battery(space, ambient, vectors, seed)
    mism, pair_mism = [], []
    for v in battery:
        flow_value, lp_value = tree_free_norm(tree, v), _lp_certificate(ambient, v).value
        if flow_value != lp_value:
            mism.append((v, flow_value, lp_value))
    for i, j, v in pairs:
        flow_value, lp_value = tree_free_norm(tree, v), _lp_certificate(ambient, v).value
        if not flow_value == lp_value == ambient.dist[i][j]:
            pair_mism.append((v, flow_value, lp_value))
    return OracleReport(len(battery) + len(pairs), tuple(mism), tuple(pair_mism))


def _checked_node_pairs(tree: DendrogramTree, view: _Scaled) -> None:
    """Certify that the edge-flow norm of delta_i - delta_j is d(i, j) for every node pair i < j, off the certified rows.

    ``view`` is the integer view (q, D) of the root-based node space (point
    0 the root, point x >= 1 tree node x - 1).  Every edge length must equal
    its node distance in the rows of :func:`ultrafree.rtree._node_distances`,
    both orientations, parent to child first.  The rows are the certified
    path sums of those lengths, so the norm of each pair, the length of its
    tree path (one unit of flow along it, the potential -path(i, .)), is its
    row entry, and it must be D[i][j] / q, by cross-multiplying.  A failure
    names its edge or pair.  O(nodes^2) in integers, with no walk of the tree.
    """
    scale, rows = _node_distances(tree)
    labels, parent, last = _node_labels(tree), tree.parent, len(tree.nodes) - 1
    for child in reversed(range(last)):
        up, length = parent[child], tree.edge_length[child]
        top, bottom = length.numerator * scale, length.denominator
        for a, b in ((up, child), (child, up)):
            if rows[a][b] * bottom != top:
                raise CertificationError(f"potential does not drop by the length of edge ({labels[a]}, {labels[b]})")
    q, d = view
    for i, row in enumerate(d[:-1]):
        node = i - 1 if i else last
        path = rows[node]
        for j in range(i + 1, len(row)):
            if path[j - 1] * q != row[j] * scale:
                pair = f"({labels[node]}, {labels[j - 1]})"
                raise CertificationError(f"edge-flow norm of the pair {pair} is not its distance")


def tree_norm_certificate(tree: DendrogramTree, v: FreeVector) -> FreeNormCertificate:
    """Edge-flow norm of v on the root-based node space, with its flow and potential.

    This is :func:`free_norm_certificate` on :func:`rooted_node_space`,
    which keeps its tree, so it takes the tree route and its one check.
    """
    return free_norm_certificate(rooted_node_space(tree), v)


def _certify_edge_flow_battery(tree: DendrogramTree, vectors: int, seed: int) -> None:
    """Certify the edge-flow norm on the battery of :func:`oracle_vs_lp`, in integers, with no Fraction built.

    Each random and leaf-supported draw over :data:`_DRAW_UNIT` takes the
    tree route on the rooted node space (:func:`_edge_flow`) and the one
    transport certificate, O(n) for n nodes; then :func:`_checked_node_pairs`.
    """
    ambient = rooted_node_space(tree)
    edges, view = _tree_edges(ambient), _integer_view(ambient)
    for coeffs in _battery_draws(tree.space, ambient, vectors, seed):
        cost, arcs, potential = _edge_flow(edges, coeffs)
        _certify_transport(ambient, coeffs, _DRAW_UNIT, cost, arcs, potential, view[0])
    _checked_node_pairs(tree, view)


def edge_molecules(tree: DendrogramTree) -> BasisFamily:
    """Normalized child-minus-parent vectors, one per edge; each has norm 1.

    Built in root-based coordinates, where the root side of its own edges
    contributes nothing (its evaluation is the zero vector).
    """
    ambient = rooted_node_space(tree)
    vectors = []
    for k in range(len(tree.nodes)):
        p = tree.parent[k]
        if p >= 0:
            scale = 1 / tree.edge_length[k]
            child = dirac(ambient, k + 1)
            parent = zero_vector(ambient) if p == len(tree.nodes) - 1 else dirac(ambient, p + 1)
            vectors.append(scale * (child - parent))
    return BasisFamily(ambient, tuple(vectors), (Fraction(1),) * len(vectors))


@dataclass(frozen=True)
class EdgeMoleculeReport:
    patterns_checked: int
    mismatches: tuple[tuple[tuple[Fraction, ...], Fraction, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def edge_molecule_isometry(tree: DendrogramTree, patterns: int = 30, seed: int = 0) -> EdgeMoleculeReport:
    """Check that edge molecules are exactly 1-equivalent to the l1 unit basis.

    For each sign/coefficient pattern c the norm of sum c_k u_k, computed by
    the simplex on the node space (:func:`ultrafree.freespace._lp_certificate`),
    must equal sum |c_k| exactly.
    """
    family = edge_molecules(tree)
    ambient = family.space
    rng = random.Random(seed)
    batteries = [tuple(Fraction(1) for _ in family.vectors)]
    for _ in range(patterns):
        batteries.append(_random_coeffs(rng, len(family.vectors)))
    mismatches = []
    for pattern in batteries:
        combo = _combination(len(ambient) - 1, family.vectors, pattern)
        lhs = _lp_certificate(ambient, FreeVector(tuple(combo))).value
        rhs = sum((abs(c) for c in pattern), Fraction(0))
        if lhs != rhs:
            mismatches.append((pattern, lhs, rhs))
    return EdgeMoleculeReport(len(batteries), tuple(mismatches))


@dataclass(frozen=True)
class L1Constants:
    lower: Fraction
    upper: Fraction


def l1_equivalence_constants(space: FiniteMetricSpace, family: BasisFamily) -> L1Constants:
    """Equivalence constants between the family and the l1 unit basis.

    Write Phi(x) = sum |c_k(x)| * norm(e_k) for the coefficients c(x) of x in
    the family.  The triangle inequality gives norm(x) <= Phi(x), so the
    upper constant is 1.  The lower constant is the minimum of norm(x) over
    Phi(x) = 1, that is 1 / max Phi over the unit ball; the unit ball is
    the convex hull of the +-molecules and Phi is convex and even, so the
    maximum is attained at a molecule: lower = 1 / max_{i<j} Phi(m_ij).

    On the family of a chain, which keeps it, the coefficients of m_ij
    certified off the chain's scan are +-1 / d(i, j) on the path from i
    to j in the anchor tree, where the point p added at stage n + 1 hangs
    off r_n p with weight norm(e_n), so Phi(m_ij) is that path length over
    d(i, j).  One walk from each point, on the integer scale of the norms,
    gives the path lengths, the ratios are compared by cross-multiplication
    on the integer view, the first maximizing pair, row by row, is kept,
    and only its coefficients are read off the rank rows: O(N^2) in all.
    A distance that is not positive raises ValueError naming its pair.  Any
    other family, a hand-built copy of it too, is inverted, for the same
    value.  The value is certified by its witness w = m*/Phi(m*), at the
    maximizing molecule m* = m_ij: the coefficients must reconstruct m*
    exactly and give Phi(m*) = sum |c_k| * norm(e_k), and the transport
    norm of w must equal the returned lower constant; a failed check raises
    :class:`CertificationError` naming the pair.  On a chain's family the
    first two checks run in integers on the signs s_k in {-1, 0, 1} of the
    rank rows, c_k = s_k / d(i, j): sum_k s_k e_k must be delta_i - delta_j,
    and sum |s_k| * norm(e_k), on the integer scale of the norms, the path
    length the walk found.  The witness is built directly, +-lower / d(i, j)
    at i and j, and its transport solve stays the independent certificate.
    A family that is empty, does not fit the space or does not span the
    free space raises ValueError.
    """
    if not family.vectors:
        raise ValueError("family is empty")
    chain = _certified_chain(space, family)
    dim = len(space) - 1
    if chain is None:
        phi, i, j, coeffs = max(
            (
                (sum((abs(c) * norm for c, norm in zip(coeffs, family.norms)), Fraction(0)), i, j, coeffs)
                for i, j, coeffs in _molecule_expansions(space, family)
            ),
            key=lambda entry: entry[0],
        )
        if _combination(dim, family.vectors, coeffs) != list(molecule(space, i, j).coeffs):
            raise CertificationError(f"l1 witness at pair ({i}, {j}) does not reconstruct its molecule")
    else:
        q, d = _integer_view(space)
        order, ranks = chain.ordering, chain.ranks
        unit = lcm(*(norm.denominator for norm in family.norms))
        weights = [norm.numerator * (unit // norm.denominator) for norm in family.norms]
        adjacent: list[list[tuple[int, int]]] = [[] for _ in order]
        for n, weight in enumerate(weights, 1):
            point = order[n]
            anchor = order[ranks[n - 1][point] - 1]
            adjacent[point].append((anchor, weight))
            adjacent[anchor].append((point, weight))
        best = None
        for i, row in enumerate(d[:-1]):
            path = _path_sums(adjacent, i)
            for j in range(i + 1, len(row)):
                if row[j] <= 0:
                    raise ValueError(f"the distance of the pair ({i}, {j}) is {space.dist[i][j]}, not positive")
                if best is None or path[j] * best[1] > best[0] * row[j]:
                    best = path[j], row[j], i, j
        total, bottom, i, j = best
        phi = Fraction(total * q, unit * bottom)
        # the coefficients of m_ij are these signs over d(i, j), and Phi(m_ij) = total / (unit d(i, j))
        signs = [int(r[i] == n + 1) - int(r[j] == n + 1) for n, r in enumerate(ranks[1:], 1)]
        if _combination(dim, family.vectors, signs) != list(_point_difference(len(space), i, j)):
            raise CertificationError(f"l1 witness at pair ({i}, {j}) does not reconstruct its molecule")
        if sum(weight for s, weight in zip(signs, weights) if s) != total:
            raise CertificationError(f"l1 witness at pair ({i}, {j}) does not attain Phi = {phi}")
    lower = 1 / phi
    # the witness lower * m_ij, +-lower / d(i, j) at i and j
    step = lower / space.dist[i][j]
    witness = FreeVector._exact(tuple(step * c if c else c for c in _point_difference(len(space), i, j)))
    if free_norm_certificate(space, witness).value != lower:
        raise CertificationError(f"l1 witness at pair ({i}, {j}) does not attain the lower constant")
    return L1Constants(lower, Fraction(1))


def three_point_space(s: Fraction) -> FiniteMetricSpace:
    """The ultrametric triangle with two unit sides and one side s in (0, 1]."""
    s = parse_rational(s)
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    one = Fraction(1)
    return FiniteMetricSpace(
        ("0", "x", "y"),
        (
            (Fraction(0), one, one),
            (one, Fraction(0), s),
            (one, s, Fraction(0)),
        ),
    )


def _segment_witness(d: Sequence[Sequence[int]], x: int, y: int) -> Optional[int]:
    """A third point z with d(x, z) + d(z, y) = d(x, y), or None."""
    return next((z for z in range(len(d)) if z not in (x, y) and d[x][z] + d[z][y] == d[x][y]), None)


def _separating_potential(d: Sequence[Sequence[int]], x: int, y: int) -> list[int]:
    """d(y, .), raised at x to the shortest detour min_w d(x, w) + d(w, y) over w not in {x, y}.

    With no third point any value above d(x, y) separates; 2 d(x, y) is taken.
    """
    f = list(d[y])
    f[x] = min((d[x][w] + d[w][y] for w in range(len(d)) if w not in (x, y)), default=2 * d[x][y])
    return f


def _l1_isometry(space: FiniteMetricSpace) -> tuple[tuple[tuple[int, int], ...], bool]:
    """The extreme pairs x < y of a finite metric space, and whether F(M) is isometric to l1^(N-1).

    The unit ball of F(M) is the convex hull of the +-molecules m_xy.  A
    pair with a segment witness z, d(x, z) + d(z, y) = d(x, y), is not
    extreme: m_xy = (d(x, z) m_xz + d(z, y) m_zy) / d(x, y) is a proper
    convex combination of two other molecules.  Any other pair gets its
    separating potential f: it is 1-Lipschitz on every pair other than
    {x, y} and f(x) - f(y) > d(x, y), so <f, m> <= 1 on every other
    +-molecule while <f, m_xy> > 1, and m_xy is a vertex of the ball.  A
    centrally symmetric polytope in R^(N-1) is a linear image of the cross
    polytope exactly when it has 2(N - 1) vertices, so F(M) is isometric to
    l1^(N-1) exactly when there are N - 1 extreme pairs (Godard 2010).

    Both certificates are checked on the integer view.  Off x the potential
    must be d(y, .), which is 1-Lipschitz by the triangle inequality that
    :func:`validate` has checked, so only the pairs through x are checked
    one by one: O(N) per pair, O(N^3) in all.  A failed check raises
    :class:`CertificationError` naming the pair; non-metric input raises
    ValueError.
    """
    if not validate(space).is_metric:
        raise ValueError("the l1-isometry decision needs a metric space")
    _, d = _integer_view(space)
    n, labels = len(space), space.labels
    extreme = []
    for x in range(n):
        for y in range(x + 1, n):
            pair, off = f"({labels[x]}, {labels[y]})", f"d({labels[y]}, .) off {labels[x]}"
            z = _segment_witness(d, x, y)
            if z is not None:
                if z in (x, y) or d[x][z] + d[z][y] != d[x][y]:
                    raise CertificationError(f"segment witness of the pair {pair} does not lie between them")
                continue
            f = _separating_potential(d, x, y)
            if any(f[u] != d[y][u] for u in range(n) if u != x):
                raise CertificationError(f"separating potential of the pair {pair} is not {off}")
            if any(abs(f[x] - f[w]) > d[x][w] for w in range(n) if w not in (x, y)):
                raise CertificationError(f"separating potential of the pair {pair} is not 1-Lipschitz off the pair")
            if f[x] - f[y] <= d[x][y]:
                raise CertificationError(f"separating potential of the pair {pair} does not separate its molecule")
            extreme.append((x, y))
    return tuple(extreme), len(extreme) == n - 1


@dataclass(frozen=True)
class ThreePointReport:
    """Exact norms of the three-point space and its l1-isometry decision.

    ``extreme_pairs`` counts the molecules that are vertices of the unit
    ball; the space is isometric to two-dimensional l1 exactly when there
    are two, and on the ultrametric triangle all three are.
    """

    s: Fraction
    norm_x: Fraction
    norm_y: Fraction
    norm_difference: Fraction
    norm_sum: Fraction
    beta_norms: tuple[tuple[Fraction, Fraction, Fraction], ...]
    extreme_pairs: int
    l1_isometric: bool


def _beta_bound(s: Fraction, beta: Fraction) -> Fraction:
    return max(s, s * beta, s * (beta + 1) / 2)


def three_point_report(s: Fraction, betas: Optional[Sequence[Fraction]] = None) -> ThreePointReport:
    """Exact three-point norms, the scaling bounds, and the l1-isometry decision.

    Asserts the four exact identities (unit evaluations, difference s, sum 2)
    and, at every beta, the lower bound max(s, s*beta, s*(beta+1)/2) for the
    norm of delta_x - beta*delta_y; the weaker reading s/(2*(beta+1)) is
    checked incidentally.  ``betas`` replaces the default list.  The
    decision is that of :func:`_l1_isometry`, certificates included.
    """
    s = parse_rational(s)
    space = three_point_space(s)
    if betas is None:
        base = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
        # scalings just off 1, on both sides of where the bound changes branch
        near_one = [Fraction(8, 9), Fraction(9, 8), Fraction(4, 5), Fraction(5, 4),
                    Fraction(2, 3), Fraction(3, 2)]
        betas = sorted(set(base + near_one + [s, 1 / s]))
    else:
        betas = sorted({parse_rational(b) for b in betas})
    if any(b <= 0 for b in betas):
        raise ValueError("beta grid must be positive")
    dx = dirac(space, 1)
    dy = dirac(space, 2)
    norm_x = free_norm(space, dx)
    norm_y = free_norm(space, dy)
    norm_diff = free_norm(space, dx - dy)
    norm_sum = free_norm(space, dx + dy)
    identities = (("|dx|", norm_x, 1), ("|dy|", norm_y, 1), ("|dx - dy|", norm_diff, s), ("|dx + dy|", norm_sum, 2))
    for name, value, expected in identities:
        if value != expected:
            raise CertificationError(f"three-point identity failed: {name} is {value}, not {expected}")
    beta_rows = []
    for beta in betas:
        value = free_norm(space, dx - beta * dy)
        bound = _beta_bound(s, beta)
        if bound > value or s / (2 * (beta + 1)) > value:
            raise CertificationError(f"scaling bound failed at beta={beta}")
        beta_rows.append((beta, value, bound))
    extreme, isometric = _l1_isometry(space)
    return ThreePointReport(s, norm_x, norm_y, norm_diff, norm_sum, tuple(beta_rows), len(extreme), isometric)


@dataclass(frozen=True)
class PipelineReport:
    """Consolidated constants of the whole chain on one input space."""

    size: int
    distortion: Fraction
    retraction_constant: Fraction
    projection_norm: Fraction
    basis_constant: Fraction
    l1_lower: Fraction
    l1_upper: Fraction
    chain_ok: bool
    claims_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.chain_ok
            and self.claims_ok
            and self.distortion < 2
            and self.retraction_constant <= 4
            and self.projection_norm <= 4
            and self.basis_constant == 1
            and 0 < self.l1_lower <= self.l1_upper == 1
        )


def pipeline(
    space: FiniteMetricSpace,
    ordering: Optional[Sequence[int]] = None,
    oracle_vectors: int = 25,
    seed: int = 0,
) -> PipelineReport:
    """Run the full chain: round, embed, retract, edge flows, basis, l1 constants.

    The rounding distortion must stay below 2, the tree retraction constant
    and the induced projection norm below or at 4, the basis constant must be
    exactly 1 and the l1 lower constant in (0, 1].  The edge-flow norm is
    certified on the battery of :func:`oracle_vs_lp` (``oracle_vectors``
    random vectors, the leaf-supported ones and every node pair), in
    integers by :func:`_certify_edge_flow_battery`.  The battery is drawn
    from the bit stream (:func:`_random_integers`), and both node spaces
    are built with their integer views and their tree.  The
    projection norm is the Lipschitz constant of the retraction on the
    node space, found by cross-multiplication on integers and certified at
    its witness pair in integers, with no molecule
    (:func:`operator_norm_of_extension`); a
    failed certificate raises :class:`CertificationError`.  The input and
    its rounding are validated by their cached single-linkage merges.  The
    dendrogram of the rounding is kept on it, and its node distances,
    certified once, serve the claims, the node spaces and the battery.  The
    chain identities and the basis constant are read through the public
    functions off the chain's one scan, which also certifies the
    telescoping and the rank bound: on this ultrametric input the scan
    checks the chain's table against the merge-tree rule in O(N^2), with
    no pair scanned.  The l1 constants come off one walk of
    its anchor tree per point, all in integers, with the witness checked on
    its signs; the one transport solve left is the witness of the l1 lower
    constant.
    """
    if len(space) < 2:
        raise ValueError("pipeline needs at least two points")
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("pipeline requires an ultrametric space")
    rounded = round_to_dyadic(space)
    report = validate(rounded)
    if not (report.is_ultrametric and report.is_dyadic):
        raise CertificationError("dyadic rounding did not give a power-of-two ultrametric")
    distortion = identity_distortion(space, rounded)
    tree = dendrogram(rounded)
    claims, image = _retraction_claims(rounded)
    ambient = node_space(tree)
    _certify_edge_flow_battery(tree, oracle_vectors, seed)
    chain = build_chain(space, ordering)
    family = basis_vectors(chain)
    constant, l1 = basis_constant(space, family), l1_equivalence_constants(space, family)
    projection = operator_norm_of_extension(PointMap(ambient, ambient, tuple(image)))
    return PipelineReport(
        size=len(space),
        distortion=distortion,
        retraction_constant=claims.attained_constant,
        projection_norm=projection,
        basis_constant=constant,
        l1_lower=l1.lower,
        l1_upper=l1.upper,
        chain_ok=verify_chain(chain).passed,
        claims_ok=claims.passed,
    )
