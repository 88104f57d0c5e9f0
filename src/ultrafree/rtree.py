"""Real-tree quotient of a finite ultrametric space.

Points of the tree are classes <anchor, height> of pairs (point, height >= 0),
where two pairs at the same height are identified once the height reaches half
their distance.  The metric is

    rho(<m,i>, <n,j>) = 2 max(i, j, d(m,n)/2) - (i + j),

under which the original space embeds isometrically at height 0.  The module
enumerates the branching points, realizes the finite subtree they span as a
rooted edge-weighted dendrogram, and verifies the nearest-anchor retraction
back onto the original points together with its Lipschitz bounds (factor 2
from a leaf to a branching point, factor 4 between branching points, on
power-of-two-valued spaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from .metric import CertificationError, FiniteMetricSpace, validate, with_base
from .rational import dyadic_exponent, parse_rational


@dataclass(frozen=True)
class TreePoint:
    """A quotient class, canonical once the anchor is the minimal-index member."""

    anchor: int
    height: Fraction

    def __post_init__(self) -> None:
        height = parse_rational(self.height)
        if height < 0:
            raise ValueError("height must be nonnegative")
        object.__setattr__(self, "anchor", int(self.anchor))
        object.__setattr__(self, "height", height)


def canonicalize(space: FiniteMetricSpace, p: TreePoint) -> TreePoint:
    """Replace the anchor by the minimal index within distance 2*height."""
    if p.height == 0:
        return p
    radius = 2 * p.height
    row = space.dist[p.anchor]
    for q in range(len(space)):
        if row[q] <= radius:
            return p if q == p.anchor else TreePoint(q, p.height)
    raise AssertionError("anchor is always inside its own ball")


def same_point(space: FiniteMetricSpace, p: TreePoint, q: TreePoint) -> bool:
    return p.height == q.height and space.dist[p.anchor][q.anchor] <= 2 * p.height


def tree_distance(space: FiniteMetricSpace, p: TreePoint, q: TreePoint) -> Fraction:
    """The quotient metric; representative independent."""
    half = space.dist[p.anchor][q.anchor] / 2
    return 2 * max(p.height, q.height, half) - (p.height + q.height)


def segment_point(space: FiniteMetricSpace, p: TreePoint, q: TreePoint, t: Fraction) -> TreePoint:
    """The point at arc length t along the unique segment from p to q.

    Three cases: when the higher endpoint already covers the other's anchor
    the segment is a vertical slide; otherwise it climbs from the lower
    endpoint to the joining height d(m,n)/2 and descends; the reversed
    orientation is evaluated as the mirror parameter.  Output is canonical.
    """
    t = parse_rational(t)
    rho = tree_distance(space, p, q)
    if t < 0 or t > rho:
        raise ValueError(f"parameter {t} outside [0, {rho}]")
    m, i = p.anchor, p.height
    n, j = q.anchor, q.height
    if j > i:
        return segment_point(space, q, p, rho - t)
    half = space.dist[m][n] / 2
    if i >= half:
        return canonicalize(space, TreePoint(n, rho + j - t))
    if t <= half - i:
        return canonicalize(space, TreePoint(m, i + t))
    return canonicalize(space, TreePoint(n, space.dist[m][n] - i - t))


def segment_grid(space: FiniteMetricSpace, p: TreePoint, q: TreePoint, quarters: int = 4) -> list[Fraction]:
    """Sample parameters: an even grid plus the case-switch height, dedup, sorted."""
    rho = tree_distance(space, p, q)
    ts = {Fraction(k) * rho / quarters for k in range(quarters + 1)}
    # apex parameters measured from either endpoint; relevant only when the
    # segment actually climbs over the joining height
    half = space.dist[p.anchor][q.anchor] / 2
    for switch in (half - p.height, half - q.height):
        if 0 <= switch <= rho:
            ts.add(switch)
            ts.add(rho - switch)
    return sorted(ts)


@dataclass(frozen=True)
class SegmentAxiomReport:
    isometry: tuple[tuple[TreePoint, TreePoint, Fraction, Fraction], ...]
    reversal: tuple[tuple[TreePoint, TreePoint, Fraction], ...]
    endpoint: tuple[tuple[TreePoint, TreePoint], ...]
    betweenness: tuple[tuple[TreePoint, TreePoint, TreePoint], ...]

    @property
    def passed(self) -> bool:
        return not (self.isometry or self.reversal or self.endpoint or self.betweenness)


def verify_segment_axioms(
    space: FiniteMetricSpace,
    pairs: Optional[Sequence[tuple[TreePoint, TreePoint]]] = None,
    quarters: int = 4,
) -> SegmentAxiomReport:
    """Finite-scale segment checks on sampled parameter grids.

    For each sampled pair: endpoints land on the pair, the parametrization is
    an exact isometry on the grid, the two orientations trace the same set
    via the mirror parameter, and membership matches the metric criterion
    rho(p,v) + rho(v,q) = rho(p,q) against all leaf and branching points.
    """
    candidates = _tree_nodes(space, branching_points(space))
    if pairs is None:
        pairs = list(combinations(candidates, 2))
    iso, rev, endp, betw = [], [], [], []
    for p, q in pairs:
        rho = tree_distance(space, p, q)
        grid = segment_grid(space, p, q, quarters)
        samples = {t: segment_point(space, p, q, t) for t in grid}
        if not same_point(space, samples[Fraction(0)], p) or not same_point(space, samples[rho], q):
            endp.append((p, q))
        for t, u in samples.items():
            if not same_point(space, segment_point(space, q, p, rho - t), u):
                rev.append((p, q, t))
        for t, u in samples.items():
            for t2, u2 in samples.items():
                if tree_distance(space, u, u2) != abs(t - t2):
                    iso.append((p, q, t, t2))
            if tree_distance(space, p, u) + tree_distance(space, u, q) != rho:
                betw.append((p, u, q))
        for v in candidates:
            dv = tree_distance(space, p, v)
            if dv + tree_distance(space, v, q) == rho:
                if not same_point(space, v, segment_point(space, p, q, dv)):
                    betw.append((p, v, q))
    return SegmentAxiomReport(tuple(iso), tuple(rev), tuple(endp), tuple(betw))


@dataclass(frozen=True)
class FourPointReport:
    violations: tuple[tuple[TreePoint, TreePoint, TreePoint, TreePoint], ...]
    checked: int

    @property
    def passed(self) -> bool:
        return not self.violations


def four_point_check(space: FiniteMetricSpace, points: Sequence[TreePoint]) -> FourPointReport:
    """Tree metric test: in every quadruple the two largest pairing sums agree.

    Equivalent to the inequality form over all orderings; quadruples with
    repeats pass by equality and are included.
    """
    violations = []
    checked = 0
    for w, x, y, z in combinations_with_replacement(points, 4):
        checked += 1
        sums = sorted(
            (
                tree_distance(space, w, x) + tree_distance(space, y, z),
                tree_distance(space, w, y) + tree_distance(space, x, z),
                tree_distance(space, w, z) + tree_distance(space, x, y),
            )
        )
        if sums[2] != sums[1]:
            violations.append((w, x, y, z))
    return FourPointReport(tuple(violations), checked)


def _tree_nodes(space: FiniteMetricSpace, branching: Sequence[TreePoint]) -> list[TreePoint]:
    """The finite tree domain: the leaves <i, 0> in point order, then the branching points."""
    return [TreePoint(i, Fraction(0)) for i in range(len(space))] + list(branching)


def branching_points(space: FiniteMetricSpace) -> list[TreePoint]:
    """All classes <m, d(m,n)/2> over distinct pairs, canonical and deduplicated."""
    found = set()
    for m in range(len(space)):
        for n in range(len(space)):
            if m != n:
                found.add(canonicalize(space, TreePoint(m, space.dist[m][n] / 2)))
    return sorted(found, key=lambda p: (p.height, p.anchor))


def generating_partner(space: FiniteMetricSpace, v: TreePoint) -> Optional[int]:
    """Some point at distance exactly 2*height from the canonical anchor, if any."""
    v = canonicalize(space, v)
    target = 2 * v.height
    row = space.dist[v.anchor]
    for n in range(len(space)):
        if n != v.anchor and row[n] == target:
            return n
    return None


@dataclass(frozen=True)
class WitnessReport:
    point: TreePoint
    partner: Optional[int]
    median_failures: tuple[tuple[TreePoint, TreePoint], ...]
    distinct: bool

    @property
    def passed(self) -> bool:
        return self.partner is not None and self.distinct and not self.median_failures


def verify_branching_witnesses(space: FiniteMetricSpace, v: TreePoint) -> WitnessReport:
    """Check the witness triple certifying that v branches.

    The witnesses are the two generating leaves and the point at double
    height on the anchor's branch; v must be the metric median of every
    witness pair and distinct from all three.
    """
    v = canonicalize(space, v)
    partner = generating_partner(space, v)
    if partner is None or v.height == 0:
        return WitnessReport(v, None, (), False)
    full = 2 * v.height
    witnesses = [
        TreePoint(v.anchor, Fraction(0)),
        TreePoint(partner, Fraction(0)),
        TreePoint(v.anchor, full),
    ]
    failures = []
    distinct = all(tree_distance(space, w, v) > 0 for w in witnesses)
    for a, b in combinations(witnesses, 2):
        if tree_distance(space, a, v) + tree_distance(space, v, b) != tree_distance(space, a, b):
            failures.append((a, b))
    return WitnessReport(v, partner, tuple(failures), distinct)


def retract_to_space(
    space: FiniteMetricSpace,
    a: TreePoint,
    branching: Optional[Sequence[TreePoint]] = None,
) -> int:
    """Nearest-anchor retraction: leaves stay put, branching points drop to their anchor."""
    a = canonicalize(space, a)
    if a.height == 0:
        return a.anchor
    members = set(branching) if branching is not None else set(branching_points(space))
    if a not in members:
        raise ValueError(f"{a} is neither a leaf nor a branching point")
    return a.anchor


@dataclass(frozen=True)
class RetractionClaimReport:
    """Exhaustive pairwise verification of the retraction bounds.

    ``leaf_branch`` collects failures of d(a, m_b) <= 2 rho(<a,0>, b),
    ``branch_pair`` failures of d(m_a, m_b) <= 4 rho(a, b); the two are
    theorem-backed on power-of-two-valued spaces, as are the auxiliary
    anchor-gap and exponent-gap inequalities their proofs run through.
    """

    leaf_branch: tuple[tuple[int, TreePoint], ...]
    branch_pair: tuple[tuple[TreePoint, TreePoint], ...]
    anchor_gap: tuple[tuple[int, TreePoint], ...]
    exponent_gap: tuple[tuple[TreePoint, TreePoint], ...]
    same_height_collisions: tuple[tuple[TreePoint, TreePoint], ...]
    idempotent: bool
    attained_constant: Fraction

    @property
    def passed(self) -> bool:
        return (
            self.idempotent
            and self.attained_constant <= 4
            and not (
                self.leaf_branch
                or self.branch_pair
                or self.anchor_gap
                or self.exponent_gap
                or self.same_height_collisions
            )
        )


def verify_retraction_claims(space: FiniteMetricSpace) -> RetractionClaimReport:
    """Check both Lipschitz bounds of the retraction on a dyadic ultrametric space.

    Refuses non-dyadic input: the factor-4 bound genuinely uses power-of-two
    distances.  Also reports the attained Lipschitz constant over all pairs
    of the finite domain (leaves plus branching points).
    """
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("retraction claims require an ultrametric space")
    if not report.is_dyadic:
        raise ValueError("retraction claims require power-of-two distances")
    return _retraction_claims(space, branching_points(space))


def _retraction_claims(space: FiniteMetricSpace, branching: Sequence[TreePoint]) -> RetractionClaimReport:
    """The body of :func:`verify_retraction_claims` on a validated dyadic ultrametric space.

    ``branching`` is ``branching_points(space)``.
    """
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
    nodes = _tree_nodes(space, branching)
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


@dataclass(frozen=True)
class DendrogramTree:
    """Rooted edge-weighted realization of the subtree spanned by leaves and branchings.

    Node i < number of points is the leaf of point i; the remaining nodes are
    the branching points sorted by (height, anchor).  ``parent[i]`` is -1 at
    the root; ``edge_length[i]`` is the height gap to the parent.
    """

    space: FiniteMetricSpace
    nodes: tuple[TreePoint, ...]
    parent: tuple[int, ...]
    edge_length: tuple[Fraction, ...]

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def children(self, i: int) -> list[int]:
        return [k for k, p in enumerate(self.parent) if p == i]


def dendrogram(space: FiniteMetricSpace) -> DendrogramTree:
    """Build the dendrogram and certify its path metric against the quotient metric.

    The parent of a node is the lowest node strictly above it whose ball
    covers its anchor; the root is the top branching point anchored at the
    base.  Certification compares the path-length distance of every node pair
    with the closed-form quotient distance and raises on any mismatch, and
    additionally checks that every branching node has at least two children.
    """
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("dendrogram requires an ultrametric space")
    return _dendrogram(space, branching_points(space))


def _dendrogram(space: FiniteMetricSpace, branching: Sequence[TreePoint]) -> DendrogramTree:
    """The body of :func:`dendrogram` on a validated ultrametric space.

    ``branching`` is ``branching_points(space)``.
    """
    nodes = _tree_nodes(space, branching)
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
    tree = DendrogramTree(space, tuple(nodes), tuple(parent), tuple(edge))
    _certify_path_metric(tree)
    for idx, u in enumerate(nodes):
        if u.height > 0 and len(tree.children(idx)) < 2:
            raise CertificationError(f"branching node {u} has fewer than two children")
    return tree


def _certify_path_metric(tree: DendrogramTree) -> None:
    """Raise unless the path metric of the tree is the quotient metric on every node pair.

    The tree must be rooted at its top node, with every parent strictly
    higher than its child, so that every path walk ends.
    """
    nodes, parent = tree.nodes, tree.parent
    roots = [_node_label(tree, nodes[k]) for k, p in enumerate(parent) if p == -1]
    if len(roots) != 1 or parent[-1] != -1:
        found = ", ".join(roots) or "none"
        raise CertificationError(f"dendrogram must have exactly one root, the top node; its roots are {found}")
    for k, p in enumerate(parent):
        if p >= 0 and nodes[p].height <= nodes[k].height:
            raise CertificationError(f"parent {nodes[p]} of {nodes[k]} is not higher")
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if path_distance(tree, i, j) != tree_distance(tree.space, nodes[i], nodes[j]):
                raise CertificationError(
                    f"path metric disagrees with the quotient metric on ({nodes[i]}, {nodes[j]})"
                )


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


def _node_label(tree: DendrogramTree, p: TreePoint) -> str:
    if p.height == 0:
        return tree.space.labels[p.anchor]
    return f"{tree.space.labels[p.anchor]}@{p.height}"


def node_space(tree: DendrogramTree) -> FiniteMetricSpace:
    """The metric space of all tree nodes, based at the original base leaf.

    Leaves keep their labels and their indices, so the original space sits at
    the same positions; this is the basing under which the retraction onto
    the leaves preserves the base point.
    """
    labels = [_node_label(tree, p) for p in tree.nodes]
    count = len(tree.nodes)
    dist = tuple(
        tuple(tree_distance(tree.space, tree.nodes[i], tree.nodes[j]) for j in range(count))
        for i in range(count)
    )
    return FiniteMetricSpace(tuple(labels), dist)


def rooted_node_space(tree: DendrogramTree) -> FiniteMetricSpace:
    """The metric space of all tree nodes, based at the root.

    Point 0 is the root and point k >= 1 is node k-1 (the root is always the
    last tree node), so free vectors in these coordinates line up with the
    edge-flow coordinates of :func:`ultrafree.ell1.tree_free_norm`.  Free
    spaces over different base points are isometric, so this is a choice of
    coordinates, not of content.
    """
    return with_base(node_space(tree), len(tree.nodes) - 1)
