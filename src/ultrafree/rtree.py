"""Real-tree quotient of a finite ultrametric space.

Points of the tree are classes <anchor, height> of pairs (point, height >= 0),
where two pairs at the same height are identified once the height reaches half
their distance.  The metric is

    rho(<m,i>, <n,j>) = 2 max(i, j, d(m,n)/2) - (i + j),

under which the original space embeds isometrically at height 0.  The finite
subtree spanned by the points is the single-linkage hierarchy of the space:
each cluster C that merges at height h (tied merges contracted) is the
branching point <min C, h/2>, and the tree distance of two points is twice
the height of their lowest common ancestor.  The module reads the branching
points and the rooted edge-weighted dendrogram off one single-linkage merge
tree, certifies its path metric against the quotient metric on every node
pair in integers, and verifies the nearest-anchor retraction back onto the
original points together with its Lipschitz bounds (factor 2 from a leaf to
a branching point, factor 4 between branching points, on
power-of-two-valued spaces), on the same certified node distances, which
the tree keeps (see :func:`ultrafree.metric._cached`); the space keeps its
tree through a weak reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Optional, Sequence

from .metric import (
    CertificationError,
    FiniteMetricSpace,
    _Scaled,
    _cached,
    _cluster_parents,
    _integer_view,
    _keep_tree,
    _single_linkage,
    _space_with_view,
    validate,
    with_base,
)
from .rational import _index, parse_rational


@dataclass(frozen=True)
class TreePoint:
    """A quotient class, canonical once the anchor is the minimal-index member."""

    anchor: int
    height: Fraction

    def __post_init__(self) -> None:
        anchor, height = _index(self.anchor), parse_rational(self.height)
        if anchor < 0:
            raise ValueError("anchor must be a nonnegative point index")
        if height < 0:
            raise ValueError("height must be nonnegative")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "height", height)

    @classmethod
    def _exact(cls, anchor: int, height: Fraction) -> "TreePoint":
        """Wrap an int anchor >= 0 and an exact Fraction height >= 0 without the checks of ``__post_init__``."""
        point = object.__new__(cls)
        object.__setattr__(point, "anchor", anchor)
        object.__setattr__(point, "height", height)
        return point


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


def segment_grid(space: FiniteMetricSpace, p: TreePoint, q: TreePoint) -> list[Fraction]:
    """Sample parameters: the quarters of the segment plus the case-switch height, dedup, sorted."""
    rho = tree_distance(space, p, q)
    ts = {Fraction(k) * rho / 4 for k in range(5)}
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


def verify_segment_axioms(space: FiniteMetricSpace) -> SegmentAxiomReport:
    """Finite-scale segment checks on sampled parameter grids.

    For each pair of leaves and branching points: endpoints land on the
    pair, the parametrization is an exact isometry on the quarter grid of
    :func:`segment_grid`, the two orientations trace the same set
    via the mirror parameter, and membership matches the metric criterion
    rho(p,v) + rho(v,q) = rho(p,q) against all leaf and branching points.
    """
    candidates = [TreePoint(i, Fraction(0)) for i in range(len(space))] + branching_points(space)
    iso, rev, endp, betw = [], [], [], []
    for p, q in combinations(candidates, 2):
        rho = tree_distance(space, p, q)
        grid = segment_grid(space, p, q)
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


def branching_points(space: FiniteMetricSpace) -> list[TreePoint]:
    """All classes <m, d(m,n)/2> over distinct pairs, canonical and deduplicated.

    On an ultrametric these are the clusters of the single-linkage merge
    tree with tied heights contracted, each cluster C merging at height h
    giving <min C, h/2>; sorted by (height, anchor).  Raises ValueError on
    a space that is not an ultrametric.
    """
    merges = _single_linkage(space)
    if merges is None:
        raise ValueError("branching points require an ultrametric space")
    return _merge_tree(len(space), merges, _integer_view(space)[0])[0][len(space):]


def _merge_tree(n: int, merges, scale: int) -> tuple[list[TreePoint], list[int], list[Fraction]]:
    """The nodes, parents and edge lengths of the dendrogram, read off single-linkage merges.

    ``merges`` are those of :func:`ultrafree.metric._single_linkage` on n
    points, their heights in units of 1/``scale``, with tied merges
    contracted by :func:`ultrafree.metric._cluster_parents`: each closing
    merge closes a cluster C at its height h, the ball of radius h about
    each member, which is the branching point <min C, h/2>.  Nodes are the
    leaves in point order, then the branching points by (height, anchor); a
    node's parent is the branching point of the next cluster above it, and
    its edge length the height gap.  In units of 1/(2 scale) a node's height
    is its merge height, so the nodes are sorted and the gaps taken in
    integers, and one Fraction is built per distinct height and gap.
    """
    above = _cluster_parents(n, merges)
    low = list(range(len(above)))
    height = [0] * n + [h for h, _, _ in merges]
    for k, (_, a, b) in enumerate(merges):
        low[n + k] = min(low[a], low[b])
    closing = sorted({*above} - {-1}, key=lambda u: (height[u], low[u]))
    index = {-1: -1, **{u: n + k for k, u in enumerate(closing)}}
    order = (*range(n), *closing)
    parent = [index[above[u]] for u in order]
    exact = {0: Fraction(0)}

    def halved(x: int) -> Fraction:
        if x not in exact:
            exact[x] = Fraction(x, 2 * scale)
        return exact[x]

    nodes = [TreePoint._exact(low[u], halved(height[u])) for u in order]
    edge = [halved(height[above[u]] - height[u]) if above[u] >= 0 else exact[0] for u in order]
    return nodes, parent, edge


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

    Refuses non-ultrametric, then non-dyadic input: the factor-4 bound
    genuinely uses power-of-two distances.  Also reports the attained
    Lipschitz constant over all pairs of the finite domain (leaves plus
    branching points).  The claims run on the certified node distances of
    the space's dendrogram.
    """
    return _retraction_claims(space)[0]


def _retraction_claims(space: FiniteMetricSpace) -> tuple[RetractionClaimReport, list[int]]:
    """The body of :func:`verify_retraction_claims`, with the image of every tree node.

    The one place that refuses input to the claims: a non-ultrametric space
    through :func:`dendrogram`, then a non-dyadic one.  The claims run on the
    node distances of :func:`_node_distances`, in units of 1/L; the leaves
    are nodes 0..n-1, so the distances of the space are there too.  Every
    claim is an integer comparison on that one scale.  A node retracts to its
    canonical anchor, the first point within twice its height, and a
    branching point's generating partner is the first other point at
    exactly twice its height from that anchor.  On powers of two,
    2**max(e_m, e_n) - 2**(e_n - 1) - 2**(e_k - 1) of the exponent-gap
    claim is max(d, 2 h_max) - h_max - h_min.
    """
    tree = dendrogram(space)
    if not validate(space).is_dyadic:
        raise ValueError("retraction claims require power-of-two distances")
    nodes, (unit, rows) = tree.nodes, _node_distances(tree)
    n, count = len(space), len(nodes)
    height = [p.height.numerator * (unit // p.height.denominator) for p in nodes]
    images = [next(q for q in range(n) if rows[p.anchor][q] <= 2 * height[k]) for k, p in enumerate(nodes)]
    partners = {
        k: next(q for q in range(n) if q != images[k] and rows[images[k]][q] == 2 * height[k])
        for k in range(n, count)
    }
    leaf_branch, anchor_gap = [], []
    for a in range(n):
        row = rows[a]
        for k in range(n, count):
            m = nodes[k].anchor
            if row[m] > 2 * row[k]:
                leaf_branch.append((a, nodes[k]))
            reach = rows[m][partners[k]]
            if row[m] > 2 * max(reach, rows[m][a]) - reach:
                anchor_gap.append((a, nodes[k]))
    branch_pair, exponent_gap, same_height = [], [], []
    for k, l in combinations(range(n, count), 2):
        a, b = nodes[k], nodes[l]
        gap = rows[a.anchor][b.anchor]
        if gap > 4 * rows[k][l]:
            branch_pair.append((a, b))
        if height[k] == height[l] and gap <= 2 * height[k]:
            same_height.append((a, b))
        if gap > 0:
            high, low = max(height[k], height[l]), min(height[k], height[l])
            if gap > 4 * (max(gap, 2 * high) - high - low):
                exponent_gap.append((a, b))
    idempotent = all(images[images[k]] == images[k] for k in range(count))
    best, over = 0, 1
    for p, q in combinations(range(count), 2):
        moved, rho = rows[images[p]][images[q]], rows[p][q]
        if moved * over > best * rho:
            best, over = moved, rho
    report = RetractionClaimReport(
        tuple(leaf_branch),
        tuple(branch_pair),
        tuple(anchor_gap),
        tuple(exponent_gap),
        tuple(same_height),
        idempotent,
        Fraction(best, over),
    )
    return report, images


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

    def __getstate__(self) -> dict:
        # the fields only: what _cached keeps on the tree stays out of a pickle
        return {"space": self.space, "nodes": self.nodes, "parent": self.parent, "edge_length": self.edge_length}

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def children(self, i: int) -> list[int]:
        return [k for k, p in enumerate(self.parent) if p == i]


def dendrogram(space: FiniteMetricSpace) -> DendrogramTree:
    """The dendrogram of an ultrametric space, certified against the quotient metric.

    The tree is read off the single-linkage merges of the space: the
    branching points are its clusters with tied heights contracted, the
    parent of a node is the branching point of the next cluster above it,
    and the root is the cluster of all points, anchored at the base.
    Certification compares the path-length distance of every node pair
    with the closed-form quotient distance, in integers, and raises on any
    mismatch, and additionally checks that every branching node has at
    least two children.  A space that is not an ultrametric is refused.
    The space keeps its certified tree through a weak reference, since the
    tree refers to the space: ``dendrogram(s) is dendrogram(s)`` while the
    tree is held, both are freed by reference counting once neither is,
    and a failed certificate raises on every call.
    """
    if not validate(space).is_ultrametric:
        raise ValueError("dendrogram requires an ultrametric space")
    kept = vars(space).get("_tree")
    tree = None if kept is None else kept()
    if tree is None:
        tree = _certified_dendrogram(space)
        object.__setattr__(space, "_tree", weakref.ref(tree))
    return tree


def _certified_dendrogram(space: FiniteMetricSpace) -> DendrogramTree:
    nodes, parent, edge = _merge_tree(len(space), _single_linkage(space), _integer_view(space)[0])
    tree = DendrogramTree(space, tuple(nodes), tuple(parent), tuple(edge))
    _node_distances(tree)
    children = [0] * len(nodes)
    for p in parent:
        if p >= 0:
            children[p] += 1
    for k, u in enumerate(nodes):
        if u.height > 0 and children[k] < 2:
            raise CertificationError(f"branching node {u} has fewer than two children")
    return tree


def _node_distances(tree: DendrogramTree) -> _Scaled:
    """The node distances (L, rows) of :func:`_certify_path_metric`, certified once per tree and kept on it."""
    return _cached(tree, "_distances", _certify_path_metric)


def _certify_path_metric(tree: DendrogramTree) -> _Scaled:
    """Raise unless the path metric of the tree is the quotient metric on every node pair.

    The tree must be rooted at its top node, with every parent strictly
    higher than its child, so that it is a tree.  The heights, the edge
    lengths and half of every distance of the integer view of
    ``tree.space`` go on one integer scale L, on which the heights are
    compared; one walk of the tree from
    each node gives its path sums, and each pair (p, q), p < q in node
    order, must have path sum 2 max(h_p, h_q, d(m, n)/2) - h_p - h_q.
    Returns (L, rows), the node distances in units of 1/L.
    """
    nodes, parent = tree.nodes, tree.parent
    roots = [k for k, p in enumerate(parent) if p == -1]
    if len(roots) != 1 or parent[-1] != -1:
        labels = _node_labels(tree)
        found = ", ".join(labels[k] for k in roots) or "none"
        raise CertificationError(f"dendrogram must have exactly one root, the top node; its roots are {found}")
    scale, d = _integer_view(tree.space)
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
        path = _path_sums(adjacent, i)
        hi, di = height[i], d[nodes[i].anchor]
        for j in range(i + 1, count):
            hj = height[j]
            if path[j] != 2 * max(hi, hj, di[nodes[j].anchor] * half) - hi - hj:
                raise CertificationError(
                    f"path metric disagrees with the quotient metric on ({nodes[i]}, {nodes[j]})"
                )
        rows.append(tuple(path))
    return unit, rows


def _path_sums(adjacent: Sequence[Sequence[tuple[int, int]]], source: int) -> list[int]:
    """The path sums from ``source`` to every node of a tree given by its (neighbour, length) lists, one walk.

    The walk visits the nodes breadth first, each once, from the list it
    grows as it goes.
    """
    path: list = [None] * len(adjacent)
    path[source] = 0
    reached = [source]
    for u in reached:
        base = path[u]
        for v, length in adjacent[u]:
            if path[v] is None:
                path[v] = base + length
                reached.append(v)
    return path


def _node_labels(tree: DendrogramTree) -> tuple[str, ...]:
    """The node labels: a leaf keeps its point's label, and a branching point <m, h> is m@h.

    Heights carry no @, so m@h names its branching point alone; a label
    m@h that is already a point's label takes primes until it is none, and
    no label changes where nothing collides.  The labels are built once
    per tree and kept on it.
    """
    return _cached(tree, "_labels", _label_nodes)


def _label_nodes(tree: DendrogramTree) -> tuple[str, ...]:
    labels = tree.space.labels
    taken = set(labels)
    named = []
    for p in tree.nodes:
        if not p.height:
            named.append(labels[p.anchor])
            continue
        label = f"{labels[p.anchor]}@{p.height}"
        while label in taken:
            label += "'"
        taken.add(label)
        named.append(label)
    return tuple(named)


def node_space(tree: DendrogramTree) -> FiniteMetricSpace:
    """The metric space of all tree nodes, based at the original base leaf.

    Leaves keep their labels and their indices, so the original space sits at
    the same positions; this is the basing under which the retraction onto
    the leaves preserves the base point.  Branching points are labelled by
    :func:`_node_labels`.  The distances are the path sums that
    :func:`_certify_path_metric` certifies once per tree, so a tree whose
    path metric is not the quotient metric raises
    :class:`CertificationError`.  The space is built with its integer view,
    read off the path sums by lookup with one Fraction per distinct
    distance (:func:`ultrafree.metric._space_with_view`), and with its tree
    (:func:`_with_edges`).  It is kept on the tree.
    """
    return _cached(tree, "_node_space", _node_metric)


def _node_metric(tree: DendrogramTree) -> FiniteMetricSpace:
    unit, rows = _node_distances(tree)
    space = _space_with_view(_node_labels(tree), rows, {x: Fraction(x, unit) for x in {x for row in rows for x in row}})
    return _with_edges(space, tree, 0)


def _with_edges(space: FiniteMetricSpace, tree: DendrogramTree, shift: int) -> FiniteMetricSpace:
    """Keep the edges of ``tree`` on ``space``, built from its path sums, tree node k being point (k + shift) % nodes.

    A parent is strictly higher than its child (:func:`_certify_path_metric`) and the nodes are listed by
    height, so the reversed node order, root excluded, is top-down (:func:`ultrafree.metric._keep_tree`).
    """
    parent, count = tree.parent, len(tree.parent)
    return _keep_tree(space, (((k + shift) % count, (parent[k] + shift) % count) for k in reversed(range(count - 1))))


def rooted_node_space(tree: DendrogramTree) -> FiniteMetricSpace:
    """The metric space of all tree nodes, based at the root.

    Point 0 is the root and point k >= 1 is node k-1 (the root is always the
    last tree node), so free vectors in these coordinates line up with the
    edge-flow coordinates of :func:`ultrafree.ell1.edge_flow_coordinates`.
    Free spaces over different base points are isometric, so this is a
    choice of coordinates, not of content.  :func:`with_base` builds it
    from :func:`node_space` and hands it the node space's integer view,
    permuted, so neither space scales its distances again; the tree is
    kept on it in its own indices (:func:`_with_edges`), so
    :func:`ultrafree.freespace.free_norm_certificate` takes the tree route
    on it, the potential of :func:`ultrafree.freespace._tree_transport`
    vanishing at the base.  It is kept on the tree.
    """
    return _cached(tree, "_rooted_node_space", lambda t: _with_edges(with_base(node_space(t), len(t.nodes) - 1), t, 1))
