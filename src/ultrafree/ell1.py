"""The l1 side of the construction, at finite scale.

On a metric tree the transport norm has explicit l1 coordinates: the norm of
a coefficient vector equals the sum over edges of edge length times the
absolute net coefficient mass hanging below the edge.  This module implements
that edge-flow oracle on the dendrogram, certifies it vector by vector with
its own flow (|mass| along each edge) and sign potential, plays it against
the transport solver in :func:`oracle_vs_lp`, computes the l1-equivalence
constants of a basis family in closed form, and runs the three-point
non-isometry search.

The unit ball of the free space is the convex hull of the +-molecules
m_ij = (delta_i - delta_j) / d(i, j), so the lower l1 constant of a family
is 1 / max_{i<j} Phi(m_ij), where Phi(x) = sum |c_k(x)| * norm(e_k) over
the coefficients c(x) of x in the family; its witness, the maximizing
molecule scaled to Phi = 1, is certified by one transport solve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .chain import BasisFamily, _molecule_expansions, basis_constant, basis_vectors, build_chain, verify_chain
from .freespace import (
    FreeNormCertificate,
    FreeVector,
    LipFunction,
    PointMap,
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
    identity_distortion,
    round_to_dyadic,
    validate,
)
from .rational import parse_rational
from .rtree import (
    DendrogramTree,
    _certify_path_metric,
    branching_points,
    dendrogram,
    node_space,
    retract_to_space,
    rooted_node_space,
    verify_retraction_claims,
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
    """Accumulate subtree masses bottom-up; linear time in the node count.

    Coefficient k belongs to tree node k, with the root (always the last
    node) carrying none: these are free-space coordinates based at the root.
    """
    count = len(tree.nodes)
    if len(v.coeffs) != count - 1:
        raise ValueError("vector dimension does not match the tree nodes")
    net = list(v.coeffs) + [Fraction(0)]
    for k in sorted(range(count), key=lambda k: tree.nodes[k].height):
        p = tree.parent[k]
        if p >= 0:
            net[p] += net[k]
    return EdgeFlowCoordinates(tuple(net[: count - 1]), tree.edge_length[: count - 1])


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
    """Edge-flow norm: sum over edges of length(e) * |net mass below e|."""
    return edge_flow_coordinates(tree, v).norm()


@dataclass(frozen=True)
class OracleReport:
    vectors_checked: int
    mismatches: tuple[tuple[FreeVector, Fraction, Fraction], ...]
    pair_mismatches: tuple[tuple[FreeVector, Fraction, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not (self.mismatches or self.pair_mismatches)


def _random_coeffs(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(dim))


def _battery(
    space: FiniteMetricSpace, ambient: FiniteMetricSpace, vectors: int, seed: int
) -> tuple[list[FreeVector], list[tuple[int, int, FreeVector]]]:
    """The edge-flow battery in the root-based coordinates of the node set.

    ``vectors`` random rational vectors, then max(5, vectors // 5) random
    vectors supported on the original leaves, then the difference of every
    node pair (i, j) of ``ambient``, whose norm must be their distance.
    """
    if vectors < 0:
        raise ValueError("the oracle battery size must be non-negative")
    dim = len(ambient) - 1
    rng = random.Random(seed)
    battery = [FreeVector(_random_coeffs(rng, dim)) for _ in range(vectors)]
    for _ in range(max(5, vectors // 5)):
        coeffs = list(_random_coeffs(rng, len(space)))
        coeffs += [Fraction(0)] * (dim - len(coeffs))
        battery.append(FreeVector(tuple(coeffs)))
    pairs = [
        (i, j, dirac(ambient, i) - dirac(ambient, j))
        for i in range(len(ambient))
        for j in range(i + 1, len(ambient))
    ]
    return battery, pairs


def oracle_vs_lp(
    space: FiniteMetricSpace,
    vectors: int = 50,
    seed: int = 0,
    tree: Optional[DendrogramTree] = None,
) -> OracleReport:
    """Play the edge-flow oracle against the transport solver, exactly.

    Both sides use the root-based coordinates of the node set.  The battery
    contains random rational vectors, random vectors supported on the
    original leaves only, and every pairwise evaluation difference (whose
    common value must also be the tree distance of the pair).
    """
    if tree is None:
        tree = dendrogram(space)
    ambient = rooted_node_space(tree)
    battery, pairs = _battery(space, ambient, vectors, seed)
    mism = []
    for v in battery:
        flow_value = tree_free_norm(tree, v)
        lp_value = free_norm(ambient, v)
        if flow_value != lp_value:
            mism.append((v, flow_value, lp_value))
    pair_mism = []
    for i, j, v in pairs:
        flow_value = tree_free_norm(tree, v)
        lp_value = free_norm(ambient, v)
        if not flow_value == lp_value == ambient.dist[i][j]:
            pair_mism.append((v, flow_value, lp_value))
    return OracleReport(len(battery) + len(pairs), tuple(mism), tuple(pair_mism))


def _edge_flow_solution(tree: DendrogramTree, v: FreeVector) -> FreeNormCertificate:
    """The edge-flow norm of v with its flow and sign potential, unchecked.

    Point 0 of the root-based node space is the root and point k + 1 is node
    k.  The flow sends |m_e| along each edge e, out of the subtree below e
    when its mass m_e is positive; the potential vanishes at the root and
    rises by length(e) * sign(m_e) from the parent to the child of e.
    """
    coords = edge_flow_coordinates(tree, v)
    count = len(tree.nodes)
    g = [Fraction(0)] * count
    flow = []
    for k in sorted(range(count - 1), key=lambda k: tree.nodes[k].height, reverse=True):
        child, parent = k + 1, (tree.parent[k] + 1) % count
        mass, length = coords.masses[k], coords.lengths[k]
        if mass > 0:
            g[child] = g[parent] + length
            flow.append((child, parent, mass))
        elif mass < 0:
            g[child] = g[parent] - length
            flow.append((parent, child, -mass))
        else:
            g[child] = g[parent]
    return FreeNormCertificate(coords.norm(), tuple(flow), LipFunction(tuple(g)))


def _checked_tree_certificate(
    tree: DendrogramTree, ambient: FiniteMetricSpace, v: FreeVector
) -> FreeNormCertificate:
    """The edge-flow certificate of v, checked against the distances of ``ambient``.

    ``ambient`` is the root-based node space of a tree whose path metric is
    certified.  The flow must run along tree edges with positive amounts,
    balance every node to its coefficient and cost the value; the potential
    must be 1-Lipschitz on every edge, tight on every edge that carries flow
    and attain the value.  On a tree path the edge steps add up to the
    distance, so the edge-wise 1-Lipschitz check covers every pair.
    """
    cert = _edge_flow_solution(tree, v)
    d, labels, g = ambient.dist, ambient.labels, cert.potential.values
    count = len(tree.nodes)
    parent_of = {k + 1: (p + 1) % count for k, p in enumerate(tree.parent) if p >= 0}

    def edge(a: int, b: int) -> str:
        return f"({labels[a]}, {labels[b]})"

    divergence = [Fraction(0)] * count
    cost = Fraction(0)
    for a, b, amount in cert.flow:
        if parent_of.get(a) != b and parent_of.get(b) != a:
            raise CertificationError(f"flow arc {edge(a, b)} is not a tree edge")
        if amount <= 0:
            raise CertificationError(f"flow on edge {edge(a, b)} is not positive")
        if g[a] - g[b] != d[a][b]:
            raise CertificationError(f"potential does not drop by the length of edge {edge(a, b)}")
        divergence[a] += amount
        divergence[b] -= amount
        cost += amount * d[a][b]
    for child, parent in parent_of.items():
        if abs(g[child] - g[parent]) > d[child][parent]:
            raise CertificationError(f"potential is not 1-Lipschitz on edge {edge(child, parent)}")
        if divergence[child] != v.coeffs[child - 1]:
            raise CertificationError(f"flow on edge {edge(child, parent)} does not balance {labels[child]}")
    if cost != cert.value:
        raise CertificationError(f"edge flow costs {cost}, not the value {cert.value}")
    if sum(c * x for c, x in zip(v.coeffs, g[1:])) != cert.value:
        raise CertificationError(f"sign potential does not attain the value {cert.value}")
    return cert


def tree_norm_certificate(tree: DendrogramTree, v: FreeVector) -> FreeNormCertificate:
    """Edge-flow norm of v on the root-based node space, with its flow and potential.

    Re-certifies the path metric of the tree against the quotient metric,
    then checks the flow and the sign potential as in
    :func:`_checked_tree_certificate`; any failure raises
    :class:`CertificationError`.
    """
    _certify_path_metric(tree)
    return _checked_tree_certificate(tree, rooted_node_space(tree), v)


def _certify_edge_flow_battery(space: FiniteMetricSpace, tree: DendrogramTree, vectors: int, seed: int) -> None:
    """Certify the edge-flow norm on the battery of :func:`oracle_vs_lp`.

    ``tree`` is ``dendrogram(space)``, whose path metric is certified.  The
    norm of every node pair difference must also be the distance of the pair.
    """
    ambient = rooted_node_space(tree)
    battery, pairs = _battery(space, ambient, vectors, seed)
    for v in battery:
        _checked_tree_certificate(tree, ambient, v)
    for i, j, v in pairs:
        if _checked_tree_certificate(tree, ambient, v).value != ambient.dist[i][j]:
            raise CertificationError(
                f"edge-flow norm of the pair ({ambient.labels[i]}, {ambient.labels[j]}) is not its distance"
            )


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


def _combination(dim: int, vectors: Sequence[FreeVector], coeffs: Sequence[Fraction]) -> list[Fraction]:
    """The dim coefficients of sum_k coeffs[k] * vectors[k]."""
    combo = [Fraction(0)] * dim
    for c, vec in zip(coeffs, vectors):
        if c:
            for r, value in enumerate(vec.coeffs):
                if value:
                    combo[r] += c * value
    return combo


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
    the transport solver on the node space, must equal sum |c_k| exactly.
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
        lhs = free_norm(ambient, FreeVector(tuple(combo)))
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

    The value is certified by its witness w = m*/Phi(m*), at the maximizing
    molecule m*: the coefficients must reconstruct m* exactly, and the
    transport norm of w must equal the returned lower constant.  A family
    that does not span the free space raises ValueError.
    """
    if not family.vectors:
        raise ValueError("family is empty")
    if any(len(v.coeffs) != len(space) - 1 for v in family.vectors):
        raise ValueError("family vectors do not live on the given space")
    phi, i, j, coeffs = max(
        (
            (sum((abs(c) * norm for c, norm in zip(coeffs, family.norms)), Fraction(0)), i, j, coeffs)
            for i, j, coeffs in _molecule_expansions(space, family)
        ),
        key=lambda entry: entry[0],
    )
    lower = 1 / phi
    m = molecule(space, i, j)
    if _combination(len(space) - 1, family.vectors, coeffs) != list(m.coeffs):
        raise CertificationError(f"l1 witness at pair ({i}, {j}) does not reconstruct its molecule")
    if free_norm_certificate(space, lower * m).value != lower:
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


@dataclass(frozen=True)
class ThreePointReport:
    """Exact norms of the three-point space and the grid infeasibility bound.

    ``min_violation`` is the minimum over the coordinate grid of the largest
    absolute violation among the isometry constraints; a strictly positive
    value is grid-level evidence that no isometry onto two-dimensional l1
    exists, not a proof.
    """

    s: Fraction
    norm_x: Fraction
    norm_y: Fraction
    norm_difference: Fraction
    norm_sum: Fraction
    beta_norms: tuple[tuple[Fraction, Fraction, Fraction], ...]
    resolution: int
    min_violation: Fraction
    argmin: tuple[Fraction, Fraction, Fraction, Fraction]


def _beta_bound(s: Fraction, beta: Fraction) -> Fraction:
    return max(s, s * beta, s * (beta + 1) / 2)


def three_point_report(
    s: Fraction,
    betas: Optional[Sequence[Fraction]] = None,
    resolution: int = 64,
) -> ThreePointReport:
    """Exact three-point norms, the scaling bounds, and the grid search.

    Asserts the four exact identities (unit evaluations, difference s, sum 2)
    and, at every grid beta, the lower bound max(s, s*beta, s*(beta+1)/2) for
    the norm of delta_x - beta*delta_y; the weaker reading s/(2*(beta+1)) is
    checked incidentally.  The grid search then minimizes the maximum
    constraint violation over coordinates in [-1, 1] at the stated
    resolution, in exact scaled-integer arithmetic.
    """
    if not isinstance(resolution, int) or resolution <= 0:
        raise ValueError("resolution must be a positive integer")
    s = parse_rational(s)
    space = three_point_space(s)
    if betas is None:
        base = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
        # scalings just off 1 are where a candidate matching the four exact
        # identities can still cheat the bounds; without them the grid
        # search has spurious zeros
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
    min_violation, argmin = _grid_min_violation(s, list(betas), resolution)
    return ThreePointReport(
        s,
        norm_x,
        norm_y,
        norm_diff,
        norm_sum,
        tuple(beta_rows),
        resolution,
        min_violation,
        argmin,
    )


def _grid_min_violation(
    s: Fraction, betas: list[Fraction], resolution: int
) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Minimize the max constraint violation over the grid, exactly.

    All violations are rescaled to a common integer unit so the inner loops
    run on machine integers; both coordinate pairs are enumerated in order of
    their own unit-sphere violation, which lets the loops break as soon as
    that term alone exceeds the best value found.
    """
    r = resolution
    bounds = [_beta_bound(s, b) for b in betas]
    scale = lcm(r, r * s.denominator, *(r * b.denominator for b in betas),
                *(bd.denominator for bd in bounds))
    unit = scale // r
    s_num, s_den = s.numerator, s.denominator
    diff_unit = scale // (r * s_den)
    beta_data = [
        (b.numerator, b.denominator, scale // (r * b.denominator), int(bd * scale))
        for b, bd in zip(betas, bounds)
    ]
    cells = []
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            cells.append((abs(abs(a) + abs(b) - r) * unit, a, b))
    cells.sort(key=lambda t: t[0])
    best: Optional[int] = None
    best_point = (0, 0, 0, 0)
    for t1, ax, bx in cells:
        if best is not None and t1 >= best:
            break
        for t2, ay, by in cells:
            cur = t1 if t1 > t2 else t2
            if best is not None and cur >= best:
                break
            t3 = abs((abs(ax - ay) + abs(bx - by)) * s_den - s_num * r) * diff_unit
            if t3 > cur:
                cur = t3
            if best is not None and cur >= best:
                continue
            t4 = abs(abs(ax + ay) + abs(bx + by) - 2 * r) * unit
            if t4 > cur:
                cur = t4
            if best is not None and cur >= best:
                continue
            for p, q, mult, bound_int in beta_data:
                short = bound_int - (abs(q * ax - p * ay) + abs(q * bx - p * by)) * mult
                if short > cur:
                    cur = short
                short = bound_int - (abs(q * ay - p * ax) + abs(q * by - p * bx)) * mult
                if short > cur:
                    cur = short
                if best is not None and cur >= best:
                    break
            else:
                if best is None or cur < best:
                    best = cur
                    best_point = (ax, bx, ay, by)
    assert best is not None
    ax, bx, ay, by = best_point
    point = (Fraction(ax, r), Fraction(bx, r), Fraction(ay, r), Fraction(by, r))
    return Fraction(best, scale), point


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
    oracle_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.chain_ok
            and self.claims_ok
            and self.oracle_ok
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
    random vectors, the leaf-supported ones and every node pair) by its own
    flow and potential, and the projection norm is the Lipschitz constant of
    the retraction, certified at its witness pair; a failed certificate
    raises :class:`CertificationError`.  The one transport solve left is
    the witness of the l1 lower constant.
    """
    if len(space) < 2:
        raise ValueError("pipeline needs at least two points")
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("pipeline requires an ultrametric space")
    rounded = round_to_dyadic(space)
    distortion = identity_distortion(space, rounded)
    tree = dendrogram(rounded)
    claims = verify_retraction_claims(rounded)
    _certify_edge_flow_battery(rounded, tree, oracle_vectors, seed)
    chain = build_chain(space, ordering)
    chain_report = verify_chain(chain)
    family = basis_vectors(chain)
    constant = basis_constant(space, family)
    l1 = l1_equivalence_constants(space, family)
    ambient = node_space(tree)
    branching = branching_points(rounded)
    image = tuple(
        retract_to_space(rounded, node, branching) for node in tree.nodes
    )
    projection = operator_norm_of_extension(PointMap(ambient, ambient, image))
    return PipelineReport(
        size=len(space),
        distortion=distortion,
        retraction_constant=claims.attained_constant,
        projection_norm=projection,
        basis_constant=constant,
        l1_lower=l1.lower,
        l1_upper=l1.upper,
        chain_ok=chain_report.passed,
        claims_ok=claims.passed,
        # a battery vector that fails its certificate raises above
        oracle_ok=True,
    )
