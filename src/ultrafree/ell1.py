"""The l1 side of the construction, at finite scale.

On a metric tree the transport norm has explicit l1 coordinates: the norm of
a coefficient vector equals the sum over edges of edge length times the
absolute net coefficient mass hanging below the edge.  This module implements
that edge-flow oracle on the dendrogram, plays it against the transport
solver vector by vector, measures the l1-equivalence constants of a basis
family by exact per-orthant minimization, and runs the three-point
non-isometry search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .chain import BasisFamily, basis_constant, basis_vectors, build_chain, verify_chain
from .freespace import (
    FreeVector,
    PointMap,
    _transport_program,
    dirac,
    free_norm,
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
    branching_points,
    dendrogram,
    node_space,
    retract_to_space,
    rooted_node_space,
    verify_retraction_claims,
)
from .simplex import solve_lp


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


def oracle_vs_lp(
    space: FiniteMetricSpace,
    vectors: int = 50,
    seed: int = 0,
    tree: Optional[DendrogramTree] = None,
) -> OracleReport:
    """Play the edge-flow oracle against the transport solver, exactly.

    Both sides use the root-based coordinates of the node set.  The battery
    contains random rational vectors, every pairwise evaluation difference
    (whose common value must also be the tree distance of the pair), and
    random vectors supported on the original leaves only.
    """
    if tree is None:
        tree = dendrogram(space)
    ambient = rooted_node_space(tree)
    dim = len(ambient) - 1
    rng = random.Random(seed)
    battery = [FreeVector(_random_coeffs(rng, dim)) for _ in range(vectors)]
    leaf_supported = []
    for _ in range(max(5, vectors // 5)):
        coeffs = list(_random_coeffs(rng, len(space)))
        coeffs += [Fraction(0)] * (dim - len(coeffs))
        leaf_supported.append(FreeVector(tuple(coeffs)))
    mism = []
    for v in battery + leaf_supported:
        flow_value = tree_free_norm(tree, v)
        lp_value = free_norm(ambient, v)
        if flow_value != lp_value:
            mism.append((v, flow_value, lp_value))
    pair_mism = []
    for i in range(len(ambient)):
        for j in range(i + 1, len(ambient)):
            v = dirac(ambient, i) - dirac(ambient, j)
            flow_value = tree_free_norm(tree, v)
            lp_value = free_norm(ambient, v)
            if not flow_value == lp_value == ambient.dist[i][j]:
                pair_mism.append((v, flow_value, lp_value))
    return OracleReport(
        len(battery) + len(leaf_supported) + len(ambient) * (len(ambient) - 1) // 2,
        tuple(mism),
        tuple(pair_mism),
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
        combo = [Fraction(0)] * (len(ambient) - 1)
        for c, vec in zip(pattern, family.vectors):
            if c:
                for r, value in enumerate(vec.coeffs):
                    if value:
                        combo[r] += c * value
        lhs = free_norm(ambient, FreeVector(tuple(combo)))
        rhs = sum((abs(c) for c in pattern), Fraction(0))
        if lhs != rhs:
            mismatches.append((pattern, lhs, rhs))
    return EdgeMoleculeReport(len(batteries), tuple(mismatches))


@dataclass(frozen=True)
class L1Constants:
    lower: Fraction
    upper: Fraction
    exact: bool


def l1_equivalence_constants(
    space: FiniteMetricSpace,
    family: BasisFamily,
    orthant_budget: int = 1024,
    samples: int = 128,
    seed: int = 0,
) -> L1Constants:
    """Equivalence constants between the family and the l1 unit basis.

    With coefficients normalized by sum |c_k| * norm(e_k) = 1 the triangle
    inequality pins the upper constant at 1; the lower constant is the exact
    minimum of the transport norm over that cross-polytope boundary, computed
    one sign orthant at a time as a single joint linear program (simplex
    weights and flows are both linear).  Opposite orthants give equal values,
    so only half are enumerated; past ``orthant_budget`` a seeded random
    sample of orthants is taken instead and the result is flagged non-exact
    (sampling can only overestimate the true minimum).
    """
    count = len(family.vectors)
    if count == 0:
        raise ValueError("family is empty")
    if any(len(v.coeffs) != len(space) - 1 for v in family.vectors):
        raise ValueError("family vectors do not live on the given space")
    if count == 1:
        return L1Constants(Fraction(1), Fraction(1), True)
    unit_vectors = [
        (1 / family.norms[k]) * family.vectors[k] for k in range(count)
    ]
    total = 1 << (count - 1)
    exact = total <= orthant_budget
    if exact:
        signs_list = [
            (1,) + tuple(1 if (mask >> b) & 1 == 0 else -1 for b in range(count - 1))
            for mask in range(total)
        ]
    else:
        rng = random.Random(seed)
        signs_list = [
            (1,) + tuple(rng.choice((1, -1)) for _ in range(count - 1))
            for _ in range(samples)
        ]
    best: Optional[Fraction] = None
    for signs in signs_list:
        value = _orthant_minimum(space, unit_vectors, signs)
        if best is None or value < best:
            best = value
    assert best is not None
    return L1Constants(best, Fraction(1), exact)


def _orthant_minimum(
    space: FiniteMetricSpace,
    unit_vectors: Sequence[FreeVector],
    signs: Sequence[int],
) -> Fraction:
    """min transport-norm of sum sigma_k t_k e^_k over t >= 0, sum t = 1."""
    n = len(space)
    lead = [signs[0] * c for c in unit_vectors[0].coeffs]
    arcs, costs, columns, basis = _transport_program(space, lead)
    for sign, vector in zip(signs, unit_vectors):
        col = [(r, -sign * c) for r, c in enumerate(vector.coeffs) if c]
        col.append((n - 1, Fraction(1)))
        costs.append(Fraction(0))
        columns.append(col)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    basis.append(len(arcs))
    return solve_lp(costs, columns, rhs, basis=basis).value


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
    if (norm_x, norm_y, norm_diff, norm_sum) != (1, 1, s, 2):
        raise CertificationError("three-point identities failed")
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
    l1_exact: bool
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
    orthant_budget: int = 1024,
    seed: int = 0,
) -> PipelineReport:
    """Run the full chain: round, embed, retract, oracle, basis, l1 constants.

    The rounding distortion must stay below 2, the tree retraction constant
    and the induced projection norm below or at 4, the basis constant must be
    exactly 1 and the l1 lower constant in (0, 1].
    """
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("pipeline requires an ultrametric space")
    rounded = round_to_dyadic(space)
    distortion = identity_distortion(space, rounded)
    tree = dendrogram(rounded)
    claims = verify_retraction_claims(rounded)
    oracle = oracle_vs_lp(rounded, vectors=oracle_vectors, seed=seed, tree=tree)
    chain = build_chain(space, ordering)
    chain_report = verify_chain(chain)
    family = basis_vectors(chain)
    constant = basis_constant(space, family)
    l1 = l1_equivalence_constants(space, family, orthant_budget=orthant_budget, seed=seed)
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
        l1_exact=l1.exact,
        chain_ok=chain_report.passed,
        claims_ok=claims.passed,
        oracle_ok=oracle.passed,
    )
