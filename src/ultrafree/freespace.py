"""Exact free-space (transport) norms over finite pointed metric spaces.

A coefficient vector over the non-base points represents an element of the
free space spanned by the point evaluations.  Its norm is the cheapest
nonnegative flow on the complete directed graph whose net divergence at each
non-base point equals the coefficient there (the base point is an
unconstrained source/sink).

Two exact routes compute it.  One pass over the sorted pairs builds the
single-linkage merges and decides the route: when the distances are
symmetric, non-negative and every cross pair of every merge sits exactly at
the merge height, the space is an ultrametric and the norm is read off its
merge tree (opposite-signed masses are matched at their lowest merge, and
the sign potential moves each cluster by half its gap); otherwise the
transport program goes to the exact simplex.  Both routes end in the same
check against the metric alone: the flow must meet the coefficients at the
value's cost, and its potential, vanishing at the base, must be 1-Lipschitz
and pair with the coefficients to the same value exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .metric import CertificationError, FiniteMetricSpace, _pair_ratios
from .rational import parse_rational
from .simplex import solve_lp


@dataclass(frozen=True)
class FreeVector:
    """One rational coefficient per non-base point; index k is point k+1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))

    @classmethod
    def _exact(cls, coeffs: tuple[Fraction, ...]) -> "FreeVector":
        """Wrap a tuple that holds Fractions already, without parsing it again."""
        v = object.__new__(cls)
        object.__setattr__(v, "coeffs", coeffs)
        return v

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")
        return FreeVector._exact(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return self + (-other)

    def __neg__(self) -> "FreeVector":
        return FreeVector._exact(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> "FreeVector":
        s = parse_rational(scalar)
        return FreeVector._exact(tuple(s * a for a in self.coeffs))

    __rmul__ = __mul__

    def support(self) -> tuple[int, ...]:
        """Indices of the non-base points carrying a nonzero coefficient."""
        return tuple(k + 1 for k, c in enumerate(self.coeffs) if c)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class LipFunction:
    """One value per point, forced to 0 at the base."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(parse_rational(v) for v in self.values)
        if not values or values[0] != 0:
            raise ValueError("a Lipschitz function must vanish at the base point")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PointMap:
    """A base-preserving map between finite pointed metric spaces."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(int(i) for i in self.image)
        if len(image) != len(self.domain):
            raise ValueError("one image point per domain point required")
        if any(not 0 <= i < len(self.codomain) for i in image):
            raise ValueError("image index out of range")
        if image[0] != 0:
            raise ValueError("the map must send base to base")
        object.__setattr__(self, "image", image)


@dataclass(frozen=True)
class FreeNormCertificate:
    """Norm value with its optimal flow and optimal dual potential."""

    value: Fraction
    flow: tuple[tuple[int, int, Fraction], ...]
    potential: LipFunction


def zero_vector(space: FiniteMetricSpace) -> FreeVector:
    return FreeVector._exact((Fraction(0),) * (len(space) - 1))


def dirac(space: FiniteMetricSpace, point: int) -> FreeVector:
    """The evaluation vector of a point; the base evaluates to zero."""
    if not 0 <= point < len(space):
        raise ValueError(f"point {point} out of range")
    coeffs = [Fraction(0)] * (len(space) - 1)
    if point != 0:
        coeffs[point - 1] = Fraction(1)
    return FreeVector._exact(tuple(coeffs))


def molecule(space: FiniteMetricSpace, i: int, j: int) -> FreeVector:
    """Normalized difference of two evaluations; always has norm exactly 1."""
    if i == j:
        raise ValueError("a molecule needs two distinct points")
    scale = 1 / space.dist[i][j]
    return scale * (dirac(space, i) - dirac(space, j))


def lip_norm(space: FiniteMetricSpace, f: LipFunction) -> Fraction:
    """Exact maximum of |f(x) - f(y)| / d(x, y) over all pairs."""
    if len(f.values) != len(space):
        raise ValueError("function dimension does not match the space")
    vals = f.values
    return max(_pair_ratios(space, lambda i, j: abs(vals[i] - vals[j])), default=Fraction(0))


def _transport_program(space: FiniteMetricSpace, lead: Sequence[Fraction]):
    """Arcs, costs and divergence columns of the transport program, plus a start basis.

    The flow lives on all ordered pairs of points (base included); row k is
    the net divergence at point k+1.  The basis routes coefficient k of
    ``lead`` through the base, which is primal feasible for right-hand side
    ``lead``, so phase one is never needed.
    """
    n = len(space)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arc_index = {arc: k for k, arc in enumerate(arcs)}
    costs = [space.dist[i][j] for i, j in arcs]
    columns = []
    for i, j in arcs:
        col = []
        if i != 0:
            col.append((i - 1, Fraction(1)))
        if j != 0:
            col.append((j - 1, Fraction(-1)))
        columns.append(col)
    basis = [
        arc_index[(k + 1, 0)] if lead[k] >= 0 else arc_index[(0, k + 1)]
        for k in range(n - 1)
    ]
    return arcs, costs, columns, basis


def _single_linkage(space: FiniteMetricSpace) -> Optional[list[tuple[Fraction, int, int]]]:
    """The merges of the single-linkage hierarchy, or None when the space is no ultrametric.

    Pairs are taken by increasing distance, and a pair joining two clusters
    merges them at its distance; merge k is (height, left, right) and
    creates node n + k, the points being nodes 0..n-1.  The distances must
    be symmetric and non-negative, and every cross pair of every merge must
    sit exactly at the merge height: then d(x, y) is the height of the
    merge that first joins x and y, and heights never fall, which makes the
    space an ultrametric with this merge tree.
    """
    n = len(space)
    # the distances over one common denominator: the same order and ties, compared as ints
    scale = lcm(*(h.denominator for row in space.dist for h in row))
    d = [[h.numerator * (scale // h.denominator) for h in row] for row in space.dist]
    pairs = []
    for i in range(n):
        row = d[i]
        for j in range(i + 1, n):
            h = row[j]
            if h < 0 or h != d[j][i]:
                return None
            pairs.append((h, i, j))
    pairs.sort()
    node = list(range(n))
    members = [[x] for x in range(n)]
    merges: list[tuple[Fraction, int, int]] = []
    for h, i, j in pairs:
        a, b = node[i], node[j]
        if a == b:
            continue
        left, right = members[a], members[b]
        if any(d[x][y] != h for x in left for y in right):
            return None
        for x in left + right:
            node[x] = n + len(merges)
        merges.append((space.dist[i][j], a, b))
        members.append(left + right)
    return merges


def _lca_flow(merges, masses: Sequence[Fraction]) -> tuple[Fraction, list[tuple[int, int, Fraction]]]:
    """Match opposite-signed point masses at each merge, bottom-up, at cost = merge height.

    Every cluster keeps its unmatched (point, mass) entries, which share the
    sign of its net mass; a merge matches the two lists against each other
    until one runs out.  Returns the cost and the arcs sorted by (i, j).
    """
    unmatched = [[(x, m)] if m else [] for x, m in enumerate(masses)]
    arcs = []
    value = Fraction(0)
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


def _sign_potential(merges, masses: Sequence[Fraction]) -> list[Fraction]:
    """The sign potential of the merge tree, shifted to vanish at the base.

    Going down from the root, each cluster moves from its parent by half the
    gap between their heights, up when its net mass is positive, down when
    negative, not at all when zero.  The points are the clusters at height 0.
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


def _lp_route(space: FiniteMetricSpace, coeffs: Sequence[Fraction]):
    """The transport program on all ordered pairs, solved by the exact simplex."""
    arcs, costs, columns, basis = _transport_program(space, coeffs)
    result = solve_lp(costs, columns, coeffs, basis=basis)
    flow = [(arcs[k][0], arcs[k][1], amount) for k, amount in enumerate(result.x) if amount]
    return result.value, flow, [Fraction(0), *result.dual]


def _certify_transport(space: FiniteMetricSpace, coeffs, value, flow, potential) -> None:
    """Check a transport certificate against the metric alone; a failure names its witness.

    The arcs must carry positive amounts, the flow's divergence must be the
    coefficients and its cost the value; the potential must vanish at the
    base, be 1-Lipschitz on every pair and pair with the coefficients to the
    value.  Then the value is both attained and a lower bound: the norm.
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


def free_norm_certificate(space: FiniteMetricSpace, v: FreeVector) -> FreeNormCertificate:
    """The transport norm of v with an optimal flow and an optimal dual potential.

    On an ultrametric (decided by :func:`_single_linkage`, one sort of the
    pairs and a union-find) the flow matches opposite-signed masses at their
    lowest merge, the base carrying -sum(v), and the potential is the merge
    tree's sign potential; on any other input the transport program of
    :func:`_transport_program` is solved from its base-routing basis.
    Either way the result passes :func:`_certify_transport`, which uses the
    metric only; a failed check raises :class:`CertificationError`.
    """
    n = len(space)
    if len(v.coeffs) != n - 1:
        raise ValueError("vector dimension does not match the space")
    if n == 1 or v.is_zero():
        return FreeNormCertificate(Fraction(0), (), LipFunction((Fraction(0),) * n))

    merges = _single_linkage(space)
    if merges is None:
        value, flow, potential = _lp_route(space, v.coeffs)
    else:
        masses = (-sum(v.coeffs), *v.coeffs)
        value, flow = _lca_flow(merges, masses)
        potential = _sign_potential(merges, masses)
    _certify_transport(space, v.coeffs, value, flow, potential)
    return FreeNormCertificate(value, tuple(flow), LipFunction(tuple(potential)))


def free_norm(space: FiniteMetricSpace, v: FreeVector) -> Fraction:
    return free_norm_certificate(space, v).value


def _lipschitz_witness(point_map: PointMap) -> tuple[Fraction, int, int]:
    """Lip(f) and the first pair i < j, row by row, that attains it; (0, 0, 0) on one point."""
    cod, img = point_map.codomain, point_map.image
    n = len(point_map.domain)
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    ratios = _pair_ratios(point_map.domain, lambda i, j: cod.dist[img[i]][img[j]])
    return max(
        ((ratio, i, j) for ratio, (i, j) in zip(ratios, pairs)),
        key=lambda entry: entry[0],
        default=(Fraction(0), 0, 0),
    )


def lipschitz_constant(point_map: PointMap) -> Fraction:
    """Exact maximum of d(Lx, Ly) / d(x, y) over domain pairs."""
    return _lipschitz_witness(point_map)[0]


def push_forward(point_map: PointMap, v: FreeVector) -> FreeVector:
    """Apply the linearized map: each evaluation goes to the evaluation of its image."""
    if len(v.coeffs) != len(point_map.domain) - 1:
        raise ValueError("vector dimension does not match the domain")
    out = [Fraction(0)] * (len(point_map.codomain) - 1)
    for k, c in enumerate(v.coeffs):
        if c:
            target = point_map.image[k + 1]
            if target != 0:
                out[target - 1] += c
    return FreeVector._exact(tuple(out))


def operator_norm_of_extension(point_map: PointMap) -> Fraction:
    """Operator norm of the linearized map: the Lipschitz constant of the point map.

    Upper bound: the image of a molecule m_ij is the flow of 1/d(i, j) along
    the one arc from f(i) to f(j), which costs d(f i, f j) / d(i, j) <=
    Lip(f); molecules are the extreme points of the domain unit ball, so the
    norm is at most Lip(f).  Lower bound, at the first pair (i, j) attaining
    Lip(f): the potential g = d(., f j) - d(base, f j) on the codomain must
    be 1-Lipschitz and pair with the image of m_ij to exactly Lip(f), and
    the one-arc flow must have that image as its divergence.  A failed check
    raises :class:`CertificationError` naming the pair.
    """
    best, i, j = _lipschitz_witness(point_map)
    if best == 0:
        return best
    dom, cod = point_map.domain, point_map.codomain
    source, target = point_map.image[i], point_map.image[j]
    image = push_forward(point_map, molecule(dom, i, j))
    arc = (1 / dom.dist[i][j]) * (dirac(cod, source) - dirac(cod, target))
    if image != arc:
        raise CertificationError(f"the image of the molecule at pair ({i}, {j}) is not its one-arc flow")
    g = LipFunction(tuple(row[target] - cod.dist[0][target] for row in cod.dist))
    if lip_norm(cod, g) > 1:
        raise CertificationError(f"the potential of pair ({i}, {j}) is not 1-Lipschitz")
    if sum(c * x for c, x in zip(image.coeffs, g.values[1:])) != best:
        raise CertificationError(f"the potential of pair ({i}, {j}) does not attain the operator norm {best}")
    return best
