"""Exact free-space (transport) norms over finite pointed metric spaces.

A coefficient vector over the non-base points represents an element of the
free space spanned by the point evaluations.  Its norm is the cheapest
nonnegative flow on the complete directed graph whose net divergence at each
non-base point equals the coefficient there (the base point is an
unconstrained source/sink).

Three exact routes compute it.  On a space that keeps its tree, a node space
of :mod:`ultrafree.rtree`, the norm is the l1 norm of the edge masses
(Godard 2010).  Otherwise one pass over the
sorted pairs builds the single-linkage merges and decides the route: when
the distances are symmetric, non-negative and every cross pair of every
merge sits exactly at the merge height, the space is an ultrametric and the
norm is read off its merge tree in integers: opposite-signed masses are
matched at their lowest merge.  Both tree routes take the potential from
:func:`_tree_transport`, the one kernel for subtree masses and sign
potentials.  Other input goes to the exact simplex.  All routes end in the
same check against the metric alone, certified in integers on the space's
cached view: the flow must meet the coefficients at the value's cost, and
its potential, vanishing at the base, must be 1-Lipschitz and pair with the
coefficients to the same value exactly.  The potential is checked edge by
edge on a space with a tree, and merge by merge on a space with merges,
each in O(N); any other space, and a potential that fails an edge or a
merge, go to the scan of every pair, which names the first failing pair.
The view, the merges and the integer merge tree are computed once per
space and kept on it (:func:`ultrafree.metric._integer_view`); the tree
routes build Fractions only for the returned certificate, and the simplex
result is scaled onto integers for the same check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .metric import (
    CertificationError, FiniteMetricSpace, _cached, _extreme_ratios, _integer_view, _single_linkage, _tree_edges
)
from .rational import _index, _rationals, parse_rational
from .simplex import solve_lp


@dataclass(frozen=True)
class FreeVector:
    """One rational coefficient per non-base point; index k is point k+1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _rationals(self.coeffs))

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
        values = _rationals(self.values)
        if not values or values[0] != 0:
            raise ValueError("a Lipschitz function must vanish at the base point")
        object.__setattr__(self, "values", values)

    @classmethod
    def _exact(cls, values: tuple[Fraction, ...]) -> "LipFunction":
        """Wrap a certified potential: Fractions already, 0 at the base, without parsing it again."""
        f = object.__new__(cls)
        object.__setattr__(f, "values", values)
        return f


@dataclass(frozen=True)
class PointMap:
    """A base-preserving map between finite pointed metric spaces."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(map(_index, self.image))
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
    """Exact maximum of |f(x) - f(y)| / d(x, y) over all pairs, with f over the lcm of its denominators."""
    if len(f.values) != len(space):
        raise ValueError("function dimension does not match the space")
    scale = lcm(*(x.denominator for x in f.values))
    values = [x.numerator * (scale // x.denominator) for x in f.values]
    extremes = _extreme_ratios(space, lambda i, j: abs(values[i] - values[j]))
    if extremes is None:
        return Fraction(0)
    top, bottom, _, _ = extremes[1]
    return Fraction(top * _integer_view(space)[0], bottom * scale)


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


def _lca_flow(merges, masses: Sequence[int]) -> tuple[int, list[tuple[int, int, int]]]:
    """Match opposite-signed point masses at each merge, bottom-up, at cost = merge height.

    Every cluster keeps its unmatched (point, mass) entries, which share the
    sign of its net mass; a merge matches the two lists against each other
    until one runs out.  The merged cluster keeps the left entries before
    the right ones, and the longer list absorbs the shorter in place, so
    one-signed mass costs no copy of a growing list.  Returns the cost and
    the arcs sorted by (i, j).
    """
    unmatched = [[(x, m)] if m else [] for x, m in enumerate(masses)]
    arcs = []
    value = 0
    for h, a, b in merges:
        left, right = unmatched[a], unmatched[b]
        while left and right and (left[-1][1] > 0) != (right[-1][1] > 0):
            (x, p), (y, q) = left.pop(), right.pop()
            # the smaller of |p| and |q| moves; the rest, of the larger's sign, stays in its list
            rest = p + q
            if p > 0:
                amount = p if rest <= 0 else -q
                arcs.append((x, y, amount))
            else:
                amount = -p if rest >= 0 else q
                arcs.append((y, x, amount))
            value += h * amount
            if rest:
                if (rest > 0) == (p > 0):
                    left.append((x, rest))
                else:
                    right.append((y, rest))
        if len(left) >= len(right):
            left += right
        else:
            right[:0] = left
            left = right
        unmatched.append(left)
    arcs.sort()
    return value, arcs


def _tree_transport(edges: Sequence[tuple], masses: Sequence) -> tuple[list, list]:
    """Subtree masses and sign potential of a tree: ``edges`` are (child, parent, length), parents first.

    Each node's mass adds into its parent, children first.  The potential
    is 0 at the root and steps from parent to child by sign(subtree mass) *
    length, which attains the transport norm sum(length * |subtree mass|).
    """
    net = list(masses)
    for child, parent, _ in reversed(edges):
        net[parent] += net[child]
    g = [0] * len(net)
    for child, parent, length in edges:
        mass = net[child]
        g[child] = g[parent] + ((mass > 0) - (mass < 0)) * length
    return net, g


def _certify_transport(space: FiniteMetricSpace, masses: list, unit: int, cost: int, arcs, potential, scale: int) -> None:
    """Check a transport certificate in integers on the space's cached view; a failure names its witness.

    On the view (q, D), d(i, j) = D[i][j] / q.  The coefficient at point
    k + 1 is masses[k] / unit (``masses`` a list, compared whole with the
    divergence), an arc (i, j, amount) carries amount / unit, the value is
    cost / (q * unit) and the potential at x is potential[x] / scale.  The
    arcs must carry positive amounts, the flow's divergence
    must be the coefficients and its cost the value; the potential must
    vanish at the base, be 1-Lipschitz on every pair and pair with the
    coefficients to the value.  Then the value is both attained and a lower
    bound: the norm.  Fractions are built only to write a failure message.

    The Lipschitz and the duality checks compare on q and the potential's
    scale divided by their gcd, so the merge route, whose potential is over
    2q, multiplies nothing by q.  The potential is checked edge by edge on
    a space that keeps a tree (:func:`_edges_lipschitz`) and merge by merge
    on one with merges (:func:`_merges_lipschitz`), in O(N); any other
    space, and a potential that fails an edge or a merge, go to the
    pairwise scan (:func:`_steep_pair`), which decides the check and names
    the first failing pair, row by row.
    """
    q, d = _integer_view(space)
    n = len(space)
    divergence = [0] * n
    total = 0
    for i, j, amount in arcs:
        if amount <= 0 or i == j:
            raise CertificationError(f"transport arc ({i}, {j}) carries {Fraction(amount, unit)}")
        divergence[i] += amount
        divergence[j] -= amount
        total += d[i][j] * amount
    if divergence[1:] != masses:
        k, m = next((k, m) for k, m in enumerate(masses, 1) if divergence[k] != m)
        raise CertificationError(
            f"transport flow leaves point {k} with {Fraction(divergence[k], unit)}, not {Fraction(m, unit)}"
        )
    if total != cost:
        raise CertificationError(
            f"transport flow costs {Fraction(total, q * unit)}, not the value {Fraction(cost, q * unit)}"
        )
    if potential[0] != 0:
        raise CertificationError(f"dual potential is {Fraction(potential[0], scale)} at the base, not 0")
    common = gcd(q, scale)
    p, s = q // common, scale // common
    edges = _tree_edges(space)
    if edges is not None:
        passed = _edges_lipschitz(d, edges, potential, p, s)
    else:
        tree = _cached(space, "_transport_tree", _transport_tree)
        passed = tree is not None and _merges_lipschitz(tree[0], potential, p, s)
    if not passed:
        pair = _steep_pair(d, potential, p, s)
        if pair is not None:
            raise CertificationError(f"dual potential is not 1-Lipschitz on the pair ({pair[0]}, {pair[1]})")
    # the value is cost / (q * unit) and the dual dual / (unit * scale)
    dual = sum(map(mul, masses, potential[1:]))
    if dual * p != cost * s:
        raise CertificationError(
            f"primal and dual transport optima differ: {Fraction(cost, q * unit)} against {Fraction(dual, unit * scale)}"
        )


def _merges_lipschitz(merges, potential, p: int, s: int) -> bool:
    """Whether |G_x - G_y| * p <= s * D[x][y] on every pair of points, checked at each merge of the space.

    ``merges`` are the integer merges of :func:`_transport_tree`, heights
    on the scale of the view (q, D), and ``potential`` holds G, one
    integer per point.  With p / s the reduced q / scale, this says that
    G / scale is 1-Lipschitz.  Each cluster carries its largest and
    smallest G up the merges, and the merge of clusters A and B at height
    h is checked by max_A G - min_B G and max_B G - min_A G against h.

    Proof that this is the pairwise check.  The merges join clusters until
    one is left, so two distinct points x and y are a cross pair (x in A, y
    in B, or the other way round) of exactly one merge: the first that
    joins them.  :func:`ultrafree.metric._single_linkage` returns merges
    only when every cross pair of every merge sits exactly at its height,
    so D[x][y] = h for that merge.  Over the cross pairs of A and B, the
    largest |G_x - G_y| is the larger of max_A G - min_B G and max_B G -
    min_A G.  Hence every pair passes iff every merge passes, and a failed
    merge holds a failed pair.  O(N) per potential.
    """
    high, low = list(potential), list(potential)
    for h, a, b in merges:
        top_a, top_b, bottom_a, bottom_b, limit = high[a], high[b], low[a], low[b], s * h
        if (top_a - bottom_b) * p > limit or (top_b - bottom_a) * p > limit:
            return False
        high.append(top_a if top_a > top_b else top_b)
        low.append(bottom_a if bottom_a < bottom_b else bottom_b)
    return True


def _edges_lipschitz(d, edges, potential, p: int, s: int) -> bool:
    """Whether |G_x - G_y| * p <= s * D[x][y] on every pair of points, checked on each edge of the space's tree.

    ``edges`` are those :func:`ultrafree.metric._keep_tree` kept, each
    checked on its entry of the view rows ``d``, and p / s, G are as in
    :func:`_merges_lipschitz`.  Proof that this is the pairwise check.  The
    view is the path metric of the tree (:func:`ultrafree.metric._keep_view`):
    D[x][y] is the sum of D over the edges of the tree path from x to y.
    If every edge passes, the steps of G along that path add up to at most
    s / p times that sum, so the pair passes; an edge is a pair, so a
    failed edge is a failed pair.  O(N) per potential.
    """
    for child, up, _ in edges:
        if abs(potential[child] - potential[up]) * p > s * d[child][up]:
            return False
    return True


def _steep_pair(d, potential, p: int, s: int) -> Optional[tuple[int, int]]:
    """The first pair i < j, row by row, with |G_i - G_j| * p > s * D[i][j] on the view rows ``d``; None when none is."""
    for i, row in enumerate(d):
        gi = potential[i]
        for j in range(i + 1, len(row)):
            if abs(gi - potential[j]) * p > s * row[j]:
                return i, j
    return None


def _certify_rational(space: FiniteMetricSpace, coeffs, value, flow, potential) -> None:
    """Scale a certificate in Fractions onto integers and check it with :func:`_certify_transport`.

    The unit is the lcm of the denominators of the coefficients, the
    amounts and the value, so the masses, the amounts and the cost on the
    view's scale are integers; the potential goes over the lcm of its own
    denominators.
    """
    q = _integer_view(space)[0]
    unit = lcm(value.denominator, *(c.denominator for c in coeffs), *(a.denominator for _, _, a in flow))
    scale = lcm(*(x.denominator for x in potential))
    _certify_transport(
        space,
        [c.numerator * (unit // c.denominator) for c in coeffs],
        unit,
        value.numerator * (unit // value.denominator) * q,
        [(i, j, a.numerator * (unit // a.denominator)) for i, j, a in flow],
        [x.numerator * (scale // x.denominator) for x in potential],
        scale,
    )


def _transport_tree(space: FiniteMetricSpace) -> Optional[tuple[tuple, tuple]]:
    """The merge tree of :func:`_single_linkage` in integers, or None when the space is no ultrametric.

    Returns the merges with their heights on the scale of
    :func:`_integer_view`, merge k being node n + k, and the top-down
    (child, parent, length) edges for :func:`_tree_transport`, a child's
    length being its height gap to its merge.  :func:`free_norm_certificate`
    prepares it once per space and keeps it on the space with the view.
    """
    merges = _single_linkage(space)
    if merges is None:
        return None
    n = len(space)
    height = [0] * n + [h for h, _, _ in merges]
    edges = tuple((x, n + k, h - height[x]) for k, (h, a, b) in reversed(list(enumerate(merges))) for x in (a, b))
    return merges, edges


def _edge_flow(edges, coeffs: Sequence[int]) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """The cost, flow and potential of integer coefficients on a tree's (child, parent, length) edges, unchecked.

    Coefficient k is at point k + 1 and -sum(coeffs) at the base.  The flow sends the subtree mass m_e of
    :func:`_tree_transport` along each edge e, out of the subtree when positive, at cost sum(length * |m_e|);
    the sign potential is shifted to vanish at the base.
    """
    net, g = _tree_transport(edges, [-sum(coeffs), *coeffs])
    arcs, cost = [], 0
    for child, parent, length in edges:
        mass = net[child]
        if mass > 0:
            arcs.append((child, parent, mass))
            cost += length * mass
        elif mass < 0:
            arcs.append((parent, child, -mass))
            cost -= length * mass
    base = g[0]
    return cost, arcs, [x - base for x in g] if base else g


def free_norm_certificate(space: FiniteMetricSpace, v: FreeVector) -> FreeNormCertificate:
    """The transport norm of v with an optimal flow and an optimal dual potential.

    On a space that keeps its tree they are those of :func:`_edge_flow`.  On
    an ultrametric (decided once per space by :func:`_single_linkage`) the
    flow matches opposite-signed masses at their lowest merge, the base
    carrying -sum(v), and the potential is the sign potential of
    :func:`_tree_transport` on the merge tree.  Both run in integers, checked
    by :func:`_certify_transport` before the Fractions of the result are
    built, one per distinct value; any other input goes to the simplex
    (:func:`_lp_certificate`).  The zero vector has the zero certificate.  A
    failed check raises :class:`CertificationError`.
    """
    n = len(space)
    if len(v.coeffs) != n - 1:
        raise ValueError("vector dimension does not match the space")
    edges = _tree_edges(space)
    tree = None if edges is not None else _cached(space, "_transport_tree", _transport_tree)
    if edges is None and tree is None:
        return _zero_certificate(n) if v.is_zero() else _lp_certificate(space, v)
    scale, unit = _integer_view(space)[0], lcm(*(c.denominator for c in v.coeffs))
    coeffs = [c.numerator * (unit // c.denominator) for c in v.coeffs]
    if not any(coeffs):
        return _zero_certificate(n)
    if edges is not None:
        # the edge lengths are entries of the view, so g is over scale
        cost, arcs, potential = _edge_flow(edges, coeffs)
        over = scale
    else:
        merges, edges = tree
        masses = [-sum(coeffs), *coeffs]
        cost, arcs = _lca_flow(merges, masses)
        _, g = _tree_transport(edges, masses + [0] * len(merges))
        potential = [x - g[0] for x in g[:n]]
        # a merge-tree edge is half its height gap, so g is over 2 scale
        over = 2 * scale
    _certify_transport(space, coeffs, unit, cost, arcs, potential, over)
    amounts = {amount: Fraction(amount, unit) for amount in {amount for _, _, amount in arcs}}
    values = {x: Fraction(x, over) for x in set(potential)}
    return FreeNormCertificate(
        Fraction(cost, scale * unit),
        tuple((i, j, amounts[amount]) for i, j, amount in arcs),
        LipFunction._exact(tuple(map(values.__getitem__, potential))),
    )


def _lp_certificate(space: FiniteMetricSpace, v: FreeVector) -> FreeNormCertificate:
    """The program of :func:`_transport_program` solved by the simplex from its base-routing basis, on any space.

    Its result is checked on integers (:func:`_certify_rational`).  The
    oracles of :mod:`ultrafree.ell1` call it on node spaces, which keep a tree.
    """
    arcs, costs, columns, basis = _transport_program(space, v.coeffs)
    result = solve_lp(costs, columns, v.coeffs, basis=basis)
    flow = tuple((arcs[k][0], arcs[k][1], amount) for k, amount in enumerate(result.x) if amount)
    potential = (Fraction(0), *result.dual)
    _certify_rational(space, v.coeffs, result.value, flow, potential)
    return FreeNormCertificate(result.value, flow, LipFunction._exact(potential))


def _zero_certificate(n: int) -> FreeNormCertificate:
    return FreeNormCertificate(Fraction(0), (), LipFunction((Fraction(0),) * n))


def free_norm(space: FiniteMetricSpace, v: FreeVector) -> Fraction:
    return free_norm_certificate(space, v).value


def _lipschitz_witness(point_map: PointMap) -> tuple[Fraction, int, int]:
    """Lip(f) and the first pair i < j, row by row, that attains it; (0, 0, 0) on one point.

    On the cached integer views (p, D) of the domain and (q, C) of the
    codomain the ratio at (i, j) is C[f i][f j] p / (D[i][j] q), so
    :func:`ultrafree.metric._extreme_ratios` compares the pairs by
    cross-multiplying C[f i][f j] / D[i][j], and one Fraction is built at
    the end.  A domain distance that is not positive raises ValueError
    naming its pair.
    """
    img, domain = point_map.image, point_map.domain
    q, c = _integer_view(point_map.codomain)
    extremes = _extreme_ratios(domain, lambda i, j: c[img[i]][img[j]])
    if extremes is None:
        return Fraction(0), 0, 0
    top, bottom, i, j = extremes[1]
    return Fraction(top * _integer_view(domain)[0], bottom * q), i, j


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


def _distance_potential(d, target: int) -> list[int]:
    """The potential d(., target) - d(base, target) on the integer rows ``d`` of a view."""
    return [row[target] - d[0][target] for row in d]


def operator_norm_of_extension(point_map: PointMap) -> Fraction:
    """Operator norm of the linearized map: the Lipschitz constant of the point map.

    Upper bound: the image of a molecule m_ij is the flow of 1/d(i, j) along
    the one arc from f(i) to f(j), which costs d(f i, f j) / d(i, j) <=
    Lip(f); molecules are the extreme points of the domain unit ball, so the
    norm is at most Lip(f).  Lower bound, at the first pair (i, j) attaining
    Lip(f): the one-arc flow must have the image of m_ij as its divergence,
    and the potential g = d(., f j) - d(base, f j), an integer row on the
    codomain's cached view, must be 1-Lipschitz and pair with that image
    to exactly Lip(f).  A failed check raises :class:`CertificationError`
    naming the pair.

    The checks run on integer data.  The factor 1/d(i, j) is common to
    m_ij and its one-arc flow, so :func:`push_forward` of delta_i - delta_j
    is compared with delta_{f i} - delta_{f j}, both with integer
    coefficients.  On the views (p, D) of the
    domain and (q, C) of the codomain the pairing of g / q with the image
    of m_ij is <g, image> p / (q D[i][j]), which is cross-multiplied with
    the returned Lip(f).  No molecule is built and no Fraction vector is
    added or scaled.
    """
    best, i, j = _lipschitz_witness(point_map)
    if best == 0:
        return best
    dom, cod = point_map.domain, point_map.codomain
    source, target = point_map.image[i], point_map.image[j]
    image = push_forward(point_map, FreeVector._exact(_point_difference(len(dom), i, j))).coeffs
    if image != _point_difference(len(cod), source, target):
        raise CertificationError(f"the image of the molecule at pair ({i}, {j}) is not its one-arc flow")
    q, d = _integer_view(cod)
    g = _distance_potential(d, target)  # the potential is g / q
    if _steep_pair(d, g, 1, 1) is not None:
        raise CertificationError(f"the potential of pair ({i}, {j}) is not 1-Lipschitz")
    p, e = _integer_view(dom)
    pairing = sum(c * x for c, x in zip(image, g[1:]) if c)
    if pairing * p * best.denominator != best.numerator * q * e[i][j]:
        raise CertificationError(f"the potential of pair ({i}, {j}) does not attain the operator norm {best}")
    return best


# the coefficients of a point difference, shared: Fraction arithmetic costs more than a lookup
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


def _point_difference(size: int, i: int, j: int) -> tuple[Fraction, ...]:
    """The coefficients of delta_i - delta_j on ``size`` points, all integers; the base evaluates to zero."""
    coeffs = [_ZERO] * (size - 1)
    if i != j:
        if i:
            coeffs[i - 1] = _ONE
        if j:
            coeffs[j - 1] = _MINUS_ONE
    return tuple(coeffs)
