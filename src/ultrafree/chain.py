"""Nearest-point retraction chains and the induced monotone basis.

Given an ordering of the points starting at the base, stage n keeps the
first n points and sends every point to its nearest kept point, breaking
distance ties toward the earliest position in the ordering.  On an
ultrametric space every stage is 1-Lipschitz, consecutive stages commute,
and the induced linear projections on the free space are norm one, which
makes the telescoped difference vectors a monotone basis.

Since P_n delta_x = delta_{r_n x}, every point evaluation has 0/1
coordinates in the basis of its own chain: they mark the edges from x to
the base of the anchor tree, where each added point hangs off its nearest
earlier one.  The basis constant and the l1 constants of a family from
:func:`basis_vectors`, which keeps its chain, come from them, and only
families built otherwise are inverted.

The chain identities, the telescoping identity that gives those
coordinates, and the closed-form basis constant, the maximum of
d(r_n x, r_n y) / d(x, y) over the stages n >= 2 and the pairs, come from
one scan of the rank table, :func:`_scan_chain`.  On an ultrametric the
nearest-point table is read off the cluster tree: r_n x is the earliest
point of the lowest cluster around x that meets the first n points.  A
table that follows this rule is certified in O(N^2) with no pair scanned;
every other table is scanned stage by stage and pair by pair, in integers.

Non-ultrametric spaces are accepted in exploratory mode: verification then
reports violations instead of asserting their absence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .freespace import FreeVector, PointMap, _point_difference, free_norm, molecule, operator_norm_of_extension
from .linalg import SingularMatrixError, invert_matrix
from .metric import CertificationError, FiniteMetricSpace, _cached, _cluster_parents, _integer_view, _single_linkage
from .rational import _index


@dataclass(frozen=True)
class RetractionChain:
    """Point ordering plus the full table of minimal nearest positions.

    ``ranks[n-1][x]`` is the 1-based position (in the ordering) of the
    nearest point to x among the first n, minimal position on ties.  An
    ordering that is not a permutation of the points starting at the base,
    and a table that is not N x N with entries in 1..N, raise ValueError; a
    point index or a rank that is no integer raises TypeError, and a bool
    reads as an int.
    """

    space: FiniteMetricSpace
    ordering: tuple[int, ...]
    ranks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ordering", _checked_ordering(len(self.space), self.ordering))
        ranks = tuple(tuple(map(_index, row)) for row in self.ranks)
        size = len(self.ordering)
        if len(ranks) != size:
            raise ValueError(f"the rank table has {len(ranks)} stages, not {size}")
        for n, row in enumerate(ranks, 1):
            if len(row) != size:
                raise ValueError(f"stage {n} ranks {len(row)} points, not {size}")
            if min(row) < 1 or max(row) > size:
                x = next(x for x, rank in enumerate(row) if not 1 <= rank <= size)
                raise ValueError(f"the rank of point {x} at stage {n} is {row[x]}, outside 1..{size}")
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def _exact(cls, space: FiniteMetricSpace, ordering: tuple[int, ...], ranks: tuple[tuple[int, ...], ...]):
        """Wrap a checked ordering and the int rows :func:`build_chain` built, without checking them again."""
        chain = object.__new__(cls)
        object.__setattr__(chain, "space", space)
        object.__setattr__(chain, "ordering", ordering)
        object.__setattr__(chain, "ranks", ranks)
        return chain

    @property
    def size(self) -> int:
        return len(self.ordering)

    def _stage(self, n: int) -> int:
        if not 1 <= n <= len(self.ordering):
            raise ValueError(f"stage {n} is outside 1..{len(self.ordering)}")
        return n - 1

    def _point(self, point: int) -> int:
        if not 0 <= point < len(self.ordering):
            raise ValueError(f"point {point} is outside 0..{len(self.ordering) - 1}")
        return point

    def rank(self, n: int, point: int) -> int:
        return self.ranks[self._stage(n)][self._point(point)]

    def retract(self, n: int, point: int) -> int:
        """The point index of r_n(point)."""
        return self.ordering[self.ranks[self._stage(n)][self._point(point)] - 1]

    def kept(self, n: int) -> tuple[int, ...]:
        return self.ordering[: self._stage(n) + 1]

    def nearest_distance(self, n: int, point: int) -> Fraction:
        """Exact distance from the point to the first n points of the ordering."""
        image = self.retract(n, point)  # checks the point before its row is read
        return self.space.dist[point][image]


@dataclass(frozen=True)
class ChainReport:
    """Violation witnesses for the chain identities; all empty on ultrametric input."""

    one_lipschitz: tuple[tuple[int, int, int], ...]
    commutation: tuple[tuple[int, int], ...]
    reverse_commutation: tuple[tuple[int, int], ...]
    locality: tuple[tuple[int, int, int], ...]
    locality_distance: tuple[tuple[int, int, int], ...]
    fixed_points: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return not (
            self.one_lipschitz
            or self.commutation
            or self.reverse_commutation
            or self.locality
            or self.locality_distance
            or self.fixed_points
        )


@dataclass(frozen=True)
class ProjectionAlgebraReport:
    min_rule: tuple[tuple[int, int], ...]
    rank_failures: tuple[int, ...]
    norm_failures: tuple[tuple[int, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not (self.min_rule or self.rank_failures or self.norm_failures)


def _checked_ordering(size: int, ordering: Sequence[int]) -> tuple[int, ...]:
    """The ordering as a tuple of ints, or the ValueError of :class:`RetractionChain` for one it refuses."""
    order = tuple(map(_index, ordering))
    if sorted(order) != list(range(size)):
        raise ValueError("ordering must be a permutation of all point indices")
    if order[:1] != (0,):
        raise ValueError("ordering must start at the base point")
    return order


@dataclass(frozen=True)
class BasisFamily:
    """Vectors of a (candidate) basis of the free space together with their norms."""

    space: FiniteMetricSpace
    vectors: tuple[FreeVector, ...]
    norms: tuple[Fraction, ...]


def build_chain(space: FiniteMetricSpace, ordering: Optional[Sequence[int]] = None) -> RetractionChain:
    """Compute the full nearest-position table for the given ordering.

    The ordering must be a permutation starting at the base.  The table is
    built incrementally: adding point number n+1 re-routes x there only when
    it is strictly closer than everything kept so far, which is exactly the
    minimal-position tie rule.  Distances are compared on the space's cached
    :func:`_integer_view`, which has their order and their ties.
    """
    n_points = len(space)
    order = _checked_ordering(n_points, range(n_points) if ordering is None else ordering)
    d = _integer_view(space)[1]
    best_rank = [1] * n_points
    best_dist = [d[x][order[0]] for x in range(n_points)]
    rows = [tuple(best_rank)]
    for n in range(2, n_points + 1):
        s = order[n - 1]
        for x in range(n_points):
            dn = d[x][s]
            if dn < best_dist[x]:
                best_dist[x] = dn
                best_rank[x] = n
        rows.append(tuple(best_rank))
    return RetractionChain._exact(space, order, tuple(rows))


def verify_chain(chain: RetractionChain) -> ChainReport:
    """Exhaustively check the chain identities, reporting witnesses.

    Checked for every stage n and all point pairs:
      * d(r_n x, r_n y) <= d(x, y)                          (1-Lipschitz)
      * r_n(r_{n+1} x) = r_n(x)  and  r_{n+1}(r_n x) = r_n(x)
      * d(x, y) < dist(x, S_n)  implies same nearest position and
        dist(x, S_n) = dist(y, S_n)                          (locality)
      * every kept point is fixed by its stage

    The report is that of the chain's one :func:`_scan_chain`, kept on it,
    which also gives the closed form of :func:`basis_constant`, and
    :func:`_certified_chain` reads the telescoping identity off it.  A
    table that follows the merge-tree rule on an ultrametric with positive
    distances has the empty report, proved in :func:`_follows_merge_tree`;
    any other table is checked pair by pair.
    """
    return _cached(chain, "_scan", _scan_chain)[0]


def _scan_chain(chain: RetractionChain) -> tuple[ChainReport, Optional[Fraction], bool]:
    """The :class:`ChainReport`, max_{n >= 2} max_{x<y} d(r_n x, r_n y) / d(x, y) and the rank bound.

    A table that follows the merge-tree rule, :func:`_follows_merge_tree`,
    gets the empty report, the constant 1 and a true rank bound in
    O(N^2), which are :func:`_full_scan`'s by the proof in the rule's
    docstring; every other table goes through the full scan, O(N^3).
    """
    if _follows_merge_tree(chain):
        return ChainReport((), (), (), (), (), ()), Fraction(1), True
    return _full_scan(chain)


def _follows_merge_tree(chain: RetractionChain) -> bool:
    """Whether the rank table is the merge-tree rule's, on an ultrametric with positive distances.

    Let the clusters be those of :func:`_single_linkage` with tied merges
    contracted (:func:`ultrafree.metric._cluster_parents`): they are
    nested, each is the ball of radius its height h(C) about every member,
    and d(x, y) for x != y is the height of the lowest cluster holding
    both.  Let first(C) be the least position in the ordering of a point
    of C, S_n the first n points, and C_n(x) the lowest cluster around x
    with first(C) <= n, the lowest one that meets S_n.  The rule is
    ranks[n-1][x] = first(C_n(x)), so r_n x is the earliest point of
    C_n(x).  Going up from x, first() never increases and is 1 at the top,
    so one two-pointer walk, down the stages from N and up the clusters
    from x, checks the column of each point, O(N^2) in all.

    On a space whose lowest merge height is positive and whose diagonal is
    zero, such a table has the empty report, the constant 1 and the rank
    bound, which are what :func:`_full_scan` finds on it:

      * rank bound: first(C_n(x)) <= n by the choice of C_n(x);
      * fixed points: a kept x has first({x}) <= n, so r_n x = x;
      * 1-Lipschitz: for x != y let E be the lowest cluster holding both,
        h(E) = d(x, y).  If E meets S_n, then C_n(x) and C_n(y) lie in E,
        and d(r_n x, r_n y) <= h(E).  Otherwise both are the lowest
        cluster above E that meets S_n, and r_n x = r_n y;
      * locality: for x not kept, the child of C = C_n(x) around x misses
        S_n, so every kept point of C is at distance h(C) from x and every
        kept point outside C is farther: dist(x, S_n) = d(x, r_n x) = h(C).
        If d(x, y) < h(C), E lies strictly inside C and misses S_n, so
        C_n(y) = C: the same rank and the same distance for y;
      * commutation: let C' = C_{n+1}(x), inside C = C_n(x).  If C' = C,
        r_{n+1} x = r_n x, which r_n fixes.  Otherwise C' misses S_n, r_{n+1} x is the point
        p added at stage n + 1, and the clusters around p that meet S_n are
        those above C', the lowest being C, so r_n p = r_n x.  And r_n x
        is kept, so r_{n+1} fixes it;
      * constant: every ratio is at most 1 by the 1-Lipschitz property,
        and the last stage is the identity, so it is 1 once there is a
        pair; a one-point chain has the constant 1.
    """
    size, dist = chain.size, chain.space.dist
    merges = _single_linkage(chain.space)
    if merges is None or (merges and merges[0][0] <= 0) or any(dist[x][x] for x in range(size)):
        return False
    first = [0] * (size + len(merges))
    for k, x in enumerate(chain.ordering, 1):
        first[x] = k
    for k, (_, a, b) in enumerate(merges, size):
        first[k] = min(first[a], first[b])
    parent = _cluster_parents(size, merges)
    stages = range(size, 0, -1)
    for x, column in enumerate(zip(*chain.ranks)):
        u = x
        for n, rank in zip(stages, reversed(column)):
            while first[u] > n:
                u = parent[u]
            if rank != first[u]:
                return False
    return True


def _full_scan(chain: RetractionChain) -> tuple[ChainReport, Optional[Fraction], bool]:
    """The report, the constant and the rank bound of :func:`_scan_chain` by scanning every stage and pair, O(N^3).

    The scan runs on the integer rows of :func:`_integer_view`, which have
    the order and ties of the distances and the same ratios, so ratios are
    compared by cross-multiplication and one Fraction is built at the end.
    Witnesses come stage by stage, the pairs x < y in order.  The rank
    bound holds when every stage n ranks only the first n points,
    max(ranks[n-1]) <= n.  The constant is None when a distance between
    distinct points is not positive, and 1 on a one-point chain, which has
    no pairs.
    """
    order, ranks, size = chain.ordering, chain.ranks, chain.size
    d = _integer_view(chain.space)[1]
    positive = all(d[a][b] > 0 for a in range(size) for b in range(a + 1, size))
    lip, comm, rcomm, loc, loc_dist, fixed = [], [], [], [], [], []
    best_num, best_den = 0, 1
    bounded = True
    for n, row in enumerate(ranks, 1):
        bounded = bounded and max(row) <= n
        fixed.extend((n, order[k]) for k in range(n) if row[order[k]] != k + 1)
        target = [order[rank - 1] for rank in row]  # r_n x
        near = [d[x][t] for x, t in enumerate(target)]  # d(x, r_n x)
        for a in range(size):
            da, dt, ra, na = d[a], d[target[a]], row[a], near[a]
            for b in range(a + 1, size):
                dab = da[b]
                value = dt[target[b]]
                if value > dab:
                    lip.append((n, a, b))
                if dab < na:
                    if ra != row[b]:
                        loc.append((n, a, b))
                    if near[b] != na:
                        loc_dist.append((n, a, b))
                if n >= 2 and value * best_den > best_num * dab:
                    best_num, best_den = value, dab
        if n < size:
            nxt = ranks[n]
            for x in range(size):
                if row[order[nxt[x] - 1]] != row[x]:
                    comm.append((n, x))
                if nxt[target[x]] != row[x]:
                    rcomm.append((n, x))
    report = ChainReport(tuple(lip), tuple(comm), tuple(rcomm), tuple(loc), tuple(loc_dist), tuple(fixed))
    if not positive:
        return report, None, bounded
    return report, Fraction(best_num, best_den) if size > 1 else Fraction(1), bounded


def retraction_map(chain: RetractionChain, n: int) -> PointMap:
    """Stage n of the chain as a base-preserving self-map of the space; n outside 1..N raises ValueError."""
    image = tuple(chain.ordering[rank - 1] for rank in chain.ranks[chain._stage(n)])
    return PointMap(chain.space, chain.space, image)


def verify_projection_algebra(chain: RetractionChain, include_norms: bool = False) -> ProjectionAlgebraReport:
    """Check P_n P_m = P_min(n,m) and rank P_n = n - 1 on the point maps.

    Column x of P_n is the evaluation of r_n(x), and the base evaluates to
    zero, so the matrix identity is the map identity r_n(r_m x) = r_min(n,m)(x)
    for every x >= 1, with r_n(0) = 0, and the rank of P_n is the number of
    distinct images r_n(x) != 0 of the points x >= 1.  With ``include_norms``
    the operator norm of every stage n >= 2, certified at its witness pair by
    :func:`operator_norm_of_extension`, must additionally equal 1.

    The min rule is certified from adjacent stages in O(N^2): for every n
    and x, r_n r_{n+1} = r_n, r_{n+1} r_n = r_n and r_n r_n = r_n.  They give
    every other pair by induction on |n - m| (ROADMAP item 1): for k < m,
    r_k r_m = (r_k r_{k+1}) r_m = r_k (r_{k+1} r_m) = r_k, and for n > m,
    r_n r_m = r_n (r_{n-1} r_m) = (r_n r_{n-1}) r_m = r_m.  Only when one of
    them fails does :func:`_min_rule_scan` list every failing (n, m).
    """
    size, order = chain.size, chain.ordering
    maps = [(0, *(order[rank - 1] for rank in row[1:])) for row in chain.ranks]
    adjacent = all(
        now[now[x]] == now[x] and (nxt is None or now[nxt[x]] == now[x] == nxt[now[x]])
        for now, nxt in zip(maps, [*maps[1:], None])
        for x in range(1, size)
    )
    min_rule = () if adjacent else _min_rule_scan(maps)
    rank_failures = [n for n in range(1, size + 1) if len(set(maps[n - 1][1:]) - {0}) != n - 1]
    norm_failures: list[tuple[int, Fraction]] = []
    if include_norms:
        for n in range(2, size + 1):
            value = operator_norm_of_extension(retraction_map(chain, n))
            if value != 1:
                norm_failures.append((n, value))
    return ProjectionAlgebraReport(min_rule, tuple(rank_failures), tuple(norm_failures))


def _min_rule_scan(maps: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Every (n, m) with r_n(r_m x) != r_min(n,m)(x) for some x >= 1, maps[n - 1] being r_n: O(N^3)."""
    size = len(maps)
    return tuple(
        (n, m)
        for n in range(1, size + 1)
        for m in range(1, size + 1)
        if any(maps[n - 1][maps[m - 1][x]] != maps[min(n, m) - 1][x] for x in range(1, size))
    )


def basis_vectors(chain: RetractionChain) -> BasisFamily:
    """The telescoped difference vectors e_k and their norms.

    e_k is the evaluation of the (k+1)-st ordered point minus the evaluation
    of its nearest point among the first k; its norm is that nearest
    distance, by the isometry of the evaluation embedding.  The family keeps
    ``chain`` outside its fields, as :func:`_cached` does, for
    :func:`_certified_chain`, which certifies it off the chain's one scan;
    the chain never refers back to the family.
    """
    space, order = chain.space, chain.ordering
    vectors = []
    norms = []
    for k in range(1, chain.size):
        point = order[k]
        # the anchor is one of the first k points, so never the point itself
        anchor = order[chain.ranks[k - 1][point] - 1]
        vectors.append(FreeVector._exact(_point_difference(chain.size, point, anchor)))
        norms.append(space.dist[point][anchor])
    family = BasisFamily(space, tuple(vectors), tuple(norms))
    object.__setattr__(family, "_chain", chain)
    return family


def _check_family(space: FiniteMetricSpace, family: BasisFamily) -> None:
    """Raise ValueError unless the family has N - 1 vectors of N - 1 coefficients each, N = len(space)."""
    dim = len(space) - 1
    if any(len(v.coeffs) != dim for v in family.vectors):
        raise ValueError("family vectors do not live on the given space")
    if len(family.vectors) != dim:
        raise ValueError("family size must match the free-space dimension")


def _family_inverse(family: BasisFamily) -> list[list[Fraction]]:
    _check_family(family.space, family)
    dim = len(family.space) - 1
    matrix = [[family.vectors[k].coeffs[r] for k in range(dim)] for r in range(dim)]
    try:
        return invert_matrix(matrix)
    except SingularMatrixError as exc:
        raise ValueError("family does not span the free space") from exc


def _apply(matrix: list[list[Fraction]], coeffs: Sequence[Fraction]) -> list[Fraction]:
    """The product matrix * coeffs, skipping zero entries on both sides."""
    out = [Fraction(0)] * len(matrix)
    for r, c in enumerate(coeffs):
        if c:
            for k, row in enumerate(matrix):
                if row[r]:
                    out[k] += row[r] * c
    return out


def _combination(dim: int, vectors: Sequence[FreeVector], coeffs: Sequence[Fraction]) -> list[Fraction]:
    """The dim coefficients of sum_k coeffs[k] * vectors[k]."""
    combo = [Fraction(0)] * dim
    for c, vec in zip(coeffs, vectors):
        if c:
            for r, value in enumerate(vec.coeffs):
                if value:
                    combo[r] += c * value
    return combo


def expand_in_basis(family: BasisFamily, v: FreeVector) -> tuple[Fraction, ...]:
    """Coefficients of v in the family (unique since the family must span); v must live on its space.

    They must reconstruct v, sum_k c_k e_k = v; a :class:`CertificationError` names the first point where not.
    """
    if len(v.coeffs) != len(family.space) - 1:
        raise ValueError("vector does not live on the family's space")
    coeffs = _apply(_family_inverse(family), v.coeffs)
    combo = _combination(len(v.coeffs), family.vectors, coeffs)
    if combo != list(v.coeffs):
        k = next(k for k, (got, want) in enumerate(zip(combo, v.coeffs)) if got != want)
        raise CertificationError(f"the expansion in the family gives {combo[k]} at point {k + 1}, not {v.coeffs[k]}")
    return tuple(coeffs)


def _certified_chain(space: FiniteMetricSpace, family: BasisFamily) -> Optional[RetractionChain]:
    """The chain :func:`basis_vectors` kept on ``family``, if on a space equal to ``space`` and certified.

    The certificate is the chain's one scan, kept on it: no commutation
    and no fixed-point failure in its report, and the rank bound it
    records, that stage n ranks only the first n points.  A table that
    follows the merge-tree rule of :func:`_follows_merge_tree` has all
    three, as proved there, with no pair scanned.  On
    every table :class:`RetractionChain` admits, this is the telescoping
    identity delta_{r_{n+1} x} - delta_{r_n x} = [r_{n+1} x = p] e_n, for
    the point p added at stage n + 1 and e_n = delta_p - delta_{r_n p}.
    If r_{n+1} x != r_n x, it is p: it is among the first n + 1 points,
    and an earlier q, fixed by r_n, would give r_n r_{n+1} x = q != r_n x.
    Then r_n x = r_n r_{n+1} x = r_n p; the rank bound at stage 1 gives
    r_1 = base and the fixed points at stage N give r_N = id.  Conversely,
    telescoping puts each r_n x among the first n points, fixes the kept
    points and gives r_n r_{n+1} = r_n.  The coordinates 1 of x then mark
    the edges from x to the base of the anchor tree, where p hangs off
    r_n p.  A chain that fails, and a family built otherwise, one equal to
    a chain's family too, give None.  A family without N - 1 vectors of
    N - 1 coefficients raises ValueError.
    """
    _check_family(space, family)
    chain = vars(family).get("_chain")
    if chain is None or family.space != space:
        return None
    report, _, bounded = _cached(chain, "_scan", _scan_chain)
    if report.commutation or report.fixed_points or not bounded:
        return None
    return chain


def _molecule_expansions(space: FiniteMetricSpace, family: BasisFamily):
    """Yield (i, j, coefficients of the molecule m_ij in the family) for every pair i < j.

    Molecules are the extreme points of the free-space unit ball, so a
    convex function of the coefficients attains its maximum over the ball
    on one of them.  The coefficients come from the inverse of the family
    matrix (callers read a chain's own family off its anchor tree
    instead).  Raises ValueError when the family does not span.
    """
    inverse = _family_inverse(family)
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            yield i, j, _apply(inverse, molecule(space, i, j).coeffs)


def basis_constant(space: FiniteMetricSpace, family: BasisFamily) -> Fraction:
    """Supremum over n of the norm of the coordinate partial-sum projection.

    Each projection norm is the maximum transport norm of a truncated
    molecule expansion, molecules being the extreme points of the unit
    ball.  On the family of :func:`basis_vectors`, which keeps its chain,
    the truncation of m_ij after n - 1 vectors is the molecule multiple
    (delta_{r_n i} - delta_{r_n j}) / d(i, j), the telescoping certified
    by :func:`_certified_chain`, so the constant is the maximum of
    d(r_n i, r_n j) / d(i, j) over the stages n >= 2 and the pairs, read
    off the chain's one scan that certifies it: 1 with no pair scanned on
    a table that follows the merge-tree rule (:func:`_follows_merge_tree`),
    and the maximum of the full scan otherwise.  Any other family, a
    hand-built copy of a chain's family too, is inverted, and every
    truncation is normed through the transport certificate
    (:func:`ultrafree.freespace.free_norm`).  A family without N - 1
    vectors of N - 1 coefficients raises ValueError.  Equals exactly 1 for
    chains built on ultrametric spaces.
    """
    certified = _certified_chain(space, family)
    constant = None if certified is None else _cached(certified, "_scan", _scan_chain)[1]
    return _basis_constant(space, family) if constant is None else constant


def _basis_constant(space: FiniteMetricSpace, family: BasisFamily) -> Fraction:
    """The general route of :func:`basis_constant`: every truncation of every molecule expansion."""
    count = len(family.vectors)
    if count == 0:
        return Fraction(1)
    dim = len(space) - 1
    best = Fraction(0)
    for _, _, coeffs in _molecule_expansions(space, family):
        partial = [Fraction(0)] * dim
        for k in range(count):
            ck = coeffs[k]
            if ck:
                vec = family.vectors[k].coeffs
                for r in range(dim):
                    if vec[r]:
                        partial[r] += ck * vec[r]
            value = free_norm(space, FreeVector._exact(tuple(partial)))
            if value > best:
                best = value
    return best
