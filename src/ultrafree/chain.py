"""Nearest-point retraction chains and the induced monotone basis.

Given an ordering of the points starting at the base, stage n keeps the
first n points and sends every point to its nearest kept point, breaking
distance ties toward the earliest position in the ordering.  On an
ultrametric space every stage is 1-Lipschitz, consecutive stages commute,
and the induced linear projections on the free space are norm one, which
makes the telescoped difference vectors a monotone basis.

Non-ultrametric spaces are accepted in exploratory mode: verification then
reports violations instead of asserting their absence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .freespace import FreeVector, PointMap, dirac, free_norm, molecule, operator_norm_of_extension
from .linalg import SingularMatrixError, fraction_rank, invert_matrix
from .metric import FiniteMetricSpace


@dataclass(frozen=True)
class RetractionChain:
    """Point ordering plus the full table of minimal nearest positions.

    ``ranks[n-1][x]`` is the 1-based position (in the ordering) of the
    nearest point to x among the first n, minimal position on ties.
    """

    space: FiniteMetricSpace
    ordering: tuple[int, ...]
    ranks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.ordering)

    def rank(self, n: int, point: int) -> int:
        return self.ranks[n - 1][point]

    def retract(self, n: int, point: int) -> int:
        """The point index of r_n(point)."""
        return self.ordering[self.ranks[n - 1][point] - 1]

    def kept(self, n: int) -> tuple[int, ...]:
        return self.ordering[:n]

    def nearest_distance(self, n: int, point: int) -> Fraction:
        """Exact distance from the point to the first n points of the ordering."""
        return self.space.dist[point][self.retract(n, point)]


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
    minimal-position tie rule.
    """
    n_points = len(space)
    order = tuple(int(i) for i in ordering) if ordering is not None else tuple(range(n_points))
    if sorted(order) != list(range(n_points)):
        raise ValueError("ordering must be a permutation of all point indices")
    if order[0] != 0:
        raise ValueError("ordering must start at the base point")
    d = space.dist
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
    return RetractionChain(space, order, tuple(rows))


def verify_chain(chain: RetractionChain) -> ChainReport:
    """Exhaustively check the chain identities, reporting witnesses.

    Checked for every stage n and all point pairs:
      * d(r_n x, r_n y) <= d(x, y)                          (1-Lipschitz)
      * r_n(r_{n+1} x) = r_n(x)  and  r_{n+1}(r_n x) = r_n(x)
      * d(x, y) < dist(x, S_n)  implies same nearest position and
        dist(x, S_n) = dist(y, S_n)                          (locality)
      * every kept point is fixed by its stage
    """
    space, order = chain.space, chain.ordering
    d = space.dist
    n_points = len(space)
    lip, comm, rcomm, loc, loc_dist, fixed = [], [], [], [], [], []
    for n in range(1, n_points + 1):
        row = chain.ranks[n - 1]
        for k in range(n):
            if row[order[k]] != k + 1:
                fixed.append((n, order[k]))
        for x in range(n_points):
            rx = order[row[x] - 1]
            dist_x = d[x][rx]
            for y in range(x + 1, n_points):
                ry = order[row[y] - 1]
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
                if nxt[order[row[x] - 1]] != row[x]:
                    rcomm.append((n, x))
    return ChainReport(tuple(lip), tuple(comm), tuple(rcomm), tuple(loc), tuple(loc_dist), tuple(fixed))


def retraction_map(chain: RetractionChain, n: int) -> PointMap:
    """Stage n of the chain as a base-preserving self-map of the space."""
    image = tuple(chain.retract(n, x) for x in range(chain.size))
    return PointMap(chain.space, chain.space, image)


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


def verify_projection_algebra(chain: RetractionChain, include_norms: bool = False) -> ProjectionAlgebraReport:
    """Check P_n P_m = P_min(n,m) as exact integer matrix identities.

    Projection matrices are 0/1 integer matrices, so int64 products are
    exact.  With ``include_norms`` the operator norm of every stage n >= 2
    is additionally computed from molecule images via the transport solver
    and must equal 1.
    """
    size = chain.size
    mats = [np.array(projection_matrix(chain, n), dtype=np.int64) for n in range(1, size + 1)]
    min_rule = []
    for n in range(1, size + 1):
        for m in range(1, size + 1):
            product = mats[n - 1] @ mats[m - 1]
            if not np.array_equal(product, mats[min(n, m) - 1]):
                min_rule.append((n, m))
    rank_failures = [
        n for n in range(1, size + 1)
        if fraction_rank([[Fraction(int(v)) for v in row] for row in mats[n - 1]]) != n - 1
    ]
    norm_failures: list[tuple[int, Fraction]] = []
    if include_norms:
        for n in range(2, size + 1):
            value = operator_norm_of_extension(retraction_map(chain, n))
            if value != 1:
                norm_failures.append((n, value))
    return ProjectionAlgebraReport(tuple(min_rule), tuple(rank_failures), tuple(norm_failures))


def basis_vectors(chain: RetractionChain) -> BasisFamily:
    """The telescoped difference vectors e_k and their norms.

    e_k is the evaluation of the (k+1)-st ordered point minus the evaluation
    of its nearest point among the first k; its norm is that nearest
    distance, by the isometry of the evaluation embedding.
    """
    space, order = chain.space, chain.ordering
    vectors = []
    norms = []
    for k in range(1, chain.size):
        point = order[k]
        anchor = chain.retract(k, point)
        vectors.append(dirac(space, point) - dirac(space, anchor))
        norms.append(space.dist[point][anchor])
    return BasisFamily(space, tuple(vectors), tuple(norms))


def _family_inverse(family: BasisFamily) -> list[list[Fraction]]:
    dim = len(family.space) - 1
    if len(family.vectors) != dim:
        raise ValueError("family size must match the free-space dimension")
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


def expand_in_basis(family: BasisFamily, v: FreeVector) -> tuple[Fraction, ...]:
    """Coefficients of v in the family (unique since the family must span)."""
    return tuple(_apply(_family_inverse(family), v.coeffs))


def _elementary_norm(space: FiniteMetricSpace, coeffs: list[Fraction]) -> Optional[Fraction]:
    """Closed-form norm for vectors that are exact multiples of a molecule.

    Such vectors have support at most two with opposite coefficients and
    their norm is coefficient times distance, by the isometry of the
    evaluation embedding (itself certified against the solver in the tests).
    Returns None when the closed form does not apply.
    """
    support = [(k + 1, c) for k, c in enumerate(coeffs) if c]
    if not support:
        return Fraction(0)
    if len(support) == 1:
        point, c = support[0]
        return abs(c) * space.dist[point][0]
    if len(support) == 2:
        (p, cp), (q, cq) = support
        if cp == -cq:
            return abs(cp) * space.dist[p][q]
    return None


def basis_constant(space: FiniteMetricSpace, family: BasisFamily, certified: bool = False) -> Fraction:
    """Supremum over n of the norm of the coordinate partial-sum projection.

    Each projection norm is the maximum transport norm of a truncated
    molecule expansion, molecules being the extreme points of the unit
    ball.  Truncations that are exact molecule multiples use the distance
    closed form; ``certified=True`` forces the transport solver on every
    image (used to cross-check the closed form on small instances).
    Equals exactly 1 for chains built on ultrametric spaces.
    """
    count = len(family.vectors)
    if count == 0:
        return Fraction(1)
    inverse = _family_inverse(family)
    dim = len(space) - 1
    best = Fraction(0)
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            coeffs = _apply(inverse, molecule(space, i, j).coeffs)
            partial = [Fraction(0)] * dim
            for k in range(count):
                ck = coeffs[k]
                if ck:
                    vec = family.vectors[k].coeffs
                    for r in range(dim):
                        if vec[r]:
                            partial[r] += ck * vec[r]
                value = None if certified else _elementary_norm(space, partial)
                if value is None:
                    value = free_norm(space, FreeVector(tuple(partial)))
                if value > best:
                    best = value
    return best
