"""Finite pointed metric spaces with exact rational distances.

The distinguished base point is always stored at index 0; ``with_base``
re-points a space by permuting it.  Validation separates structural defects
(asymmetry, negative entries, nonzero diagonal) from metric failures, which
are reported with a witnessing triple instead of raised.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from .rational import _Scaled, _integer_rows, _is_power_of_two_over, _power_of_two_below, _rational_rows


class StructuralError(ValueError):
    """Distance data is malformed (not a candidate metric at all)."""


class CertificationError(RuntimeError):
    """An exact identity that is theorem-backed failed: an implementation bug."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labelled points with a symmetric rational distance matrix.

    The base point is index 0.  Construction checks shape and label
    uniqueness only; run :func:`validate` for metric/ultrametric checks.
    Rows that are already tuples of exact Fractions are kept as given,
    other Fraction entries pass straight through, and each distinct string
    entry is parsed once (:func:`_rational_rows`).  Which spaces are born
    with their integer view, and which compute it on first use, is told at
    :func:`_integer_view`.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        if not labels:
            raise ValueError("a metric space needs at least the base point")
        if len(set(labels)) != len(labels):
            label = next(label for label in labels if labels.count(label) > 1)
            raise ValueError(f"duplicate labels: {label!r} names more than one point")
        rows, view = _rational_rows(self.dist)
        if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
            raise ValueError("distance matrix must be square and match the labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", rows)
        if view is not None:
            _keep_view(self, view)

    @classmethod
    def _exact(cls, labels: tuple[str, ...], dist: tuple[tuple[Fraction, ...], ...]) -> "FiniteMetricSpace":
        """Wrap labels and Fraction rows without the constructor's checks and row walk.

        A caller may use it when it knows what the constructor would check:
        ``labels`` is a non-empty tuple of distinct strings and ``dist`` a
        tuple of one tuple of exact Fractions per label, each as long as
        ``labels``.  :func:`with_base` permutes a space and
        :func:`round_to_dyadic` keeps its labels and shape;
        :func:`random_ultrametric` builds distinct labels and rows of
        Fractions, and so does the node space of a dendrogram that passed
        its certificate (:mod:`ultrafree.rtree`), on which no
        two leaves share a point.
        """
        space = object.__new__(cls)
        object.__setattr__(space, "labels", labels)
        object.__setattr__(space, "dist", dist)
        return space

    def __getstate__(self) -> dict:
        # the fields only: what _cached keeps on the space stays out of a pickle
        return {"labels": self.labels, "dist": self.dist}

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def base(self) -> int:
        return 0

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}") from None

    def diameter(self) -> Fraction:
        n = len(self)
        return max((self.dist[i][j] for i in range(n) for j in range(i + 1, n)), default=Fraction(0))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: the metric, ultrametric and dyadic flags.

    ``failing_triple`` is ``(i, j, k)`` with the violated inequality read as
    d(i,k) against the two legs through j; present iff a flag is false.
    """

    is_metric: bool
    is_ultrametric: bool
    failing_triple: Optional[tuple[int, int, int]]
    is_dyadic: bool


# the report of every dyadic ultrametric, shared: the report is frozen
_DYADIC_ULTRAMETRIC = ValidationReport(is_metric=True, is_ultrametric=True, failing_triple=None, is_dyadic=True)


def _cached(owner, name: str, build: Callable):
    """``build(owner)``, computed on the first call and kept on the frozen dataclass ``owner``, outside its fields.

    Nothing is kept when ``build`` raises, so a failure repeats on every call.
    """
    cache = vars(owner)
    if name not in cache:
        object.__setattr__(owner, name, build(owner))
    return cache[name]


def _integer_view(space: FiniteMetricSpace) -> _Scaled:
    """Every distance over one common denominator: (scale, rows) with d(i, j) = rows[i][j] / scale.

    The scale is the lcm of the denominators, so the rows are integers with
    the same order, ties, sums and maxima as the distances.  The view is
    the space's cached view, kept on it outside its fields, so it takes no
    part in ``==``, ``hash``, ``repr``, serialization or pickling; its rows
    are tuples, which no caller can change.

    Most spaces are born with their view (:func:`_keep_view`), read off the
    distinct values they are built from (:func:`_integer_rows`): a space
    built from rows of strings, as :func:`ultrafree.serialize.ingest` reads
    them, from its parsed strings; :func:`random_ultrametric` from its
    integer merge heights; :func:`round_to_dyadic` from the view of its
    input, with its merges and its report; the node spaces of
    :mod:`ultrafree.rtree` from the node distances of their certified tree
    (:func:`_space_with_view`, or the rooted view of
    :func:`ultrafree.rtree._rooted_view`), which they keep
    (:func:`_keep_tree`); and :func:`with_base` hands a kept view, but no
    tree, on to the space it builds, permuted.  A space built from rows of
    Fractions or of other numbers, or by ``dataclasses.replace``, computes
    its view from its distinct distances on first use.  Validation, the
    single-linkage merges, the chain scan, the dendrogram certificate, the
    l1-isometry decision, every transport certificate and the ratio scans
    of :func:`_extreme_ratios` run in integers on the space's view.
    """
    return _cached(space, "_view", _distinct_view)


def _distinct_view(space: FiniteMetricSpace) -> _Scaled:
    """The view of a space born without one, from its distinct distances."""
    return _integer_rows(space.dist, {x: x for row in space.dist for x in row})


def _keep_view(space: FiniteMetricSpace, view: _Scaled) -> FiniteMetricSpace:
    """Keep ``view`` on ``space`` as its cached view; the caller knows it to be the view of the space's distances.

    A tree kept beside it (:func:`_keep_tree`) has the view as its path metric: only :mod:`ultrafree.rtree`
    keeps one, on a node space whose view it read off the node distances of the same certified tree.
    """
    object.__setattr__(space, "_view", view)
    return space


def _keep_tree(space: FiniteMetricSpace, edges: tuple[tuple[int, int, int], ...]) -> FiniteMetricSpace:
    """Keep on ``space`` the (child, parent, length) ``edges`` of a tree, parents first.

    Each length is the view's entry at its edge; the caller vouches for that, and that the view is the path
    metric of the tree.
    """
    object.__setattr__(space, "_edges", edges)
    return space


def _tree_edges(space: FiniteMetricSpace) -> Optional[tuple[tuple[int, int, int], ...]]:
    """The edges :func:`_keep_tree` kept on ``space``, or None when it keeps no tree."""
    return vars(space).get("_edges")


def _space_with_view(labels: tuple[str, ...], keys, exact: dict) -> FiniteMetricSpace:
    """The space on ``labels`` whose distance (i, j) is ``exact[keys[i][j]]``, born with its view.

    Both the Fraction rows and the view (:func:`_integer_rows`) are read off
    the rows ``keys`` by lookup, one Fraction and one integer per distinct
    key.  The caller vouches for what :meth:`FiniteMetricSpace._exact` asks.
    """
    dist = tuple(tuple(map(exact.__getitem__, row)) for row in keys)
    return _keep_view(FiniteMetricSpace._exact(labels, dist), _integer_rows(keys, exact))


def _check_structure(space: FiniteMetricSpace, d: tuple[tuple[int, ...], ...]) -> None:
    """Raise on a nonzero diagonal, an asymmetric, negative or zero entry; ``d`` is the integer view."""
    n = len(space)
    q = space.dist
    for i in range(n):
        if d[i][i] != 0:
            raise StructuralError(f"nonzero diagonal at index {i}: {q[i][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise StructuralError(f"asymmetric entries at ({i},{j}): {q[i][j]} vs {q[j][i]}")
            if d[i][j] < 0:
                raise StructuralError(f"negative distance at ({i},{j}): {q[i][j]}")
            if d[i][j] == 0:
                raise StructuralError(f"zero distance between distinct points ({i},{j})")


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Check the triangle and max inequalities plus dyadicity.

    Structural defects raise :class:`StructuralError`; metric failures are
    reported, not raised, so deliberately bad inputs can be inspected.  A
    space with single-linkage merges is an ultrametric; only one without
    them goes through the triple scan, which names the first failing
    triple.  The merge heights are exactly the distances between distinct
    points, so the dyadic flag reads those N - 1 heights; only a space
    without merges tests every entry.  Both run in integers on the
    :func:`_integer_view`.  The report is computed once per space and
    cached on it.
    """
    return _cached(space, "_report", _validated)


def _validated(space: FiniteMetricSpace) -> ValidationReport:
    scale, d = _integer_view(space)
    _check_structure(space, d)
    merges = _single_linkage(space)
    if merges is None:
        metric_fail, ultra_fail = _failing_triples(d)
        heights = {h for i, row in enumerate(d) for h in row[i + 1:]}
    else:
        metric_fail, ultra_fail, heights = None, None, {h for h, _, _ in merges}
    return ValidationReport(
        is_metric=metric_fail is None,
        is_ultrametric=ultra_fail is None,
        failing_triple=metric_fail if metric_fail is not None else ultra_fail,
        is_dyadic=all(_is_power_of_two_over(h, scale) for h in heights),
    )


def _failing_triples(d: tuple[tuple[int, ...], ...]) -> tuple[Optional[tuple[int, int, int]], ...]:
    """The first triples failing the triangle and the max inequality on the view ``d``, in scan order."""
    metric_fail = ultra_fail = None
    for a, b, c in combinations(range(len(d)), 3):
        ab, ac, bc = d[a][b], d[a][c], d[b][c]
        if ab == ac >= bc or ab == bc >= ac or ac == bc >= ab:
            continue  # the largest side is attained twice: both inequalities hold
        for i, j, k in ((a, b, c), (b, a, c), (a, c, b)):
            if metric_fail is None and d[i][k] > d[i][j] + d[j][k]:
                metric_fail = (i, j, k)
            if ultra_fail is None and d[i][k] > max(d[i][j], d[j][k]):
                ultra_fail = (i, j, k)
        if metric_fail is not None and ultra_fail is not None:
            break
    return metric_fail, ultra_fail


def _single_linkage(space: FiniteMetricSpace) -> Optional[tuple[tuple[int, int, int], ...]]:
    """The merges of the single-linkage hierarchy, or None when the space is no ultrametric.

    Pairs of :func:`_integer_view` are taken by increasing distance, and a
    pair joining two clusters merges them at its distance; merge k is
    (height, left, right), the height on the scale of the view, and creates
    node n + k, the points being nodes 0..n-1.  The distances must be
    symmetric and non-negative, and every cross pair of every merge must
    sit exactly at the merge height: then d(x, y) is the height of the
    merge that first joins x and y, and heights never fall, which makes the
    space an ultrametric with this merge tree.
    Conversely every ultrametric passes, so this is the package's one
    ultrametricity decision, and :func:`validate` reads it.  Like the view,
    the merges are computed once per space and cached on it.
    """
    return _cached(space, "_merges", _merge_pairs)


def _merge_pairs(space: FiniteMetricSpace) -> Optional[tuple[tuple[int, int, int], ...]]:
    n = len(space)
    d = _integer_view(space)[1]
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
    merges: list[tuple[int, int, int]] = []
    for h, i, j in pairs:
        a, b = node[i], node[j]
        if a == b:
            continue
        left, right = members[a], members[b]
        if any(d[x][y] != h for x in left for y in right):
            return None
        for x in left + right:
            node[x] = n + len(merges)
        merges.append((h, a, b))
        members.append(left + right)
    return tuple(merges)


def _cluster_parents(n: int, merges) -> list[int]:
    """For each node of the merge tree, the merge that closes the lowest cluster strictly above it; -1 at the top.

    ``merges`` are those of :func:`_single_linkage` on n points, and the
    nodes are the points 0..n-1, then merge k as node n + k.  Tied merges
    are contracted: a merge whose parent merge has the same height belongs
    to its parent's cluster, and the highest merge of such a run closes
    the cluster.  Every value but -1 is a closing merge, and every closing
    merge is the value of its own two merged nodes at least.  The clusters
    are the points and the closing merges, each the ball of radius its
    height about every member.
    """
    count = n + len(merges)
    up = [-1] * count
    for k, (_, a, b) in enumerate(merges):
        up[a] = up[b] = n + k
    parent = [-1] * count
    for u in reversed(range(count)):
        p = up[u]
        if p >= 0:
            q = up[p]
            parent[u] = parent[p] if q >= 0 and merges[q - n][0] == merges[p - n][0] else p
    return parent


def round_to_dyadic(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Round every distance down to a power of two by the bit-length rule of ``dyadic_floor``.

    Each output distance r satisfies r <= d < 2r pairwise, the result is again
    ultrametric, and the operation is idempotent.  The rule runs once per
    distinct merge height, on its integer in the :func:`_integer_view`, and
    the rounded space is born with its view, both read off the input's view
    by lookup (:func:`_space_with_view`).

    The rounding is certified by its height map phi, from the distinct
    merge heights of the input to those of the rounding, on the two views,
    in O(distinct heights) (:func:`_certify_height_map`): every phi(h) is a
    power of two on the rounding's scale, so positive, and phi never falls
    as h grows.  Then the rounding keeps the input's merges with their
    heights mapped, and the report of :func:`validate`, with no pair
    scanned again.  Proof.  Every distance of the rounding is phi of the
    input's, so each cross pair of an input merge at h sits at phi(h) in
    the rounding, and the merges, listed by increasing h, list their mapped
    heights in non-decreasing order.  That is what :func:`_single_linkage`
    certifies of its merges, so the rounding is an ultrametric with these
    merges: symmetric, 0 on the diagonal only, as phi(0) = 0 < phi(h) for
    h > 0.  Its distances between distinct points are the mapped merge
    heights, powers of two, so its report is that of a dyadic ultrametric,
    as :func:`validate` would find it.  Tied mapped heights may list the
    merges in another order than :func:`_merge_pairs` would, but the
    dendrogram does not depend on that order: tied merges are contracted
    (:func:`_cluster_parents`), and every cluster is a ball.  The rounding
    also keeps phi, for :func:`bilipschitz_distortion`.
    """
    if not validate(space).is_ultrametric:
        raise ValueError("round_to_dyadic requires an ultrametric space")
    scale, d = _integer_view(space)
    merges = _single_linkage(space)
    floors = {0: Fraction(0)}
    for h, _, _ in merges:
        if h not in floors:
            floors[h] = _power_of_two_below(h, scale)
    rounded = _space_with_view(space.labels, d, floors)
    unit = _integer_view(rounded)[0]
    mapped = {h: x.numerator * (unit // x.denominator) for h, x in floors.items()}
    _certify_height_map(mapped, scale, unit)
    object.__setattr__(rounded, "_merges", tuple((mapped[h], a, b) for h, a, b in merges))
    object.__setattr__(rounded, "_report", _DYADIC_ULTRAMETRIC)
    object.__setattr__(rounded, "_height_map", (weakref.ref(space), mapped))
    return rounded


def _certify_height_map(mapped: dict, scale: int, unit: int) -> None:
    """Check that the height map h -> mapped[h], on the scales 1/``scale`` and 1/``unit``, is a non-decreasing map onto powers of two.

    ``mapped`` holds 0 -> 0 and one entry per distinct merge height; a
    failure names the first height, from below, that fails.
    """
    below = 0
    for h in sorted(mapped)[1:]:
        x = mapped[h]
        if not _is_power_of_two_over(x, unit):
            raise CertificationError(f"dyadic rounding maps the height {Fraction(h, scale)} to {Fraction(x, unit)}, not a power of two")
        if x < below:
            raise CertificationError(
                f"dyadic rounding maps the height {Fraction(h, scale)} to {Fraction(x, unit)}, below {Fraction(below, unit)}"
            )
        below = x


def _extreme_ratios(space: FiniteMetricSpace, top: Callable[[int, int], int]):
    """The least and the greatest top(i, j) / D[i][j] over the pairs i < j of the view (q, D); None on one point.

    Each comes as (top, D[i][j], i, j) at the first pair, row by row, that
    attains it.  Cross-multiplying orders the ratios only over positive
    denominators, so a distance that is not positive raises ValueError.
    """
    least = greatest = None
    for i, row in enumerate(_integer_view(space)[1]):
        for j in range(i + 1, len(row)):
            if row[j] <= 0:
                raise ValueError(f"the domain distance of the pair ({i}, {j}) is {space.dist[i][j]}, not positive")
            ratio = top(i, j), row[j], i, j
            if greatest is None or ratio[0] * greatest[1] > greatest[0] * row[j]:
                greatest = ratio
            if least is None or ratio[0] * least[1] < least[0] * row[j]:
                least = ratio
    return None if greatest is None else (least, greatest)


def bilipschitz_distortion(a: FiniteMetricSpace, b: FiniteMetricSpace) -> tuple[Fraction, Fraction]:
    """Min and max of d_b/d_a over all pairs, under the identity correspondence.

    On the integer views (p, A) and (q, B) the ratio at (i, j) is B[i][j] p / (A[i][j] q).
    When b is the rounding of a by :func:`round_to_dyadic`, b keeps a's
    certified height map phi, and B[i][j] = phi(A[i][j]); every distance of
    a between distinct points is one of its merge heights and every merge
    height is one of its distances, so the ratios over the pairs are the
    ratios phi(h) / h over the distinct merge heights, read in
    O(distinct heights).  Any other pair of spaces is scanned pair by pair.
    """
    if len(a) != len(b):
        raise ValueError(f"point counts differ: {len(a)} vs {len(b)}")
    q, e = _integer_view(b)
    p = _integer_view(a)[0]
    kept = vars(b).get("_height_map")
    if kept is not None and kept[0]() is a:
        ratios = [(x, h) for h, x in kept[1].items() if h]
        if not ratios:
            return (Fraction(1), Fraction(1))
        least = greatest = ratios[0]
        for ratio in ratios[1:]:
            if ratio[0] * greatest[1] > greatest[0] * ratio[1]:
                greatest = ratio
            if ratio[0] * least[1] < least[0] * ratio[1]:
                least = ratio
        extremes = (least, greatest)
    else:
        extremes = _extreme_ratios(a, lambda i, j: e[i][j])
        if extremes is None:
            return (Fraction(1), Fraction(1))
    return tuple(Fraction(top * p, bottom * q) for top, bottom, *_ in extremes)


def identity_distortion(a: FiniteMetricSpace, b: FiniteMetricSpace) -> Fraction:
    """Distortion of the identity correspondence: max over pairs of the worse ratio.

    A distance of ``b`` between distinct points that is not positive raises
    ValueError naming the first such pair, row by row.
    """
    lower, upper = bilipschitz_distortion(a, b)
    if lower <= 0:
        i, j = next((i, j) for i, row in enumerate(b.dist) for j in range(i + 1, len(row)) if row[j] <= 0)
        raise ValueError(f"the codomain distance of the pair ({i}, {j}) is {b.dist[i][j]}, not positive")
    return max(upper, 1 / lower)


def random_ultrametric(n: int, seed: int) -> FiniteMetricSpace:
    """Random ultrametric on n points, deterministic in the seed.

    Sampled as a random binary merge tree with strictly increasing rational
    merge heights; d(x, y) is the height at which x and y first share a
    cluster, i.e. the height of their lowest common ancestor.  The heights
    are quarters, drawn as their integer numerators, so the space is born
    with its view (:func:`_space_with_view`).
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = random.Random(seed)
    numerators = sorted(rng.sample(range(1, 6 * n), n - 1))
    clusters = [[i] for i in range(n)]
    dist = [[0] * n for _ in range(n)]
    for h in numerators:
        i, j = sorted(rng.sample(range(len(clusters)), 2))
        for x in clusters[i]:
            for y in clusters[j]:
                dist[x][y] = dist[y][x] = h
        clusters[i].extend(clusters[j])
        del clusters[j]
    quarters = {0: Fraction(0), **{k: Fraction(k, 4) for k in numerators}}
    return _space_with_view(tuple(f"p{i}" for i in range(n)), dist, quarters)


def with_base(space: FiniteMetricSpace, index: int) -> FiniteMetricSpace:
    """Re-point the space so that ``index`` becomes the base (a relabelling).

    A view the space keeps goes to the new space with its rows and columns
    permuted alike: the scale, the lcm of the same denominators, is unchanged.
    """
    if not 0 <= index < len(space):
        raise ValueError(f"index {index} out of range")
    perm = [index] + [i for i in range(len(space)) if i != index]
    labels = tuple(space.labels[p] for p in perm)
    dist = tuple(tuple(space.dist[p][q] for q in perm) for p in perm)
    rebased = FiniteMetricSpace._exact(labels, dist)
    kept = vars(space).get("_view")
    if kept is not None:
        scale, rows = kept
        _keep_view(rebased, (scale, tuple(tuple(rows[p][q] for q in perm) for p in perm)))
    return rebased
