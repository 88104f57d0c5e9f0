"""Finite pointed metric spaces with exact rational distances.

The distinguished base point is always stored at index 0; ``with_base``
re-points a space by permuting it.  Validation separates structural defects
(asymmetry, negative entries, nonzero diagonal) from metric failures, which
are reported with a witnessing triple instead of raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Optional

from .rational import dyadic_floor, is_power_of_two, parse_rational


class StructuralError(ValueError):
    """Distance data is malformed (not a candidate metric at all)."""


class CertificationError(RuntimeError):
    """An exact identity that is theorem-backed failed: an implementation bug."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labelled points with a symmetric rational distance matrix.

    The base point is index 0.  Construction checks shape and label
    uniqueness only; run :func:`validate` for metric/ultrametric checks.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        if not labels:
            raise ValueError("a metric space needs at least the base point")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        rows = tuple(tuple(parse_rational(x) for x in row) for row in self.dist)
        if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
            raise ValueError("distance matrix must be square and match the labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", rows)

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
    """Outcome of the exhaustive triple scan.

    ``failing_triple`` is ``(i, j, k)`` with the violated inequality read as
    d(i,k) against the two legs through j; present iff a flag is false.
    """

    is_metric: bool
    is_ultrametric: bool
    failing_triple: Optional[tuple[int, int, int]]
    is_dyadic: bool


def _check_structure(space: FiniteMetricSpace) -> None:
    n = len(space)
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            raise StructuralError(f"nonzero diagonal at index {i}: {d[i][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise StructuralError(f"asymmetric entries at ({i},{j}): {d[i][j]} vs {d[j][i]}")
            if d[i][j] < 0:
                raise StructuralError(f"negative distance at ({i},{j}): {d[i][j]}")
            if d[i][j] == 0:
                raise StructuralError(f"zero distance between distinct points ({i},{j})")


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Exhaustively check the triangle and max inequalities plus dyadicity.

    Structural defects raise :class:`StructuralError`; metric failures are
    reported, not raised, so deliberately bad inputs can be inspected.
    """
    _check_structure(space)
    n = len(space)
    d = space.dist
    metric_fail: Optional[tuple[int, int, int]] = None
    ultra_fail: Optional[tuple[int, int, int]] = None
    for a, b, c in combinations(range(n), 3):
        for i, j, k in ((a, b, c), (b, a, c), (a, c, b)):
            if metric_fail is None and d[i][k] > d[i][j] + d[j][k]:
                metric_fail = (i, j, k)
            if ultra_fail is None and d[i][k] > max(d[i][j], d[j][k]):
                ultra_fail = (i, j, k)
        if metric_fail is not None and ultra_fail is not None:
            break
    is_dyadic = all(is_power_of_two(d[i][j]) for i in range(n) for j in range(i + 1, n))
    return ValidationReport(
        is_metric=metric_fail is None,
        is_ultrametric=ultra_fail is None,
        failing_triple=metric_fail if metric_fail is not None else ultra_fail,
        is_dyadic=is_dyadic,
    )


def strict_max_check(space: FiniteMetricSpace) -> list[tuple[int, int, int]]:
    """Check that unequal legs force d(i,k) = max of the legs, over all triples.

    The property is a theorem for ultrametric spaces, so the returned list is
    empty unless the arithmetic is broken; non-ultrametric input is rejected.
    """
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("strict_max_check requires an ultrametric space")
    d = space.dist
    violations = []
    for a, b, c in combinations(range(len(space)), 3):
        for i, j, k in ((a, b, c), (b, a, c), (a, c, b)):
            if d[i][j] != d[j][k] and d[i][k] != max(d[i][j], d[j][k]):
                violations.append((i, j, k))
    return violations


def round_to_dyadic(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Round every distance down to a power of two via exact interval search.

    Each output distance r satisfies r <= d < 2r pairwise, the result is again
    ultrametric, and the operation is idempotent.
    """
    report = validate(space)
    if not report.is_ultrametric:
        raise ValueError("round_to_dyadic requires an ultrametric space")
    n = len(space)
    d = space.dist
    rows = tuple(
        tuple(Fraction(0) if i == j else dyadic_floor(d[i][j]) for j in range(n))
        for i in range(n)
    )
    return FiniteMetricSpace(space.labels, rows)


def _pair_ratios(space: FiniteMetricSpace, numerator: Callable[[int, int], Fraction]) -> Iterator[Fraction]:
    """numerator(i, j) / d(i, j) over the pairs i < j of the space, row by row."""
    n = len(space)
    d = space.dist
    return (numerator(i, j) / d[i][j] for i in range(n) for j in range(i + 1, n))


def bilipschitz_distortion(a: FiniteMetricSpace, b: FiniteMetricSpace) -> tuple[Fraction, Fraction]:
    """Min and max of d_b/d_a over all pairs, under the identity correspondence."""
    if len(a) != len(b):
        raise ValueError(f"point counts differ: {len(a)} vs {len(b)}")
    ratios = list(_pair_ratios(a, lambda i, j: b.dist[i][j]))
    if not ratios:
        return (Fraction(1), Fraction(1))
    return (min(ratios), max(ratios))


def identity_distortion(a: FiniteMetricSpace, b: FiniteMetricSpace) -> Fraction:
    """Distortion of the identity correspondence: max over pairs of the worse ratio."""
    lower, upper = bilipschitz_distortion(a, b)
    return max(upper, 1 / lower)


def random_ultrametric(n: int, seed: int) -> FiniteMetricSpace:
    """Random ultrametric on n points, deterministic in the seed.

    Sampled as a random binary merge tree with strictly increasing rational
    merge heights; d(x, y) is the height at which x and y first share a
    cluster, i.e. the height of their lowest common ancestor.
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = random.Random(seed)
    numerators = sorted(rng.sample(range(1, 6 * n), n - 1))
    heights = [Fraction(k, 4) for k in numerators]
    clusters = [[i] for i in range(n)]
    dist = [[Fraction(0)] * n for _ in range(n)]
    for h in heights:
        i, j = sorted(rng.sample(range(len(clusters)), 2))
        for x in clusters[i]:
            for y in clusters[j]:
                dist[x][y] = dist[y][x] = h
        clusters[i].extend(clusters[j])
        del clusters[j]
    labels = tuple(f"p{i}" for i in range(n))
    return FiniteMetricSpace(labels, tuple(tuple(row) for row in dist))


def with_base(space: FiniteMetricSpace, index: int) -> FiniteMetricSpace:
    """Re-point the space so that ``index`` becomes the base (a relabelling)."""
    if not 0 <= index < len(space):
        raise ValueError(f"index {index} out of range")
    perm = [index] + [i for i in range(len(space)) if i != index]
    labels = tuple(space.labels[p] for p in perm)
    dist = tuple(tuple(space.dist[p][q] for q in perm) for p in perm)
    return FiniteMetricSpace(labels, dist)
