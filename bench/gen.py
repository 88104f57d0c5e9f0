"""Seeded inputs for the benchmark, independent of the package under test.

Every space is an ultrametric built from a random binary merge tree that the
generator keeps, so the correctness references can work on the tree instead
of on anything the package computes.  Nothing here imports ``ultrafree``: a
change to the package cannot change the load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MODES = ("quarters", "ties", "coprime")

# Primes just above 10**5: heights over different primes add up to fractions
# with large denominators, so the simplex pays for a real gcd on every sum.
_LARGE_PRIMES = tuple(
    p for p in range(100_001, 100_500, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))
)


@dataclass(frozen=True)
class MergeTree:
    """Binary merge tree over ``n`` leaves.

    Nodes ``0..n-1`` are the leaves (point ``i`` is leaf ``i``, the base is
    point 0); node ``n + k`` is the k-th merge.  ``parent[root] == -1`` and
    ``height`` is 0 on leaves and non-decreasing towards the root.  The
    ultrametric is d(x, y) = height of the lowest common ancestor.
    """

    n: int
    parent: tuple[int, ...]
    height: tuple[Fraction, ...]

    def ancestors(self, x: int) -> list[int]:
        """Nodes on the path from x up to the root, x included."""
        path = [x]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path

    def distance(self, x: int, y: int) -> Fraction:
        if x == y:
            return Fraction(0)
        above_x = set(self.ancestors(x))
        node = y
        while node not in above_x:
            node = self.parent[node]
        return self.height[node]

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(self.distance(x, y) for y in range(self.n)) for x in range(self.n))


def _heights(rng: random.Random, count: int, mode: str) -> list[Fraction]:
    """Sorted merge heights: sorting keeps every parent at least as high as its children."""
    if mode == "quarters":
        return [Fraction(k, 4) for k in sorted(rng.sample(range(1, 6 * count + 6), count))]
    if mode == "ties":
        # only five powers of two: most heights repeat
        return sorted(Fraction(2) ** rng.randint(-2, 2) for _ in range(count))
    if mode == "coprime":
        values: set[Fraction] = set()
        while len(values) < count:
            q = rng.choice(_LARGE_PRIMES)
            values.add(Fraction(rng.randint(q, 8 * q), q))
        return sorted(values)
    raise ValueError(f"unknown height mode {mode!r}")


def merge_tree(n: int, seed: object, mode: str) -> MergeTree:
    """Random binary merge tree on n leaves, deterministic in (n, str(seed), mode)."""
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = random.Random(f"{mode}:{n}:{seed}")
    parent = [-1] * (2 * n - 1)
    height = [Fraction(0)] * n + _heights(rng, n - 1, mode)
    clusters = list(range(n))
    for k in range(n - 1):
        a, b = rng.sample(range(len(clusters)), 2)
        node = n + k
        parent[clusters[a]] = parent[clusters[b]] = node
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)] + [node]
    return MergeTree(n, tuple(parent), tuple(height))


def dyadic_floor(q: Fraction) -> Fraction:
    """Largest power of two <= q, for q > 0."""
    p = Fraction(2) ** (q.numerator.bit_length() - q.denominator.bit_length())
    return p / 2 if p > q else p * 2 if 2 * p <= q else p


def dyadic_nodes(tree: MergeTree) -> int:
    """Node count of the dendrogram of the space with every distance rounded down to a power of two.

    Leaves plus one node per distinct ball: a merge whose rounded height
    equals its parent's is the same ball as the parent.
    """
    rounded = [dyadic_floor(h) if h else h for h in tree.height]
    return tree.n + sum(
        1 for u in range(tree.n, len(tree.parent))
        if tree.parent[u] < 0 or rounded[u] < rounded[tree.parent[u]]
    )


def merge_tree_with_nodes(n: int, seed: object, mode: str, nodes: int) -> MergeTree:
    """The first of the trees (n, seed/0), (n, seed/1), ... whose dyadic dendrogram has ``nodes`` nodes."""
    for attempt in range(10_000):
        tree = merge_tree(n, f"{seed}/{attempt}", mode)
        if dyadic_nodes(tree) == nodes:
            return tree
    raise ValueError(f"no {mode} tree on {n} points has a {nodes}-node dyadic dendrogram")


def labels(n: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(n))


def random_vector(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    """Dense rational coefficients with small numerators and denominators."""
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))


def molecule_sum(rng: random.Random, tree: MergeTree, terms: int) -> tuple[Fraction, ...]:
    """Sum of ``terms`` signed, normalised molecules (d_i - d_j) / d(i, j)."""
    coeffs = [Fraction(0)] * (tree.n - 1)
    for _ in range(terms):
        i, j = rng.sample(range(tree.n), 2)
        scale = rng.choice((1, -1)) / tree.distance(i, j)
        if i:
            coeffs[i - 1] += scale
        if j:
            coeffs[j - 1] -= scale
    return tuple(coeffs)


def dirac_vector(tree: MergeTree, point: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * (tree.n - 1)
    coeffs[point - 1] = Fraction(1)
    return tuple(coeffs)
