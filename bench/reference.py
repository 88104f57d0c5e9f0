"""Correctness references computed from the generated merge trees.

None of these calls into ``ultrafree``: each value is derived from the
:class:`gen.MergeTree` the generator kept, so a wrong answer from the package
cannot also make its own reference wrong.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from gen import MergeTree


def tree_norm(tree: MergeTree, coeffs: Sequence[Fraction]) -> Fraction:
    """Transport norm of sum c_k delta_k as an edge-flow sum on the merge tree.

    The ultrametric is the path metric of the merge tree with edge lengths
    (h(parent) - h(child)) / 2, so the norm is the sum over edges of length
    times the absolute net mass below the edge; the base point carries
    minus the total mass.  Children always have smaller node indices than
    their parent, so one pass in index order accumulates every subtree.
    """
    mass = [Fraction(0)] * len(tree.parent)
    mass[1 : tree.n] = coeffs
    mass[0] = -sum(coeffs, Fraction(0))
    total = Fraction(0)
    for node, parent in enumerate(tree.parent):
        if parent >= 0:
            total += (tree.height[parent] - tree.height[node]) / 2 * abs(mass[node])
            mass[parent] += mass[node]
    return total


def check_transport(tree: MergeTree, coeffs: Sequence[Fraction], value, flow, potential) -> Optional[str]:
    """Return None when the certificate is right, else what is wrong.

    ``flow`` is a sequence of (i, j, amount) arcs and ``potential`` one
    value per point, as the package returns them.
    """
    expected = tree_norm(tree, coeffs)
    if value != expected:
        return f"norm {value} != edge-flow norm {expected}"
    n = tree.n
    out = [Fraction(0)] * n
    cost = Fraction(0)
    for i, j, amount in flow:
        if amount < 0 or i == j:
            return f"bad arc {(i, j, amount)}"
        out[i] += amount
        out[j] -= amount
        cost += tree.distance(i, j) * amount
    if out[1:] != list(coeffs):
        return "flow does not meet the coefficients"
    if cost != value:
        return f"flow cost {cost} != value {value}"
    g = list(potential)
    if len(g) != n or g[0] != 0:
        return "potential must have one value per point and vanish at the base"
    if sum((c * x for c, x in zip(coeffs, g[1:])), Fraction(0)) != value:
        return "potential does not attain the value"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g[i] - g[j]) > tree.distance(i, j):
                return f"potential is not 1-Lipschitz on ({i}, {j})"
    return None


def chain_anchors(tree: MergeTree) -> list[int]:
    """Nearest earlier point of each point in input order, ties to the earliest."""
    anchors = [0]
    for k in range(1, tree.n):
        anchors.append(min(range(k), key=lambda j: (tree.distance(k, j), j)))
    return anchors


def chain_norms(tree: MergeTree) -> list[Fraction]:
    """Norms of the chain basis vectors e_k = delta_k - delta_anchor(k), k >= 1."""
    anchors = chain_anchors(tree)
    return [tree.distance(k, anchors[k]) for k in range(1, tree.n)]


def l1_lower(tree: MergeTree) -> Fraction:
    """1 / max over molecules m_ij of sum_k |c_k(m_ij)| * ||e_k||, for the input-order chain.

    delta_x expands as the sum of e_k along the anchor path from x down to
    the base, so m_ij has coefficient +-1/d(i, j) exactly on the symmetric
    difference of the two paths.
    """
    anchors = chain_anchors(tree)
    norms = [Fraction(0)] + chain_norms(tree)
    paths = []
    for x in range(tree.n):
        path = set()
        while x:
            path.add(x)
            x = anchors[x]
        paths.append(path)
    worst = max(
        sum((norms[k] for k in paths[i] ^ paths[j]), Fraction(0)) / tree.distance(i, j)
        for i in range(tree.n)
        for j in range(i + 1, tree.n)
    )
    return 1 / worst


def dendrogram_size(tree: MergeTree) -> tuple[int, Fraction]:
    """Node count and total edge length of the dendrogram of a dyadic tree.

    A merge at the same height as its parent is the same ball as the parent,
    so it is no node of its own; node heights are half the merge heights.
    """
    merges = range(tree.n, len(tree.parent))
    branching = sum(
        1 for u in merges if tree.parent[u] < 0 or tree.height[u] < tree.height[tree.parent[u]]
    )
    length = sum(
        ((tree.height[p] - tree.height[u]) / 2 for u, p in enumerate(tree.parent) if p >= 0),
        Fraction(0),
    )
    return tree.n + branching, length
