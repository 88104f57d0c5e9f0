"""The l1 picture: edge-flow coordinates, the oracle, and the three-point gap.

Run:  python demos/l1_side.py
"""

from fractions import Fraction

from ultrafree import (
    FiniteMetricSpace,
    FreeVector,
    basis_vectors,
    build_chain,
    dendrogram,
    edge_flow_coordinates,
    edge_molecule_isometry,
    free_norm,
    l1_equivalence_constants,
    oracle_vs_lp,
    pipeline,
    rooted_node_space,
    three_point_report,
    tree_free_norm,
)

q, h = Fraction(1, 4), Fraction(1, 2)
space = FiniteMetricSpace(
    ("0", "a", "b", "c"),
    ((0, 1, 1, 1), (1, 0, q, h), (1, q, 0, h), (1, h, h, 0)),
)
tree = dendrogram(space)

v = FreeVector((0, 1, 1, 1, 0, 0))  # da + db + dc in tree-node coordinates
coords = edge_flow_coordinates(tree, v)
print("Edge-flow coordinates of da + db + dc (mass below each edge):")
for mass, length in zip(coords.masses, coords.lengths):
    print(f"  edge length {length}: mass {mass}")
print("Edge-flow norm:", tree_free_norm(tree, v))
print("Transport solver on the node space:", free_norm(rooted_node_space(tree), v))
print()

print("Oracle against the solver on random vectors:", "exact match" if oracle_vs_lp(space, vectors=40).passed else "MISMATCH")
print("Edge molecules behave like the l1 unit basis:",
      "exactly" if edge_molecule_isometry(tree, patterns=20).passed else "MISMATCH")
print()

family = basis_vectors(build_chain(space))
constants = l1_equivalence_constants(space, family)
print(f"l1-equivalence constants of the retraction basis: lower {constants.lower}, upper {constants.upper}")
print()

print("Full pipeline on the same space:")
report = pipeline(space)
print(f"  rounding distortion {report.distortion} (< 2)")
print(f"  retraction constant {report.retraction_constant} (<= 4)")
print(f"  projection norm {report.projection_norm} (<= 4)")
print(f"  basis constant {report.basis_constant} (= 1)")
print(f"  l1 lower constant {report.l1_lower} (in (0, 1])")
print()

print("Three-point obstruction (no isometry onto two-dimensional l1):")
tp = three_point_report(Fraction(1, 2))
print(f"  norms: |dx| = {tp.norm_x}, |dx - dy| = {tp.norm_difference}, |dx + dy| = {tp.norm_sum}")
print(f"  extreme molecules: {tp.extreme_pairs} pairs, where l1 would have 2")
print(f"  isometric to l1: {tp.l1_isometric} (each pair certified)")
