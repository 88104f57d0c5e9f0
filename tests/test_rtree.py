import gc
import pickle
import random
import re
import weakref
from fractions import Fraction

import pytest

from ultrafree import metric, rtree
from ultrafree.metric import (
    CertificationError, FiniteMetricSpace, _integer_view, _single_linkage, random_ultrametric, round_to_dyadic
)
from ultrafree.rtree import (
    DendrogramTree,
    TreePoint,
    _node_labels,
    branching_points,
    canonicalize,
    dendrogram,
    four_point_check,
    generating_partner,
    node_space,
    retract_to_space,
    rooted_node_space,
    same_point,
    segment_grid,
    segment_point,
    tree_distance,
    verify_branching_witnesses,
    verify_retraction_claims,
    verify_segment_axioms,
)

from _oracles import (
    fraction_merge_tree,
    path_distance,
    quotient_node_distances,
    scale_rows,
    scan_branching_points,
    scan_dendrogram,
    scan_retraction_claims,
)
from test_freespace import _nested_ultrametric, _stress_ultrametrics

H = Fraction(1, 2)
Q = Fraction(1, 4)


def test_tree_point_rejects_negative_height():
    with pytest.raises(ValueError):
        TreePoint(0, Fraction(-1, 4))


@pytest.mark.parametrize("anchor", [-1, -3])
def test_tree_point_rejects_a_negative_anchor(triangle, anchor):
    # tree_distance would otherwise read the anchor as a point from the end of the space
    with pytest.raises(ValueError, match="^anchor must be a nonnegative point index$"):
        TreePoint(anchor, 0)
    assert tree_distance(triangle, TreePoint(0, 0), TreePoint(2, 0)) == 1


@pytest.mark.parametrize("anchor, shown", [(1.9, "float 1.9"), (Fraction(1), "Fraction Fraction(1, 1)"), ("1", "str '1'")])
def test_tree_point_refuses_an_anchor_that_is_no_integer(triangle, anchor, shown):
    # int() would truncate 1.9 to the anchor 1
    with pytest.raises(TypeError, match=f"^expected an integer index, got {re.escape(shown)}$"):
        TreePoint(anchor, 0)
    assert tree_distance(triangle, TreePoint(1, 0), TreePoint(2, 0)) == H


def test_a_space_and_its_tree_are_freed_by_reference_counting():
    # the space keeps its tree weakly, so no reference cycle waits for the collector
    gc.disable()
    try:
        space = round_to_dyadic(random_ultrametric(6, 4))
        tree = dendrogram(space)
        node_space(tree), rooted_node_space(tree)
        assert dendrogram(space) is tree
        refs = weakref.ref(space), weakref.ref(tree)
        del space, tree
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_dropped_tree_is_certified_again(four_cluster, monkeypatch):
    certified = count_path_metric_certificates(monkeypatch)
    first = weakref.ref(dendrogram(four_cluster))
    assert first() is None and len(certified) == 1
    tree = dendrogram(four_cluster)
    assert dendrogram(four_cluster) is tree and len(certified) == 2


def test_canonicalize_moves_to_minimal_anchor(triangle):
    assert canonicalize(triangle, TreePoint(2, Q)) == TreePoint(1, Q)
    assert canonicalize(triangle, TreePoint(2, 0)) == TreePoint(2, 0)
    again = canonicalize(triangle, canonicalize(triangle, TreePoint(2, Q)))
    assert again == TreePoint(1, Q)


def test_tree_distance_examples(triangle):
    assert tree_distance(triangle, TreePoint(1, 0), TreePoint(2, 0)) == H
    assert tree_distance(triangle, TreePoint(1, Q), TreePoint(1, 0)) == Q
    assert tree_distance(triangle, TreePoint(1, Q), TreePoint(0, 0)) == Fraction(3, 4)


def test_tree_distance_piecewise_form(triangle):
    # both endpoints below the joining height: sum of climbs
    p, q = TreePoint(1, Fraction(1, 8)), TreePoint(2, 0)
    assert tree_distance(triangle, p, q) == (Q - Fraction(1, 8)) + (Q - 0)
    # one endpoint covers the other: plain height difference
    p, q = TreePoint(1, H), TreePoint(2, Q)
    assert tree_distance(triangle, p, q) == H - Q


def test_tree_distance_representative_independence(triangle):
    # <x, 1/4> has representatives anchored at x and y
    reps_a = [TreePoint(1, Q), TreePoint(2, Q)]
    reps_b = [TreePoint(0, H), TreePoint(1, H), TreePoint(2, H)]
    values = {tree_distance(triangle, a, b) for a in reps_a for b in reps_b}
    assert values == {Q}


def test_leaf_embedding_is_isometric():
    for seed in range(10):
        space = random_ultrametric(7, seed)
        for i in range(7):
            for j in range(i + 1, 7):
                assert tree_distance(space, TreePoint(i, 0), TreePoint(j, 0)) == space.dist[i][j]


def test_segment_endpoints_and_apex(triangle):
    p, q = TreePoint(1, 0), TreePoint(2, 0)
    assert segment_point(triangle, p, q, 0) == p
    assert segment_point(triangle, p, q, H) == canonicalize(triangle, q)
    assert segment_point(triangle, p, q, Q) == TreePoint(1, Q)


def test_segment_reversal(triangle):
    p, q = TreePoint(1, 0), TreePoint(0, H)
    rho = tree_distance(triangle, p, q)
    for t in segment_grid(triangle, p, q):
        assert same_point(triangle, segment_point(triangle, q, p, t), segment_point(triangle, p, q, rho - t))


def test_segment_parameter_range(triangle):
    p, q = TreePoint(1, 0), TreePoint(2, 0)
    with pytest.raises(ValueError):
        segment_point(triangle, p, q, Fraction(-1, 8))
    with pytest.raises(ValueError):
        segment_point(triangle, p, q, 1)


def test_segment_axioms_small_spaces(triangle, four_cluster):
    assert verify_segment_axioms(triangle).passed
    assert verify_segment_axioms(four_cluster).passed


def test_segment_axioms_random():
    for seed in range(5):
        space = round_to_dyadic(random_ultrametric(5, 60 + seed))
        assert verify_segment_axioms(space).passed


def test_four_point_condition(triangle):
    nodes = [TreePoint(i, 0) for i in range(3)] + branching_points(triangle)
    # include sampled segment points as well
    nodes.append(segment_point(triangle, TreePoint(1, 0), TreePoint(0, 0), Fraction(3, 8)))
    report = four_point_check(triangle, nodes)
    assert report.passed
    assert report.checked > 0


def test_four_point_condition_random():
    for seed in range(5):
        space = round_to_dyadic(random_ultrametric(6, 80 + seed))
        nodes = [TreePoint(i, 0) for i in range(6)] + branching_points(space)
        assert four_point_check(space, nodes).passed


def test_branching_points_triangle(triangle):
    assert branching_points(triangle) == [TreePoint(1, Q), TreePoint(0, H)]


def test_branching_points_two_point_space():
    space = FiniteMetricSpace(("0", "p"), ((0, 1), (1, 0)))
    assert branching_points(space) == [TreePoint(0, H)]


def test_branching_points_four_cluster(four_cluster):
    assert branching_points(four_cluster) == [
        TreePoint(1, Fraction(1, 8)),
        TreePoint(1, Q),
        TreePoint(0, H),
    ]


def test_branching_witnesses(triangle):
    for v in branching_points(triangle):
        report = verify_branching_witnesses(triangle, v)
        assert report.passed, report


def test_non_branching_point_has_no_witnesses(triangle):
    report = verify_branching_witnesses(triangle, TreePoint(1, Fraction(1, 8)))
    assert report.partner is None and not report.passed


def test_generating_partner_canonical(triangle):
    assert generating_partner(triangle, TreePoint(1, Q)) == 2
    assert generating_partner(triangle, TreePoint(0, H)) in (1, 2)


def test_retraction_values(triangle):
    branching = branching_points(triangle)
    assert retract_to_space(triangle, TreePoint(1, 0), branching) == 1
    assert retract_to_space(triangle, TreePoint(1, Q), branching) == 1
    assert retract_to_space(triangle, TreePoint(2, Q), branching) == 1  # canonicalizes to anchor x
    assert retract_to_space(triangle, TreePoint(0, H), branching) == 0
    with pytest.raises(ValueError):
        retract_to_space(triangle, TreePoint(1, Fraction(1, 8)), branching)


def test_retraction_claims_triangle(triangle):
    report = verify_retraction_claims(triangle)
    assert report.passed
    assert report.attained_constant == 4
    # the tight pair: leaf x against the top branching point
    leaf, top = TreePoint(1, 0), TreePoint(0, H)
    assert triangle.dist[1][0] == 2 * tree_distance(triangle, leaf, top)


def test_retraction_claims_random_campaign():
    worst = Fraction(0)
    for seed in range(25):
        space = round_to_dyadic(random_ultrametric(8, seed))
        report = verify_retraction_claims(space)
        assert report.passed, report
        worst = max(worst, report.attained_constant)
    assert worst <= 4


def test_retraction_claims_require_dyadic():
    space = FiniteMetricSpace(("0", "p"), ((0, 3), (3, 0)))
    with pytest.raises(ValueError):
        verify_retraction_claims(space)


def test_dendrogram_triangle_structure(triangle):
    tree = dendrogram(triangle)
    assert tree.nodes == (
        TreePoint(0, 0),
        TreePoint(1, 0),
        TreePoint(2, 0),
        TreePoint(1, Q),
        TreePoint(0, H),
    )
    assert tree.parent == (4, 3, 3, 4, -1)
    assert tree.edge_length == (H, Q, Q, Q, 0)
    assert path_distance(tree, 1, 0) == 1  # x down to apex chain up to base: 1/4+1/4+1/2


def test_dendrogram_two_points():
    space = FiniteMetricSpace(("0", "p"), ((0, "1/2"), ("1/2", 0)))
    tree = dendrogram(space)
    assert len(tree.nodes) == 3
    assert tree.edge_length[:2] == (Q, Q)


def test_dendrogram_certified_on_randoms():
    for seed in range(10):
        space = round_to_dyadic(random_ultrametric(9, 700 + seed))
        tree = dendrogram(space)  # certification is internal
        root = tree.root
        assert root == len(tree.nodes) - 1
        assert all(len(tree.children(k)) >= 2 for k, p in enumerate(tree.nodes) if p.height > 0)


def test_node_spaces(triangle):
    tree = dendrogram(triangle)
    plain = node_space(tree)
    rooted = rooted_node_space(tree)
    assert plain.labels[:3] == triangle.labels
    assert len(set(plain.labels)) == len(plain.labels)
    assert rooted.labels[0] == "0@1/2"
    # permutations of the same metric
    assert sorted(plain.labels) == sorted(rooted.labels)
    assert plain.dist[0][1] == triangle.dist[0][1]


# The integer path (one single-linkage merge tree, certified in integers) against
# the Fraction scans it replaced, on tied, coprime, caterpillar, star and nested spaces
# for N = 2..40, each as given and rounded to powers of two.
def _oracle_spaces():
    return [(space, round_to_dyadic(space)) for space in _stress_ultrametrics(random.Random(41), range(2, 41))]


def test_dendrogram_matches_the_scan_oracle():
    checked = 0
    for space, rounded in _oracle_spaces():
        for s in (space, rounded) if rounded != space else (space,):
            tree = dendrogram(s)
            assert branching_points(s) == scan_branching_points(s)
            assert tree == scan_dendrogram(s), s
            assert node_space(tree).dist == quotient_node_distances(tree)
            checked += 1
    assert checked == 5 * 39 + 3 * 39  # the tied and the nested spaces are their own rounding


def test_retraction_claims_match_the_scan_oracle():
    constants = set()
    for _, rounded in _oracle_spaces():
        report = verify_retraction_claims(rounded)
        assert report == scan_retraction_claims(rounded), rounded
        constants.add(report.attained_constant)
    assert max(constants) == 4 and len(constants) > 1


def test_branching_points_reject_a_non_ultrametric(lopsided):
    with pytest.raises(ValueError, match="branching points require an ultrametric space"):
        branching_points(lopsided)


# Corruptions of the merge-tree reading of four_cluster (0, a, b, c; nodes 0..3, then
# a@1/8, a@1/4 and the root 0@1/2), each with the certificate message it must raise.
def _lower_parent(nodes, parent, edge):
    """a@1/4 hangs below a@1/8."""
    parent = list(parent)
    parent[5] = 4
    return nodes, parent, edge


def _one_child(nodes, parent, edge):
    """The point <c, 1/8> inserted on the edge of c: on the tree, but with one child."""
    e = Fraction(1, 8)
    nodes = [*nodes[:5], TreePoint(3, e), *nodes[5:]]
    return nodes, [7, 4, 4, 5, 6, 6, 7, -1], [H, e, e, e, e, e, Q, 0]


def _long_edge(nodes, parent, edge):
    """The edge of a twice as long."""
    edge = list(edge)
    edge[1] *= 2
    return nodes, parent, edge


CORRUPTED_MERGE_TREES = [
    pytest.param(_lower_parent, "parent TreePoint(anchor=1, height=Fraction(1, 8)) "
                 "of TreePoint(anchor=1, height=Fraction(1, 4)) is not higher", id="lower-parent"),
    pytest.param(_one_child, "branching node TreePoint(anchor=3, height=Fraction(1, 8)) has fewer than two children",
                 id="one-child"),
    pytest.param(_long_edge, "path metric disagrees with the quotient metric on "
                 "(TreePoint(anchor=0, height=Fraction(0, 1)), TreePoint(anchor=1, height=Fraction(0, 1)))",
                 id="long-edge"),
]


def corrupt_merge_tree(monkeypatch, change):
    real = rtree._merge_tree
    monkeypatch.setattr(rtree, "_merge_tree", lambda *args: change(*real(*args)))


@pytest.mark.parametrize("change, message", CORRUPTED_MERGE_TREES)
def test_dendrogram_certificate_names_the_defect(four_cluster, monkeypatch, change, message):
    corrupt_merge_tree(monkeypatch, change)
    with pytest.raises(CertificationError, match=re.escape(message) + "$"):
        dendrogram(four_cluster)
    with pytest.raises(CertificationError, match=re.escape(message) + "$"):
        verify_retraction_claims(four_cluster)


@pytest.mark.parametrize("change, message", CORRUPTED_MERGE_TREES)
def test_a_failed_certificate_keeps_nothing(four_cluster, monkeypatch, change, message):
    corrupt_merge_tree(monkeypatch, change)
    for _ in range(2):
        with pytest.raises(CertificationError, match=re.escape(message) + "$"):
            dendrogram(four_cluster)
    monkeypatch.undo()
    assert dendrogram(four_cluster) == scan_dendrogram(four_cluster)


def test_the_tree_and_its_node_spaces_are_kept(four_cluster):
    tree = dendrogram(four_cluster)
    assert dendrogram(four_cluster) is tree
    assert node_space(tree) is node_space(tree)
    assert rooted_node_space(tree) is rooted_node_space(tree)
    assert _node_labels(tree) is _node_labels(tree) == node_space(tree).labels
    # another space with the same distances gets a tree of its own
    other = dendrogram(FiniteMetricSpace(four_cluster.labels, four_cluster.dist))
    assert other == tree and other is not tree


def test_what_a_tree_keeps_stays_out_of_its_value(four_cluster):
    tree = dendrogram(four_cluster)
    node_space(tree), rooted_node_space(tree), verify_retraction_claims(four_cluster)
    space = FiniteMetricSpace(four_cluster.labels, four_cluster.dist)
    fresh = DendrogramTree(space, tree.nodes, tree.parent, tree.edge_length)
    assert set(vars(tree)) > set(vars(fresh))
    assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)
    assert pickle.dumps(tree) == pickle.dumps(fresh)
    loaded = pickle.loads(pickle.dumps(tree))
    assert loaded == tree and set(vars(loaded)) == {"space", "nodes", "parent", "edge_length"}


def test_the_integer_merge_tree_matches_the_fraction_oracle():
    rng = random.Random(83)
    spaces = [*_stress_ultrametrics(rng), _nested_ultrametric(200)]
    for space in spaces:
        merges = _single_linkage(space)
        nodes, parent, edge = rtree._merge_tree(len(space), merges, _integer_view(space)[0])
        assert (nodes, parent, edge) == fraction_merge_tree(space, merges)
        assert {type(p.anchor) for p in nodes} == {int}
        assert {type(p.height) for p in nodes} | {*map(type, edge)} == {Fraction}
    assert len(spaces) == 5 * 11 + 1


def test_node_spaces_are_built_with_the_view_their_distances_scale_to():
    rng = random.Random(71)
    checked = 0
    for space in _stress_ultrametrics(rng):
        for s in (space, round_to_dyadic(space)):
            tree = dendrogram(s)
            for nodes in (node_space(tree), rooted_node_space(tree)):
                assert "_view" in vars(nodes) and _integer_view(nodes) == scale_rows(nodes)
                checked += 1
    assert checked == 4 * 55


# the point 0@1 is labelled like the branching point <0, 1> of 0 and itself
COLLIDING = FiniteMetricSpace(("0", "0@1", "x"), (("0", "2", "4"), ("2", "0", "4"), ("4", "4", "0")))


def test_a_branching_label_that_a_point_has_takes_primes():
    tree = dendrogram(COLLIDING)
    assert node_space(tree).labels == ("0", "0@1", "x", "0@1'", "0@2")
    assert rooted_node_space(tree).labels == ("0@2", "0", "0@1", "x", "0@1'")
    primed = FiniteMetricSpace(("0", "0@1", "0@1'"), COLLIDING.dist)
    assert node_space(dendrogram(primed)).labels == ("0", "0@1", "0@1'", "0@1''", "0@2")
    # the root <0, 2> collides with a point here
    rooted = FiniteMetricSpace(("0", "0@2", "x"), COLLIDING.dist)
    assert node_space(dendrogram(rooted)).labels == ("0", "0@2", "x", "0@1", "0@2'")


def test_node_labels_are_unchanged_where_nothing_collides(four_cluster):
    assert node_space(dendrogram(four_cluster)).labels == ("0", "a", "b", "c", "a@1/8", "a@1/4", "0@1/2")
    # a point may carry a label of the form m@h when no branching point has it
    space = FiniteMetricSpace(("0", "0@3", "x"), COLLIDING.dist)
    assert node_space(dendrogram(space)).labels == ("0", "0@3", "x", "0@1", "0@2")


def record_late_views_and_checked_points(monkeypatch):
    """Record the labels of each space that computes its view on first use, and each TreePoint built through its checks."""
    seen = []
    real_view, real_check = metric._distinct_view, TreePoint.__post_init__
    monkeypatch.setattr(metric, "_distinct_view", lambda space: seen.append(space.labels) or real_view(space))
    monkeypatch.setattr(TreePoint, "__post_init__", lambda point: seen.append(point) or real_check(point))
    return seen


def count_path_metric_certificates(monkeypatch):
    """Record the space of every tree whose path metric gets certified."""
    spaces = []
    real = rtree._certify_path_metric
    monkeypatch.setattr(rtree, "_certify_path_metric", lambda tree: spaces.append(tree.space) or real(tree))
    return spaces
