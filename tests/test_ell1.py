import dataclasses
import random
import re
import sys
from fractions import Fraction

import pytest

from _oracles import (
    dense_pair_check,
    dirac_rows,
    fraction_chain_phi,
    fraction_rank,
    hull_extreme_pairs,
    lp_transport_norm,
    maps_telescope,
    molecule_operator_norm,
    orthant_l1_lower,
    path_pair_check,
    rows_chain_phi,
    rows_telescope,
    scale_rows,
    scaled_tree,
)
from test_acceptance import _power_of_two_caterpillar
from test_chain import _rank_corruptions, _shuffled_chain, _tangled_chain
from test_freespace import _PRIMES_NEAR_A_MILLION, _coprime_heights, _merge_ultrametric, _stress_ultrametrics
from test_rtree import COLLIDING, count_path_metric_certificates, record_late_views_and_checked_points
from ultrafree import chain as chain_module, ell1, freespace, rtree
from ultrafree.chain import BasisFamily, RetractionChain, basis_vectors, build_chain, retraction_map
from ultrafree.ell1 import (
    edge_flow_coordinates,
    edge_molecule_isometry,
    edge_molecules,
    l1_equivalence_constants,
    oracle_vs_lp,
    pipeline,
    three_point_report,
    three_point_space,
    tree_free_norm,
    tree_norm_certificate,
    vector_from_edge_flows,
)
from ultrafree.freespace import (
    FreeVector,
    PointMap,
    dirac,
    free_norm,
    lip_norm,
    lipschitz_constant,
    molecule,
    operator_norm_of_extension,
    zero_vector,
)
from ultrafree.metric import CertificationError, FiniteMetricSpace, random_ultrametric, round_to_dyadic, validate
from ultrafree.rtree import _retraction_claims, dendrogram, node_space, rooted_node_space, verify_retraction_claims
from ultrafree.serialize import dump_json, ingest, space_to_json

H = Fraction(1, 2)


def test_tree_free_norm_four_cluster(four_cluster):
    tree = dendrogram(four_cluster)
    # coefficients indexed by tree nodes: leaves 0,a,b,c then the two
    # lower branching points; the root carries none
    v = FreeVector((0, 1, 1, 1, 0, 0))
    assert tree_free_norm(tree, v) == Fraction(3, 2)
    assert lp_transport_norm(rooted_node_space(tree), v) == Fraction(3, 2)


def test_tree_free_norm_molecule_and_zero(four_cluster):
    tree = dendrogram(four_cluster)
    ambient = rooted_node_space(tree)
    v = (1 / four_cluster.dist[1][2]) * (dirac(ambient, 2) - dirac(ambient, 3))
    assert tree_free_norm(tree, v) == 1
    assert tree_free_norm(tree, FreeVector((0,) * (len(ambient) - 1))) == 0


def test_tree_free_norm_dimension_check(four_cluster):
    tree = dendrogram(four_cluster)
    with pytest.raises(ValueError):
        tree_free_norm(tree, FreeVector((1, 2)))


def test_edge_flow_coordinates_are_a_bijection(four_cluster):
    tree = dendrogram(four_cluster)
    rng = random.Random(4)
    dim = len(tree.nodes) - 1
    for _ in range(10):
        v = FreeVector(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)))
        coords = edge_flow_coordinates(tree, v)
        assert vector_from_edge_flows(tree, coords.masses) == v
        assert coords.norm() == tree_free_norm(tree, v)
        masses = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        back = edge_flow_coordinates(tree, vector_from_edge_flows(tree, masses))
        assert back.masses == masses


def test_one_path_metric_certificate_per_space(four_cluster, monkeypatch):
    certified = count_path_metric_certificates(monkeypatch)
    tree = dendrogram(four_cluster)
    verify_retraction_claims(four_cluster)
    node_space(tree), rooted_node_space(tree)
    dim = len(tree.nodes) - 1
    for k in range(1, 5):
        tree_norm_certificate(tree, FreeVector(tuple(Fraction(x - k, k) for x in range(dim))))
    oracle_vs_lp(four_cluster, vectors=5)
    edge_molecules(tree)
    assert len(certified) == 1 and certified[0] is four_cluster
    # pipeline certifies the tree of the rounding, a space of its own, once
    space = random_ultrametric(7, 3)
    pipeline(space)
    assert len(certified) == 2 and certified[1] == round_to_dyadic(space)


def test_the_lp_is_solved_by_the_oracles_alone(monkeypatch):
    # the tree route serves pipeline, the tree certificate and the battery, with no simplex; oracle_vs_lp
    # solves one LP per battery vector and per node pair, and edge_molecule_isometry one per pattern
    solved = []
    real = freespace.solve_lp
    monkeypatch.setattr(freespace, "solve_lp", lambda *args, **kwargs: solved.append(len(args[2])) or real(*args, **kwargs))
    space = random_ultrametric(7, 11)
    rounded = round_to_dyadic(space)
    tree = dendrogram(rounded)
    dim = len(tree.nodes) - 1
    assert pipeline(space).passed
    ell1._certify_edge_flow_battery(tree, 25, 3)
    for k in range(1, 4):
        tree_norm_certificate(tree, FreeVector(tuple(Fraction(x - k, k) for x in range(dim))))
    assert solved == []
    report = oracle_vs_lp(rounded, vectors=20, seed=3)
    assert report.passed and solved == [dim] * report.vectors_checked
    assert report.vectors_checked == 20 + 5 + (dim + 1) * dim // 2
    solved.clear()
    report = edge_molecule_isometry(tree, patterns=6, seed=3)
    assert report.passed and solved == [dim] * report.patterns_checked == [dim] * 7


def test_oracle_vs_lp_triangle(triangle):
    report = oracle_vs_lp(triangle, vectors=50, seed=1)
    assert report.passed
    assert report.vectors_checked >= 60


def test_oracle_vs_lp_random():
    for seed in range(4):
        space = round_to_dyadic(random_ultrametric(5, 30 + seed))
        assert oracle_vs_lp(space, vectors=20, seed=seed).passed


@pytest.mark.parametrize("vectors", [-1, -3])
def test_oracle_rejects_negative_battery(triangle, vectors):
    with pytest.raises(ValueError, match="non-negative"):
        oracle_vs_lp(triangle, vectors=vectors)
    with pytest.raises(ValueError, match="non-negative"):
        pipeline(triangle, oracle_vectors=vectors)


def test_empty_random_battery_keeps_the_leaf_and_pair_vectors(triangle):
    # five leaf-supported vectors and the 10 pairs of the 5 tree nodes
    assert oracle_vs_lp(triangle, vectors=0).vectors_checked == 15
    assert pipeline(triangle, oracle_vectors=0) == pipeline(triangle)


def test_tree_norm_certificate_matches_the_lp():
    rng = random.Random(8)
    for n in range(2, 9):
        for seed in range(3):
            tree = dendrogram(round_to_dyadic(random_ultrametric(n, 600 + 10 * n + seed)))
            ambient = rooted_node_space(tree)
            for _ in range(3):
                v = FreeVector(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(len(ambient) - 1)))
                cert = tree_norm_certificate(tree, v)
                assert cert.value == lp_transport_norm(ambient, v) == tree_free_norm(tree, v)
                # the edge-wise check covers every pair, so the full scan agrees
                assert lip_norm(ambient, cert.potential) <= 1


def _public_battery(space, ambient, vectors, seed):
    """The battery built by public construction: parsed vectors and dirac differences."""
    dim = len(ambient) - 1
    rng = random.Random(seed)
    battery = [FreeVector(ell1._random_coeffs(rng, dim)) for _ in range(vectors)]
    for _ in range(max(5, vectors // 5)):
        coeffs = list(ell1._random_coeffs(rng, len(space)))
        coeffs += [Fraction(0)] * (dim - len(coeffs))
        battery.append(FreeVector(tuple(coeffs)))
    pairs = [
        (i, j, dirac(ambient, i) - dirac(ambient, j))
        for i in range(len(ambient))
        for j in range(i + 1, len(ambient))
    ]
    return battery, pairs


@pytest.mark.parametrize("vectors, seed", [(0, 0), (25, 3), (60, 11)])
def test_battery_matches_the_public_construction(triangle, four_cluster, vectors, seed):
    for space in (triangle, four_cluster, round_to_dyadic(random_ultrametric(7, 40 + seed))):
        ambient = rooted_node_space(dendrogram(space))
        battery, pairs = ell1._battery(space, ambient, vectors, seed)
        assert (battery, pairs) == _public_battery(space, ambient, vectors, seed)
        for v in battery + [v for _, _, v in pairs]:
            assert all(type(c) is Fraction for c in v.coeffs)


def test_tree_norm_certificate_on_one_integer_scale():
    """Coprime heights, caterpillars, stars and power-of-two ties, N = 2..8, with
    coefficients over primes near 10^6: the value is the LP's, the potential passes
    the full pair scan and the flow, recomputed here, balances every coefficient."""
    rng = random.Random(12)

    def pair(count):
        return rng.sample(range(count), 2)

    checked = 0
    for n in range(2, 9):
        shapes = (
            _merge_ultrametric(_coprime_heights(n - 1, rng), pair),
            # each merge joins the next singleton to the growing cluster
            _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: (0, count - 1)),
            _merge_ultrametric([Fraction(3, 2)] * (n - 1), pair),
            _merge_ultrametric([Fraction(2) ** rng.randint(-2, 2) for _ in range(n - 1)], pair),
        )
        for space in shapes:
            tree = dendrogram(space)
            ambient = rooted_node_space(tree)
            for _ in range(2):
                v = FreeVector(tuple(
                    Fraction(rng.randint(-10**6, 10**6), rng.choice(_PRIMES_NEAR_A_MILLION))
                    for _ in range(len(ambient) - 1)
                ))
                cert = tree_norm_certificate(tree, v)
                assert cert.value == lp_transport_norm(ambient, v)
                assert lip_norm(ambient, cert.potential) <= 1
                assert sum(c * g for c, g in zip(v.coeffs, cert.potential.values[1:])) == cert.value
                outflow = [Fraction(0)] * len(ambient)
                for a, b, amount in cert.flow:
                    assert amount > 0
                    outflow[a] += amount
                    outflow[b] -= amount
                assert outflow[1:] == list(v.coeffs)
                assert sum(amount * ambient.dist[a][b] for a, b, amount in cert.flow) == cert.value
                checked += 1
    assert checked == 56


# four_cluster: node 1 is the leaf a, its parent node 4 the ball a@1/8 at distance 1/8;
# in the root-based node space they are points 2 and 5
_LEAF_A = FreeVector((0, 1, 0, 0, 0, 0))


def _certify_leaf_a(space):
    return tree_norm_certificate(dendrogram(space), _LEAF_A)


# Both entry points reach the one transport certificate: tree_norm_certificate on _LEAF_A, and
# pipeline on its battery, which fails at the first vector the corruption reaches.
# Each corruption test runs both, under the test's one name.
_ENTRY_POINTS = (_certify_leaf_a, pipeline)


def test_tree_certificate_rejects_a_wrong_edge_length(four_cluster, monkeypatch):
    # the kept length of the edge of a doubled, as both routes read it: the value counts it twice, the
    # flow's cost on the view once
    real = freespace._tree_edges

    def stretched(space):
        edges = real(space)
        return edges and tuple((c, p, 2 * l if c == 2 else l) for c, p, l in edges)

    for module in (freespace, ell1):
        monkeypatch.setattr(module, "_tree_edges", stretched)
    with pytest.raises(CertificationError, match=r"^transport flow costs 1/2, not the value 5/8$"):
        _certify_leaf_a(four_cluster)
    with pytest.raises(CertificationError, match=r"^transport flow costs 13/24, not the value 19/24$"):
        pipeline(four_cluster)


def _corrupt_solution(monkeypatch, change):
    """Corrupt the unchecked edge flow of every vector that sends mass up the edge of a."""
    real = freespace._edge_flow

    def corrupted(edges, coeffs):
        cost, arcs, g = real(edges, coeffs)
        return change(cost, arcs, g) if any(arc[:2] == (2, 5) for arc in arcs) else (cost, arcs, g)

    for module in (freespace, ell1):
        monkeypatch.setattr(module, "_edge_flow", corrupted)


def test_tree_certificate_rejects_a_flipped_potential_sign(four_cluster, monkeypatch):
    # mirrored about its parent, the potential of a still steps by the edge length: it stays
    # 1-Lipschitz, edge by edge and so on every pair, and fails the duality check
    def flip(cost, arcs, g):
        g = list(g)
        g[2] = 2 * g[5] - g[2]  # a mirrored about its parent a@1/8
        return cost, arcs, g

    _corrupt_solution(monkeypatch, flip)
    with pytest.raises(CertificationError, match=r"^primal and dual transport optima differ: 1/2 against 1/4$"):
        _certify_leaf_a(four_cluster)
    with pytest.raises(CertificationError, match=r"^primal and dual transport optima differ: 173/48 against 157/48$"):
        pipeline(four_cluster)


def test_tree_certificate_rejects_a_corrupted_flow(four_cluster, monkeypatch):
    def double(cost, arcs, g):
        return cost, [(a, b, 2 * amount if (a, b) == (2, 5) else amount) for a, b, amount in arcs], g

    _corrupt_solution(monkeypatch, double)
    with pytest.raises(CertificationError, match=r"^transport flow leaves point 2 with 2, not 1$"):
        _certify_leaf_a(four_cluster)
    with pytest.raises(CertificationError, match=r"^transport flow leaves point 2 with 8/3, not 4/3$"):
        pipeline(four_cluster)


def test_tree_certificate_checks_a_flow_off_the_tree_on_the_metric(four_cluster, monkeypatch):
    # the one certificate checks a flow against the metric, not the tree: the arc from a to the root
    # carries the unit mass of a at its cost, the tree path's, so it certifies _LEAF_A; on the
    # battery's first vector it leaves the other points unbalanced
    def shortcut(cost, arcs, g):
        return cost, [(2, 0, 1)], g

    _corrupt_solution(monkeypatch, shortcut)
    cert = _certify_leaf_a(four_cluster)
    assert cert.flow == ((2, 0, Fraction(1)),) and cert.value == Fraction(1, 2)
    with pytest.raises(CertificationError, match=r"^transport flow leaves point 1 with 0, not 5$"):
        pipeline(four_cluster)


def test_pipeline_raises_on_a_failed_edge_flow_certificate(four_cluster, monkeypatch):
    # a negated potential is as steep as the sign potential on every edge, and pairs to minus the value
    def negated(cost, arcs, g):
        return cost, arcs, [-x for x in g]

    _corrupt_solution(monkeypatch, negated)
    with pytest.raises(CertificationError, match=r"^primal and dual transport optima differ: 1/2 against -1/2$"):
        _certify_leaf_a(four_cluster)
    with pytest.raises(CertificationError, match=r"^primal and dual transport optima differ: 173/48 against -173/48$"):
        pipeline(four_cluster)


def test_tree_certificate_names_the_pair_of_a_steep_potential(four_cluster, monkeypatch):
    # a potential raised at a by one edge length fails the edge of a, and the pairwise scan names
    # the first failing pair, row by row: the root and a
    def raised(cost, arcs, g):
        g = list(g)
        g[2] += g[2] - g[5]
        return cost, arcs, g

    _corrupt_solution(monkeypatch, raised)
    for certify in _ENTRY_POINTS:
        with pytest.raises(CertificationError, match=r"^dual potential is not 1-Lipschitz on the pair \(0, 2\)$"):
            certify(four_cluster)


def test_pipeline_names_the_pair_off_its_distance(four_cluster, monkeypatch):
    real = rtree.with_base

    def stretched(space, index):
        rooted = real(space, index)
        dist = [list(row) for row in rooted.dist]
        dist[0][2] = dist[2][0] = 2 * dist[0][2]  # the root and a: three edges apart, no edge of its own
        return FiniteMetricSpace(rooted.labels, tuple(map(tuple, dist)))

    monkeypatch.setattr(rtree, "with_base", stretched)  # the root-based node space is built through it
    with pytest.raises(CertificationError, match=r"edge-flow norm of the pair \(0@1/2, a\) is not its distance$"):
        pipeline(four_cluster)


def test_pipeline_names_an_edge_pair_off_its_distance(four_cluster, monkeypatch):
    # the edge lengths are checked against the certified rows, so a rooted node space stretched on an
    # edge passes that check and fails the comparison with the rows, at the pair of that edge
    real = rtree.with_base

    def stretched(space, index):
        rooted = real(space, index)
        dist = [list(row) for row in rooted.dist]
        dist[0][6] = dist[6][0] = 2 * dist[0][6]  # the root and its child a@1/4
        return FiniteMetricSpace(rooted.labels, tuple(map(tuple, dist)))

    monkeypatch.setattr(rtree, "with_base", stretched)
    with pytest.raises(CertificationError, match=r"edge-flow norm of the pair \(0@1/2, a@1/4\) is not its distance$"):
        pipeline(four_cluster)


def _node_pair_trees():
    """Tied power-of-two, coprime, caterpillar and star trees, N = 2..8, and a power-of-two
    caterpillar: their rooted node spaces and dendrograms."""
    rng = random.Random(15)

    def pair(count):
        return rng.sample(range(count), 2)

    for n in range(2, 9):
        for space in (
            _merge_ultrametric([Fraction(2) ** rng.randint(-2, 2) for _ in range(n - 1)], pair),
            _merge_ultrametric(_coprime_heights(n - 1, rng), pair),
            # each merge joins the next singleton to the growing cluster
            _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: (0, count - 1)),
            _merge_ultrametric([Fraction(3, 2)] * (n - 1), pair),
        ):
            tree = dendrogram(space)
            yield rooted_node_space(tree), tree
    tree = dendrogram(_power_of_two_caterpillar(8))
    yield rooted_node_space(tree), tree


def _verdict(check, *args):
    """None when the check passes, else the message of its CertificationError."""
    try:
        check(*args)
    except CertificationError as exc:
        return str(exc)
    return None


def _view_of(ambient, d):
    """The integer view of the rows ``d`` on the points of ``ambient``, scaled entry by entry."""
    return scale_rows(FiniteMetricSpace(ambient.labels, tuple(map(tuple, d))))


def _corrupted_trees(scaled):
    """The scaled tree with every pair distance doubled, then with each edge's row distance tripled
    on both orientations and with each edge's length doubled, as (tree, stretch) pairs."""
    corrupted = [(scaled, 2)]
    for k, (child, up, length) in enumerate(scaled.edges):
        rows = [list(row) for row in scaled.rows]
        a, b = scaled.node[child], scaled.node[up]
        rows[a][b] *= 3
        rows[b][a] *= 3
        edges = list(scaled.edges)
        edges[k] = (child, up, 2 * length)
        corrupted += [(scaled._replace(rows=rows), 1), (scaled._replace(edges=tuple(edges)), 1)]
    return corrupted


def _as_dendrogram(tree, scaled):
    """A copy of ``tree`` with the edge lengths and the certified node distances of ``scaled``, corrupted or not."""
    lengths = list(tree.edge_length)
    for child, _, length in scaled.edges:
        lengths[scaled.node[child]] = Fraction(length, scaled.scale)
    copy = dataclasses.replace(tree, edge_length=tuple(lengths))
    object.__setattr__(copy, "_distances", (scaled.scale, scaled.rows))  # as rtree._node_distances keeps them
    return copy


def test_path_certificate_matches_the_dense_check():
    """On tied, coprime, caterpillar and star trees and a power-of-two caterpillar, the
    walk-per-source check of every node pair fails with the message of the first node pair
    that the path oracle and the dense check, which agree pair by pair, find failing, or
    passes with them: uncorrupted, under stretched pair distances, a stretched edge
    distance and a wrong edge length; under one stretched pair it names that pair."""
    compared = failures = 0
    for ambient, dendro in _node_pair_trees():
        scaled = scaled_tree(dendro)
        pairs = [(i, j) for i in range(len(ambient)) for j in range(i + 1, len(ambient))]
        for tree, stretch in [(scaled, 1)] + _corrupted_trees(scaled):
            d = [[stretch * x for x in row] for row in ambient.dist]
            verdicts = [(_verdict(path_pair_check, tree, i, j, d[i][j]),
                         _verdict(dense_pair_check, tree, i, j, d[i][j])) for i, j in pairs]
            assert all(path == dense for path, dense in verdicts)
            first = next((path for path, _ in verdicts if path is not None), None)
            assert _verdict(ell1._checked_node_pairs, _as_dendrogram(dendro, tree), _view_of(ambient, d)) == first
            assert (first is None) == (tree is scaled and stretch == 1)
            compared += len(verdicts)
            failures += sum(path is not None for path, _ in verdicts)
        # one stretched pair, the others passing as above: the check names that pair
        for i, j in pairs:
            d = [list(row) for row in ambient.dist]
            d[i][j] *= 2
            message = _verdict(path_pair_check, scaled, i, j, d[i][j])
            assert message is not None and _verdict(ell1._checked_node_pairs, dendro, _view_of(ambient, d)) == message
    assert (compared, failures) == (24780, 7336)


def test_pipeline_checks_no_node_pair_densely(monkeypatch):
    """One pipeline call certifies the edge flow of each random vector over the whole tree and of
    nothing else, and certifies the node pairs off the certified rows, with no walk of the tree; its only
    walks are the l1 stage's, of the chain's anchor tree from each point that starts a pair."""
    dense, walks = [], []
    real_dense, real_walk = ell1._certify_transport, ell1._path_sums

    def count_dense(space, masses, unit, *certificate):
        dense.append((list(masses), unit))
        return real_dense(space, masses, unit, *certificate)

    def count_walk(adjacent, source):
        walks.append((len(adjacent), source))
        return real_walk(adjacent, source)

    monkeypatch.setattr(ell1, "_certify_transport", count_dense)
    monkeypatch.setattr(ell1, "_path_sums", count_walk)
    space = random_ultrametric(7, 11)
    rounded = round_to_dyadic(space)
    ambient = rooted_node_space(dendrogram(rounded))
    for vectors in (0, 4, 25, 60):
        dense.clear()
        walks.clear()
        pipeline(space, oracle_vectors=vectors, seed=vectors)
        assert len(dense) == vectors + max(5, vectors // 5)
        assert dense == [(draw, 12) for draw in ell1._battery_draws(rounded, ambient, vectors, vectors)]
        assert walks == [(len(space), s) for s in range(len(space) - 1)]


@pytest.mark.parametrize("dim", [0, 1, 5, 9, 30])
def test_the_draws_read_the_bit_stream_as_randint_and_choice(dim):
    # the same values and the same rng state as k = randint(-6, 6), b = choice((1, 2, 3, 4)), draw by draw
    for seed in range(2000):
        fast, slow = random.Random(seed), random.Random(seed)
        expected = [slow.randint(-6, 6) * (12 // slow.choice((1, 2, 3, 4))) for _ in range(dim)]
        assert ell1._random_integers(fast, dim) == expected
        assert fast.getstate() == slow.getstate()


def test_a_pipeline_verdict_draws_bits_and_reads_integer_views(monkeypatch, tmp_path):
    # at N = 7 the battery is drawn without randint or choice and no molecule is built; on generated and on
    # JSON input, the input, its rounding and both node spaces are born with their views, so none computes
    # one on first use, and no tree node goes through the checks of TreePoint
    space = random_ultrametric(7, 11)
    path = tmp_path / "space.json"
    dump_json(space_to_json(space), path)
    expected = pipeline(FiniteMetricSpace(space.labels, space.dist))

    def refuse(*args, **kwargs):
        raise AssertionError("a refused function was called")

    monkeypatch.setattr(random.Random, "randint", refuse)
    monkeypatch.setattr(random.Random, "choice", refuse)
    for module in (freespace, chain_module, ell1):
        monkeypatch.setattr(module, "molecule", refuse)
    late = record_late_views_and_checked_points(monkeypatch)
    assert pipeline(space) == pipeline(ingest(path)) == expected and expected.passed
    assert late == []
    # a space built from rows of Fractions computes its view on first use, once
    pipeline(FiniteMetricSpace(space.labels, space.dist))
    assert late == [space.labels]


def test_a_point_labelled_like_a_branching_point_runs_every_check():
    assert pipeline(COLLIDING).passed
    report = oracle_vs_lp(COLLIDING)
    assert report.passed and report.vectors_checked == 50 + 10 + 10


def test_the_projection_norm_matches_the_molecule_oracle_on_stress_trees():
    # the projection of the pipeline, the tree retraction on the node space, and every stage of a chain
    rng = random.Random(73)
    maps = 0
    for space in _stress_ultrametrics(rng, range(2, 9)):
        rounded = round_to_dyadic(space)
        tree = dendrogram(rounded)
        ambient = node_space(tree)
        point_maps = [PointMap(ambient, ambient, tuple(_retraction_claims(rounded)[1]))]
        chain = _shuffled_chain(space, rng)
        point_maps += [retraction_map(chain, n) for n in range(1, len(space) + 1)]
        for point_map in point_maps:
            value = operator_norm_of_extension(point_map)
            assert value == molecule_operator_norm(point_map) == lipschitz_constant(point_map)
            maps += 1
    assert maps == 5 * sum(range(3, 10))


def test_pipeline_at_240_points():
    report = pipeline(random_ultrametric(240, 5))
    assert report.passed and report.size == 240 and report.basis_constant == 1


def test_tree_certificate_recertifies_the_path_metric(four_cluster):
    tree = dendrogram(four_cluster)
    lengths = list(tree.edge_length)
    lengths[1] *= 2
    # the first node pair whose path runs through the stretched edge of a: the base and a
    message = ("path metric disagrees with the quotient metric on "
               "(TreePoint(anchor=0, height=Fraction(0, 1)), TreePoint(anchor=1, height=Fraction(0, 1)))")
    with pytest.raises(CertificationError, match=re.escape(message) + "$"):
        tree_norm_certificate(dataclasses.replace(tree, edge_length=tuple(lengths)), _LEAF_A)


def test_tree_certificate_names_a_parent_that_is_not_higher(four_cluster):
    tree = dendrogram(four_cluster)
    parents = list(tree.parent)
    parents[5] = 4  # a@1/4 below a@1/8
    message = ("parent TreePoint(anchor=1, height=Fraction(1, 8)) "
               "of TreePoint(anchor=1, height=Fraction(1, 4)) is not higher")
    with pytest.raises(CertificationError, match=re.escape(message) + "$"):
        tree_norm_certificate(dataclasses.replace(tree, parent=tuple(parents)), _LEAF_A)


@pytest.mark.parametrize(
    "parents, roots",
    [(lambda p: p[:-1] + (0,), "none"), (lambda p: (-1,) + p[1:], "0, 0@1/2")],
    ids=["no-root", "two-roots"],
)
def test_tree_certificate_names_the_roots_it_found(four_cluster, parents, roots):
    tree = dendrogram(four_cluster)
    broken = dataclasses.replace(tree, parent=parents(tree.parent))
    with pytest.raises(CertificationError, match=f"exactly one root, the top node; its roots are {roots}$"):
        tree_norm_certificate(broken, _LEAF_A)


def test_leaf_vectors_match_original_space_norm(triangle):
    # the node set contains the original space isometrically, and potentials
    # extend without increasing the Lipschitz constant, so for balanced
    # leaf-supported vectors the two transport norms agree
    tree = dendrogram(triangle)
    ambient = rooted_node_space(tree)
    rng = random.Random(9)
    for _ in range(10):
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        small = FreeVector((a, b))
        # leaves 0, x, y sit at ambient points 1, 2, 3; balance with the base leaf
        big = (
            a * (dirac(ambient, 2) - dirac(ambient, 1))
            + b * (dirac(ambient, 3) - dirac(ambient, 1))
        )
        assert free_norm(triangle, small) == free_norm(ambient, big) == lp_transport_norm(ambient, big)


def test_edge_molecules_span_and_norm_one(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    assert len(family.vectors) == len(tree.nodes) - 1
    for vec in family.vectors:
        assert free_norm(family.space, vec) == lp_transport_norm(family.space, vec) == 1


def test_edge_molecule_single_edge_homogeneity(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    c = Fraction(-7, 3)
    assert free_norm(family.space, c * family.vectors[0]) == lp_transport_norm(family.space, c * family.vectors[0]) == abs(c)


def test_edge_molecule_isometry_all_ones(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    total = family.vectors[0]
    for vec in family.vectors[1:]:
        total = total + vec
    assert free_norm(family.space, total) == lp_transport_norm(family.space, total) == len(family.vectors) == 4


def test_edge_molecule_isometry_random(triangle, four_cluster):
    for space in (triangle, four_cluster):
        report = edge_molecule_isometry(dendrogram(space), patterns=25, seed=3)
        assert report.passed


def test_l1_constants_single_vector():
    space = random_ultrametric(2, 1)
    family = basis_vectors(build_chain(space))
    constants = l1_equivalence_constants(space, family)
    assert (constants.lower, constants.upper) == (1, 1)


def test_l1_constants_triangle_exact(triangle):
    family = basis_vectors(build_chain(triangle))
    constants = l1_equivalence_constants(triangle, family)
    assert constants.upper == 1
    assert constants.lower == Fraction(2, 3)


def test_l1_constants_triangle_sampled_floor(triangle):
    # sampling the same face cannot dip below the exact minimum
    family = basis_vectors(build_chain(triangle))
    exact = l1_equivalence_constants(triangle, family)
    grid = Fraction(1, 16)
    t = Fraction(0)
    while t <= 1:
        combo = (1 - t) * family.vectors[0] * (1 / family.norms[0]) + t * family.vectors[1] * (
            1 / family.norms[1]
        )
        assert free_norm(triangle, combo) >= exact.lower
        t += grid


def test_l1_constants_edge_molecules(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    constants = l1_equivalence_constants(family.space, family)
    assert (constants.lower, constants.upper) == (1, 1)


def _quarter_metric(n: int, rng: random.Random) -> FiniteMetricSpace:
    """Distances drawn from {1, 5/4, ..., 2}: always a metric, rarely an ultrametric."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = Fraction(rng.randint(4, 8), 4)
    return FiniteMetricSpace(tuple(str(i) for i in range(n)), tuple(map(tuple, dist)))


def _random_family(space: FiniteMetricSpace, rng: random.Random) -> BasisFamily:
    """A random spanning family of small integer vectors, with their true norms."""
    dim = len(space) - 1
    while True:
        vectors = [FreeVector(tuple(rng.randint(-2, 2) for _ in range(dim))) for _ in range(dim)]
        if fraction_rank([v.coeffs for v in vectors]) == dim:
            return BasisFamily(space, tuple(vectors), tuple(free_norm(space, v) for v in vectors))


def _l1_cases():
    rng = random.Random(5)
    cases = []
    for n in range(2, 7):
        for repeat in range(2):
            for kind in ("ultrametric", "metric"):
                if kind == "ultrametric":
                    space = random_ultrametric(n, rng.randrange(10**6))
                else:
                    space = _quarter_metric(n, rng)
                rest = list(range(1, n))
                rng.shuffle(rest)
                chain_family = basis_vectors(build_chain(space, (0, *rest)))
                cases.append(pytest.param(space, chain_family, id=f"{kind}-n{n}-{repeat}-chain"))
                cases.append(pytest.param(space, _random_family(space, rng), id=f"{kind}-n{n}-{repeat}-random"))
    # chain families on tied power-of-two and coprime heights, read off the rank table
    for n in (7, 8):
        tied = _merge_ultrametric([Fraction(2) ** rng.randint(-1, 1) for _ in range(n - 1)],
                                  lambda count: rng.sample(range(count), 2))
        coprime = _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: rng.sample(range(count), 2))
        for kind, space in (("tied", tied), ("coprime", coprime)):
            rest = list(range(1, n))
            rng.shuffle(rest)
            chain_family = basis_vectors(build_chain(space, (0, *rest)))
            cases.append(pytest.param(space, chain_family, id=f"{kind}-n{n}-chain"))
    return cases


@pytest.mark.parametrize("space, family", _l1_cases())
def test_l1_lower_matches_orthant_oracle(space, family):
    constants = l1_equivalence_constants(space, family)
    assert constants.lower == orthant_l1_lower(space, family)
    assert constants.upper == 1


def _walked_phi(space, family, monkeypatch):
    """Phi at the witness of ``l1_equivalence_constants`` and its pair, read off the support of the one
    vector it certifies by a transport solve, the multiple lower * m_ij of the molecule at that pair."""
    witnesses = []
    real = ell1.free_norm_certificate
    with monkeypatch.context() as patch:
        patch.setattr(ell1, "free_norm_certificate", lambda s, v: witnesses.append(v) or real(s, v))
        lower = l1_equivalence_constants(space, family).lower
    (witness,) = witnesses
    support = witness.support()
    pair = (0, *support) if len(support) == 1 else support
    assert witness == lower * molecule(space, *pair)
    return (1 / lower, *pair)


def _rows_phi(chain, family):
    """The row scan's Phi and pair, matched with the Fraction max first."""
    rows = dirac_rows(chain)
    expected = rows_chain_phi(chain.space, family.norms, rows)
    assert expected == fraction_chain_phi(chain.space, family.norms, rows)
    return expected


@pytest.mark.parametrize("space, family", [case for case in _l1_cases() if case.id.endswith("chain")])
def test_chain_phi_matches_the_fraction_max(space, family, monkeypatch):
    # the walk gives the row scan's max and its first maximizing pair, row by row, and so the Fraction max's
    chain = ell1._certified_chain(space, family)
    assert _walked_phi(space, family, monkeypatch) == _rows_phi(chain, family)


def test_chain_phi_matches_the_row_scan_on_stress_chains_and_rank_corruptions(collinear, monkeypatch):
    # tied, coprime, caterpillar, star and nested spaces, N = 2..12, under the input and a random ordering, the
    # collinear and tangled chains, and every single-entry rank corruption, values in 1..N, of chains on
    # N = 3..6 points: the scan's certificate gives the maps and rows checks' verdict, and the walk the
    # row scan's Phi
    rng = random.Random(53)
    chains = [build_chain(collinear, (0, 2, 1)), _tangled_chain()]
    for space in _stress_ultrametrics(rng):
        chains += [build_chain(space), _shuffled_chain(space, rng)]
    for n in range(3, 7):
        for _, _, corrupted in _rank_corruptions(_shuffled_chain(random_ultrametric(n, 50 + n), rng)):
            chains.append(corrupted)
    walked = 0
    for chain in chains:
        family = basis_vectors(chain)
        certified = ell1._certified_chain(chain.space, family) is chain
        assert certified == maps_telescope(chain) == rows_telescope(chain, dirac_rows(chain))
        if certified:
            assert _walked_phi(chain.space, family, monkeypatch) == _rows_phi(chain, family)
            walked += 1
    assert (len(chains), walked) == (2 + 2 * 55 + 18 + 48 + 100 + 180, 1 + 2 * 55 + 6)


@pytest.mark.parametrize("distance, shown", [(0, "0"), (-1, "-1")])
def test_chain_phi_names_a_distance_that_is_not_positive(distance, shown):
    # a cross-multiplied ratio over a distance <= 0 would be misordered, so the walk and the row scan refuse it;
    # the constructor admits a matrix with d(x, x) = -2 and d(y, x) = 1/2, whose chain telescopes
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, -2, distance), (1, H, 0)))
    chain = build_chain(space)
    family = basis_vectors(chain)
    assert ell1._certified_chain(space, family) is chain
    message = rf"^the distance of the pair \(1, 2\) is {shown}, not positive$"
    with pytest.raises(ValueError, match=message):
        l1_equivalence_constants(space, family)
    with pytest.raises(ValueError, match=message):
        rows_chain_phi(space, family.norms, dirac_rows(chain))


def test_a_chain_family_takes_one_walk_per_point_and_no_linalg(monkeypatch):
    # N - 1 walks of the anchor tree, from the points 0..N-2 that start a pair, and no Gauss-Jordan
    rng = random.Random(59)
    cases = []
    for n in range(2, 12):
        space = random_ultrametric(n, 900 + n)
        chain = _shuffled_chain(space, rng)
        family = basis_vectors(chain)
        cases.append((space, family, 1 / _rows_phi(chain, family)[0]))
    walks = []
    real_walk = ell1._path_sums
    monkeypatch.setattr(ell1, "_path_sums", lambda adjacent, source: walks.append(source) or real_walk(adjacent, source))

    def refuse(*args):
        raise AssertionError("a linalg function was called")

    for module in [module for name, module in sys.modules.items() if name.startswith("ultrafree.")]:
        for name in ("_reduce", "_solve_square", "solve_linear", "invert_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for space, family, lower in cases:
        walks.clear()
        assert l1_equivalence_constants(space, family).lower == lower
        assert walks == list(range(len(space) - 1))


def test_l1_constants_name_a_zero_distance_of_an_asymmetric_matrix():
    # the constructor admits an asymmetric matrix, whose chain family reaches the scan
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, 0), (1, H, 0)))
    with pytest.raises(ValueError, match=r"^the distance of the pair \(1, 2\) is 0, not positive$"):
        l1_equivalence_constants(space, basis_vectors(build_chain(space)))


def test_l1_constants_reject_non_spanning_family():
    space = random_ultrametric(4, 3)
    chain_family = basis_vectors(build_chain(space))
    first, second, _ = chain_family.vectors
    repeated = BasisFamily(space, (first, second, first + second), chain_family.norms)
    with pytest.raises(ValueError, match="does not span"):
        l1_equivalence_constants(space, repeated)


def test_l1_constants_witness_is_checked(triangle, monkeypatch):
    family = basis_vectors(build_chain(triangle))
    real_certificate = ell1.free_norm_certificate
    monkeypatch.setattr(
        ell1, "free_norm_certificate", lambda space, v: real_certificate(space, 2 * v)
    )
    with pytest.raises(CertificationError, match=r"pair \(0, 2\)"):
        l1_equivalence_constants(triangle, family)


def test_l1_constants_certify_phi_at_the_witness(monkeypatch):
    # the transport solve of lower * m holds for any lower, so doubled path sums would halve the
    # constant unnoticed; the witness coefficients' own Phi refuses them at the maximizing pair
    space = random_ultrametric(9, 3)
    chain = build_chain(space)
    family = basis_vectors(chain)
    phi, i, j = rows_chain_phi(space, family.norms, dirac_rows(chain))
    assert l1_equivalence_constants(space, family).lower == 1 / phi == Fraction(41, 184)
    real_walk = ell1._path_sums
    monkeypatch.setattr(ell1, "_path_sums", lambda adjacent, source: [2 * x for x in real_walk(adjacent, source)])
    message = rf"^l1 witness at pair \({i}, {j}\) does not attain Phi = {2 * phi}$"
    with pytest.raises(CertificationError, match=message):
        l1_equivalence_constants(space, family)


def test_l1_constants_reconstruction_is_checked(triangle, monkeypatch):
    # a hand-built family: the coefficients come from the inverse
    dx, dy = dirac(triangle, 1), dirac(triangle, 2)
    family = BasisFamily(triangle, (dx, dy), (Fraction(1), Fraction(1)))
    real_expansions = ell1._molecule_expansions

    def shifted(space, fam):
        for i, j, coeffs in real_expansions(space, fam):
            yield i, j, [coeffs[0] + 1] + coeffs[1:]

    monkeypatch.setattr(ell1, "_molecule_expansions", shifted)
    with pytest.raises(CertificationError, match="reconstruct"):
        l1_equivalence_constants(triangle, family)


def test_l1_constants_reconstruction_is_checked_on_chain_rows(triangle, monkeypatch):
    # a chain's own family: the coefficients come from its rank rows, here with the stage-2 entry of y
    # sent to the base, which flips the first Dirac coordinate of y
    family = basis_vectors(build_chain(triangle))
    real_certified = ell1._certified_chain

    def flipped(space, fam):
        chain = real_certified(space, fam)
        return RetractionChain(chain.space, chain.ordering, (chain.ranks[0], (1, 2, 1), chain.ranks[2]))

    monkeypatch.setattr(ell1, "_certified_chain", flipped)
    with pytest.raises(CertificationError, match="reconstruct"):
        l1_equivalence_constants(triangle, family)


def test_edge_molecule_isometry_draws_the_same_patterns(four_cluster, monkeypatch):
    # the all-ones pattern, then each random pattern by the rng calls of one draw k / b, k in -6..6, b in 1..4
    tree = dendrogram(four_cluster)
    count = len(tree.nodes) - 1
    rng = random.Random(4)
    expected = [(Fraction(1),) * count] + [
        tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(count)) for _ in range(12)
    ]
    seen = []
    real = ell1._combination
    monkeypatch.setattr(ell1, "_combination", lambda dim, vectors, coeffs: seen.append(coeffs) or real(dim, vectors, coeffs))
    report = edge_molecule_isometry(tree, patterns=12, seed=4)
    assert report.passed and report.patterns_checked == 13
    assert seen == expected and all(type(c) is Fraction for pattern in seen for c in pattern)


def test_three_point_space_validation():
    with pytest.raises(ValueError):
        three_point_space(Fraction(3, 2))
    with pytest.raises(ValueError):
        three_point_space(Fraction(0))
    assert validate(three_point_space(Fraction(1, 3))).is_ultrametric


def test_three_point_report_identities():
    report = three_point_report(Fraction(1, 2))
    assert (report.norm_x, report.norm_y) == (1, 1)
    assert report.norm_difference == Fraction(1, 2)
    assert report.norm_sum == 2
    values = {beta: value for beta, value, _ in report.beta_norms}
    assert values[Fraction(2)] == Fraction(3, 2)
    for beta, value, bound in report.beta_norms:
        assert bound <= value
        assert bound == max(Fraction(1, 2), beta / 2, (beta + 1) / 4)


def test_three_point_norm_closed_form():
    # for beta <= 1 the norm is beta*s + 1 - beta; beyond 1 it is s + beta - 1
    s = Fraction(3, 4)
    report = three_point_report(s)
    for beta, value, _ in report.beta_norms:
        expected = beta * s + 1 - beta if beta <= 1 else s + beta - 1
        assert value == expected


def test_three_point_symmetric_case_bound_is_tight():
    report = three_point_report(Fraction(1))
    values = {beta: (value, bound) for beta, value, bound in report.beta_norms}
    assert values[Fraction(1)] == (1, 1)


def test_three_point_is_not_l1_isometric():
    report = three_point_report(Fraction(1, 2))
    assert (report.extreme_pairs, report.l1_isometric) == (3, False)


def test_three_point_betas_replace_the_default_list():
    report = three_point_report(Fraction(1, 2), betas=[Fraction(3)])
    assert [beta for beta, _, _ in report.beta_norms] == [3]


def test_three_point_names_the_failed_identity(monkeypatch):
    real = ell1.free_norm
    monkeypatch.setattr(ell1, "free_norm", lambda space, v: real(space, v) / 2 if v.coeffs == (1, -1) else real(space, v))
    with pytest.raises(CertificationError, match=r"identity failed: \|dx - dy\| is 1/4, not 1/2$"):
        three_point_report(Fraction(1, 2))


def test_three_point_rejects_bad_s():
    with pytest.raises(ValueError):
        three_point_report(Fraction(2))


def _graph_metric(n: int, rng: random.Random) -> FiniteMetricSpace:
    """The shortest-path metric of a random connected graph with weights 1..3: a spanning tree plus extra edges."""
    inf = 10 * n
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    edges = [(rng.randrange(k), k) for k in range(1, n)]
    edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    for i, j in edges:
        d[i][j] = d[j][i] = min(d[i][j], rng.randint(1, 3))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetricSpace(tuple(str(i) for i in range(n)), tuple(tuple(row) for row in d))


def _isometry_cases():
    rng = random.Random(13)
    for n in range(2, 7):
        for _ in range(4):
            yield random_ultrametric(n, rng.randrange(10**6))
    for n in range(3, 7):
        for _ in range(10):
            yield _graph_metric(n, rng)


def test_l1_isometry_matches_the_convex_hull_oracle():
    rng = random.Random(14)
    isometric_cases = 0
    for space in _isometry_cases():
        extreme, isometric = ell1._l1_isometry(space)
        assert list(extreme) == hull_extreme_pairs(space)
        assert isometric == (len(extreme) == len(space) - 1)
        if validate(space).is_ultrametric:
            assert len(extreme) == len(space) * (len(space) - 1) // 2
        if isometric:
            isometric_cases += 1
            for _ in range(5):
                a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in extreme]
                v = sum((c * molecule(space, x, y) for c, (x, y) in zip(a, extreme)), zero_vector(space))
                assert free_norm(space, v) == sum(abs(c) for c in a)
    assert isometric_cases >= 5


def test_l1_isometry_of_a_path_and_a_cycle():
    path = FiniteMetricSpace(("0", "1", "2"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    assert ell1._l1_isometry(path) == (((0, 1), (1, 2)), True)
    square = FiniteMetricSpace(("0", "1", "2", "3"), ((0, 1, 2, 1), (1, 0, 1, 2), (2, 1, 0, 1), (1, 2, 1, 0)))
    assert ell1._l1_isometry(square) == (((0, 1), (0, 3), (1, 2), (2, 3)), False)


def test_l1_isometry_rejects_a_non_metric():
    broken = FiniteMetricSpace(("0", "1", "2"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
    with pytest.raises(ValueError, match="needs a metric space"):
        ell1._l1_isometry(broken)


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        # the path 0 - 1 - 2: the pair (0, 2) has the witness 1
        ("_segment_witness", lambda d, x, y: x if d[x][y] == 2 else None,
         r"segment witness of the pair \(0, 2\) does not lie between them"),
        ("_segment_witness", lambda d, x, y: None, r"separating potential of the pair \(0, 2\) does not separate"),
        ("_separating_potential", lambda d, x, y: [d[y][u] + (u != x) for u in range(len(d))],
         r"separating potential of the pair \(0, 1\) is not d\(1, \.\) off 0"),
        # one above the detour 0 - 2 - 1 breaks the Lipschitz bound at (0, 2) by exactly 1
        ("_separating_potential", lambda d, x, y: [4 if u == x else d[y][u] for u in range(len(d))],
         r"separating potential of the pair \(0, 1\) is not 1-Lipschitz off the pair"),
        ("_separating_potential", lambda d, x, y: list(d[y]),
         r"separating potential of the pair \(0, 1\) does not separate its molecule"),
    ],
    ids=["witness-endpoint", "witness-missing", "potential-off-x", "potential-lipschitz", "potential-flat"],
)
def test_l1_isometry_names_the_pair_of_a_failed_certificate(monkeypatch, name, corrupt, message):
    monkeypatch.setattr(ell1, name, corrupt)
    path = FiniteMetricSpace(("0", "1", "2"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    with pytest.raises(CertificationError, match=message):
        ell1._l1_isometry(path)


def test_pipeline_triangle(triangle):
    report = pipeline(triangle)
    assert report.passed
    assert report.distortion == 1
    assert report.retraction_constant == 4
    assert report.projection_norm == 4
    assert report.basis_constant == 1
    assert report.l1_lower == Fraction(2, 3)


def test_pipeline_two_points():
    space = random_ultrametric(2, 5)
    report = pipeline(space)
    assert report.passed
    assert report.basis_constant == 1
    assert report.l1_lower == report.l1_upper == 1
    assert report.retraction_constant == 2


def test_pipeline_random():
    report = pipeline(random_ultrametric(6, 77))
    assert report.passed


def test_pipeline_rejects_one_point():
    space = FiniteMetricSpace(("0",), ((0,),))
    with pytest.raises(ValueError, match="pipeline needs at least two points"):
        pipeline(space)


def test_pipeline_rejects_non_ultrametric(collinear):
    with pytest.raises(ValueError):
        pipeline(collinear)
