import dataclasses
import random
from fractions import Fraction

import pytest

from _oracles import orthant_l1_lower
from ultrafree import ell1
from ultrafree.chain import BasisFamily, basis_vectors, build_chain
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
from ultrafree.freespace import FreeNormCertificate, FreeVector, LipFunction, dirac, free_norm, lip_norm
from ultrafree.linalg import fraction_rank
from ultrafree.metric import CertificationError, FiniteMetricSpace, random_ultrametric, round_to_dyadic, validate
from ultrafree.rtree import dendrogram, rooted_node_space

H = Fraction(1, 2)


def test_tree_free_norm_four_cluster(four_cluster):
    tree = dendrogram(four_cluster)
    # coefficients indexed by tree nodes: leaves 0,a,b,c then the two
    # lower branching points; the root carries none
    v = FreeVector((0, 1, 1, 1, 0, 0))
    assert tree_free_norm(tree, v) == Fraction(3, 2)
    assert free_norm(rooted_node_space(tree), v) == Fraction(3, 2)


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
                assert cert.value == free_norm(ambient, v) == tree_free_norm(tree, v)
                # the edge-wise check covers every pair, so the full scan agrees
                assert lip_norm(ambient, cert.potential) <= 1


# four_cluster: node 1 is the leaf a, its parent node 4 the ball a@1/8 at distance 1/8
_LEAF_A = FreeVector((0, 1, 0, 0, 0, 0))
_EDGE_A = r"edge \(a, a@1/8\)"


def test_tree_certificate_rejects_a_wrong_edge_length(four_cluster, monkeypatch):
    real = ell1.edge_flow_coordinates

    def stretched(tree, v):
        coords = real(tree, v)
        lengths = list(coords.lengths)
        lengths[1] *= 2
        return ell1.EdgeFlowCoordinates(coords.masses, tuple(lengths))

    monkeypatch.setattr(ell1, "edge_flow_coordinates", stretched)
    with pytest.raises(CertificationError, match=_EDGE_A):
        tree_norm_certificate(dendrogram(four_cluster), _LEAF_A)


def _corrupt_solution(monkeypatch, change):
    real = ell1._edge_flow_solution
    monkeypatch.setattr(ell1, "_edge_flow_solution", lambda tree, v: change(real(tree, v)))


def test_tree_certificate_rejects_a_flipped_potential_sign(four_cluster, monkeypatch):
    def flip(cert):
        g = list(cert.potential.values)
        g[2] = 2 * g[5] - g[2]  # a (point 2) mirrored about its parent a@1/8 (point 5)
        return FreeNormCertificate(cert.value, cert.flow, LipFunction(tuple(g)))

    _corrupt_solution(monkeypatch, flip)
    with pytest.raises(CertificationError, match="potential does not drop by the length of " + _EDGE_A):
        tree_norm_certificate(dendrogram(four_cluster), _LEAF_A)


def test_tree_certificate_rejects_a_corrupted_flow(four_cluster, monkeypatch):
    def double(cert):
        flow = tuple((a, b, 2 * amount if (a, b) == (2, 5) else amount) for a, b, amount in cert.flow)
        return FreeNormCertificate(cert.value, flow, cert.potential)

    _corrupt_solution(monkeypatch, double)
    with pytest.raises(CertificationError, match="flow on " + _EDGE_A + " does not balance a"):
        tree_norm_certificate(dendrogram(four_cluster), _LEAF_A)


def test_tree_certificate_rejects_a_flow_off_the_tree(four_cluster, monkeypatch):
    def shortcut(cert):
        return FreeNormCertificate(cert.value, ((2, 0, Fraction(1)),), cert.potential)

    _corrupt_solution(monkeypatch, shortcut)
    with pytest.raises(CertificationError, match=r"flow arc \(a, 0@1/2\) is not a tree edge"):
        tree_norm_certificate(dendrogram(four_cluster), _LEAF_A)


def test_tree_certificate_recertifies_the_path_metric(four_cluster):
    tree = dendrogram(four_cluster)
    lengths = list(tree.edge_length)
    lengths[1] *= 2
    with pytest.raises(CertificationError, match="path metric disagrees"):
        tree_norm_certificate(dataclasses.replace(tree, edge_length=tuple(lengths)), _LEAF_A)


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


def test_pipeline_raises_on_a_failed_edge_flow_certificate(triangle, monkeypatch):
    real = ell1._edge_flow_solution

    def negated(tree, v):
        cert = real(tree, v)
        return FreeNormCertificate(cert.value, cert.flow, LipFunction(tuple(-g for g in cert.potential.values)))

    monkeypatch.setattr(ell1, "_edge_flow_solution", negated)
    with pytest.raises(CertificationError, match="potential does not drop"):
        pipeline(triangle)


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
        assert free_norm(triangle, small) == free_norm(ambient, big)


def test_edge_molecules_span_and_norm_one(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    assert len(family.vectors) == len(tree.nodes) - 1
    for vec in family.vectors:
        assert free_norm(family.space, vec) == 1


def test_edge_molecule_single_edge_homogeneity(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    c = Fraction(-7, 3)
    assert free_norm(family.space, c * family.vectors[0]) == abs(c)


def test_edge_molecule_isometry_all_ones(triangle):
    tree = dendrogram(triangle)
    family = edge_molecules(tree)
    total = family.vectors[0]
    for vec in family.vectors[1:]:
        total = total + vec
    assert free_norm(family.space, total) == len(family.vectors) == 4


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
    return cases


@pytest.mark.parametrize("space, family", _l1_cases())
def test_l1_lower_matches_orthant_oracle(space, family):
    constants = l1_equivalence_constants(space, family)
    assert constants.lower == orthant_l1_lower(space, family)
    assert constants.upper == 1


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


def test_l1_constants_reconstruction_is_checked(triangle, monkeypatch):
    family = basis_vectors(build_chain(triangle))
    real_expansions = ell1._molecule_expansions

    def shifted(space, fam):
        for i, j, coeffs in real_expansions(space, fam):
            yield i, j, [coeffs[0] + 1] + coeffs[1:]

    monkeypatch.setattr(ell1, "_molecule_expansions", shifted)
    with pytest.raises(CertificationError, match="reconstruct"):
        l1_equivalence_constants(triangle, family)


def test_three_point_space_validation():
    with pytest.raises(ValueError):
        three_point_space(Fraction(3, 2))
    with pytest.raises(ValueError):
        three_point_space(Fraction(0))
    assert validate(three_point_space(Fraction(1, 3))).is_ultrametric


def test_three_point_report_identities():
    report = three_point_report(Fraction(1, 2), resolution=16)
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
    report = three_point_report(s, resolution=16)
    for beta, value, _ in report.beta_norms:
        expected = beta * s + 1 - beta if beta <= 1 else s + beta - 1
        assert value == expected


def test_three_point_symmetric_case_bound_is_tight():
    report = three_point_report(Fraction(1), resolution=8)
    values = {beta: (value, bound) for beta, value, bound in report.beta_norms}
    assert values[Fraction(1)] == (1, 1)


def test_three_point_grid_positive_minimum():
    report = three_point_report(Fraction(1, 2), resolution=16)
    assert report.min_violation > 0


def test_three_point_names_the_failed_identity(monkeypatch):
    real = ell1.free_norm
    monkeypatch.setattr(ell1, "free_norm", lambda space, v: real(space, v) / 2 if v.coeffs == (1, -1) else real(space, v))
    with pytest.raises(CertificationError, match=r"identity failed: \|dx - dy\| is 1/4, not 1/2$"):
        three_point_report(Fraction(1, 2), resolution=4)


def test_three_point_rejects_bad_s():
    with pytest.raises(ValueError):
        three_point_report(Fraction(2))


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
