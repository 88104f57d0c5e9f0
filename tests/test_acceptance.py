"""Acceptance battery: every criterion is exact (zero tolerance).

Each test prints one PASS/FAIL line; run with ``pytest -s`` to stream them.
All assertions are equalities or strict inequalities between exact
rationals, so there are no tolerances to calibrate.
"""

import random
from fractions import Fraction

import pytest

from _oracles import molecule_operator_norm, orthant_l1_lower
from ultrafree.chain import (
    basis_constant,
    basis_vectors,
    build_chain,
    retraction_map,
    verify_chain,
    verify_projection_algebra,
)
from ultrafree.ell1 import (
    edge_molecule_isometry,
    oracle_vs_lp,
    pipeline,
    three_point_report,
)
from ultrafree.freespace import PointMap, lipschitz_constant, operator_norm_of_extension
from ultrafree.metric import (
    FiniteMetricSpace,
    bilipschitz_distortion,
    identity_distortion,
    random_ultrametric,
    round_to_dyadic,
    validate,
)
from ultrafree.rtree import (
    TreePoint,
    branching_points,
    dendrogram,
    four_point_check,
    node_space,
    retract_to_space,
    tree_distance,
    verify_retraction_claims,
    verify_segment_axioms,
)

CHAIN_SIZES = range(3, 13)
CHAIN_SEEDS = 100
CHAIN_ORDERINGS = 3


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {state}{suffix}")


def _orderings(n: int, seed: int):
    rng = random.Random(seed)
    for _ in range(CHAIN_ORDERINGS):
        rest = list(range(1, n))
        rng.shuffle(rest)
        yield (0, *rest)


@pytest.fixture(scope="module")
def chain_campaign():
    """Sizes 3..12, 100 seeds each, 3 random orderings per instance."""
    stats = {
        "instances": 0,
        "lipschitz": 0,
        "commutation": 0,
        "locality": 0,
        "algebra": 0,
        "constants": set(),
    }
    for n in CHAIN_SIZES:
        for seed in range(CHAIN_SEEDS):
            space = random_ultrametric(n, seed)
            for ordering in _orderings(n, 7919 * n + seed):
                chain = build_chain(space, ordering)
                report = verify_chain(chain)
                algebra = verify_projection_algebra(chain)
                stats["instances"] += 1
                stats["lipschitz"] += len(report.one_lipschitz)
                stats["commutation"] += len(report.commutation) + len(report.reverse_commutation)
                stats["locality"] += len(report.locality) + len(report.locality_distance)
                if not algebra.passed:
                    stats["algebra"] += 1
                stats["constants"].add(basis_constant(space, basis_vectors(chain)))
    return stats


def test_criterion_1_monotone_basis(chain_campaign):
    ok = (
        chain_campaign["instances"] == len(CHAIN_SIZES) * CHAIN_SEEDS * CHAIN_ORDERINGS
        and chain_campaign["lipschitz"] == 0
        and chain_campaign["commutation"] == 0
        and chain_campaign["algebra"] == 0
        and chain_campaign["constants"] == {Fraction(1)}
    )
    _report(
        "1 monotone-basis",
        ok,
        f"{chain_campaign['instances']} chain instances, basis constants "
        f"{sorted(map(str, chain_campaign['constants']))}",
    )
    assert ok


def test_criterion_2_locality(chain_campaign):
    ok = chain_campaign["locality"] == 0
    _report("2 nearest-index-locality", ok, f"{chain_campaign['instances']} instances scanned")
    assert ok


def test_criterion_3_dyadic_rounding():
    checked = 0
    ok = True
    for n in CHAIN_SIZES:
        for seed in range(CHAIN_SEEDS):
            space = random_ultrametric(n, seed)
            rounded = round_to_dyadic(space)
            report = validate(rounded)
            ok = ok and report.is_ultrametric and report.is_dyadic
            for i in range(n):
                for j in range(i + 1, n):
                    r, d = rounded.dist[i][j], space.dist[i][j]
                    ok = ok and r <= d < 2 * r
            ok = ok and round_to_dyadic(rounded) == rounded
            low, high = bilipschitz_distortion(space, rounded)
            ok = ok and high / low < 2 and identity_distortion(space, rounded) < 2
            checked += 1
    _report("3 dyadic-rounding", ok, f"{checked} spaces rounded")
    assert ok


def test_criterion_4_tree_embedding():
    isometry_ok = True
    four_point_ok = True
    segment_ok = True
    quadruples = 0
    for n in range(3, 9):
        for seed in range(2):
            space = round_to_dyadic(random_ultrametric(n, 1000 + seed))
            for i in range(n):
                for j in range(i + 1, n):
                    if tree_distance(space, TreePoint(i, 0), TreePoint(j, 0)) != space.dist[i][j]:
                        isometry_ok = False
            nodes = [TreePoint(i, 0) for i in range(n)] + branching_points(space)
            report = four_point_check(space, nodes)
            quadruples += report.checked
            four_point_ok = four_point_ok and report.passed
            segment_ok = segment_ok and verify_segment_axioms(space).passed
    ok = isometry_ok and four_point_ok and segment_ok
    _report("4 tree-embedding", ok, f"{quadruples} quadruples, grids with case switches")
    assert ok


def test_criterion_5_retraction_claims(triangle):
    ok = True
    worst = Fraction(0)
    for n in range(3, 9):
        for seed in range(6):
            space = round_to_dyadic(random_ultrametric(n, 2000 + seed))
            report = verify_retraction_claims(space)
            ok = ok and report.passed
            worst = max(worst, report.attained_constant)
    triangle_report = verify_retraction_claims(triangle)
    ok = ok and worst <= 4 and triangle_report.attained_constant == 4
    _report("5 retraction-claims", ok, f"max constant {worst}, documented instance attains 4")
    assert ok


def test_criterion_6_edge_flow_oracle():
    ok = True
    instances = 0
    for n, count in ((3, 30), (4, 30), (5, 25), (6, 15)):
        for seed in range(count):
            space = round_to_dyadic(random_ultrametric(n, 3000 + 31 * n + seed))
            tree = dendrogram(space)
            oracle = oracle_vs_lp(space, vectors=50, seed=seed)
            molecules = edge_molecule_isometry(tree, patterns=10, seed=seed)
            ok = ok and oracle.passed and molecules.passed
            instances += 1
    _report("6 edge-flow-oracle", ok, f"{instances} instances, >=50 vectors each")
    assert instances == 100
    assert ok


def _linearization_norm_ok(pm) -> bool:
    """The closed form, the molecule-LP definition and the Lipschitz constant agree."""
    return operator_norm_of_extension(pm) == molecule_operator_norm(pm) == lipschitz_constant(pm)


def test_criterion_7_linearization_norm():
    ok = True
    maps_checked = 0
    for n, seed in ((4, 0), (5, 1), (6, 2), (8, 3)):
        space = random_ultrametric(n, 4000 + seed)
        identity = PointMap(space, space, tuple(range(n)))
        const = PointMap(space, space, (0,) * n)
        for pm in (identity, const):
            ok = ok and _linearization_norm_ok(pm)
            maps_checked += 1
        chain = build_chain(space)
        for stage in range(1, n + 1):
            ok = ok and _linearization_norm_ok(retraction_map(chain, stage))
            maps_checked += 1
    for n, seed in ((4, 5), (5, 6)):
        rounded = round_to_dyadic(random_ultrametric(n, 4100 + seed))
        tree = dendrogram(rounded)
        ambient = node_space(tree)
        branching = branching_points(rounded)
        image = tuple(retract_to_space(rounded, node, branching) for node in tree.nodes)
        ok = ok and _linearization_norm_ok(PointMap(ambient, ambient, image))
        maps_checked += 1
        chain = build_chain(rounded)
        for stage in (2, n):
            composite = tuple(chain.retract(stage, point) for point in image)
            ok = ok and _linearization_norm_ok(PointMap(ambient, ambient, composite))
            maps_checked += 1
    _report("7 linearization-norm", ok, f"{maps_checked} point maps, closed form equals the molecule LPs")
    assert ok


def test_criterion_8_three_point_remark():
    ok = True
    extreme = []
    for s in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        report = three_point_report(s)
        ok = ok and (report.norm_x, report.norm_y) == (1, 1)
        ok = ok and report.norm_difference == s and report.norm_sum == 2
        for beta, value, bound in report.beta_norms:
            ok = ok and max(s, s * beta, s * (beta + 1) / 2) == bound <= value
        ok = ok and report.extreme_pairs == 3 and not report.l1_isometric
        extreme.append(report.extreme_pairs)
    _report("8 three-point-remark", ok, f"extreme pairs {extreme} > 2: not isometric to l1 (certified decision)")
    assert ok


# Primes just above 10^5: merge heights over different primes give large coprime denominators.
_PRIMES_NEAR_1E5 = tuple(p for p in range(100_003, 100_200, 2) if all(p % q for q in range(3, 317, 2)))


def _merge_space(heights, pick) -> FiniteMetricSpace:
    """The ultrametric of merging the clusters pick(count) at each height, in increasing order."""
    n = len(heights) + 1
    clusters = [[i] for i in range(n)]
    dist = [[Fraction(0)] * n for _ in range(n)]
    for h in sorted(heights):
        a, b = pick(len(clusters))
        for x in clusters[a]:
            for y in clusters[b]:
                dist[x][y] = dist[y][x] = h
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)] + [clusters[a] + clusters[b]]
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, dist)))


def _generated_spaces():
    """Stress shapes at N <= 12: equal-height ties, coprime heights, a caterpillar and a star."""
    rng = random.Random(5100)

    def random_pair(count):
        return rng.sample(range(count), 2)

    def coprime_heights(count):
        heights = set()
        while len(heights) < count:
            q = rng.choice(_PRIMES_NEAR_1E5)
            heights.add(Fraction(rng.randint(q, 8 * q), q))
        return list(heights)

    ties = [_merge_space([Fraction(2) ** rng.randint(-2, 2) for _ in range(n - 1)], random_pair) for n in (6, 9, 12)]
    coprime = [_merge_space(coprime_heights(n - 1), random_pair) for n in (5, 8, 11)]
    # each merge joins the next singleton to the growing cluster
    caterpillars = [_merge_space(coprime_heights(n - 1), lambda count: (0, count - 1)) for n in (7, 12)]
    stars = [_merge_space([Fraction(3, 2)] * (n - 1), random_pair) for n in (5, 12)]
    return ties + coprime + caterpillars + stars


def _power_of_two_caterpillar(n: int) -> FiniteMetricSpace:
    """Point k joins the cluster of 0..k-1 at height 2^k: a dendrogram of depth n, 2n - 1 nodes."""
    dist = tuple(tuple(Fraction(0) if i == j else Fraction(2) ** max(i, j) for j in range(n)) for i in range(n))
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), dist)


def test_criterion_9_pipeline():
    ok = True
    instances = 0
    sizes = [(n, seed) for n in range(3, 9) for seed in range(2)] + [(10, 0), (12, 0), (16, 0), (24, 0)]
    spaces = [random_ultrametric(n, 5000 + 7 * n + seed) for n, seed in sizes]
    spaces += _generated_spaces() + [_power_of_two_caterpillar(100)]
    for space in spaces:
        n = len(space)
        report = pipeline(space)
        ok = (
            ok
            and report.passed
            and report.distortion < 2
            and report.retraction_constant <= 4
            and report.projection_norm <= 4
            and report.basis_constant == 1
            and 0 < report.l1_lower <= 1
        )
        if n <= 8:
            rounded = round_to_dyadic(space)
            ok = (
                ok
                and report.l1_lower == orthant_l1_lower(space, basis_vectors(build_chain(space)))
                and oracle_vs_lp(rounded, vectors=25, seed=0).passed
            )
        instances += 1
    _report(
        "9 pipeline",
        ok,
        f"{instances} instances, N = 3..24 with ties, coprime heights, caterpillars and stars, and a "
        "power-of-two caterpillar at N = 100 (199 tree nodes); "
        "for N <= 8 the l1 lower constant equals the orthant LP and the edge flows match the LP",
    )
    assert ok
