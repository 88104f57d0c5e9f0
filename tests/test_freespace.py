import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ultrafree.freespace import (
    FreeVector,
    LipFunction,
    PointMap,
    dirac,
    free_norm,
    free_norm_certificate,
    lip_norm,
    lipschitz_constant,
    molecule,
    operator_norm_of_extension,
    push_forward,
    zero_vector,
)
from ultrafree import freespace
from ultrafree.chain import build_chain, retraction_map
from ultrafree.metric import (
    CertificationError,
    FiniteMetricSpace,
    _single_linkage,
    random_ultrametric,
    validate,
)
from ultrafree.simplex import LpResult

from _oracles import (
    ball_transport_norm,
    concat_lca_flow,
    dual_vertex_norm,
    fraction_certify_transport,
    fraction_lipschitz_witness,
    lp_transport_norm,
    molecule_operator_norm,
    scale_rows,
    sign_potential,
)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_lip_function_requires_zero_base():
    with pytest.raises(ValueError):
        LipFunction((1, 0, 0))


def test_lip_norm_examples(triangle):
    assert lip_norm(triangle, LipFunction((0, 1, 1))) == 1
    assert lip_norm(triangle, LipFunction((0, 1, 0))) == 2
    assert lip_norm(triangle, LipFunction((0, 0, 0))) == 0


def test_free_norm_three_point_identities(triangle):
    dx, dy = dirac(triangle, 1), dirac(triangle, 2)
    assert free_norm(triangle, dx - dy) == Fraction(1, 2)
    assert free_norm(triangle, dx + dy) == 2
    assert free_norm(triangle, dx) == 1
    assert free_norm(triangle, dy) == 1


def test_certificate_fields(triangle):
    dx, dy = dirac(triangle, 1), dirac(triangle, 2)
    cert = free_norm_certificate(triangle, dx - 2 * dy)
    assert cert.value == Fraction(3, 2)
    assert lip_norm(triangle, cert.potential) <= 1
    assert sum(c * g for c, g in zip((dx - 2 * dy).coeffs, cert.potential.values[1:])) == cert.value
    shipped = {}
    for i, j, amount in cert.flow:
        assert amount > 0
        shipped[i] = shipped.get(i, Fraction(0)) + amount
        shipped[j] = shipped.get(j, Fraction(0)) - amount
    assert shipped.get(1, Fraction(0)) == 1
    assert shipped.get(2, Fraction(0)) == -2


def test_zero_vector_norm(triangle):
    assert free_norm(triangle, zero_vector(triangle)) == 0


def test_molecule_requires_distinct(triangle):
    with pytest.raises(ValueError):
        molecule(triangle, 1, 1)


def test_molecule_coefficients(triangle):
    # normalized difference over the short side of length 1/2
    assert molecule(triangle, 1, 2).coeffs == (Fraction(2), Fraction(-2))
    assert molecule(triangle, 1, 0).coeffs == (Fraction(1), Fraction(0))


def test_molecule_norms_always_one():
    for seed in range(8):
        space = random_ultrametric(6, seed)
        for i in range(6):
            for j in range(i + 1, 6):
                assert free_norm(space, molecule(space, i, j)) == 1


def test_dirac_embedding_is_isometric():
    for seed in range(8):
        space = random_ultrametric(6, 100 + seed)
        for i in range(6):
            for j in range(i + 1, 6):
                v = dirac(space, i) - dirac(space, j)
                assert free_norm(space, v) == space.dist[i][j]


def test_against_vertex_enumeration_oracle():
    rng = random.Random(5)
    for seed in range(6):
        space = random_ultrametric(4, 50 + seed)
        for _ in range(4):
            v = FreeVector(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)))
            assert free_norm(space, v) == dual_vertex_norm(space, v)


_PRIMES_NEAR_A_MILLION = (
    999809, 999853, 999863, 999883, 999907, 999917, 999931,
    999953, 999959, 999961, 999979, 999983, 1000003, 1000033,
)


def _merge_ultrametric(heights, pick):
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
    return FiniteMetricSpace(tuple(str(i) for i in range(n)), tuple(map(tuple, dist)))


# for more than 14 heights: the primes in (10^6, 10^6 + 1000), by trial division up to 1000
_PRIMES_ABOVE_A_MILLION = tuple(p for p in range(1_000_003, 1_001_000, 2) if all(p % q for q in range(3, 1001, 2)))


def _coprime_heights(count, rng):
    """Random heights with distinct prime denominators near 10^6."""
    primes = _PRIMES_NEAR_A_MILLION if count <= len(_PRIMES_NEAR_A_MILLION) else _PRIMES_ABOVE_A_MILLION
    return [Fraction(rng.randint(q, 8 * q), q) for q in rng.sample(primes, count)]


def _coprime_ultrametric(n, rng):
    """Random merge tree whose heights have distinct prime denominators near 10^6."""
    return _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: rng.sample(range(count), 2))


def _coprime_vector(n, rng):
    return FreeVector(tuple(
        Fraction(rng.randint(-10**6, 10**6), rng.choice(_PRIMES_NEAR_A_MILLION)) for _ in range(n - 1)
    ))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_large_coprime_denominators_match_the_ball_reference(seed):
    rng = random.Random(seed)
    space = _coprime_ultrametric(12, rng)
    for v in (_coprime_vector(12, rng), molecule(space, *rng.sample(range(12), 2)) * rng.randint(1, 10**6)):
        cert = free_norm_certificate(space, v)
        assert cert.value == ball_transport_norm(space, v)
        assert lip_norm(space, cert.potential) <= 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
def test_large_coprime_denominators_match_the_dual_vertices(seed, n):
    rng = random.Random(seed)
    space = _coprime_ultrametric(n, rng)
    v = _coprime_vector(n, rng)
    assert free_norm(space, v) == dual_vertex_norm(space, v)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), coeffs=st.tuples(rationals, rationals, rationals, rationals), scale=rationals)
def test_norm_axioms(seed, coeffs, scale):
    space = random_ultrametric(5, seed)
    v = FreeVector(coeffs)
    assert free_norm(space, scale * v) == abs(scale) * free_norm(space, v)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    a=st.tuples(rationals, rationals, rationals, rationals),
    b=st.tuples(rationals, rationals, rationals, rationals),
)
def test_norm_triangle_inequality(seed, a, b):
    space = random_ultrametric(5, seed)
    va, vb = FreeVector(a), FreeVector(b)
    assert free_norm(space, va + vb) <= free_norm(space, va) + free_norm(space, vb)


def test_norm_dominates_every_feasible_potential(triangle):
    rng = random.Random(3)
    for _ in range(20):
        raw = LipFunction((0, Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-4, 4), 4)))
        c = lip_norm(triangle, raw)
        if c == 0:
            continue
        g = LipFunction(tuple(x / c for x in raw.values))
        v = FreeVector((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))))
        pairing = sum(cv * gv for cv, gv in zip(v.coeffs, g.values[1:]))
        assert abs(pairing) <= free_norm(triangle, v)


def test_point_map_validation(triangle):
    with pytest.raises(ValueError):
        PointMap(triangle, triangle, (1, 0, 2))  # base not fixed
    with pytest.raises(ValueError):
        PointMap(triangle, triangle, (0, 3, 1))  # out of range


def test_point_map_refuses_an_image_that_is_no_integer(triangle):
    # int() would truncate (0, 1.5, 2.9) to the image (0, 1, 2)
    with pytest.raises(TypeError, match=r"^expected an integer index, got float 1\.5$"):
        PointMap(triangle, triangle, (0, 1.5, 2.9))
    with pytest.raises(TypeError, match=r"^expected an integer index, got float 0\.0$"):
        PointMap(triangle, triangle, (0.0, 1, 2))
    assert PointMap(triangle, triangle, [0, 2, 1]).image == (0, 2, 1)


def test_lipschitz_constant_examples(triangle):
    identity = PointMap(triangle, triangle, (0, 1, 2))
    const = PointMap(triangle, triangle, (0, 0, 0))
    assert lipschitz_constant(identity) == 1
    assert lipschitz_constant(const) == 0
    r2 = retraction_map(build_chain(triangle), 2)
    assert lipschitz_constant(r2) == 1


def test_lipschitz_witness_matches_the_fraction_max():
    # ultrametrics full of ties and coprime-height ones, as domain and codomain, under random
    # base-preserving maps: the same constant and the same first maximizing pair, row by row
    rng = random.Random(14)
    checked = 0
    for n in range(1, 9):
        for _ in range(40):
            domain = random_ultrametric(n, rng.randrange(10**6)) if n > 1 else FiniteMetricSpace(("0",), ((0,),))
            codomain = rng.choice([domain, _coprime_ultrametric(rng.randint(2, 8), rng)])
            image = (0, *(rng.randrange(len(codomain)) for _ in range(n - 1)))
            point_map = PointMap(domain, codomain, image)
            assert freespace._lipschitz_witness(point_map) == fraction_lipschitz_witness(point_map)
            checked += 1
    assert checked == 320


@pytest.mark.parametrize("distance, shown", [(0, "0"), (-1, "-1")])
def test_lipschitz_constant_names_a_domain_distance_that_is_not_positive(distance, shown):
    # the constructor admits these distances; a ratio over them means nothing
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, distance), (1, distance, 0)))
    identity = PointMap(space, space, (0, 1, 2))
    message = rf"^the domain distance of the pair \(1, 2\) is {shown}, not positive$"
    for measure in (lipschitz_constant, operator_norm_of_extension):
        with pytest.raises(ValueError, match=message):
            measure(identity)


def test_lip_norm_matches_the_fraction_max():
    # random rational functions on tied, coprime, caterpillar, star and nested ultrametrics
    rng = random.Random(16)
    checked = 0
    for space in _stress_ultrametrics(rng):
        n = len(space)
        f = LipFunction((0, *(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7, 1009))) for _ in range(n - 1))))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert lip_norm(space, f) == max(abs(f.values[i] - f.values[j]) / space.dist[i][j] for i, j in pairs)
        checked += 1
    assert checked == 55


@pytest.mark.parametrize("distance, shown", [(0, "0"), (-1, "-1")])
def test_lip_norm_names_a_distance_that_is_not_positive(distance, shown):
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, distance), (1, distance, 0)))
    with pytest.raises(ValueError, match=rf"^the domain distance of the pair \(1, 2\) is {shown}, not positive$"):
        lip_norm(space, LipFunction((0, 1, 0)))


def test_push_forward_merges_coefficients(triangle):
    collapse = PointMap(triangle, triangle, (0, 1, 1))
    v = FreeVector((Fraction(2), Fraction(3)))
    assert push_forward(collapse, v).coeffs == (Fraction(5), Fraction(0))


def _operator_norms(pm):
    return operator_norm_of_extension(pm), molecule_operator_norm(pm), lipschitz_constant(pm)


def test_operator_norm_equals_lipschitz_constant(triangle):
    identity = PointMap(triangle, triangle, (0, 1, 2))
    const = PointMap(triangle, triangle, (0, 0, 0))
    assert _operator_norms(identity) == (1, 1, 1)
    assert _operator_norms(const) == (0, 0, 0)
    for n in (1, 2, 3):
        value, oracle, lipschitz = _operator_norms(retraction_map(build_chain(triangle), n))
        assert value == oracle == lipschitz


def test_operator_norm_on_random_retractions():
    for seed in range(4):
        space = random_ultrametric(5, 200 + seed)
        chain = build_chain(space)
        for n in range(2, 6):
            assert _operator_norms(retraction_map(chain, n)) == (1, 1, 1)


def test_operator_norm_one_point():
    space = FiniteMetricSpace(("0",), ((0,),))
    assert operator_norm_of_extension(PointMap(space, space, (0,))) == 0


@pytest.mark.parametrize("corrupt", ["image", "potential"])
def test_operator_norm_witness_is_checked(triangle, monkeypatch, corrupt):
    # the collapse y -> x attains Lip = 1 first at the pair (0, 1)
    collapse = PointMap(triangle, triangle, (0, 1, 1))
    if corrupt == "image":
        real = freespace.push_forward
        monkeypatch.setattr(freespace, "push_forward", lambda pm, v: 2 * real(pm, v))
        match = r"image of the molecule at pair \(0, 1\)"
    else:
        real = freespace._distance_potential
        monkeypatch.setattr(freespace, "_distance_potential", lambda d, target: [2 * x for x in real(d, target)])
        match = r"potential of pair \(0, 1\) is not 1-Lipschitz"
    with pytest.raises(CertificationError, match=match):
        operator_norm_of_extension(collapse)


def test_operator_norm_potential_must_attain(triangle, monkeypatch):
    collapse = PointMap(triangle, triangle, (0, 1, 1))
    real = freespace._distance_potential
    monkeypatch.setattr(freespace, "_distance_potential", lambda d, target: [Fraction(x, 2) for x in real(d, target)])
    with pytest.raises(CertificationError, match=r"pair \(0, 1\) does not attain"):
        operator_norm_of_extension(collapse)


def _corrupt_dual(monkeypatch, change):
    real = freespace.solve_lp

    def solve(*args, **kwargs):
        result = real(*args, **kwargs)
        return LpResult(result.x, result.value, change(result.dual))

    monkeypatch.setattr(freespace, "solve_lp", solve)


def test_free_norm_names_the_pair_breaking_lipschitz(lopsided, monkeypatch):
    # within 1 and 3/4 of the base, but 1 apart across the side of length 1/2
    _corrupt_dual(monkeypatch, lambda dual: (Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(CertificationError, match=r"not 1-Lipschitz on the pair \(1, 2\)"):
        free_norm(lopsided, FreeVector((1, -1)))


def test_free_norm_names_both_optima(lopsided, monkeypatch):
    # d(x, y) = 1/2: an optimal potential pairs to 1/2; halving it keeps it 1-Lipschitz
    _corrupt_dual(monkeypatch, lambda dual: tuple(g / 2 for g in dual))
    with pytest.raises(CertificationError, match=r"optima differ: 1/2 against 1/4"):
        free_norm(lopsided, FreeVector((1, -1)))


def _no_lp(*args, **kwargs):
    raise AssertionError("the simplex ran on an ultrametric")


def test_tree_route_names_the_pair_breaking_lipschitz(triangle, monkeypatch):
    monkeypatch.setattr(freespace, "solve_lp", _no_lp)
    # on the scale 2 of the triangle the potential is g / 4: the points get 0, 1/2 and -1/2
    monkeypatch.setattr(freespace, "_tree_transport", lambda edges, masses: (masses, [0, 2, -2, 0, 0]))
    with pytest.raises(CertificationError, match=r"not 1-Lipschitz on the pair \(1, 2\)"):
        free_norm(triangle, FreeVector((1, -1)))


def test_tree_route_names_both_optima(triangle, monkeypatch):
    # the detour x -> 0 -> y meets the coefficients at cost 2 (4 on the scale 2); the sign potential pairs to 1/2
    monkeypatch.setattr(freespace, "solve_lp", _no_lp)
    monkeypatch.setattr(freespace, "_lca_flow", lambda merges, masses: (4, [(0, 2, 1), (1, 0, 1)]))
    with pytest.raises(CertificationError, match=r"optima differ: 2 against 1/2"):
        free_norm(triangle, FreeVector((1, -1)))


@pytest.mark.parametrize(
    "flow, match",
    [
        ([(1, 2, 0)], r"arc \(1, 2\) carries 0"),
        ([(1, 2, 2)], r"leaves point 1 with 2, not 1"),
        ([(1, 2, 1)], r"flow costs 1/2, not the value 1"),
    ],
    ids=["amount", "divergence", "cost"],
)
def test_tree_route_checks_its_flow(triangle, monkeypatch, flow, match):
    # integer amounts for the unit 1 of (1, -1); the value 1 is 2 on the scale 2 of the triangle
    monkeypatch.setattr(freespace, "_lca_flow", lambda merges, masses: (2, flow))
    with pytest.raises(CertificationError, match=match):
        free_norm(triangle, FreeVector((1, -1)))


def _count_lp(monkeypatch):
    calls = []
    real = freespace.solve_lp

    def solve(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(freespace, "solve_lp", solve)
    return calls


def test_route_takes_the_tree_only_on_ultrametrics(four_cluster, monkeypatch):
    calls = _count_lp(monkeypatch)
    v = FreeVector((1, -2, Fraction(1, 3)))
    tree_value = free_norm(four_cluster, v)
    assert calls == []
    rows = [list(row) for row in four_cluster.dist]
    rows[3][1] = Fraction(1, 4)  # d(c, a) below d(a, c) = 1/2: asymmetric
    assert free_norm(FiniteMetricSpace(four_cluster.labels, tuple(map(tuple, rows))), v) == tree_value
    assert calls == [1]
    rows = [list(row) for row in four_cluster.dist]
    # d(b, c) = 5/8: a metric whose only defect is one cross pair of the merge at 1/2
    rows[2][3] = rows[3][2] = Fraction(5, 8)
    space = FiniteMetricSpace(four_cluster.labels, tuple(map(tuple, rows)))
    assert validate(space).is_metric and not validate(space).is_ultrametric
    assert free_norm(space, v) == dual_vertex_norm(space, v)
    assert calls == [1, 1]


def _stress_ultrametrics(rng, sizes=range(2, 13)):
    """Power-of-two ties, heights over primes near 10^6, caterpillars, stars and the nested space, N in sizes."""

    def pair(count):
        return rng.sample(range(count), 2)

    for n in sizes:
        yield _merge_ultrametric([Fraction(2) ** rng.randint(-2, 2) for _ in range(n - 1)], pair)
        yield _coprime_ultrametric(n, rng)
        # each merge joins the next singleton to the growing cluster
        yield _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: (0, count - 1))
        yield _merge_ultrametric([Fraction(3, 2)] * (n - 1), pair)
        yield _nested_ultrametric(n)


def _nested_ultrametric(n):
    """d(i, j) = 2^(n - min(i, j)): a caterpillar that the base joins last, each point nearest to every later one."""
    # point n - 2 joins n - 1 at height 4, then each earlier point joins the cluster of the later ones
    return _merge_ultrametric([Fraction(2) ** k for k in range(2, n + 1)], lambda count: (count - 2, count - 1))


def _stress_vectors(space, rng):
    """A random vector, a sum of scaled molecules and a Dirac."""
    n = len(space)
    yield _coprime_vector(n, rng)
    total = zero_vector(space)
    for _ in range(3):
        total = total + rng.randint(-7, 7) * molecule(space, *rng.sample(range(n), 2))
    yield total
    yield dirac(space, rng.randrange(1, n))


def test_tree_route_matches_the_lp_on_stress_ultrametrics(monkeypatch):
    rng = random.Random(7)
    calls = _count_lp(monkeypatch)
    checked = 0
    for space in _stress_ultrametrics(rng):
        # the merge heights are on the scale of the view; the oracle takes them as Fractions
        scale = scale_rows(space)[0]
        merges = [(Fraction(h, scale), a, b) for h, a, b in _single_linkage(space)]
        for v in _stress_vectors(space, rng):
            cert = free_norm_certificate(space, v)
            assert cert.value == lp_transport_norm(space, v)
            assert cert.potential.values == tuple(sign_potential(merges, (-sum(v.coeffs), *v.coeffs)))
            checked += 1
    assert calls == [] and checked == 165


@pytest.mark.parametrize("seed", [60, 61])
def test_free_norm_at_sixty_points(seed):
    space = random_ultrametric(60, seed)
    rng = random.Random(seed)
    for v in _stress_vectors(space, rng):
        assert free_norm(space, v) == ball_transport_norm(space, v)


def test_ball_reference_matches_the_lp():
    rng = random.Random(11)
    for space in _stress_ultrametrics(rng):
        if len(space) <= 8:
            v = _coprime_vector(len(space), rng)
            assert ball_transport_norm(space, v) == lp_transport_norm(space, v)


def _rational_graph_metric(n, rng):
    """Shortest paths of a complete graph whose weights have prime denominators near 10^6: mostly no ultrametric."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.choice(_PRIMES_NEAR_A_MILLION)
            d[i][j] = d[j][i] = Fraction(rng.randint(q, 4 * q), q)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetricSpace(tuple(str(i) for i in range(n)), tuple(map(tuple, d)))


def _first_arc_times(flow, factor):
    (i, j, amount), *rest = flow
    return [(i, j, factor * amount), *rest]


# each takes (space, value, flow, potential) and breaks exactly one check of an honest certificate
_CORRUPTIONS = {
    "zero arc": lambda space, value, flow, g: (value, _first_arc_times(flow, 0), g),
    "divergence": lambda space, value, flow, g: (value, _first_arc_times(flow, 2), g),
    "cost": lambda space, value, flow, g: (value + 1, flow, g),
    "base potential": lambda space, value, flow, g: (value, flow, [x + 1 for x in g]),
    "lipschitz": lambda space, value, flow, g: (value, flow, [g[0], g[1] + 3 * space.diameter(), *g[2:]]),
    "dual": lambda space, value, flow, g: (value, flow, [x / 2 for x in g]),
}


def _verdict(check, *args):
    try:
        check(*args)
    except CertificationError as exc:
        return str(exc)
    return None


def test_integer_check_matches_the_fraction_check():
    # both routes: stress ultrametrics (ties, primes near 10^6, caterpillars, stars) and rational graph metrics
    rng = random.Random(17)
    cases = [(space, v) for space in _stress_ultrametrics(rng, range(2, 9)) for v in _stress_vectors(space, rng)]
    cases += [(space, _coprime_vector(n, rng)) for n in range(3, 8) for space in [_rational_graph_metric(n, rng)] * 3]
    lp_route = 0
    for space, v in cases:
        if v.is_zero():
            continue
        cert = free_norm_certificate(space, v)
        lp_route += _single_linkage(space) is None
        honest = (cert.value, list(cert.flow), list(cert.potential.values))
        assert _verdict(fraction_certify_transport, space, v.coeffs, *honest) is None
        assert _verdict(freespace._certify_rational, space, v.coeffs, *honest) is None
        for name, corrupt in _CORRUPTIONS.items():
            corrupted = corrupt(space, *honest)
            expected = _verdict(fraction_certify_transport, space, v.coeffs, *corrupted)
            assert expected is not None, name
            assert _verdict(freespace._certify_rational, space, v.coeffs, *corrupted) == expected, name
    assert lp_route == 15


def _lipschitz_verdicts(space, potential, scale):
    """The merge check, the pairwise scan and the integer and Fraction certificates of ``potential`` / scale.

    The vector is zero and so is the flow, so only the Lipschitz check can fail.
    """
    q, d = freespace._integer_view(space)
    common = gcd(q, scale)
    p, s = q // common, scale // common
    merged = freespace._merges_lipschitz(freespace._transport_tree(space)[0], potential, p, s)
    pair = freespace._steep_pair(d, potential, p, s)
    assert merged == (pair is None)
    zeros = [0] * (len(space) - 1)
    verdict = _verdict(freespace._certify_transport, space, zeros, 1, 0, [], potential, scale)
    exact = [Fraction(x, scale) for x in potential]
    assert verdict == _verdict(fraction_certify_transport, space, zeros, Fraction(0), [], exact)
    return verdict


def test_merge_check_matches_the_pairwise_scan_on_every_small_potential():
    # every potential in -3..3 on the 3- and 4-point tied, coprime, caterpillar, star and nested spaces
    seen = set()
    checked = 0
    for space in _stress_ultrametrics(random.Random(19), range(3, 5)):
        q = freespace._integer_view(space)[0]
        for values in product(range(-3, 4), repeat=len(space) - 1):
            for scale in (1, 3, 2 * q):
                seen.add(_lipschitz_verdicts(space, [0, *values], scale))
                checked += 1
    assert checked == 3 * 5 * (7**2 + 7**3)
    assert None in seen and "dual potential is not 1-Lipschitz on the pair (0, 1)" in seen
    assert "dual potential is not 1-Lipschitz on the pair (2, 3)" in seen


def test_merge_check_matches_the_pairwise_scan_on_stress_ultrametrics():
    # honest, tight, random and corrupted potentials on every stress shape, N = 2..12
    rng = random.Random(37)
    passed = failed = 0
    for space in _stress_ultrametrics(rng):
        n = len(space)
        q, d = freespace._integer_view(space)
        top = max(max(row) for row in d)
        potentials = [(free_norm_certificate(space, v).potential.values, 2 * q) for v in _stress_vectors(space, rng)]
        potentials = [([x.numerator * (scale // x.denominator) for x in g], scale) for g, scale in potentials]
        target = rng.randrange(n)
        potentials.append(([row[target] - d[0][target] for row in d], q))
        potentials.append(([0, *(rng.randint(-top, top) for _ in range(n - 1))], q))
        for g, scale in list(potentials):
            for step in (1, -1, rng.randint(1, top), -rng.randint(1, top)):
                x = rng.randrange(1, n)
                potentials.append(([*g[:x], g[x] + step, *g[x + 1:]], scale))
        for g, scale in potentials:
            if _lipschitz_verdicts(space, g, scale) is None:
                passed += 1
            else:
                failed += 1
    assert passed > 300 and failed > 300 and passed + failed == 55 * 25


def test_lca_flow_matches_the_concatenating_matching():
    # arc for arc on every stress shape, and on one-signed mass over the nested spaces
    rng = random.Random(43)
    checked = 0
    spaces = [*_stress_ultrametrics(rng), _nested_ultrametric(200)]
    for space in spaces:
        n = len(space)
        merges = freespace._transport_tree(space)[0]
        for v in [*_stress_vectors(space, rng), FreeVector((1,) * (n - 1)), FreeVector((-1,) * (n - 1))]:
            unit = lcm(*(c.denominator for c in v.coeffs))
            coeffs = [c.numerator * (unit // c.denominator) for c in v.coeffs]
            masses = [-sum(coeffs), *coeffs]
            assert freespace._lca_flow(merges, masses) == concat_lca_flow(merges, masses)
            checked += 1
    assert checked == 56 * 5


def _count_pairwise_scans(monkeypatch):
    """Record the size of every space whose potential goes to the pairwise Lipschitz scan."""
    scans = []
    real = freespace._steep_pair
    monkeypatch.setattr(freespace, "_steep_pair", lambda d, g, p, s: scans.append(len(d)) or real(d, g, p, s))
    return scans


def test_tree_route_takes_no_pairwise_lipschitz_scan(monkeypatch):
    scans = _count_pairwise_scans(monkeypatch)
    rng = random.Random(53)
    nested = _nested_ultrametric(200)
    for v in (FreeVector((1,) * 199), _coprime_vector(200, rng), molecule(nested, 0, 199)):
        free_norm_certificate(nested, v)
    certified = 0
    for space in _stress_ultrametrics(rng):
        for v in _stress_vectors(space, rng):
            free_norm_certificate(space, v)
            certified += 1
    assert scans == [] and certified == 165
    # a graph metric takes the LP route, and one pairwise scan per certificate
    for n in (3, 4, 5, 6):
        space = _rational_graph_metric(n, rng)
        assert _single_linkage(space) is None
        for _ in range(2):
            free_norm_certificate(space, _coprime_vector(n, rng))
    assert scans == [3, 3, 4, 4, 5, 5, 6, 6]


def test_equal_spaces_give_the_same_certificate(lopsided):
    rng = random.Random(23)
    for space in [*_stress_ultrametrics(rng, range(2, 7)), lopsided]:
        twin = FiniteMetricSpace(space.labels, space.dist)
        for v in _stress_vectors(space, rng):
            first = repr(free_norm_certificate(space, v))
            assert repr(free_norm_certificate(twin, v)) == first
            assert repr(free_norm_certificate(space, v)) == first


def test_free_vector_arithmetic_parses_only_the_scalar(monkeypatch):
    v, w = FreeVector((1, "1/2", Fraction(-3))), FreeVector((0, 2, "7/3"))
    parsed = []
    real = freespace.parse_rational
    monkeypatch.setattr(freespace, "parse_rational", lambda x: parsed.append(x) or real(x))
    assert (v + w).coeffs == (1, Fraction(5, 2), Fraction(-2, 3))
    assert (v - w).coeffs == (1, Fraction(-3, 2), Fraction(-16, 3))
    assert (-v).coeffs == (-1, Fraction(-1, 2), 3)
    assert ("2/3" * v).coeffs == (Fraction(2, 3), Fraction(1, 3), -2)
    assert parsed == ["2/3"]
    with pytest.raises(TypeError, match="refusing float"):
        FreeVector((0.5, 1, 2))
    with pytest.raises(TypeError, match="refusing float"):
        0.5 * v
