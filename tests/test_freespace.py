import random
from fractions import Fraction

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
from ultrafree.ell1 import tree_free_norm
from ultrafree.metric import CertificationError, FiniteMetricSpace, random_ultrametric, validate
from ultrafree.rtree import dendrogram
from ultrafree.simplex import LpResult

from _oracles import ball_transport_norm, dual_vertex_norm, lp_transport_norm, molecule_operator_norm


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


def _coprime_heights(count, rng):
    """Random heights with distinct prime denominators near 10^6."""
    return [Fraction(rng.randint(q, 8 * q), q) for q in rng.sample(_PRIMES_NEAR_A_MILLION, count)]


def _coprime_ultrametric(n, rng):
    """Random merge tree whose heights have distinct prime denominators near 10^6."""
    return _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: rng.sample(range(count), 2))


def _coprime_vector(n, rng):
    return FreeVector(tuple(
        Fraction(rng.randint(-10**6, 10**6), rng.choice(_PRIMES_NEAR_A_MILLION)) for _ in range(n - 1)
    ))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_large_coprime_denominators_match_the_edge_flows(seed):
    rng = random.Random(seed)
    space = _coprime_ultrametric(12, rng)
    tree = dendrogram(space)
    for v in (_coprime_vector(12, rng), molecule(space, *rng.sample(range(12), 2)) * rng.randint(1, 10**6)):
        cert = free_norm_certificate(space, v)
        # root-based node coordinates: leaf k is point k + 1, the base leaf carries -sum(v)
        coeffs = [-sum(v.coeffs)] + list(v.coeffs) + [Fraction(0)] * (len(tree.nodes) - 1 - len(space))
        assert cert.value == tree_free_norm(tree, FreeVector(tuple(coeffs)))
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


def test_lipschitz_constant_examples(triangle):
    identity = PointMap(triangle, triangle, (0, 1, 2))
    const = PointMap(triangle, triangle, (0, 0, 0))
    assert lipschitz_constant(identity) == 1
    assert lipschitz_constant(const) == 0
    r2 = retraction_map(build_chain(triangle), 2)
    assert lipschitz_constant(r2) == 1


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
        real = freespace.LipFunction
        monkeypatch.setattr(freespace, "LipFunction", lambda values: real(tuple(2 * x for x in values)))
        match = r"potential of pair \(0, 1\) is not 1-Lipschitz"
    with pytest.raises(CertificationError, match=match):
        operator_norm_of_extension(collapse)


def test_operator_norm_potential_must_attain(triangle, monkeypatch):
    collapse = PointMap(triangle, triangle, (0, 1, 1))
    real = freespace.LipFunction
    monkeypatch.setattr(freespace, "LipFunction", lambda values: real(tuple(x / 2 for x in values)))
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
    monkeypatch.setattr(freespace, "_sign_potential", lambda merges, masses: [0, Fraction(1, 2), Fraction(-1, 2)])
    with pytest.raises(CertificationError, match=r"not 1-Lipschitz on the pair \(1, 2\)"):
        free_norm(triangle, FreeVector((1, -1)))


def test_tree_route_names_both_optima(triangle, monkeypatch):
    # the detour x -> 0 -> y meets the coefficients at cost 2; the sign potential pairs to 1/2
    monkeypatch.setattr(freespace, "solve_lp", _no_lp)
    monkeypatch.setattr(
        freespace, "_lca_flow", lambda merges, masses: (Fraction(2), [(0, 2, Fraction(1)), (1, 0, Fraction(1))])
    )
    with pytest.raises(CertificationError, match=r"optima differ: 2 against 1/2"):
        free_norm(triangle, FreeVector((1, -1)))


@pytest.mark.parametrize(
    "flow, match",
    [
        ([(1, 2, Fraction(0))], r"arc \(1, 2\) carries 0"),
        ([(1, 2, Fraction(2))], r"leaves point 1 with 2, not 1"),
        ([(1, 2, Fraction(1))], r"flow costs 1/2, not the value 1"),
    ],
    ids=["amount", "divergence", "cost"],
)
def test_tree_route_checks_its_flow(triangle, monkeypatch, flow, match):
    monkeypatch.setattr(freespace, "_lca_flow", lambda merges, masses: (Fraction(1), flow))
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


def _stress_ultrametrics(rng):
    """Equal-height power-of-two ties, heights over primes near 10^6, caterpillars and stars, N = 2..12."""

    def pair(count):
        return rng.sample(range(count), 2)

    for n in range(2, 13):
        yield _merge_ultrametric([Fraction(2) ** rng.randint(-2, 2) for _ in range(n - 1)], pair)
        yield _coprime_ultrametric(n, rng)
        # each merge joins the next singleton to the growing cluster
        yield _merge_ultrametric(_coprime_heights(n - 1, rng), lambda count: (0, count - 1))
        yield _merge_ultrametric([Fraction(3, 2)] * (n - 1), pair)


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
        for v in _stress_vectors(space, rng):
            assert free_norm_certificate(space, v).value == lp_transport_norm(space, v)
            checked += 1
    assert calls == [] and checked == 132


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
