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
from ultrafree.metric import CertificationError, FiniteMetricSpace, random_ultrametric
from ultrafree.rtree import dendrogram
from ultrafree.simplex import LpResult

from _oracles import dual_vertex_norm, molecule_operator_norm


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


def _coprime_ultrametric(n, rng):
    """Random merge tree whose heights have distinct prime denominators near 10^6."""
    primes = rng.sample(_PRIMES_NEAR_A_MILLION, n - 1)
    heights = sorted(Fraction(rng.randint(q, 8 * q), q) for q in primes)
    clusters = [[i] for i in range(n)]
    dist = [[Fraction(0)] * n for _ in range(n)]
    for h in heights:
        a, b = rng.sample(range(len(clusters)), 2)
        for x in clusters[a]:
            for y in clusters[b]:
                dist[x][y] = dist[y][x] = h
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)] + [clusters[a] + clusters[b]]
    return FiniteMetricSpace(tuple(str(i) for i in range(n)), tuple(map(tuple, dist)))


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


def test_free_norm_names_the_pair_breaking_lipschitz(triangle, monkeypatch):
    # within 1 of the base at both points, but 1 apart across the side of length 1/2
    _corrupt_dual(monkeypatch, lambda dual: (Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(CertificationError, match=r"not 1-Lipschitz on the pair \(1, 2\)"):
        free_norm(triangle, FreeVector((1, -1)))


def test_free_norm_names_both_optima(triangle, monkeypatch):
    # d(x, y) = 1/2: the optimal potential is (0, 1, 1/2), value 1/2; halving it keeps it 1-Lipschitz
    _corrupt_dual(monkeypatch, lambda dual: tuple(g / 2 for g in dual))
    with pytest.raises(CertificationError, match=r"optima differ: 1/2 against 1/4"):
        free_norm(triangle, FreeVector((1, -1)))
