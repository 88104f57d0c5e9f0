import random
from fractions import Fraction

import pytest

from ultrafree.chain import (
    basis_constant,
    basis_vectors,
    build_chain,
    expand_in_basis,
    projection_matrix,
    retraction_map,
    verify_chain,
    verify_projection_algebra,
)
from ultrafree.freespace import dirac, free_norm, lipschitz_constant, operator_norm_of_extension
from ultrafree.metric import random_ultrametric

from _oracles import molecule_operator_norm


def test_build_chain_triangle(triangle):
    chain = build_chain(triangle)
    # stage 2 keeps {0, x}: y is closer to x (1/2) than to 0 (1)
    assert chain.rank(2, 2) == 2
    assert triangle.labels[chain.retract(2, 2)] == "x"
    assert chain.nearest_distance(2, 2) == Fraction(1, 2)


def test_build_chain_tie_breaks_to_earliest(equilateral):
    chain = build_chain(equilateral)
    # all distances 1: y ties between 0 and x, earliest position wins
    assert chain.rank(2, 2) == 1
    assert chain.retract(2, 2) == 0


def test_final_stage_is_identity(triangle):
    chain = build_chain(triangle)
    n = len(triangle)
    assert all(chain.retract(n, x) == x for x in range(n))


def test_ordering_validation(triangle):
    with pytest.raises(ValueError):
        build_chain(triangle, (1, 0, 2))
    with pytest.raises(ValueError):
        build_chain(triangle, (0, 1))
    with pytest.raises(ValueError):
        build_chain(triangle, (0, 1, 1))


def test_verify_chain_random_campaign():
    rng = random.Random(11)
    for seed in range(15):
        n = rng.randint(3, 12)
        space = random_ultrametric(n, seed)
        rest = list(range(1, n))
        rng.shuffle(rest)
        chain = build_chain(space, (0, *rest))
        report = verify_chain(chain)
        assert report.passed, report


def test_verify_chain_collinear_exploratory(collinear):
    # ordering (0, point "2", point "1"): not ultrametric, so stage 2 tears
    # the pair (1, 2) apart; the report records it without raising
    chain = build_chain(collinear, (0, 2, 1))
    # tie at distance 1 between position 1 (coordinate 0) and position 2:
    # earliest position wins, so the middle point retracts to the base
    assert chain.retract(2, 1) == 0
    report = verify_chain(chain)
    assert not report.passed
    assert (2, 1, 2) in report.one_lipschitz


def test_projection_matrix_extremes(triangle):
    chain = build_chain(triangle)
    assert projection_matrix(chain, 3) == ((1, 0), (0, 1))
    assert projection_matrix(chain, 1) == ((0, 0), (0, 0))
    # stage 2 sends the evaluation of y to the evaluation of x
    assert projection_matrix(chain, 2) == ((1, 1), (0, 0))
    with pytest.raises(ValueError):
        projection_matrix(chain, 4)


def test_projection_algebra(triangle):
    chain = build_chain(triangle)
    report = verify_projection_algebra(chain, include_norms=True)
    assert report.passed
    for n in range(2, chain.size + 1):
        pm = retraction_map(chain, n)
        assert operator_norm_of_extension(pm) == molecule_operator_norm(pm) == lipschitz_constant(pm) == 1


def test_projection_algebra_random():
    for seed in range(10):
        chain = build_chain(random_ultrametric(10, 400 + seed))
        assert verify_projection_algebra(chain).passed


def test_basis_vectors_triangle(triangle):
    family = basis_vectors(build_chain(triangle))
    dx, dy = dirac(triangle, 1), dirac(triangle, 2)
    assert family.vectors == (dx, dy - dx)
    assert family.norms == (1, Fraction(1, 2))
    assert free_norm(triangle, family.vectors[1]) == Fraction(1, 2)


def test_expand_telescopes(triangle):
    family = basis_vectors(build_chain(triangle))
    assert expand_in_basis(family, dirac(triangle, 2)) == (1, 1)


def test_expand_requires_spanning(triangle):
    family = basis_vectors(build_chain(triangle))
    broken = type(family)(triangle, (family.vectors[0], family.vectors[0]), family.norms)
    with pytest.raises(ValueError):
        expand_in_basis(broken, dirac(triangle, 2))


def test_basis_constant_is_one(triangle):
    family = basis_vectors(build_chain(triangle))
    assert basis_constant(triangle, family) == 1


def test_basis_constant_certified_matches_fast_path():
    for seed in range(6):
        space = random_ultrametric(5, 300 + seed)
        family = basis_vectors(build_chain(space))
        assert basis_constant(space, family) == basis_constant(space, family, certified=True) == 1


def test_basis_constant_single_vector():
    space = random_ultrametric(2, 0)
    family = basis_vectors(build_chain(space))
    assert basis_constant(space, family) == 1


def test_basis_constant_can_exceed_one_without_ultrametricity(collinear):
    family = basis_vectors(build_chain(collinear, (0, 2, 1)))
    assert basis_constant(collinear, family) == 2


def test_reverse_commutation_holds():
    for seed in range(5):
        space = random_ultrametric(8, 500 + seed)
        report = verify_chain(build_chain(space))
        assert report.reverse_commutation == ()
