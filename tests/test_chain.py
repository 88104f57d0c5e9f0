import itertools
import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from ultrafree import chain as chain_module
from ultrafree.chain import (
    BasisFamily,
    RetractionChain,
    _apply,
    _certified_chain,
    _family_inverse,
    _follows_merge_tree,
    _full_scan,
    _scan_chain,
    basis_constant,
    basis_vectors,
    build_chain,
    expand_in_basis,
    retraction_map,
    verify_chain,
    verify_projection_algebra,
)
from ultrafree.campaign import CampaignConfig, run_campaign
from ultrafree.cli import main
from ultrafree.ell1 import l1_equivalence_constants, pipeline
from ultrafree.freespace import FreeVector, dirac, free_norm, lipschitz_constant, molecule, operator_norm_of_extension
from ultrafree.metric import CertificationError, FiniteMetricSpace, _single_linkage, random_ultrametric, validate
from ultrafree.serialize import dump_json, space_to_json

from _oracles import (
    dirac_rows,
    fraction_ranks,
    maps_telescope,
    matrix_projection_algebra,
    molecule_operator_norm,
    orthant_l1_lower,
    projection_matrix,
    rows_telescope,
    scan_basis_constant,
    scan_projection_algebra,
    scan_verify_chain,
    solver_basis_constant,
)
from test_freespace import _nested_ultrametric, _stress_ultrametrics
from test_metric import _perturbed


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


@pytest.mark.parametrize(
    "ordering, ranks, message",
    [
        ((0, 1), ((1, 1), (1, 2)), "ordering must be a permutation of all point indices"),
        ((0, 2, 2), ((1, 1, 1), (1, 2, 2), (1, 2, 3)), "ordering must be a permutation of all point indices"),
        ((1, 0, 2), ((1, 1, 1), (1, 2, 2), (1, 2, 3)), "ordering must start at the base point"),
    ],
)
def test_a_bad_ordering_is_refused_by_the_chain(ordering, ranks, message):
    # the certificate read off the scan needs a permutation starting at the base
    space = random_ultrametric(3, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        RetractionChain(space, ordering, ranks)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_chain(space, ordering)
    assert RetractionChain(space, [0, 1, 2], build_chain(space).ranks) == build_chain(space)


def test_an_ordering_index_that_is_no_integer_is_refused(triangle):
    # int() would truncate (0, 2.7, 1.2) to the ordering (0, 2, 1)
    with pytest.raises(TypeError, match=r"^expected an integer index, got float 2\.7$"):
        build_chain(triangle, (0, 2.7, 1.2))
    with pytest.raises(TypeError, match=r"^expected an integer index, got float 2\.0$"):
        RetractionChain(triangle, (0, 2.0, 1), build_chain(triangle, (0, 2, 1)).ranks)
    assert build_chain(triangle, (0, 2, 1)).ordering == (0, 2, 1)


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


def test_expand_certifies_its_coefficients_by_reconstruction(triangle, monkeypatch):
    # a perturbed inverse gives coefficients whose combination misses v: the first point it misses is named
    family = basis_vectors(build_chain(triangle))
    real = chain_module.invert_matrix

    def perturbed(matrix):
        inverse = real(matrix)
        inverse[0][0] += 1
        return inverse

    monkeypatch.setattr(chain_module, "invert_matrix", perturbed)
    with pytest.raises(CertificationError, match=r"^the expansion in the family gives 2 at point 1, not 1$"):
        expand_in_basis(family, dirac(triangle, 1))


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
        assert basis_constant(space, family) == solver_basis_constant(family) == 1


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


def _shuffled_chain(space, rng):
    rest = list(range(1, len(space)))
    rng.shuffle(rest)
    return build_chain(space, (0, *rest))


def test_dirac_rows_match_the_family_inverse():
    # tied, coprime, caterpillar, star and nested spaces, N = 2..12, random orderings: every certified
    # chain's Dirac rows, and the molecule coefficients the l1 witness reads off them, are the inverse's
    rng = random.Random(23)
    checked = 0
    for space in _stress_ultrametrics(rng):
        chain = _shuffled_chain(space, rng)
        family = basis_vectors(chain)
        assert _certified_chain(space, family) is chain
        inverse = _family_inverse(family)
        n = len(space)
        rows = dirac_rows(chain)
        assert rows == [tuple(_apply(inverse, dirac(space, x).coeffs)) for x in range(n)]
        expected = [
            (i, j, _apply(inverse, molecule(space, i, j).coeffs)) for i in range(n) for j in range(i + 1, n)
        ]
        differences = [
            (i, j, [(a - b) / space.dist[i][j] for a, b in zip(rows[i], rows[j])])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert differences == expected
        checked += n + len(expected)
    assert checked == 1815


class InverseTaken(Exception):
    """Raised by the patched ``_family_inverse``: the general path was taken."""


def _rejects_inverse(monkeypatch):
    def refuse(family):
        raise InverseTaken

    monkeypatch.setattr(chain_module, "_family_inverse", refuse)


def test_chain_families_take_the_closed_form(monkeypatch):
    spaces = [random_ultrametric(n, 40 + n) for n in range(2, 8)]
    rng = random.Random(8)
    families = [basis_vectors(_shuffled_chain(space, rng)) for space in spaces]
    lowers = [orthant_l1_lower(space, family) for space, family in zip(spaces, families)]
    _rejects_inverse(monkeypatch)
    for space, family, lower in zip(spaces, families, lowers):
        assert basis_constant(space, family) == 1
        assert l1_equivalence_constants(space, family).lower == lower


def test_hand_built_families_take_the_inverse(triangle, monkeypatch):
    dx, dy = dirac(triangle, 1), dirac(triangle, 2)
    family = BasisFamily(triangle, (dx, dy), (Fraction(1), Fraction(1)))
    assert _certified_chain(triangle, family) is None
    _rejects_inverse(monkeypatch)
    with pytest.raises(InverseTaken):
        basis_constant(triangle, family)
    with pytest.raises(InverseTaken):
        l1_equivalence_constants(triangle, family)


def _rank_corruptions(chain):
    """(n, x, the chain with ranks[n - 1][x] changed) for every stage n, point x and other value in 1..N."""
    size = chain.size
    for n in range(1, size + 1):
        for x in range(size):
            for rank in range(1, size + 1):
                if rank != chain.ranks[n - 1][x]:
                    yield n, x, _with_rows(chain, [(n, x, rank)])


def _certified(chain):
    """Whether :func:`_certified_chain` certifies the chain on its own family, off the chain's scan."""
    return _certified_chain(chain.space, basis_vectors(chain)) is chain


def test_telescoping_rejects_every_corrupted_entry():
    # the rows check rejects every flipped Dirac row entry, and the scan's certificate gives the
    # verdict of the maps and rows checks on every single-entry rank corruption
    rng = random.Random(31)
    verdicts = []
    for n in (2, 5, 8):
        chain = _shuffled_chain(random_ultrametric(n, 70 + n), rng)
        rows = dirac_rows(chain)
        assert _certified(chain) and maps_telescope(chain) and rows_telescope(chain, rows)
        for x in range(n):
            for k in range(n - 1):
                bad = list(rows)
                bad[x] = rows[x][:k] + (1 - rows[x][k],) + rows[x][k + 1:]
                assert not rows_telescope(chain, bad)
        for stage, x, corrupted in _rank_corruptions(chain):
            verdicts.append(_certified(corrupted))
            assert verdicts[-1] == maps_telescope(corrupted) == rows_telescope(corrupted, dirac_rows(corrupted))
            # only a new anchor for the point added at stage + 1 can pass: it telescopes on another anchor tree
            assert not verdicts[-1] or (stage < n and x == chain.ordering[stage])
    assert (len(verdicts), sum(verdicts)) == (4 + 100 + 448, 4)


def test_the_scan_certifies_every_two_and_three_point_table():
    # every rank table with entries in 1..N: the certificate read off the scan and the rank
    # bound gives the maps check's and the rows check's verdict; one table per stage-2 choice
    # of the third point telescopes on three points, and only the nearest-point table on two.
    # Only the nearest-point table of each space follows the merge-tree rule, and every table
    # gets the full scan's and the exhaustive scans' report, constant and rank bound
    spaces = random_ultrametric(2, 1), random_ultrametric(3, 1)
    verdicts, followed = [], []
    for space in spaces:
        n = len(space)
        for entries in itertools.product(range(1, n + 1), repeat=n * n):
            chain = RetractionChain(space, tuple(range(n)), tuple(zip(*[iter(entries)] * n)))
            verdicts.append(_certified(chain))
            assert verdicts[-1] == maps_telescope(chain) == rows_telescope(chain, dirac_rows(chain))
            assert _scan_chain(chain) == _full_scan(chain) == _scan_oracles(chain)
            if _follows_merge_tree(chain):
                followed.append(chain)
    assert (len(verdicts), sum(verdicts)) == (16 + 19683, 1 + 2)
    assert followed == [build_chain(space) for space in spaces]


def test_corrupted_rows_fall_back_to_the_inverse(monkeypatch):
    space = random_ultrametric(7, 12)
    ordering = (0, 3, 1, 6, 2, 5, 4)
    chain = build_chain(space, ordering)
    family = basis_vectors(chain)
    expected = basis_constant(space, family), l1_equivalence_constants(space, family).lower
    # stage 2 sends its kept point 3 to the base, which flips the first Dirac coordinate of 3;
    # no anchor reads that entry, so the corrupted chain has the same family and fails the check
    corrupted = _with_rows(chain, [(2, 3, 1)])
    assert chain.ranks[1][3] == 2 and dirac_rows(corrupted)[3][0] == 1 - dirac_rows(chain)[3][0]
    inversions = _counted_inversions(monkeypatch)
    family = basis_vectors(corrupted)
    assert family == basis_vectors(chain) and not maps_telescope(corrupted)
    assert verify_chain(corrupted).fixed_points == ((2, 3),) and _certified_chain(space, family) is None
    assert (basis_constant(space, family), l1_equivalence_constants(space, family).lower) == expected
    assert len(inversions) == 2


def test_collinear_chain_telescopes(collinear, monkeypatch):
    # stage 2 keeps {0, "2"} and sends "1" to the base, so e_2 = delta_"1":
    # the rows telescope, and the closed form reads d(0, "2") / d("1", "2")
    chain = build_chain(collinear, (0, 2, 1))
    family = basis_vectors(chain)
    assert _certified_chain(collinear, family) is chain and maps_telescope(chain)
    assert dirac_rows(chain) == [(0, 0), (0, 1), (1, 0)] and rows_telescope(chain, dirac_rows(chain))
    # the chain fails other identities, which the certificate does not read
    assert not verify_chain(chain).passed
    _rejects_inverse(monkeypatch)
    assert basis_constant(collinear, family) == 2


def _tangled_chain():
    """A non-ultrametric five-point chain whose stages 2, 3 and 4 do not commute."""
    q = Fraction
    rows = (
        (0, 2, 2, q(7, 4), 2),
        (2, 0, q(5, 4), q(3, 2), 1),
        (2, q(5, 4), 0, q(3, 2), 2),
        (q(7, 4), q(3, 2), q(3, 2), 0, q(5, 4)),
        (2, 1, 2, q(5, 4), 0),
    )
    return build_chain(FiniteMetricSpace(tuple(map(str, range(5))), rows), (0, 2, 1, 4, 3))


def test_non_commuting_chain_fails_the_telescoping():
    chain = _tangled_chain()
    family = basis_vectors(chain)
    assert not maps_telescope(chain) and not rows_telescope(chain, dirac_rows(chain))
    assert verify_chain(chain).commutation and _certified_chain(chain.space, family) is None
    assert basis_constant(chain.space, family) == solver_basis_constant(family) > 1


def _corrupted_table(chain):
    """The chain with its stage-3 row sending the third ordered point to the base."""
    ranks = list(chain.ranks)
    row = list(ranks[2])
    row[chain.ordering[2]] = 1
    ranks[2] = tuple(row)
    return RetractionChain(chain.space, chain.ordering, tuple(ranks))


def test_projection_algebra_matches_the_matrix_oracle():
    rng = random.Random(19)
    failing = 0
    for trial in range(60):
        n = rng.randint(2, 9)
        if trial % 2:
            space = random_ultrametric(n, 600 + trial)
        else:
            dist = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = dist[j][i] = Fraction(rng.randint(4, 8), 4)
            space = FiniteMetricSpace(tuple(map(str, range(n))), tuple(map(tuple, dist)))
        chain = _shuffled_chain(space, rng)
        chains = [chain, _corrupted_table(chain)] if n >= 3 else [chain]
        for candidate in chains:
            report = verify_projection_algebra(candidate)
            assert report == matrix_projection_algebra(candidate)
            failing += not report.passed
    assert failing > 0


def test_projection_algebra_min_rule_fails_off_ultrametrics():
    chain = _tangled_chain()
    report = verify_projection_algebra(chain)
    assert report.min_rule == ((2, 3), (2, 4), (3, 4)) and report.rank_failures == ()
    assert report == matrix_projection_algebra(chain)
    broken = _corrupted_table(build_chain(random_ultrametric(5, 2)))
    assert verify_projection_algebra(broken).rank_failures == (3,)
    assert verify_projection_algebra(broken) == matrix_projection_algebra(broken)


def _count_min_rule_scans(monkeypatch):
    """Record the stage count of every full min-rule scan that verification falls back to."""
    scans = []
    real = chain_module._min_rule_scan
    monkeypatch.setattr(chain_module, "_min_rule_scan", lambda maps: scans.append(len(maps)) or real(maps))
    return scans


def _broken_identities(chain):
    """Which of r_n r_{n+1} = r_n ("A"), r_{n+1} r_n = r_n ("B") and r_n r_n = r_n ("I") fail somewhere."""
    maps = [[0] + [chain.ordering[row[x] - 1] for x in range(1, chain.size)] for row in chain.ranks]
    broken = set()
    for now, nxt in zip(maps, maps[1:] + [None]):
        for x in range(1, chain.size):
            if now[now[x]] != now[x]:
                broken.add("I")
            if nxt and now[nxt[x]] != now[x]:
                broken.add("A")
            if nxt and nxt[now[x]] != now[x]:
                broken.add("B")
    return frozenset(broken)


def test_every_single_entry_corruption_matches_both_oracles(monkeypatch):
    # every stage, point and new image of chains on N = 6 points: the adjacent
    # certificate passes exactly when no adjacent identity or idempotence fails, and
    # otherwise the fallback scan gives the report of both oracles
    scans = _count_min_rule_scans(monkeypatch)
    seen = set()
    for seed in range(3):
        chain = build_chain(random_ultrametric(6, seed))
        for n in range(1, 7):
            for x in range(1, 6):
                for y in range(6):
                    ranks = [list(row) for row in chain.ranks]
                    ranks[n - 1][x] = chain.ordering.index(y) + 1
                    corrupted = RetractionChain(chain.space, chain.ordering, tuple(map(tuple, ranks)))
                    broken = _broken_identities(corrupted)
                    before = len(scans)
                    report = verify_projection_algebra(corrupted)
                    assert report == scan_projection_algebra(corrupted) == matrix_projection_algebra(corrupted)
                    assert len(scans) - before == bool(broken)
                    assert bool(report.min_rule) == bool(broken)
                    seen.add(broken)
    # each identity is broken alone by some corruption, and each alone reaches the fallback
    assert {frozenset("A"), frozenset("B"), frozenset("I")} <= seen


def test_no_min_rule_scan_on_ultrametric_input(monkeypatch, tmp_path):
    scans = _count_min_rule_scans(monkeypatch)
    out = tmp_path / "campaign.json"
    assert main(["--out", str(out), "campaign", "--sizes", "3-12", "--stages", "basis"]) == 0
    assert len(json.loads(out.read_text())["instances"]) == 50
    for space in _stress_ultrametrics(random.Random(23)):
        assert verify_projection_algebra(_shuffled_chain(space, random.Random(len(space)))).passed
    assert scans == []


def _count_full_scans(monkeypatch):
    """Record the size of every chain that the scan sends to the full scan."""
    scans = []
    real = chain_module._full_scan
    monkeypatch.setattr(chain_module, "_full_scan", lambda chain: scans.append(chain.size) or real(chain))
    return scans


def test_no_full_scan_on_ultrametric_input(monkeypatch, tmp_path, capsys):
    scans = _count_full_scans(monkeypatch)
    out = tmp_path / "campaign.json"
    assert main(["--out", str(out), "campaign", "--sizes", "3-12", "--stages", "basis"]) == 0
    assert len(json.loads(out.read_text())["instances"]) == 50
    path = tmp_path / "space.json"
    for space in _stress_ultrametrics(random.Random(23)):
        assert pipeline(space).passed
        dump_json(space_to_json(space), path)
        assert main(["basis", str(path)]) == 0 and main(["basis", str(path), "--shuffle"]) == 0
    capsys.readouterr()
    assert scans == []
    # a space that is no ultrametric and a hand-built table do take it
    space = random_ultrametric(6, 4)
    twisted = FiniteMetricSpace(space.labels, tuple(
        tuple(h * 4 if {x, y} == {1, 2} else h for y, h in enumerate(row)) for x, row in enumerate(space.dist)
    ))
    chain = build_chain(twisted)
    assert not validate(twisted).is_ultrametric and verify_chain(chain) == scan_verify_chain(chain)
    chain = build_chain(space)
    assert not verify_chain(_with_rows(chain, [(2, chain.ordering[1], 1)])).passed
    assert scans == [6, 6]


def test_pipeline_on_the_nested_space_takes_no_full_scan(monkeypatch):
    # each added point is strictly nearest to every later point, so every later point
    # changes rank at every stage; the rule still reads the table in O(N^2)
    scans = _count_full_scans(monkeypatch)
    report = pipeline(_nested_ultrametric(200))
    assert report.passed and report.basis_constant == 1 and scans == []


def test_build_chain_matches_the_fraction_ranks():
    # tied, coprime, caterpillar, star and nested ultrametrics, and each with one pair's
    # distance scaled, which makes metrics that are no ultrametric and non-metrics
    rng = random.Random(29)
    for space in _stress_ultrametrics(rng, range(2, 16)):
        for s in (space, _perturbed(space, rng)):
            ordering = (0, *rng.sample(range(1, len(s)), len(s) - 1))
            for order in (tuple(range(len(s))), ordering):
                assert build_chain(s, order).ranks == fraction_ranks(s, order)


def _scan_oracles(chain):
    """The report, the constant and the rank bound of the exhaustive scans, stage by stage."""
    ranked = all(max(row) <= n for n, row in enumerate(chain.ranks, 1))
    return scan_verify_chain(chain), scan_basis_constant(chain), ranked


def test_one_scan_matches_the_fraction_scans():
    # tied, coprime, caterpillar, star and nested ultrametrics for N = 2..40, and each with one
    # pair's distance scaled, under the input ordering and a random one: witnesses,
    # their order and the closed-form constant must be the exhaustive scans'
    rng = random.Random(41)
    outcomes = set()
    for space in _stress_ultrametrics(rng, range(2, 41)):
        for s in (space, _perturbed(space, rng)):
            for chain in (build_chain(s), _shuffled_chain(s, rng)):
                expected = _scan_oracles(chain)
                assert _scan_chain(chain) == expected
                assert verify_chain(chain) == expected[0] and expected[2]
                outcomes.add((expected[0].passed, expected[1] == 1))
    assert outcomes == {(True, True), (False, True), (False, False)}


def _with_rows(chain, changes):
    """The chain with ranks[n - 1][x] set to rank for every (n, x, rank) in changes."""
    ranks = [list(row) for row in chain.ranks]
    for n, x, rank in changes:
        ranks[n - 1][x] = rank
    return RetractionChain(chain.space, chain.ordering, tuple(map(tuple, ranks)))


def _hand_built_tables(chain, rng):
    """Corrupted rank tables: a kept point not fixed, a stage-1 row off the base,
    a rank that changes and changes back, and a rank that decreases."""
    size, order = chain.size, chain.ordering
    for _ in range(3):
        n = rng.randrange(2, size + 1)
        k = rng.randrange(1, n)
        yield _with_rows(chain, [(n, order[k], rng.randrange(1, k + 1))])
        yield _with_rows(chain, [(1, rng.randrange(size), rng.randrange(2, size + 1))])
        x, m = rng.randrange(size), rng.randrange(2, size)
        yield _with_rows(chain, [(m, x, rng.randrange(1, m + 1))])
        x, m = rng.randrange(size), rng.randrange(1, size - 1)
        # above the next stage's entry, which is at most m + 1 < size
        yield _with_rows(chain, [(m, x, rng.randrange(chain.ranks[m][x] + 1, size + 1))])


def test_one_scan_matches_the_fraction_scans_on_hand_built_tables():
    rng = random.Random(47)
    failing = constants = unranked = 0
    for trial in range(40):
        n = rng.randint(3, 12)
        space = random_ultrametric(n, 800 + trial)
        if trial % 2:
            space = _perturbed(space, rng)
        for table in _hand_built_tables(_shuffled_chain(space, rng), rng):
            expected = _scan_oracles(table)
            assert _scan_chain(table) == expected
            failing += not expected[0].passed
            constants += expected[1] != 1
            unranked += not expected[2]
    assert failing > 400 and constants > 200 and unranked > 50


def test_the_rule_matches_the_full_scan_on_every_ordering():
    # every ordering of the stress spaces for N = 2..6, and of each with one pair's distance
    # scaled: the nearest-point table follows the merge-tree rule exactly on an ultrametric,
    # and the scan's report, constant and rank bound are the full scan's and the exhaustive scans'
    rng = random.Random(53)
    outcomes = set()
    for space in _stress_ultrametrics(rng, range(2, 7)):
        for s in (space, _perturbed(space, rng)):
            ultrametric = validate(s).is_ultrametric
            for rest in itertools.permutations(range(1, len(s))):
                chain = build_chain(s, (0, *rest))
                assert _follows_merge_tree(chain) == ultrametric
                expected = _scan_oracles(chain)
                assert _scan_chain(chain) == _full_scan(chain) == expected
                outcomes.add((ultrametric, expected[0].passed, expected[1] == 1))
    assert outcomes == {(True, True, True), (False, True, True), (False, False, True), (False, False, False)}


def test_the_rule_contracts_tied_merges(monkeypatch):
    # a, b and c pairwise at 1 and each at 2 from the base, under the ordering (0, c, b, a): at
    # stage 3 a ties between c and b and goes to c, the earlier.  The binary merges join a and b
    # first, so a rule read off them would send a to b and this table to the full scan
    space = FiniteMetricSpace(("0", "a", "b", "c"), ((0, 2, 2, 2), (2, 0, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)))
    assert [merge[1:] for merge in _single_linkage(space)] == [(1, 2), (4, 3), (0, 5)]
    chain = build_chain(space, (0, 3, 2, 1))
    assert chain.rank(3, 1) == 2 and chain.retract(3, 1) == 3
    scans = _count_full_scans(monkeypatch)
    assert _follows_merge_tree(chain) and _scan_chain(chain) == _scan_oracles(chain)
    assert _scan_chain(chain)[0].passed and scans == []
    binary = _with_rows(chain, [(3, 1, 3)])
    assert not _follows_merge_tree(binary) and _scan_chain(binary) == _scan_oracles(binary)
    assert scans == [4]


def test_stage_one_values_carried_into_stage_two_count():
    # y is sent to the point added at stage 2 by the stage-1 and stage-2 rows alike, so
    # the ratio of the pair (x, y) above 1 is held at stage 2 and counts; sent there by
    # the stage-1 row alone, it is held at stage 1 only, which the constant skips
    space = random_ultrametric(9, 3)
    chain = build_chain(space, (0, 5, 1, 2, 3, 4, 6, 7, 8))
    second = chain.ordering[1]
    stays = [p for p in range(1, 9) if p != second and chain.ranks[1][p] == 1]
    x, y = min(((x, y) for x in stays for y in stays if x < y), key=lambda pair: space.dist[pair[0]][pair[1]])
    carried = _with_rows(chain, [(1, y, 2), (2, y, 2)])
    assert _scan_chain(carried)[1] == scan_basis_constant(carried) == space.dist[0][second] / space.dist[x][y] > 1
    dropped = _with_rows(chain, [(1, y, 2)])
    assert not _scan_chain(dropped)[0].passed
    assert _scan_chain(dropped)[1] == scan_basis_constant(dropped) == 1


@pytest.mark.parametrize("shuffle_seed", [None, 1, 2])
def test_chain_at_two_hundred_points(shuffle_seed):
    space = random_ultrametric(200, 5)
    if shuffle_seed is None:
        chain = build_chain(space)
    else:
        chain = _shuffled_chain(space, random.Random(shuffle_seed))
    assert verify_chain(chain).passed
    assert basis_constant(space, basis_vectors(chain)) == 1


def test_zero_distance_keeps_the_report_and_refuses_the_constant():
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, 0), (1, 0, 0)))
    chain = build_chain(space)
    assert verify_chain(chain) == scan_verify_chain(chain)
    assert _scan_chain(chain)[1] is None
    with pytest.raises(ZeroDivisionError):
        basis_constant(space, basis_vectors(chain))


def test_a_nonzero_diagonal_keeps_the_full_scan():
    # the merges read only the distances between distinct points; d(x, x) = 3 makes the
    # rule's own table fail the 1-Lipschitz check at stage 2, which the full scan reports
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 2, 2), (2, 3, 1), (2, 1, 0)))
    chain = RetractionChain(space, (0, 1, 2), ((1, 1, 1), (1, 2, 2), (1, 2, 3)))
    assert _single_linkage(space) is not None and not _follows_merge_tree(chain)
    assert _scan_chain(chain) == _scan_oracles(chain) and (2, 1, 2) in verify_chain(chain).one_lipschitz


def _count_chain_readings(monkeypatch):
    """Record every chain that is scanned; the scan is the chain's only certificate."""
    scanned = []
    real_scan = chain_module._scan_chain
    monkeypatch.setattr(chain_module, "_scan_chain", lambda chain: scanned.append(chain) or real_scan(chain))
    return scanned


def _orderings(scanned):
    """The orderings of the scanned chains, each of which keeps its scan and no other verdict."""
    assert all("_scan" in vars(chain) and "_telescoped" not in vars(chain) for chain in scanned)
    return [chain.ordering for chain in scanned]


def test_each_chain_is_scanned_and_certified_once(tmp_path, monkeypatch, capsys):
    scanned = _count_chain_readings(monkeypatch)
    space = random_ultrametric(6, 4)
    chain = build_chain(space, (0, 2, 1, 3, 5, 4))
    family = basis_vectors(chain)
    assert verify_chain(chain).passed and verify_chain(chain).passed
    assert basis_constant(space, family) == basis_constant(space, basis_vectors(chain)) == 1
    assert l1_equivalence_constants(space, family) == l1_equivalence_constants(space, basis_vectors(chain))
    assert _orderings(scanned) == [chain.ordering] and scanned[0] is chain
    scanned.clear()
    # the certificate alone scans too, once
    other = build_chain(space, (0, 1, 3, 2, 4, 5))
    assert _certified_chain(space, basis_vectors(other)) is other and _orderings(scanned) == [other.ordering]
    assert basis_constant(space, basis_vectors(other)) == 1 and len(scanned) == 1
    scanned.clear()
    path = tmp_path / "space.json"
    dump_json(space_to_json(space), path)
    assert main(["basis", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["basis_constant"] == "1"
    assert _orderings(scanned) == [tuple(range(6))]
    scanned.clear()
    assert run_campaign(CampaignConfig(sizes=(5,), seeds=1, stages=("validate", "basis", "embed"))).passed
    orderings = _orderings(scanned)
    assert len(orderings) == 2 and orderings[0] == tuple(range(5)) != orderings[1]
    scanned.clear()
    assert pipeline(space).passed
    assert _orderings(scanned) == [tuple(range(6))]


def _counted_inversions(monkeypatch):
    inversions = []
    real_inverse = chain_module._family_inverse
    monkeypatch.setattr(chain_module, "_family_inverse", lambda fam: inversions.append(1) or real_inverse(fam))
    return inversions


def test_a_hand_built_copy_of_a_chain_family_is_inverted_to_the_same_values(monkeypatch):
    rng = random.Random(37)
    inversions = _counted_inversions(monkeypatch)
    for n in range(2, 9):
        space = random_ultrametric(n, 90 + n)
        family = basis_vectors(_shuffled_chain(space, rng))
        expected = basis_constant(space, family), l1_equivalence_constants(space, family)
        assert inversions == []
        copy = BasisFamily(family.space, family.vectors, family.norms)
        assert copy == family and hash(copy) == hash(family) and repr(copy) == repr(family)
        assert _certified_chain(space, copy) is None
        assert (basis_constant(space, copy), l1_equivalence_constants(space, copy)) == expected
        assert len(inversions) == 2
        inversions.clear()


def test_an_equal_space_takes_the_closed_form(monkeypatch):
    space = random_ultrametric(7, 5)
    family = basis_vectors(build_chain(space, (0, 4, 2, 6, 1, 3, 5)))
    lower = orthant_l1_lower(space, family)
    twin = FiniteMetricSpace(space.labels, space.dist)
    assert twin == space and twin is not space
    other = random_ultrametric(7, 6)
    assert _certified_chain(other, family) is None
    _rejects_inverse(monkeypatch)
    assert _certified_chain(twin, family) is _certified_chain(space, family) is vars(family)["_chain"]
    assert basis_constant(twin, family) == 1
    assert l1_equivalence_constants(twin, family).lower == lower


def test_a_family_survives_a_pickle_round_trip(monkeypatch):
    space = random_ultrametric(6, 8)
    family = basis_vectors(build_chain(space, (0, 3, 1, 5, 2, 4)))
    expected = basis_constant(space, family), l1_equivalence_constants(space, family)
    back = pickle.loads(pickle.dumps(family))
    assert back == family and hash(back) == hash(family) and repr(back) == repr(family)
    # the kept chain travels with the family, so the copy still takes the closed form
    _rejects_inverse(monkeypatch)
    assert (basis_constant(space, back), l1_equivalence_constants(space, back)) == expected


def test_families_that_do_not_fit_the_space_are_refused():
    three, four = random_ultrametric(3, 1), random_ultrametric(4, 1)
    family3, family4 = basis_vectors(build_chain(three)), basis_vectors(build_chain(four))
    first, second, _ = family4.vectors
    cases = [
        (four, BasisFamily(four, (), ()), "family size must match the free-space dimension"),
        (three, family4, "family vectors do not live on the given space"),
        (four, family3, "family vectors do not live on the given space"),
        (four, BasisFamily(four, (first, second), family4.norms[:2]), "family size must match the free-space dimension"),
    ]
    for space, family, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            basis_constant(space, family)
        with pytest.raises(ValueError, match=f"^{'family is empty' if not family.vectors else message}$"):
            l1_equivalence_constants(space, family)
    with pytest.raises(ValueError, match="^vector does not live on the family's space$"):
        expand_in_basis(family4, FreeVector((1, 2)))
    assert expand_in_basis(family4, dirac(four, 3)) == expand_in_basis(family4, FreeVector((0, 0, 1)))
    point = FiniteMetricSpace(("0",), ((0,),))
    assert basis_constant(point, BasisFamily(point, (), ())) == basis_constant(point, basis_vectors(build_chain(point))) == 1


@pytest.mark.parametrize("point", [-1, -3, 3, 4])
def test_a_point_outside_the_space_is_refused(triangle, point):
    # a negative index would otherwise read a point from the end of the table
    chain = build_chain(triangle)
    for read in (chain.rank, chain.retract, chain.nearest_distance):
        with pytest.raises(ValueError, match=rf"^point {point} is outside 0\.\.2$"):
            read(2, point)
    with pytest.raises(ValueError, match=r"^point -1 is outside 0\.\.3$"):
        build_chain(random_ultrametric(4, 1)).retract(4, -1)
    assert [chain.retract(2, x) for x in range(3)] == [0, 1, 1]
    assert [chain.rank(3, x) for x in range(3)] == [1, 2, 3]
    assert chain.nearest_distance(2, 2) == triangle.dist[2][1]


@pytest.mark.parametrize("n", [0, -1, 4, 5])
def test_a_stage_outside_the_chain_is_refused(triangle, n):
    chain = build_chain(triangle)
    message = rf"^stage {n} is outside 1\.\.3$"
    with pytest.raises(ValueError, match=message):
        retraction_map(chain, n)
    for read in (chain.rank, chain.retract, chain.nearest_distance):
        with pytest.raises(ValueError, match=message):
            read(n, 1)
    with pytest.raises(ValueError, match=message):
        chain.kept(n)
    assert [retraction_map(chain, m).image for m in (1, 2, 3)] == [(0, 0, 0), (0, 1, 1), (0, 1, 2)]
    assert [chain.kept(m) for m in (1, 2, 3)] == [(0,), (0, 1), (0, 1, 2)]


@pytest.mark.parametrize(
    "ranks, message",
    [
        # rank 0 would read the last ordered point
        (((1, 1, 1), (1, 2, 0), (1, 2, 3)), r"^the rank of point 2 at stage 2 is 0, outside 1\.\.3$"),
        (((1, 1, 1), (1, 2, 2), (-1, 2, 3)), r"^the rank of point 0 at stage 3 is -1, outside 1\.\.3$"),
        (((1, 4, 1), (1, 2, 2), (1, 2, 3)), r"^the rank of point 1 at stage 1 is 4, outside 1\.\.3$"),
        (((1, 1, 1), (1, 2), (1, 2, 3)), r"^stage 2 ranks 2 points, not 3$"),
        (((1, 1, 1), (1, 2, 2, 1), (1, 2, 3)), r"^stage 2 ranks 4 points, not 3$"),
        (((1, 1, 1), (1, 2, 2)), r"^the rank table has 2 stages, not 3$"),
    ],
)
def test_a_bad_rank_table_is_refused(triangle, ranks, message):
    with pytest.raises(ValueError, match=message):
        RetractionChain(triangle, (0, 1, 2), ranks)
    assert RetractionChain(triangle, (0, 1, 2), ((1, 1, 1), (1, 2, 2), (1, 2, 3))) == build_chain(triangle)


@pytest.mark.parametrize("entry", [1.5, 1.0, Fraction(1), "1", None])
def test_a_rank_that_is_no_integer_is_refused(triangle, entry):
    # 1.5 would be read as a rank, and 1.0 == 1 would pass every check of the table
    message = f"expected an integer index, got {type(entry).__name__} {entry!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        RetractionChain(triangle, (0, 1, 2), ((1, 1, 1), (1, 2, entry), (1, 2, 3)))


def test_a_bool_rank_reads_as_an_int(triangle):
    chain = RetractionChain(triangle, (0, 1, 2), ((True, 1, 1), (1, 2, 2), (1, 2, 3)))
    assert chain == build_chain(triangle) and type(chain.ranks[0][0]) is int
    assert verify_chain(chain).passed
