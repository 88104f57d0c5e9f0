import dataclasses
import json
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultrafree import metric, rational
from ultrafree.campaign import STAGES
from ultrafree.cli import main
from ultrafree.ell1 import pipeline
from ultrafree.freespace import FreeVector, LipFunction
from ultrafree.metric import (
    FiniteMetricSpace,
    StructuralError,
    _integer_view,
    _scale_rows,
    _single_linkage,
    bilipschitz_distortion,
    identity_distortion,
    random_ultrametric,
    round_to_dyadic,
    validate,
    with_base,
)
from ultrafree.rtree import dendrogram, verify_retraction_claims
from ultrafree.serialize import ingest, space_to_json, to_jsonable

from _oracles import fraction_bilipschitz_distortion, loop_dyadic_floor, scan_validate, strict_max_check
from test_freespace import _stress_ultrametrics


def test_validate_ultrametric_triangle(triangle):
    report = validate(triangle)
    assert report.is_metric and report.is_ultrametric
    assert report.failing_triple is None
    assert report.is_dyadic


def test_validate_collinear_not_ultrametric(collinear):
    report = validate(collinear)
    assert report.is_metric
    assert not report.is_ultrametric
    i, j, k = report.failing_triple
    d = collinear.dist
    assert d[i][k] > max(d[i][j], d[j][k])
    assert (i, j, k) == (0, 1, 2)


def test_validate_dyadic_flag():
    yes = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, "1/2"), (1, "1/2", 0)))
    no = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, "3/4"), (1, "3/4", 0)))
    assert validate(yes).is_dyadic
    assert not validate(no).is_dyadic


def test_validate_non_metric_reports_triple():
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    report = validate(space)
    assert not report.is_metric and not report.is_ultrametric
    i, j, k = report.failing_triple
    assert space.dist[i][k] > space.dist[i][j] + space.dist[j][k]


@pytest.mark.parametrize(
    "dist",
    [
        ((0, 1), (2, 0)),                       # asymmetric
        ((0, -1), (-1, 0)),                     # negative
        ((1, 1), (1, 0)),                       # nonzero diagonal
        ((0, 0), (0, 0)),                       # duplicate points
    ],
)
def test_structural_errors(dist):
    space = FiniteMetricSpace(("a", "b"), dist)
    with pytest.raises(StructuralError) as oracle:
        scan_validate(space)
    with pytest.raises(StructuralError, match=re.escape(str(oracle.value)) + "$"):
        validate(space)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a", "a"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a", "b"), ((0, 1),))
    with pytest.raises(TypeError):
        FiniteMetricSpace(("a", "b"), ((0, 0.5), (0.5, 0)))


def test_strict_max_property(triangle):
    assert strict_max_check(triangle) == []
    # d(x,y) = 1/2 != d(y,0) = 1 forces d(x,0) = 1
    assert triangle.dist[1][0] == max(triangle.dist[1][2], triangle.dist[2][0])


def test_strict_max_rejects_non_ultrametric(collinear):
    with pytest.raises(ValueError):
        strict_max_check(collinear)


def test_strict_max_random_campaign():
    for seed in range(25):
        assert strict_max_check(random_ultrametric(10, seed)) == []


def test_round_to_dyadic_two_point_examples():
    for d, expected in ((Fraction(3), Fraction(2)), (Fraction(1), Fraction(1)), (Fraction(3, 4), Fraction(1, 2))):
        space = FiniteMetricSpace(("0", "p"), ((0, d), (d, 0)))
        rounded = round_to_dyadic(space)
        assert rounded.dist[0][1] == expected


def test_round_to_dyadic_properties():
    for seed in range(20):
        space = random_ultrametric(8, seed)
        rounded = round_to_dyadic(space)
        report = validate(rounded)
        assert report.is_ultrametric and report.is_dyadic
        for i in range(8):
            for j in range(i + 1, 8):
                r, d = rounded.dist[i][j], space.dist[i][j]
                assert r <= d < 2 * r
        assert round_to_dyadic(rounded) == rounded
        low, high = bilipschitz_distortion(space, rounded)
        assert high / low < 2
        assert identity_distortion(space, rounded) < 2


def test_round_to_dyadic_rejects_non_ultrametric(collinear):
    with pytest.raises(ValueError):
        round_to_dyadic(collinear)


def test_bilipschitz_identity(triangle):
    assert bilipschitz_distortion(triangle, triangle) == (1, 1)


def test_bilipschitz_single_pair_distortion():
    a = FiniteMetricSpace(("0", "p"), ((0, 3), (3, 0)))
    assert identity_distortion(a, round_to_dyadic(a)) == Fraction(3, 2)


def test_distortion_matches_the_fraction_ratios():
    # tied, coprime, caterpillar and star ultrametrics for N = 2..12 against their dyadic
    # roundings, both ways round: the same min and max as the Fraction ratios
    checked = 0
    for space in _stress_ultrametrics(random.Random(47)):
        rounded = round_to_dyadic(space)
        for a, b in ((space, rounded), (rounded, space)):
            lower, upper = fraction_bilipschitz_distortion(a, b)
            assert bilipschitz_distortion(a, b) == (lower, upper)
            assert identity_distortion(a, b) == max(upper, 1 / lower)
            checked += 1
    assert checked == 88


@pytest.mark.parametrize("distance, shown", [(0, "0"), (-1, "-1")])
def test_distortion_names_a_distance_that_is_not_positive(triangle, distance, shown):
    # the constructor admits these distances; a ratio over them means nothing
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, distance), (1, distance, 0)))
    with pytest.raises(ValueError, match=rf"^the domain distance of the pair \(1, 2\) is {shown}, not positive$"):
        bilipschitz_distortion(space, triangle)


def test_bilipschitz_size_mismatch(triangle):
    other = FiniteMetricSpace(("0", "p"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        bilipschitz_distortion(triangle, other)


def test_random_ultrametric_two_points():
    space = random_ultrametric(2, 0)
    assert len(space) == 2 and space.dist[0][1] > 0


def test_random_ultrametric_reproducible():
    assert random_ultrametric(5, 42) == random_ultrametric(5, 42)
    assert random_ultrametric(5, 42) != random_ultrametric(5, 43)


def test_random_ultrametric_rejects_small():
    with pytest.raises(ValueError):
        random_ultrametric(1, 0)


def test_random_ultrametric_hundred_seeds_at_twelve_points():
    for seed in range(100):
        assert validate(random_ultrametric(12, seed)).is_ultrametric


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
def test_random_ultrametric_always_valid(n, seed):
    space = random_ultrametric(n, seed)
    report = validate(space)
    assert report.is_metric and report.is_ultrametric
    values = {space.dist[i][j] for i in range(n) for j in range(i + 1, n)}
    assert len(values) <= n - 1


def test_with_base_relabels(triangle):
    moved = with_base(triangle, 2)
    assert moved.labels == ("y", "0", "x")
    assert moved.dist[0][2] == triangle.dist[2][1]
    assert validate(moved).is_ultrametric


def test_with_base_hands_a_kept_view_on_permuted():
    rng = random.Random(67)
    for n in range(1, 9):
        space = random_ultrametric(n, 70 + n) if n > 1 else FiniteMetricSpace(("0",), ((0,),))
        index = rng.randrange(n)
        assert "_view" not in vars(with_base(space, index))
        _integer_view(space)
        moved = with_base(space, index)
        assert "_view" in vars(moved) and _integer_view(moved) == _scale_rows(moved)


def test_duplicate_labels_are_named():
    with pytest.raises(ValueError, match=r"^duplicate labels: 'b' names more than one point$"):
        FiniteMetricSpace(("0", "b", "a", "b"), ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)))


def _perturbed(space, rng):
    """The space with the distance of one random pair scaled by 1/4, 3/4, 5/4 or 4."""
    x, y = rng.sample(range(len(space)), 2)
    rows = [list(row) for row in space.dist]
    rows[x][y] = rows[y][x] = rows[x][y] * rng.choice((Fraction(1, 4), Fraction(3, 4), Fraction(5, 4), Fraction(4)))
    return FiniteMetricSpace(space.labels, tuple(map(tuple, rows)))


def test_validate_matches_the_fraction_triple_scan():
    # tied, coprime, caterpillar and star ultrametrics for N = 2..40, and each with one
    # pair's distance scaled: metrics that are no ultrametric and non-metrics, whose
    # first failing triple must be the scan's
    rng = random.Random(43)
    kinds = set()
    for space in _stress_ultrametrics(rng, range(2, 41)):
        for s in (space, _perturbed(space, rng)):
            report = validate(s)
            assert report == scan_validate(s), s
            kinds.add((report.is_metric, report.is_ultrametric))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_rounding_and_the_dyadic_flag_match_the_fraction_entries():
    # every entry rounded by doubling and halving, and every entry tested, on tied,
    # coprime, caterpillar and star ultrametrics, their roundings, and each with one
    # pair's distance scaled, which makes metrics that are no ultrametric and non-metrics
    rng = random.Random(31)
    flags = set()
    for space in _stress_ultrametrics(rng, range(2, 21)):
        rounded = round_to_dyadic(space)
        assert rounded.dist == tuple(tuple(loop_dyadic_floor(h) if h else h for h in row) for row in space.dist)
        for s in (space, rounded, _perturbed(space, rng), _perturbed(rounded, rng)):
            report = validate(s)
            dyadic = all(rational.is_power_of_two(s.dist[i][j]) for i in range(len(s)) for j in range(len(s)) if i != j)
            assert report.is_dyadic == dyadic
            flags.add((report.is_ultrametric, dyadic))
            if not report.is_ultrametric:
                with pytest.raises(ValueError, match="requires an ultrametric space"):
                    round_to_dyadic(s)
    assert flags == {(True, True), (True, False), (False, True), (False, False)}


def _count_scans(monkeypatch):
    """Record every triple scan that validation runs."""
    scans = []
    real = metric._failing_triples
    monkeypatch.setattr(metric, "_failing_triples", lambda d: scans.append(len(d)) or real(d))
    return scans


def test_no_triple_scan_on_ultrametric_input(monkeypatch, tmp_path):
    scans = _count_scans(monkeypatch)
    for seed in range(4):
        pipeline(random_ultrametric(9, seed), seed=seed)
        rounded = round_to_dyadic(random_ultrametric(8, 10 + seed))
        dendrogram(FiniteMetricSpace(rounded.labels, rounded.dist))
        verify_retraction_claims(FiniteMetricSpace(rounded.labels, rounded.dist))
        path = tmp_path / f"space{seed}.json"
        path.write_text(json.dumps(space_to_json(rounded)))
        assert ingest(path) == rounded
        assert main(["--out", str(tmp_path / "embed.json"), "embed", str(path)]) == 0
    stages = ",".join(s for s in STAGES if s != "threepoint")
    out = tmp_path / "campaign.json"
    assert main(["--out", str(out), "campaign", "--sizes", "3-6", "--seeds", "2", "--stages", stages]) == 0
    assert len(json.loads(out.read_text())["instances"]) == 8
    assert scans == []


def test_one_triple_scan_per_space_that_is_no_ultrametric(monkeypatch, collinear, lopsided):
    scans = _count_scans(monkeypatch)
    rng = random.Random(5)
    spaces = [collinear, lopsided] + [_perturbed(s, rng) for s in _stress_ultrametrics(rng, range(3, 9))]
    spaces = [s for s in spaces if _single_linkage(s) is None]
    assert len(spaces) == 19
    for count, space in enumerate(spaces, 1):
        report = validate(space)
        assert not report.is_ultrametric and len(scans) == count
        assert validate(space) is report and len(scans) == count
        with pytest.raises(ValueError, match="requires an ultrametric space"):
            round_to_dyadic(space)
        assert len(scans) == count


def test_the_report_is_cached_and_structural_errors_repeat(four_cluster):
    assert validate(four_cluster) is validate(four_cluster)
    assert FiniteMetricSpace(four_cluster.labels, four_cluster.dist) == four_cluster
    space = FiniteMetricSpace(("a", "b", "c"), ((0, 1, 1), (1, 0, 2), (1, 3, 0)))
    for _ in range(2):
        with pytest.raises(StructuralError, match=r"asymmetric entries at \(1,2\): 2 vs 3$"):
            validate(space)


def _space(rows):
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(len(rows))), rows)


def test_validate_names_the_scan_witness_where_the_merges_fail():
    # the merges of {0, 1} at 1 and {2, 3} at 2 pass; the last, at 3, meets d(1, 3) = 4
    last = _space(((0, 1, 3, 3), (1, 0, 3, 4), (3, 3, 0, 2), (3, 4, 2, 0)))
    # the second merge at the tied height 1 meets d(0, 2) = 2; the merge at 4 is never reached
    tied = _space(((0, 1, 2, 4), (1, 0, 1, 4), (2, 1, 0, 4), (4, 4, 4, 0)))
    # as the last, with d(1, 3) = 5 past d(1, 0) + d(0, 3)
    broken = _space(((0, 1, 3, 3), (1, 0, 3, 5), (3, 3, 0, 2), (3, 5, 2, 0)))
    for space, triple, is_metric in ((last, (1, 0, 3), True), (tied, (0, 1, 2), True), (broken, (1, 0, 3), False)):
        assert _single_linkage(space) is None
        report = validate(space)
        assert report == scan_validate(space)
        assert (report.is_metric, report.is_ultrametric, report.failing_triple) == (is_metric, False, triple)


def test_the_cached_view_stays_out_of_the_space(four_cluster):
    fresh = FiniteMetricSpace(four_cluster.labels, four_cluster.dist)
    view, merges = _integer_view(four_cluster), _single_linkage(four_cluster)
    assert _integer_view(four_cluster) is view and _single_linkage(four_cluster) is merges
    assert four_cluster == fresh and hash(four_cluster) == hash(fresh) and repr(four_cluster) == repr(fresh)
    assert to_jsonable(four_cluster) == to_jsonable(fresh)
    assert pickle.dumps(four_cluster) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(four_cluster))
    assert vars(copy) == vars(fresh) == {"labels": four_cluster.labels, "dist": four_cluster.dist}
    assert _integer_view(copy) == view and _integer_view(copy) is not view
    assert _single_linkage(copy) == merges


def test_the_cached_view_is_immutable(four_cluster):
    scale, rows = _integer_view(four_cluster)
    assert (scale, rows[1]) == (4, (4, 0, 1, 2))
    with pytest.raises(TypeError):
        rows[1][2] = 3
    with pytest.raises(TypeError):
        rows[1] = (4, 0, 3, 2)
    with pytest.raises(TypeError):
        _single_linkage(four_cluster)[0] = (Fraction(1, 8), 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        four_cluster._view = (1, ())


def test_new_spaces_get_a_view_of_their_own(four_cluster):
    view, merges = _integer_view(four_cluster), _single_linkage(four_cluster)
    moved = with_base(four_cluster, 2)
    halved = dataclasses.replace(four_cluster, dist=tuple(tuple(x / 2 for x in row) for row in four_cluster.dist))
    for space in (moved, halved):
        fresh = FiniteMetricSpace(space.labels, space.dist)
        assert _integer_view(space) == _integer_view(fresh) != view
        assert _single_linkage(space) == _single_linkage(fresh) != merges
    assert _integer_view(halved) == (8, view[1])


def test_construction_parses_each_distinct_string_once(monkeypatch):
    parsed = []
    real = rational.parse_rational
    monkeypatch.setattr(rational, "parse_rational", lambda x: parsed.append(x) or real(x))
    space = random_ultrametric(12, 3)
    strings = tuple(tuple(str(h) for h in row) for row in space.dist)
    assert FiniteMetricSpace(space.labels, strings) == space
    assert sorted(parsed) == sorted({h for row in strings for h in row})
    parsed.clear()
    assert FiniteMetricSpace(space.labels, space.dist) == space and parsed == []


def test_rows_of_exact_fractions_are_kept_as_given():
    space = random_ultrametric(10, 3)
    assert FiniteMetricSpace(space.labels, space.dist).dist is space.dist
    # lists, a tuple subclass and a Fraction subclass are read into fresh tuples
    quarter = _Quarter(1, 4)
    for dist in (
        [list(row) for row in space.dist],
        tuple(list(row) for row in space.dist),
        tuple(_Row(row) for row in space.dist),
        (tuple(space.dist[0][:-1]) + (quarter,),) + space.dist[1:],
    ):
        rows = FiniteMetricSpace(space.labels, dist).dist
        assert rows is not dist and rows == tuple(map(tuple, dist))
        assert {*map(type, rows)} == {tuple}
    # the structural checks and their messages stay
    one = Fraction(1)
    cases = (
        (("a", "b"), ((Fraction(0), one),), "distance matrix must be square and match the labels"),
        (("a", "b"), ((Fraction(0), one), (one,)), "distance matrix must be square and match the labels"),
        (("a",), ((Fraction(0), one), (one, Fraction(0))), "distance matrix must be square and match the labels"),
        (("a", "a"), ((Fraction(0), one), (one, Fraction(0))), "duplicate labels: 'a' names more than one point"),
        ((), (), "a metric space needs at least the base point"),
    )
    for labels, dist, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FiniteMetricSpace(labels, dist)


class _Row(tuple):
    """A tuple subclass: a row of it is read into a plain tuple."""


class _Quarter(Fraction):
    """A Fraction subclass: it passes through, in a rebuilt row."""


def _error(value):
    try:
        rational.parse_rational(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{value!r} parses")


@pytest.mark.parametrize("first, second", [
    ("1", 1), (1, "1"), ("1", Fraction(1)), (Fraction(1), "1"), (1, Fraction(1)),
    ("1", True), (True, "1"), (1, True), (True, 1), (Fraction(1), True),
    ("1", 1.0), (1.0, "1"), (1, 1.0), (1.0, 1), (Fraction(1), 1.0),
    ("1", "1/0"), ("1/0", "1"), ("x", "x"), ("1/0", 1), (1, "x"),
])
def test_equal_entries_of_other_types_parse_as_each_alone(tmp_path, capsys, first, second):
    # 1, True, 1.0 and Fraction(1) compare equal and hash alike: a bool or a float
    # after an equal int or string, or before it, still raises, and a bad token
    # raises its own message, through the library and through `ultrafree validate`
    dist = ((0, first, 1), (second, 0, 1), (1, 1, 0))
    bad = [x for x in (first, second) if isinstance(x, (bool, float)) or x in ("1/0", "x")]
    path = tmp_path / "space.json"
    # JSON reads a decimal literal as a Fraction, never as a float
    rows = ", ".join("[" + ", ".join("1.0" if isinstance(x, Fraction) else json.dumps(x) for x in row) + "]" for row in dist)
    path.write_text(f'{{"labels": ["a", "b", "c"], "dist": [{rows}]}}')
    if not bad:
        assert FiniteMetricSpace(("a", "b", "c"), dist).dist == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert main(["validate", str(path)]) == 0
        return
    error, message = _error(bad[0])
    with pytest.raises(error) as raised:
        FiniteMetricSpace(("a", "b", "c"), dist)
    assert str(raised.value) == message
    if not isinstance(bad[0], float):
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_construction_parses_only_what_is_not_a_fraction(monkeypatch):
    parsed = []
    real = rational.parse_rational
    monkeypatch.setattr(rational, "parse_rational", lambda x: parsed.append(x) or real(x))
    half = Fraction(1, 2)
    space = FiniteMetricSpace(("0", "x"), ((Fraction(0), "1/2"), (half, 0)))
    assert space.dist == ((0, half), (half, 0)) and parsed == ["1/2", 0]
    assert LipFunction((Fraction(0), half, "1")).values == (0, half, 1) and parsed[2:] == ["1"]
    assert FreeVector((half, 2)).coeffs == (half, 2) and parsed[3:] == [2]
    for bad, error, match in ((0.5, TypeError, "refusing float"), (True, TypeError, "bool"), ("x", ValueError, "parse")):
        with pytest.raises(error, match=match):
            FiniteMetricSpace(("0", "x"), ((0, bad), (half, 0)))
        with pytest.raises(error, match=match):
            LipFunction((Fraction(0), bad))
        with pytest.raises(error, match=match):
            FreeVector((half, bad))


@pytest.mark.parametrize("distance, shown", [(0, "0"), (-1, "-1")])
def test_identity_distortion_names_a_codomain_distance_that_is_not_positive(triangle, distance, shown):
    # the ratio at that pair is not positive, so its inverse would divide by zero or flip the order
    space = FiniteMetricSpace(("0", "x", "y"), ((0, 1, 1), (1, 0, distance), (1, distance, 0)))
    assert bilipschitz_distortion(triangle, space)[0] == 2 * distance
    with pytest.raises(ValueError, match=rf"^the codomain distance of the pair \(1, 2\) is {shown}, not positive$"):
        identity_distortion(triangle, space)
