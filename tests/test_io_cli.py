import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ultrafree import cli, ell1, freespace
from ultrafree.campaign import CampaignConfig, emit_report, run_campaign
from ultrafree.cli import main
from ultrafree.freespace import FreeVector
from ultrafree.metric import CertificationError, FiniteMetricSpace, random_ultrametric, round_to_dyadic
from ultrafree.rational import _rational_rows, _rationals
from ultrafree.rtree import verify_retraction_claims
from ultrafree.simplex import LpResult
from test_rtree import (
    CORRUPTED_MERGE_TREES, corrupt_merge_tree, count_dendrogram_certificates, record_late_views_and_checked_points
)
from ultrafree.serialize import (
    IngestError,
    dump_json,
    ingest,
    load_space,
    load_vector,
    space_to_json,
    to_jsonable,
    vector_from_json,
    vector_to_json,
)


def test_space_json_round_trip(tmp_path, triangle):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(triangle)))
    again = ingest(path)
    assert again == triangle


def test_json_decimal_numbers_stay_exact(tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"labels": ["0", "p"], "dist": [[0, 0.75], [0.75, 0]]}')
    space = ingest(path)
    assert space.dist[0][1] == Fraction(3, 4)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("a,b,c\n0,1,1\n1,0,0.75\n1,0.75,0\n")
    space = ingest(path)
    assert space.labels == ("a", "b", "c")
    assert space.dist[1][2] == Fraction(3, 4)


def test_csv_without_header(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("0,1/2\n1/2,0\n")
    space = ingest(path)
    assert space.labels == ("p0", "p1")
    assert space.dist[0][1] == Fraction(1, 2)


@pytest.mark.parametrize(
    "header, labels",
    [("0,a,b", ("0", "a", "b")), ("a,0,1", ("a", "0", "1")), ("0,1,2", ("0", "1", "2")), ("2, 1 ,0", ("2", "1", "0"))],
    ids=["numeric-first", "numeric-rest", "all-numeric", "spaced"],
)
def test_csv_header_with_numeric_labels(tmp_path, capsys, header, labels):
    # a header is a first line with a cell that is no rational, or one line more than
    # there are cells per line
    path = tmp_path / "space.csv"
    path.write_text(f"{header}\n0,1,1\n1,0,1/2\n1,1/2,0\n")
    space = load_space(path)
    assert space.labels == labels
    assert space.dist == load_space(_write_triangle(tmp_path)).dist
    assert main(["basis", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["basis_vectors"] == [{labels[1]: "1"}, {labels[2]: "1", labels[1]: "-1"}]


def test_ingest_rejects_structural(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"labels": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}')
    with pytest.raises(IngestError):
        ingest(path)


def test_ingest_rejects_non_metric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}')
    with pytest.raises(IngestError, match="triple"):
        ingest(path)


def test_load_space_allows_non_metric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}')
    assert load_space(path).dist[0][2] == 5


@pytest.mark.parametrize(
    "content, key",
    [
        ('{"labels": ["0", "x"], "dist": [[0, 1], [1, 0]], "labels": ["0", "y"]}', "labels"),
        ('{"labels": ["0", "x"], "dist": [[0, 1], [1, 0]], "dist": [[0, 2], [2, 0]]}', "dist"),
    ],
)
def test_space_file_refuses_a_duplicate_key(tmp_path, capsys, content, key):
    path = tmp_path / "space.json"
    path.write_text(content)
    message = f"duplicate key {key!r} in a JSON object"
    with pytest.raises(IngestError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_space(path)
    assert _run(["validate", str(path)], capsys) == (2, "", f"error: {path}: {message}\n")


def test_vector_file_refuses_a_duplicate_key(tmp_path, capsys, triangle):
    # read as its last value, this vector would have the norm 3
    space = _write_triangle(tmp_path)
    vec = tmp_path / "vec.json"
    vec.write_text('{"x": "1", "x": "-3"}')
    message = f"{vec}: duplicate key 'x' in a JSON object"
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        load_vector(triangle, vec)
    assert _run(["norm", str(space), "--vector", str(vec)], capsys) == (2, "", f"error: {message}\n")
    vec.write_text('{"x": "-3"}')
    code, out, _ = _run(["norm", str(space), "--vector", str(vec)], capsys)
    assert code == 0 and json.loads(out)["value"] == "3"


def test_vector_round_trip(triangle):
    v = FreeVector((Fraction(1, 3), Fraction(-2)))
    data = vector_to_json(triangle, v)
    assert data == {"x": "1/3", "y": "-2"}
    assert vector_from_json(triangle, data) == v


def test_vector_rejects_base_mass(triangle):
    with pytest.raises(IngestError):
        vector_from_json(triangle, {"0": "1"})


def test_to_jsonable_refuses_floats():
    with pytest.raises(TypeError):
        to_jsonable(0.5)


@pytest.mark.parametrize("value", [{"1", "2"}, frozenset({Fraction(1, 2)}), {"key": [{"nested"}]}])
def test_to_jsonable_refuses_sets(value):
    # a set would be emitted in iteration order, which is not byte-stable
    with pytest.raises(TypeError, match="cannot serialize"):
        to_jsonable(value)


class _Quarter(Fraction):
    """A Fraction subclass: it must be read and emitted as a Fraction."""


def test_fraction_subclasses_bools_floats_and_sets_keep_their_treatment():
    quarter = _Quarter(1, 4)
    assert to_jsonable([quarter, True, 2, None, "x", Fraction(1, 2)]) == ["1/4", True, 2, None, "x", "1/2"]
    assert to_jsonable({"q": quarter}) == {"q": "1/4"}
    assert _rationals([quarter])[0] is quarter and _rational_rows([[quarter]])[0][0][0] is quarter
    assert FreeVector((quarter,)).coeffs[0] is quarter
    for value, message in ((0.5, "refusing to serialize a float"), ({1}, "cannot serialize set")):
        with pytest.raises(TypeError, match=f"^{message}$"):
            to_jsonable(value)
    cases = ((True, "expected a rational number, got bool True"), (0.5, "refusing float 0.5"), ({1}, "cannot convert set"))
    for value, message in cases:
        for read in (lambda: _rationals([value]), lambda: _rational_rows([["1", value]])):
            with pytest.raises(TypeError, match=f"^{message}"):
                read()


def _write_triangle(tmp_path, name="space.json", base_to_y="1"):
    path = tmp_path / name
    data = {
        "labels": ["0", "x", "y"],
        "dist": [["0", "1", base_to_y], ["1", "0", "1/2"], [base_to_y, "1/2", "0"]],
    }
    path.write_text(json.dumps(data))
    return path


def test_cli_validate_pass(tmp_path, capsys):
    path = _write_triangle(tmp_path)
    assert main(["validate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_ultrametric"] is True


def test_cli_validate_non_ultrametric_exit_one(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text('{"labels": ["0","1","2"], "dist": [[0,1,2],[1,0,1],[2,1,0]]}')
    assert main(["validate", str(path)]) == 1


def test_cli_validate_structural_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"labels": ["a","b"], "dist": [["0","1"],["2","0"]]}')
    # every command that reads a space names the file in front of a structural defect
    for command in ("validate", "basis", "embed", "l1check"):
        assert _run([command, str(path)], capsys) == (2, "", f"error: {path}: asymmetric entries at (0,1): 1 vs 2\n")
    path.write_text('{"labels": ["a","b"], "dist": [["0","-1"],["-1","0"]]}')
    assert _run(["validate", str(path)], capsys) == (2, "", f"error: {path}: negative distance at (0,1): -1\n")


def test_space_files_are_read_as_utf8(tmp_path, capsys):
    # the tier-1 workflow also runs this file under LC_ALL=C, where the locale encoding is ASCII
    path = tmp_path / "space.json"
    data = {"labels": ["0", "\u00e9t\u00e9"], "dist": [["0", "1"], ["1", "0"]]}
    path.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    assert load_space(path).labels == ("0", "\u00e9t\u00e9")
    code, out, _ = _run(["basis", str(path)], capsys)
    assert code == 0 and json.loads(out)["basis_vectors"] == [{"\u00e9t\u00e9": "1"}]
    csv = tmp_path / "space.csv"
    csv.write_bytes("0,\u00e9t\u00e9\n0,1\n1,0\n".encode("utf-8"))
    assert load_space(csv).labels == ("0", "\u00e9t\u00e9")
    # Latin-1 bytes are no UTF-8: the error names the file
    path.write_bytes(json.dumps(data, ensure_ascii=False).encode("latin-1"))
    prefix = f"cannot read {path} as UTF-8: 'utf-8' codec can't decode byte 0xe9"
    with pytest.raises(IngestError, match=f"^{re.escape(prefix)}"):
        load_space(path)
    code, out, err = _run(["validate", str(path)], capsys)
    assert (code, out) == (2, "") and err.startswith(f"error: {prefix}")


def test_cli_norm(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    vec = tmp_path / "vec.json"
    vec.write_text('{"x": "1", "y": "-1"}')
    assert main(["norm", str(space), "--vector", str(vec)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "1/2"
    assert out["dual_certificate"]["0"] == "0"


@pytest.mark.parametrize(
    "content, needle",
    [
        ('["x", "1"]', "list"),
        ('{"x": true}', "'x'"),
        ('{"x": [1]}', "'x'"),
        ('{"x": "1/0"}', "1/0"),
        ('{"z": "1"}', "'z'"),
    ],
    ids=["list", "bool", "nested", "zero-denominator", "unknown-label"],
)
def test_cli_norm_bad_vector_exit_two(tmp_path, capsys, content, needle):
    space = _write_triangle(tmp_path)
    vec = tmp_path / "vec.json"
    vec.write_text(content)
    assert main(["norm", str(space), "--vector", str(vec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("content", ['{"x": ', '{"x": "1",}', ""], ids=["truncated", "trailing-comma", "empty"])
def test_cli_norm_malformed_vector_names_the_file(tmp_path, capsys, content):
    space = _write_triangle(tmp_path)
    vec = tmp_path / "vec.json"
    vec.write_text(content)
    with pytest.raises(json.JSONDecodeError) as decoding:
        json.loads(content)
    assert main(["norm", str(space), "--vector", str(vec)]) == 2
    assert capsys.readouterr().err == f"error: {vec}: {decoding.value}\n"


def test_cli_norm_unreadable_vector_names_the_file(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    missing = tmp_path / "missing.json"
    assert main(["norm", str(space), "--vector", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_cli_basis(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["basis", str(space)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["basis_constant"] == "1"
    assert out["index_table"] == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]


def test_cli_basis_explicit_ordering(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["basis", str(space), "--ordering", "0,2,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ordering"] == [0, 2, 1]


def test_cli_basis_ordering_and_shuffle_exclude_each_other(tmp_path, capsys):
    space = str(_write_triangle(tmp_path))
    code, out, err = _run(["basis", space, "--ordering", "0,2,1", "--shuffle"], capsys)
    assert (code, out) == (2, "")
    assert "argument --shuffle: not allowed with argument --ordering" in err
    code, out, _ = _run(["basis", space, "--ordering", "0,2,1"], capsys)
    assert code == 0 and json.loads(out)["ordering"] == [0, 2, 1]
    code, out, _ = _run(["--seed", "1", "basis", space, "--shuffle"], capsys)
    assert code == 0 and sorted(json.loads(out)["ordering"]) == [0, 1, 2]


@pytest.mark.parametrize("ordering, token", [("", ""), ("0,,2", ""), ("0,a", "a")])
def test_cli_basis_names_a_bad_ordering_token(tmp_path, capsys, ordering, token):
    space = str(_write_triangle(tmp_path))
    code, out, err = _run(["basis", space, "--ordering", ordering], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: point index {token!r} in --ordering is not an integer; "
        "give comma-separated point indices starting at 0, such as 0,2,1\n"
    )


def test_cli_embed(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["embed", str(space)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["attained_lipschitz_constant"] == "4"
    assert len(out["branching_points"]) == 2
    assert out["dendrogram"]["parent"] == [4, 3, 3, 4, -1]


def test_cli_embed_keys_the_retraction_by_the_node_labels(tmp_path, capsys):
    # the point a@1/2 is labelled like the branching point <a, 1/2>, whose node label takes a prime
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"labels": ["a", "a@1/2", "x"], "dist": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}))
    assert main(["embed", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["retraction_table"] == {"a@1/2'": "a", "a@1": "a"}


def test_cli_l1check(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["l1check", str(space)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l1_lower"] == "2/3"
    assert out["basis_constant"] == "1"


def test_cli_l1check_one_point_exit_two(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"labels": ["0"], "dist": [["0"]]}')
    assert main(["l1check", str(path)]) == 2
    assert capsys.readouterr().err == "error: pipeline needs at least two points\n"


def test_cli_l1check_tells_a_point_from_the_branching_point_of_its_label(tmp_path, capsys):
    # the branching point <0, 1> would be labelled 0@1, the label of a point
    path = tmp_path / "space.json"
    path.write_text('{"labels": ["0", "0@1", "x"], "dist": [["0","2","4"],["2","0","4"],["4","4","0"]]}')
    assert main(["l1check", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["size"], out["basis_constant"], out["chain_ok"], out["claims_ok"]) == (3, "1", True, True)


def test_cli_names_a_duplicate_label(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text('{"labels": ["0", "p", "p"], "dist": [["0","2","4"],["2","0","4"],["4","4","0"]]}')
    assert main(["l1check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: duplicate labels: 'p' names more than one point\n"


@pytest.mark.parametrize("vectors", ["-3"])
def test_cli_l1check_bad_oracle_vectors_exit_two(tmp_path, capsys, vectors):
    space = _write_triangle(tmp_path)
    assert main(["l1check", str(space), "--oracle-vectors", vectors]) == 2
    assert capsys.readouterr().err == "error: the oracle battery size must be non-negative\n"


def test_cli_l1check_empty_oracle_battery(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["l1check", str(space), "--oracle-vectors", "0"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "size",
        "distortion",
        "retraction_constant",
        "projection_norm",
        "basis_constant",
        "l1_lower",
        "l1_upper",
        "chain_ok",
        "claims_ok",
    ]


@pytest.mark.parametrize(
    "dual, message",
    [
        ((Fraction(1, 2), Fraction(-1, 2)), "dual potential is not 1-Lipschitz on the pair (1, 2)"),
        ((Fraction(1, 2), Fraction(1, 4)), "primal and dual transport optima differ: 1/2 against 1/4"),
    ],
    ids=["lipschitz", "duality"],
)
def test_cli_norm_failed_certificate_exit_one(tmp_path, capsys, monkeypatch, dual, message):
    real = freespace.solve_lp

    def solve(*args, **kwargs):
        result = real(*args, **kwargs)
        return LpResult(result.x, result.value, dual)

    monkeypatch.setattr(freespace, "solve_lp", solve)
    # d(0, y) = 3/4 keeps the space a metric but not an ultrametric, so the norm goes to the simplex
    space = _write_triangle(tmp_path, base_to_y="3/4")
    vec = tmp_path / "vec.json"
    vec.write_text('{"x": "1", "y": "-1"}')
    assert main(["norm", str(space), "--vector", str(vec)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # on the scale 2 of the triangle: potential g / 4 = (0, 1/2, -1/2), value 4 / 2 = 2
        (lambda cost, arcs, g: (cost, arcs, [0, 2, -2]), "dual potential is not 1-Lipschitz on the pair (1, 2)"),
        (lambda cost, arcs, g: (4, [(0, 2, 1), (1, 0, 1)], g), "primal and dual transport optima differ: 2 against 1/2"),
    ],
    ids=["potential", "flow"],
)
def test_cli_norm_failed_tree_certificate_exit_one(tmp_path, capsys, monkeypatch, corrupt, message):
    real = freespace._lca_flow
    monkeypatch.setattr(freespace, "_lca_flow", lambda merges, masses: corrupt(*real(merges, masses)))
    space = _write_triangle(tmp_path)
    vec = tmp_path / "vec.json"
    vec.write_text('{"x": "1", "y": "-1"}')
    assert main(["norm", str(space), "--vector", str(vec)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


def test_cli_threepoint_names_the_failed_identity(capsys, monkeypatch):
    real = ell1.free_norm
    monkeypatch.setattr(ell1, "free_norm", lambda space, v: 2 * real(space, v) if v.coeffs == (1, 1) else real(space, v))
    assert main(["threepoint", "--s", "1/2"]) == 1
    assert capsys.readouterr().err == "check failed: three-point identity failed: |dx + dy| is 4, not 2\n"


def test_cli_threepoint_names_the_failed_scaling_bound(capsys, monkeypatch):
    # norms of delta_x - beta delta_y halved, the four identities kept: the first beta, 1/4, misses its bound 1/2
    real = ell1.free_norm
    monkeypatch.setattr(ell1, "free_norm", lambda space, v: real(space, v) / (1 if v.coeffs[1] in (0, 1, -1) else 2))
    with pytest.raises(CertificationError, match=r"^scaling bound failed at beta=1/4$"):
        ell1.three_point_report(Fraction(1, 2))
    assert main(["threepoint", "--s", "1/2"]) == 1
    assert capsys.readouterr().err == "check failed: scaling bound failed at beta=1/4\n"


def test_cli_l1check_names_a_rounding_that_is_not_dyadic(tmp_path, capsys, monkeypatch):
    # a rounding that leaves the distance 3 as it is
    monkeypatch.setattr(ell1, "round_to_dyadic", lambda space: space)
    path = tmp_path / "space.json"
    path.write_text('{"labels": ["0", "x", "y"], "dist": [["0", "3", "3"], ["3", "0", "1"], ["3", "1", "0"]]}')
    message = "dyadic rounding did not give a power-of-two ultrametric"
    with pytest.raises(CertificationError, match=f"^{message}$"):
        ell1.pipeline(ingest(path))
    assert main(["l1check", str(path)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


def test_cli_threepoint(tmp_path, capsys):
    assert main(["threepoint", "--s", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm_sum"] == "2"
    assert (out["extreme_pairs"], out["l1_isometric"]) == (3, False)


def test_cli_threepoint_beta_replaces_the_default_list(capsys):
    assert main(["threepoint", "--s", "1/2", "--beta", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["beta_norms"] == [["1/2", "3/4", "1/2"]]


def test_cli_out_file(tmp_path):
    space = _write_triangle(tmp_path)
    out_path = tmp_path / "report.json"
    assert main(["--out", str(out_path), "validate", str(space)]) == 0
    assert json.loads(out_path.read_text())["is_metric"] is True


@pytest.mark.parametrize(
    "argv",
    [["validate", "{space}"], ["campaign", "--sizes", "3", "--seeds", "1", "--stages", "validate"]],
    ids=lambda argv: argv[0],
)
def test_cli_env_output_dir(tmp_path, monkeypatch, capsys, argv):
    space = _write_triangle(tmp_path)
    monkeypatch.setenv("ULTRAFREE_OUT", str(tmp_path))
    assert main([a.format(space=space) for a in argv]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / f"{argv[0]}.json").read_text())


def test_campaign_deterministic_and_round_trips(tmp_path):
    config = CampaignConfig(sizes=(2, 3), seeds=2, stages=("validate", "basis", "embed"))
    first = run_campaign(config)
    second = run_campaign(config)
    a = json.loads(emit_report(first))
    b = json.loads(emit_report(second))
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b
    assert first.passes == 4 and first.failures == 0
    out_path = tmp_path / "campaign.json"
    emit_report(first, out_path)
    assert json.loads(out_path.read_text())["passes"] == 4


def test_empty_campaign_emits_valid_report():
    config = CampaignConfig(sizes=(), seeds=1, stages=("validate",))
    report = run_campaign(config)
    data = json.loads(emit_report(report))
    assert data["instances"] == [] and data["passes"] == 0


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(sizes=(1,), seeds=1, stages=("validate",))
    with pytest.raises(ValueError):
        CampaignConfig(sizes=(3,), seeds=0, stages=("validate",))
    with pytest.raises(ValueError):
        CampaignConfig(sizes=(3,), seeds=1, stages=("nope",))


def test_campaign_cli(tmp_path, capsys):
    assert main(["campaign", "--sizes", "2,3", "--seeds", "1", "--stages", "validate,basis"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failures"] == 0
    assert len(out["instances"]) == 2


def test_campaign_cli_rejects_a_reversed_size_range(capsys):
    assert main(["campaign", "--sizes", "3-2", "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: size range 3-2 is reversed: 3 is above 2\n"


@pytest.mark.parametrize("sizes", [",", ""])
def test_campaign_cli_rejects_an_empty_size_list(capsys, tmp_path, sizes):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "campaign", "--sizes", sizes, "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: --sizes {sizes!r} lists no size; give a comma list such as 3,4,5 or a range a-b such as 3-8\n"
    )


@pytest.mark.parametrize("stages", ["", " , "])
def test_campaign_cli_rejects_an_empty_stage_list(capsys, tmp_path, stages):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "campaign", "--sizes", "3", "--seeds", "1", "--stages", stages]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: --stages {stages!r} lists no stage; give a comma subset of "
        "validate,basis,embed,l1check,threepoint or 'all'\n"
    )


@pytest.mark.parametrize("sizes", ["x", "3-x"])
def test_campaign_cli_names_a_bad_size(capsys, sizes):
    assert main(["campaign", "--sizes", sizes, "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: size 'x' in --sizes is not an integer; "
        "give a comma list such as 3,4,5 or a range a-b such as 3-8\n"
    )


def _run(argv, capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys):
    space = str(_write_triangle(tmp_path))
    calls = [
        ["--seed", "3", "basis", space, "--shuffle"],
        ["basis", space],
        ["validate", space, "--bogus"],
        ["threepoint", "--s", "1/2", "--beta", "3"],
        ["threepoint", "--s", "1/2"],
        ["campaign", "--sizes", "3-2", "--seeds", "1"],
        ["embed", space],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    parser = cli._build_parser()
    assert [_run(argv, capsys) for argv in calls] == fresh
    assert cli._build_parser() is parser
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 2, 0]
    assert "unrecognized arguments: --bogus" in fresh[2][2]
    assert fresh[0][1] != fresh[1][1] and fresh[3][1] != fresh[4][1]


def test_campaign_includes_threepoint():
    report = run_campaign(CampaignConfig(sizes=(2,), seeds=1, stages=("validate", "threepoint")))
    assert len(report.three_point) == 4
    assert report.schema == "ultrafree-report/3"
    assert report.passed
    assert all((r.extreme_pairs, r.l1_isometric) == (3, False) for r in report.three_point)


def test_emitted_space_reingests_exactly(tmp_path):
    space = random_ultrametric(6, 9)
    path = tmp_path / "space.json"
    dump_json(space_to_json(space), path)
    assert ingest(path) == space


# The `ultrafree l1check` report of fixed spaces (random, power-of-two ties, coprime
# heights, a caterpillar and a star, N <= 12), pinned byte for byte.  After a
# deliberate change to the report, regenerate a pinned file with
#     PYTHONPATH=src python -m ultrafree l1check tests/golden/l1check/<name>.space.json \
#         > tests/golden/l1check/<name>.report.json
L1CHECK_GOLDEN = Path(__file__).resolve().parent / "golden" / "l1check"
L1CHECK_SPACES = sorted(L1CHECK_GOLDEN.glob("*.space.json"))


def test_l1check_goldens_found():
    names = sorted(p.name for p in L1CHECK_GOLDEN.iterdir())
    assert len(L1CHECK_SPACES) == 8
    assert names == sorted(n for p in L1CHECK_SPACES for n in (p.name, p.name.replace(".space.", ".report.")))


@pytest.mark.parametrize("space", L1CHECK_SPACES, ids=lambda p: p.name.removesuffix(".space.json"))
def test_l1check_matches_its_golden_report(space, capsys):
    assert main(["l1check", str(space)]) == 0
    assert capsys.readouterr().out == space.with_name(space.name.replace(".space.", ".report.")).read_text()


# The `ultrafree embed` report of fixed power-of-two spaces (ties, coprime heights
# rounded down, a caterpillar, a star and a random merge tree), pinned byte for byte.
# After a deliberate change to the report, regenerate a pinned file with
#     PYTHONPATH=src python -m ultrafree embed tests/golden/embed/<name>.space.json \
#         > tests/golden/embed/<name>.report.json
EMBED_GOLDEN = Path(__file__).resolve().parent / "golden" / "embed"
EMBED_SPACES = sorted(EMBED_GOLDEN.glob("*.space.json"))


def test_embed_goldens_found():
    names = sorted(p.name for p in EMBED_GOLDEN.iterdir())
    assert len(EMBED_SPACES) == 7
    assert names == sorted(n for p in EMBED_SPACES for n in (p.name, p.name.replace(".space.", ".report.")))


@pytest.mark.parametrize("space", EMBED_SPACES, ids=lambda p: p.name.removesuffix(".space.json"))
def test_embed_matches_its_golden_report(space, capsys):
    assert main(["embed", str(space)]) == 0
    assert capsys.readouterr().out == space.with_name(space.name.replace(".space.", ".report.")).read_text()


# The `ultrafree basis` report of fixed spaces (power-of-two ties, coprime heights, a
# caterpillar, a star, a random merge tree, and a metric that is no ultrametric, whose
# violations are listed with exit 1), each under the input ordering, the reversed
# ordering 0,N-1,...,1 and `--seed 3 ... --shuffle`, pinned byte for byte.  After a
# deliberate change to the report, regenerate a pinned file with
#     PYTHONPATH=src python -m ultrafree [--seed 3] basis tests/golden/basis/<name>.space.json \
#         [--ordering 0,N-1,...,1 | --shuffle] > tests/golden/basis/<name>.<variant>.report.json
BASIS_GOLDEN = Path(__file__).resolve().parent / "golden" / "basis"
BASIS_SPACES = sorted(BASIS_GOLDEN.glob("*.space.json"))
BASIS_VARIANTS = ("input", "ordering", "shuffle")


def _basis_argv(space, variant):
    if variant == "shuffle":
        return ["--seed", "3", "basis", str(space), "--shuffle"]
    if variant == "ordering":
        n = len(json.loads(space.read_text())["labels"])
        return ["basis", str(space), "--ordering", ",".join(map(str, (0, *range(n - 1, 0, -1))))]
    return ["basis", str(space)]


def test_basis_goldens_found():
    names = sorted(p.name for p in BASIS_GOLDEN.iterdir())
    assert len(BASIS_SPACES) == 6
    assert names == sorted(
        n for p in BASIS_SPACES for n in (p.name, *(p.name.replace(".space.", f".{v}.report.") for v in BASIS_VARIANTS))
    )


@pytest.mark.parametrize("variant", BASIS_VARIANTS)
@pytest.mark.parametrize("space", BASIS_SPACES, ids=lambda p: p.name.removesuffix(".space.json"))
def test_basis_matches_its_golden_report(space, variant, capsys):
    expected = 1 if space.name.startswith("metric-") else 0
    assert main(_basis_argv(space, variant)) == expected
    out = capsys.readouterr().out
    assert out == space.with_name(space.name.replace(".space.", f".{variant}.report.")).read_text()
    assert any(json.loads(out)["violations"].values()) == bool(expected)


# The `ultrafree campaign` report over every stage, pinned byte for byte with its
# timestamp masked.  After a deliberate change to the report, regenerate it with
#     PYTHONPATH=src python -m ultrafree --seed 3 campaign --sizes 3-8 --seeds 2 --stages all \
#         | sed 's/"generated_at": "[^"]*"/"generated_at": "<masked>"/' \
#         > tests/golden/campaign/seed3-sizes3-8-seeds2-all.report.json
CAMPAIGN_GOLDEN = Path(__file__).resolve().parent / "golden" / "campaign" / "seed3-sizes3-8-seeds2-all.report.json"


def test_campaign_matches_its_golden_report(capsys):
    assert main(["--seed", "3", "campaign", "--sizes", "3-8", "--seeds", "2", "--stages", "all"]) == 0
    out = capsys.readouterr().out
    masked = re.sub(r'"generated_at": "[^"]*"', '"generated_at": "<masked>"', out)
    assert masked.count("<masked>") == 1
    assert masked == CAMPAIGN_GOLDEN.read_text()


@pytest.mark.parametrize(
    "dist, message",
    [
        ([[0, 1, "3/4"], [1, 0, "1/2"], ["3/4", "1/2", 0]], "dendrogram requires an ultrametric space"),
        ([[0, 3, 3], [3, 0, "3/2"], [3, "3/2", 0]], "retraction claims require power-of-two distances"),
    ],
    ids=["non-ultrametric", "non-dyadic"],
)
def test_cli_embed_refuses_with_exit_two(tmp_path, capsys, dist, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"labels": ["0", "x", "y"], "dist": dist}))
    assert main(["embed", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("change, message", CORRUPTED_MERGE_TREES)
def test_cli_embed_failed_certificate_exit_one(tmp_path, capsys, monkeypatch, four_cluster, change, message):
    path = tmp_path / "space.json"
    dump_json(space_to_json(four_cluster), path)
    corrupt_merge_tree(monkeypatch, change)
    assert main(["embed", str(path)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


@pytest.mark.parametrize(
    "dist",
    [[[0, 1, "3/4"], [1, 0, "1/2"], ["3/4", "1/2", 0]], [[0, 3, 3], [3, 0, "3/2"], [3, "3/2", 0]]],
    ids=["non-ultrametric", "non-dyadic"],
)
def test_embed_refuses_as_the_library_does(tmp_path, capsys, dist):
    with pytest.raises(ValueError) as refusal:
        verify_retraction_claims(FiniteMetricSpace(("0", "x", "y"), dist))
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"labels": ["0", "x", "y"], "dist": dist}))
    assert main(["embed", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {refusal.value}\n"


def test_cli_embed_certifies_its_tree_once(tmp_path, capsys, monkeypatch, four_cluster):
    path = tmp_path / "space.json"
    dump_json(space_to_json(four_cluster), path)
    certified = count_dendrogram_certificates(monkeypatch)
    assert main(["embed", str(path)]) == 0
    assert certified == [four_cluster]


_SPACE_ROWS = [[0, 1, 1], [1, 0, "1/2"], [1, "1/2", 0]]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"labels": "0xy", "dist": _SPACE_ROWS}, "'labels' must be an array of labels"),
        ({"labels": ["0", "x", "y"], "dist": dict(zip("abc", _SPACE_ROWS))}, "'dist' must be an array of arrays of distances"),
        ({"labels": ["0", "x", "y"], "dist": ["011", "10h", "1h0"]}, "'dist' must be an array of arrays of distances"),
        ({"labels": [["x"], "b", "c"], "dist": _SPACE_ROWS}, "label 0 is an array, not a string or an integer"),
        ({"labels": ["0", None, "y"], "dist": _SPACE_ROWS}, "label 1 is null, not a string or an integer"),
        ({"labels": ["0", "x", True], "dist": _SPACE_ROWS}, "label 2 is a boolean, not a string or an integer"),
        ({"labels": ["0", {"x": 1}, "y"], "dist": _SPACE_ROWS}, "label 1 is an object, not a string or an integer"),
        ({"labels": ["0", 1.5, "y"], "dist": _SPACE_ROWS}, "label 1 is a decimal number, not a string or an integer"),
    ],
    ids=["labels-string", "dist-object", "dist-strings", "label-array", "label-null", "label-bool", "label-object",
         "label-decimal"],
)
def test_load_space_requires_arrays(tmp_path, capsys, data, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    with pytest.raises(IngestError, match=f"{message}$"):
        load_space(path)
    for command in ("validate", "basis"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_integer_labels_are_read_as_strings(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"labels": [0, 7, -2], "dist": _SPACE_ROWS}))
    assert load_space(path).labels == ("0", "7", "-2")


def test_cli_commands_read_views_born_with_their_spaces(tmp_path, capsys, monkeypatch):
    # basis, embed, l1check and a campaign on JSON or generated input: no space computes its view on first use,
    # and no tree node goes through the checks of TreePoint
    space = random_ultrametric(9, 2)
    path, dyadic = tmp_path / "space.json", tmp_path / "dyadic.json"
    dump_json(space_to_json(space), path)
    dump_json(space_to_json(round_to_dyadic(space)), dyadic)
    late = record_late_views_and_checked_points(monkeypatch)
    commands = [
        ["basis", str(path)], ["basis", "--shuffle", str(path)], ["embed", str(dyadic)], ["l1check", str(path)],
        ["campaign", "--sizes", "2-7", "--seeds", "2", "--stages", "validate,basis,embed,l1check"],
    ]
    for argv in commands:
        assert _run(argv, capsys)[0] == 0
    assert late == []
