import json
from fractions import Fraction

import pytest

from ultrafree import ell1, freespace
from ultrafree.campaign import CampaignConfig, emit_report, run_campaign
from ultrafree.cli import main
from ultrafree.freespace import FreeVector
from ultrafree.metric import random_ultrametric
from ultrafree.simplex import LpResult
from ultrafree.serialize import (
    IngestError,
    dump_json,
    ingest,
    load_space,
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
    assert main(["validate", str(path)]) == 2


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


def test_cli_embed(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["embed", str(space)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["attained_lipschitz_constant"] == "4"
    assert len(out["branching_points"]) == 2
    assert out["dendrogram"]["parent"] == [4, 3, 3, 4, -1]


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


@pytest.mark.parametrize("vectors", ["-3"])
def test_cli_l1check_bad_oracle_vectors_exit_two(tmp_path, capsys, vectors):
    space = _write_triangle(tmp_path)
    assert main(["l1check", str(space), "--oracle-vectors", vectors]) == 2
    assert capsys.readouterr().err == "error: the oracle battery size must be non-negative\n"


def test_cli_l1check_empty_oracle_battery(tmp_path, capsys):
    space = _write_triangle(tmp_path)
    assert main(["l1check", str(space), "--oracle-vectors", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_ok"] is True


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
    "corrupt, value, message",
    [
        ("_sign_potential", [0, Fraction(1, 2), Fraction(-1, 2)], "dual potential is not 1-Lipschitz on the pair (1, 2)"),
        ("_lca_flow", (Fraction(2), [(0, 2, Fraction(1)), (1, 0, Fraction(1))]),
         "primal and dual transport optima differ: 2 against 1/2"),
    ],
    ids=["potential", "flow"],
)
def test_cli_norm_failed_tree_certificate_exit_one(tmp_path, capsys, monkeypatch, corrupt, value, message):
    monkeypatch.setattr(freespace, corrupt, lambda merges, masses: value)
    space = _write_triangle(tmp_path)
    vec = tmp_path / "vec.json"
    vec.write_text('{"x": "1", "y": "-1"}')
    assert main(["norm", str(space), "--vector", str(vec)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


def test_cli_threepoint_names_the_failed_identity(capsys, monkeypatch):
    real = ell1.free_norm
    monkeypatch.setattr(ell1, "free_norm", lambda space, v: 2 * real(space, v) if v.coeffs == (1, 1) else real(space, v))
    assert main(["threepoint", "--s", "1/2", "--resolution", "4"]) == 1
    assert capsys.readouterr().err == "check failed: three-point identity failed: |dx + dy| is 4, not 2\n"


def test_cli_threepoint(tmp_path, capsys):
    assert main(["threepoint", "--s", "1/2", "--resolution", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm_sum"] == "2"
    assert Fraction(out["min_violation"]) > 0


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_cli_threepoint_bad_resolution_exit_two(capsys, resolution):
    assert main(["threepoint", "--s", "1/2", "--resolution", resolution]) == 2
    assert capsys.readouterr().err == "error: resolution must be a positive integer\n"


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


def test_campaign_includes_threepoint():
    config = CampaignConfig(
        sizes=(2,), seeds=1, stages=("validate", "threepoint"), three_point_resolution=8
    )
    report = run_campaign(config)
    assert len(report.three_point) == 4
    assert report.passed == all(r.min_violation > 0 for r in report.three_point)


def test_emitted_space_reingests_exactly(tmp_path):
    space = random_ultrametric(6, 9)
    path = tmp_path / "space.json"
    dump_json(space_to_json(space), path)
    assert ingest(path) == space
