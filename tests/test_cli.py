import json

import pytest

from hompoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_summary(capsys):
    code, out, _ = run_cli(capsys, "construct", "cube:2", "simplex:2")
    assert code == 0
    assert "dimension 6" in out
    assert "inequalities 12" in out


def test_construct_then_vertices(tmp_path, capsys):
    hom_file = tmp_path / "hom.json"
    code, _, _ = run_cli(capsys, "construct", "cube:2", "simplex:3",
                         "--out", str(hom_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks")
    assert code == 0
    assert "vertex maps: 28" in out
    assert "0: 4" in out and "1: 24" in out


def test_vertices_json_and_maps_out(tmp_path, capsys):
    hom_file = tmp_path / "hom.json"
    maps_file = tmp_path / "maps.json"
    run_cli(capsys, "construct", "crosspolytope:2", "crosspolytope:2",
            "--out", str(hom_file))
    code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--json",
                           "--out", str(maps_file))
    assert code == 0
    assert json.loads(out)["count"] == 36
    maps = json.loads(maps_file.read_text())
    assert len(maps) == 36
    assert {"A", "b", "rank"} <= set(maps[0])


def test_custom_polytope_file_round_trip(tmp_path, capsys):
    hom_file = tmp_path / "hom.json"
    poly_file = tmp_path
    poly_file = tmp_path / "poly.json"
    code, out, _ = run_cli(capsys, "dual", "cube:2", "--out", str(poly_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "construct", f"file:{poly_file}", "cube:1",
                           "--out", str(hom_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "vertices", str(hom_file))
    assert code == 0
    # the dual of the square is the diamond; maps into a segment: (2^2+2)^1
    assert "vertex maps: 6" in out


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "box-simplex", "2", "3")
    assert code == 0
    assert "28" in out


def test_count_enumerate_cross_check(capsys):
    code, out, _ = run_cli(capsys, "count", "diamond-simplex", "2", "2", "--enumerate")
    assert code == 0
    assert "agrees" in out


def test_count_bounds(capsys):
    code, out, _ = run_cli(capsys, "count", "box-diamond-bound", "3", "4")
    assert code == 0 and "320" in out
    code, out, _ = run_cli(capsys, "count", "intersection-bound", "3")
    assert code == 0 and "56" in out


def test_beta_and_sigma(capsys):
    code, out, _ = run_cli(capsys, "beta", "4")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "sigma", "3", "3")
    assert code == 0 and out.strip() == "48"


def test_beta_large_guard(capsys):
    code, out, _ = run_cli(capsys, "beta", "5")
    assert code == 0
    assert out.strip() == "408"
    code, _, err = run_cli(capsys, "beta", "6")
    assert code == 2
    assert "guarded to n <= 5" in err
    code, out, _ = run_cli(capsys, "beta", "4", "--allow-large")
    assert (code, out.strip()) == (0, "5")


def test_table_command(capsys):
    code, out, _ = run_cli(capsys, "table", "3", "3", "--seed", "1")
    assert code == 0
    assert " 12 " in out and "56" in out


def test_table_json_identical_across_runs(capsys):
    code, out1, _ = run_cli(capsys, "table", "3", "3", "--seed", "2", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "table", "3", "3", "--seed", "2", "--json")
    assert out1 == out2
    rows = json.loads(out1)
    assert rows[0]["perturbed_count"] == 12


def test_verify_single_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "box-simplex-rank",
                           "--param", "m=2", "--param", "n=2")
    assert code == 0
    assert "[pass]" in out


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "diamond-center" in out


def test_verify_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "beta-value",
                           "--param", "n=2", "--param", "expected=7")
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_claim_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "nope")
    assert code == 2
    assert "unknown claim" in err


def test_dual_command(capsys):
    code, out, _ = run_cli(capsys, "dual", "crosspolytope:2")
    assert code == 0
    assert "4 vertices" in out


def test_dual_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "dual", "simplex:2")
    assert code == 2
    assert "interior" in err


def test_intersect_command(capsys):
    # the standard diamond is inscribed in the square, so their
    # intersection is the diamond itself
    code, out, _ = run_cli(capsys, "intersect", "cube:2", "crosspolytope:2")
    assert code == 0
    assert "4 vertices" in out


def test_bad_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "intersect", "pyramid:2", "cube:2")
    assert code == 2


def test_json_text_carry_same_numbers(capsys):
    code, text_out, _ = run_cli(capsys, "count", "diamond-diamond", "2", "3")
    code, json_out, _ = run_cli(capsys, "count", "diamond-diamond", "2", "3", "--json")
    payload = json.loads(json_out)
    assert str(payload["closed_form"]) in text_out
    assert payload["closed_form"] == 90


def _bad_hom(tmp_path, capsys, edit):
    hom_file = tmp_path / "hom.json"
    code, _, _ = run_cli(capsys, "construct", "cube:2", "simplex:2", "--out", str(hom_file))
    assert code == 0
    data = json.loads(hom_file.read_text())
    edit(data)
    hom_file.write_text(json.dumps(data))
    return run_cli(capsys, "vertices", str(hom_file), "--json")


@pytest.mark.parametrize("order", [
    [0, *range(11)],         # index 0 twice, 11 missing
    [-1, *range(1, 12)],     # negative index
    [*range(11), 12],        # out of range
])
def test_vertices_rejects_bad_insertion_order(tmp_path, capsys, order):
    code, out, err = _bad_hom(tmp_path, capsys,
                              lambda d: d.update(insertion_order=order))
    assert code == 2
    assert out == "" and "insertion_order" in err


def test_vertices_rejects_hom_without_inequalities(tmp_path, capsys):
    code, _, err = _bad_hom(tmp_path, capsys, lambda d: d.pop("inequalities"))
    assert code == 2
    assert "inequalities" in err


@pytest.mark.parametrize("payload", [
    {"vertices": [["0"], ["1"]]},   # no ambient_dim
    [["0"], ["1"]],                 # top level is a list
])
def test_malformed_polytope_file_is_usage_error(tmp_path, capsys, payload):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "construct", f"file:{poly_file}", "cube:1")
    assert code == 2
    assert "polytope JSON" in err


def test_polytope_file_interior_point_is_not_a_vertex(tmp_path, capsys):
    # (1, 1) lies inside the triangle: 3 source vertices x 2 segment facets
    poly_file = tmp_path / "tri.json"
    poly_file.write_text(json.dumps({"ambient_dim": 2, "vertices": [
        ["0", "0"], ["4", "0"], ["0", "4"], ["1", "1"]]}))
    code, out, _ = run_cli(capsys, "construct", f"file:{poly_file}", "cube:1")
    assert code == 0
    assert "inequalities 6" in out


def test_polytope_file_vertices_and_rows_must_agree(tmp_path, capsys):
    # the rows describe [0, 2], the vertices [0, 1]
    poly_file = tmp_path / "bad.json"
    poly_file.write_text(json.dumps({
        "ambient_dim": 1, "vertices": [["0"], ["1"]],
        "inequalities": [{"normal": ["1"], "offset": "2"},
                         {"normal": ["-1"], "offset": "0"}]}))
    code, out, err = run_cli(capsys, "construct", "cube:1", f"file:{poly_file}")
    assert code == 2
    assert out == "" and "different polytopes" in err


def test_verify_missing_param_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "beta-value", "--param", "n=2")
    assert code == 2
    assert "expected" in err
