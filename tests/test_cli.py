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


def test_polytope_file_with_infeasible_zero_normal_row_is_empty(tmp_path, capsys):
    # the square's rows plus 0 <= -1: no point satisfies them
    rows = [{"normal": n, "offset": "1"}
            for n in (["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"])]
    rows.append({"normal": ["0", "0"], "offset": "-1"})
    poly_file = tmp_path / "e.json"
    poly_file.write_text(json.dumps({"ambient_dim": 2, "inequalities": rows}))
    code, out, _ = run_cli(capsys, "intersect", f"file:{poly_file}", "cube:2")
    assert code == 0
    assert out.strip() == "intersection: 0 vertices, dim -1"
    code, out, err = run_cli(capsys, "construct", f"file:{poly_file}", "simplex:1")
    assert code == 2
    assert out == "" and "full-dimensional" in err


def test_polytope_file_with_contradictory_equation_is_empty(tmp_path, capsys):
    from hompoly import jsonio
    from hompoly.cli import parse_polytope_spec

    # x <= 1 together with the equation 0 = 1
    poly_file = tmp_path / "e.json"
    poly_file.write_text(json.dumps({
        "ambient_dim": 2,
        "inequalities": [{"normal": ["1", "0"], "offset": "1"}],
        "equations": [{"normal": ["0", "0"], "offset": "1"}]}))
    _, P = parse_polytope_spec(f"file:{poly_file}")
    assert jsonio.polytope_to_json(P) == {
        "ambient_dim": 2, "vertices": [],
        "inequalities": [{"normal": ["0", "0"], "offset": "-1"}], "equations": []}
    code, out, _ = run_cli(capsys, "intersect", f"file:{poly_file}", "cube:2")
    assert code == 0
    assert out.strip() == "intersection: 0 vertices, dim -1"
    code, out, err = run_cli(capsys, "construct", f"file:{poly_file}", "simplex:1")
    assert code == 2
    assert out == "" and "full-dimensional" in err


def test_verify_param_bool_is_converted(capsys, monkeypatch):
    from hompoly import verify

    def no_comparison(*args):
        raise AssertionError("compare=False must skip the comparison")

    monkeypatch.setattr(verify, "combinatorially_equal", no_comparison)
    code, out, _ = run_cli(capsys, "verify", "--claim", "cube-simplex-realization",
                           "--param", "m=2", "--param", "n=2",
                           "--param", "compare=False", "--json")
    assert code == 0
    assert json.loads(out)[0]["parameters"] == {"compare": False, "m": 2, "n": 2}
    with pytest.raises(AssertionError, match="skip the comparison"):
        main(["verify", "--claim", "cube-simplex-realization",
              "--param", "m=1", "--param", "n=1", "--param", "compare=true"])


@pytest.mark.parametrize("param,message", [
    ("m=x", "m must be int"),
    ("compare=maybe", "compare must be bool"),
    ("m", "expected key=value"),
])
def test_verify_param_that_does_not_convert_is_usage_error(capsys, param, message):
    code, out, err = run_cli(capsys, "verify", "--claim", "cube-simplex-realization",
                             "--param", "n=1", "--param", param)
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [["beta", "3"], ["sigma", "3", "3"],
                                  ["verify", "--list"]])
def test_bad_thread_environment_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("HOMPOLY_THREADS", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and "HOMPOLY_THREADS" in err


def test_table_without_a_usable_draw_is_usage_error(capsys):
    # eps = 1000 pushes every jittered center out of the simplex
    code, out, err = run_cli(capsys, "table", "3", "3", "--eps", "1000")
    assert code == 2
    assert out == "" and "within 32 draws" in err


def test_verify_missing_param_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "beta-value", "--param", "n=2")
    assert code == 2
    assert "expected" in err
