import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import hompoly
from hompoly import cli, dd, homs, linalg, polytope
from hompoly.cli import main, parse_polytope_spec
from hompoly.homs import build_hom, enumerate_vertex_maps, map_rank
from hompoly.jsonio import dumps_canonical, rat_to_str


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


def test_vertices_out_does_not_depend_on_insertion_order(tmp_path, capsys):
    # without insertion_order the kernel inserts the rows in file order
    hom_file = tmp_path / "hom.json"
    # the first four cube vertices lie on a facet, so the order is not the identity
    run_cli(capsys, "construct", "cube:3", "simplex:2", "--out", str(hom_file))
    data = json.loads(hom_file.read_text())
    assert data["insertion_order"] != sorted(data["insertion_order"])
    del data["insertion_order"]
    plain_file = tmp_path / "plain.json"
    plain_file.write_text(json.dumps(data))
    outs = []
    for src in (hom_file, plain_file):
        maps_file = tmp_path / f"maps-{src.stem}.json"
        code, _, _ = run_cli(capsys, "vertices", str(src), "--out", str(maps_file))
        assert code == 0
        outs.append(maps_file.read_bytes())
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])) == (2 + 1) * (3 * 2 + 1)


def test_rank_histogram_with_and_without_maps_out(tmp_path, capsys):
    hom_file = tmp_path / "hom.json"
    maps_file = tmp_path / "maps.json"
    run_cli(capsys, "construct", "cube:2", "simplex:3", "--out", str(hom_file))
    _, plain, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks", "--json")
    code, with_out, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks", "--json",
                                "--out", str(maps_file))
    assert code == 0
    assert json.loads(plain)["rank_histogram"] == {"0": 4, "1": 24}
    assert json.loads(with_out)["rank_histogram"] == {"0": 4, "1": 24}
    ranks = [m["rank"] for m in json.loads(maps_file.read_text())]
    assert (ranks.count(0), ranks.count(1)) == (4, 24)


def _oracle_vertices_output(source, target):
    """The maps file and --json stdout of `vertices --ranks`, built from
    the AffineMaps of `enumerate_vertex_maps` and the Fraction writers."""
    H = build_hom(parse_polytope_spec(source)[1], parse_polytope_spec(target)[1])
    maps = enumerate_vertex_maps(H)
    payload = [{"A": [[rat_to_str(x) for x in row] for row in f.matrix],
                "b": [rat_to_str(x) for x in f.offset],
                "rank": map_rank(f)} for f in maps]
    hist = Counter(map_rank(f) for f in maps)
    summary = {"count": len(maps), "rank_histogram": {str(k): hist[k] for k in sorted(hist)}}
    return dumps_canonical(payload), dumps_canonical(summary)


@pytest.mark.parametrize("source, target, rational", [
    ("cube:3", "crosspolytope:3", True),
    ("crosspolytope:2", "crosspolytope:3", True),
    ("cube:2", "simplex:3", True),
    ("simplex:2", "cube:2", False),
])
def test_vertices_out_matches_fraction_oracle(tmp_path, capsys, source, target, rational):
    hom_file = tmp_path / "hom.json"
    maps_file = tmp_path / "maps.json"
    run_cli(capsys, "construct", source, target, "--out", str(hom_file))
    code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks", "--json",
                           "--out", str(maps_file))
    assert code == 0
    maps_text, summary = _oracle_vertices_output(source, target)
    assert maps_file.read_text() == maps_text
    assert out == summary
    assert ("/" in maps_text) == rational  # the gcd path of the coordinate strings


DEGENERATE_HOMS = {
    "infeasible": (
        {"source_dim": 1, "target_dim": 1, "ambient_dim": 2,
         "inequalities": [{"normal": ["0", "0"], "offset": "-1"}]},
        "[]\n",
        '{\n  "count": 0,\n  "rank_histogram": {}\n}\n'),
    "source-dim-0": (
        {"source_dim": 0, "target_dim": 1, "ambient_dim": 1,
         "inequalities": [{"normal": ["1"], "offset": "1/2"},
                          {"normal": ["-1"], "offset": "1/3"}]},
        '[\n  {\n    "A": [\n      []\n    ],\n    "b": [\n      "-1/3"\n    ],\n'
        '    "rank": 0\n  },\n  {\n    "A": [\n      []\n    ],\n    "b": [\n'
        '      "1/2"\n    ],\n    "rank": 0\n  }\n]\n',
        '{\n  "count": 2,\n  "rank_histogram": {\n    "0": 2\n  }\n}\n'),
    "target-dim-0": (
        {"source_dim": 2, "target_dim": 0, "ambient_dim": 0, "inequalities": []},
        '[\n  {\n    "A": [],\n    "b": [],\n    "rank": 0\n  }\n]\n',
        '{\n  "count": 1,\n  "rank_histogram": {\n    "0": 1\n  }\n}\n'),
}


@pytest.mark.parametrize("case", DEGENERATE_HOMS)
def test_vertices_out_of_degenerate_homs_is_pinned(tmp_path, capsys, case):
    data, maps_text, summary = DEGENERATE_HOMS[case]
    hom_file = tmp_path / "hom.json"
    maps_file = tmp_path / "maps.json"
    hom_file.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks", "--json",
                           "--out", str(maps_file))
    assert code == 0
    assert maps_file.read_text() == maps_text
    assert out == summary


def test_vertices_makes_no_fraction_maps(tmp_path, capsys, monkeypatch):
    """`vertices` wraps the DD's integer rays as `AffineMap`s and writes
    maps and ranks from their integers: it neither converts rays to
    Fraction points, nor reads a map's Fraction accessors, nor takes a
    rank of Fraction rows."""
    hom_file = tmp_path / "hom.json"
    maps_file = tmp_path / "maps.json"
    run_cli(capsys, "construct", "cube:2", "simplex:3", "--out", str(hom_file))

    def refuse(*args, **kwargs):
        raise AssertionError("vertices went through Fraction maps")

    # every binding, as `from .linalg import rank` makes one per module
    for original in (homs.flatten_map, dd._ray_points, linalg.rank):
        for name, mod in list(sys.modules.items()):
            if name == "hompoly" or name.startswith("hompoly."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, refuse)
    for accessor in ("matrix", "offset"):
        monkeypatch.setattr(homs.AffineMap, accessor, property(refuse))
    monkeypatch.setattr(homs.AffineMap, "evaluate", refuse)
    for out_args in ([], ["--out", str(maps_file)]):
        code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks", "--json",
                               *out_args)
        assert code == 0
        assert json.loads(out)["rank_histogram"] == {"0": 4, "1": 24}
    assert len(json.loads(maps_file.read_text())) == 28


def test_vertices_out_builds_no_payload(tmp_path, capsys, monkeypatch):
    """Without --json, `vertices --out` writes the maps file straight
    from the maps: `dumps_canonical` is never called, and the file holds
    the oracle's bytes."""
    hom_file = tmp_path / "hom.json"
    maps_file = tmp_path / "maps.json"
    run_cli(capsys, "construct", "crosspolytope:2", "crosspolytope:3", "--out", str(hom_file))
    maps_text, _ = _oracle_vertices_output("crosspolytope:2", "crosspolytope:3")

    def refuse(obj):
        raise AssertionError("vertices built a payload for dumps_canonical")

    monkeypatch.setattr(cli.jsonio, "dumps_canonical", refuse)
    code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--ranks",
                           "--out", str(maps_file))
    assert code == 0
    assert maps_file.read_text() == maps_text
    assert out.startswith(f"vertex maps: {len(json.loads(maps_text))}\n")


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


@pytest.mark.parametrize("argv", [("sigma", "5000", "3"),
                                  ("count", "diamond-simplex", "5000", "3")],
                         ids=["sigma", "count"])
def test_closed_forms_at_large_m_exit_0(argv):
    # a RecursionError would exit 1, which means a failed verification
    env = dict(os.environ, PYTHONPATH=str(Path(hompoly.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "hompoly.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout


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


@pytest.mark.parametrize("command, summary", [
    (["construct", "cube:2", "simplex:2"], {"ambient_dim": 6, "inequalities": 12}),
    (["dual", "crosspolytope:2"], {"facets": 4, "vertices": 4}),
    (["intersect", "simplex:2", "cube:2"], {"dim": 2, "vertices": 3}),
])
def test_out_with_json_prints_a_json_summary(tmp_path, capsys, command, summary):
    out_file = tmp_path / "object.json"
    code, out, _ = run_cli(capsys, *command, "--out", str(out_file), "--json")
    assert code == 0
    assert json.loads(out) == summary
    _, full, _ = run_cli(capsys, *command, "--json")
    assert out_file.read_text() == full


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


@pytest.mark.parametrize("number", [
    "1e10000000",   # Fraction would build a 33 M-bit integer from it
    "0.5", "1_000", " 1/2 ", "1/0", "1/-2", "--1",
])
def test_malformed_number_in_polytope_file_is_usage_error(tmp_path, capsys, number):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps({"ambient_dim": 1, "vertices": [["0"], [number]]}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "construct", f"file:{poly_file}", "cube:1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert repr(number) in err


class _Built(ValueError):
    """Raised by the stand-in for the building step of `standard`: the
    spec passed the guard."""


def _refuse_to_build(monkeypatch):
    def built(kind, n):
        raise _Built(f"built {kind}:{n}")

    monkeypatch.setattr(polytope, "_build_standard", built)


@pytest.mark.parametrize("command, first, second", [
    ("construct", "cube:40", "simplex:1"),
    ("construct", "file:{segment}", "crosspolytope:9"),
    ("dual", "crosspolytope:40", None),
    ("dual", "cube:9", None),
    ("intersect", "simplex:256", "simplex:2"),
    ("intersect", "file:{segment}", "cube:40"),
    ("construct", f"cube:{10 ** 30}", "simplex:1"),
])
def test_oversized_spec_is_refused_before_it_is_built(tmp_path, monkeypatch, capsys,
                                                      command, first, second):
    """Over SPEC_SIZE_GUARD vertices or facets a spec exits 2 before
    `standard` builds it; with --allow-large it reaches the building
    step.  The stand-in raises, so a broken guard allocates nothing."""
    segment = tmp_path / "segment.json"
    segment.write_text(json.dumps({"ambient_dim": 1, "vertices": [["0"], ["1"]]}))
    first = first.format(segment=segment)
    big = second if first.startswith("file:") else first
    argv = [command, first] + [second] * (second is not None)
    _refuse_to_build(monkeypatch)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"polytope {big!r} has more than 256" in err and "--allow-large" in err
    code, _, err = run_cli(capsys, *argv, "--allow-large")
    assert code == 2
    assert f"error: built {big}" in err


@pytest.mark.parametrize("spec", ["cube:8", "crosspolytope:8", "simplex:255"])
def test_spec_at_the_size_guard_is_built(monkeypatch, capsys, spec):
    _refuse_to_build(monkeypatch)
    for argv in (["construct", spec, "simplex:1"], ["dual", spec],
                 ["intersect", spec, "simplex:1"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: built {spec}" in err


def test_oversized_hom_is_refused_before_its_rows_are_built(tmp_path, monkeypatch, capsys):
    """construct meets the interactive gate once both polytopes are
    built: Hom(cube 8, simplex 60) has 256 x 61 rows in dimension 540.
    With --allow-large the call reaches `build_hom`; the stand-in raises,
    so a broken gate writes nothing."""
    out_file = tmp_path / "hom.json"
    argv = ["construct", "cube:8", "simplex:60", "--out", str(out_file)]

    def built(P, Q):
        raise ValueError("built the hom")

    monkeypatch.setattr(cli, "build_hom", built)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "15616 inequalities in dimension 540" in err and "--allow-large" in err
    assert not out_file.exists()
    code, _, err = run_cli(capsys, *argv, "--allow-large")
    assert code == 2 and "error: built the hom" in err
    assert not out_file.exists()


def test_polytope_file_interior_point_is_not_a_vertex(tmp_path, capsys):
    # (1, 1) lies inside the triangle: 3 source vertices x 2 segment facets
    poly_file = tmp_path / "tri.json"
    poly_file.write_text(json.dumps({"ambient_dim": 2, "vertices": [
        ["0", "0"], ["4", "0"], ["0", "4"], ["1", "1"]]}))
    code, out, _ = run_cli(capsys, "construct", f"file:{poly_file}", "cube:1")
    assert code == 0
    assert "inequalities 6" in out


def test_construct_with_redundant_target_row_uses_only_facets(tmp_path, capsys):
    # the square [-1, 1]^2 plus the redundant row x + y <= 5: one hom row
    # per (vertex, facet) pair, none for the redundant row
    rows = [{"normal": n, "offset": "1"}
            for n in (["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"])]
    rows.append({"normal": ["1", "1"], "offset": "5"})
    poly_file = tmp_path / "sq.json"
    poly_file.write_text(json.dumps({"ambient_dim": 2, "inequalities": rows}))
    code, out, _ = run_cli(capsys, "construct", "cube:1", f"file:{poly_file}")
    assert code == 0
    assert "inequalities 8" in out
    maps = []
    for name, target in (("file", f"file:{poly_file}"), ("cube", "cube:2")):
        hom_file = tmp_path / f"hom-{name}.json"
        maps_file = tmp_path / f"maps-{name}.json"
        run_cli(capsys, "construct", "cube:1", target, "--out", str(hom_file))
        assert {fi for _, fi in json.loads(hom_file.read_text())["pairs"]} == {0, 1, 2, 3}
        code, out, _ = run_cli(capsys, "vertices", str(hom_file), "--out", str(maps_file))
        assert code == 0 and "vertex maps: 16" in out
        maps.append(maps_file.read_bytes())
    assert maps[0] == maps[1]


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


def test_polytope_file_empty_with_normals_that_do_not_span(tmp_path, capsys):
    # x <= -1 and -x <= -1 in the plane: empty, though the normals span
    # only a line; with room between the rows the strip is unbounded
    for offset, code_want, out_want in (("-1", 0, "intersection: 0 vertices, dim -1"),
                                        ("1", 2, "")):
        rows = [{"normal": ["1", "0"], "offset": offset},
                {"normal": ["-1", "0"], "offset": offset}]
        poly_file = tmp_path / f"rows{offset}.json"
        poly_file.write_text(json.dumps({"ambient_dim": 2, "inequalities": rows}))
        code, out, err = run_cli(capsys, "intersect", f"file:{poly_file}", "cube:2")
        assert (code, out.strip()) == (code_want, out_want)
        assert "Traceback" not in err


# a quadrilateral with rational vertices; its facet offsets are 10, 7, 1
# and 2, those of its polar dual 10, 7, 3 and 4
RATIONAL_QUAD = {"ambient_dim": 2, "vertices": [
    ["1/3", "0"], ["-1/2", "1/5"], ["0", "-2/7"], ["1/4", "1/4"]]}


def test_dual_of_rational_quadrilateral_is_pinned(tmp_path, capsys):
    """The dual's vertices are the normals over the (int) facet offsets;
    1 / 10 and 1 / 7 taken as floats would give other vertices."""
    poly_file = tmp_path / "quad.json"
    poly_file.write_text(json.dumps(RATIONAL_QUAD))
    code, out, _ = run_cli(capsys, "dual", f"file:{poly_file}", "--json")
    assert code == 0
    assert json.loads(out) == {
        "ambient_dim": 2, "equations": [],
        "inequalities": [{"normal": ["-5", "2"], "offset": "10"},
                         {"normal": ["0", "-2"], "offset": "7"},
                         {"normal": ["1", "0"], "offset": "3"},
                         {"normal": ["1", "1"], "offset": "4"}],
        "vertices": [["-17/5", "-7/2"], ["-2/7", "30/7"], ["3", "-7/2"], ["3", "1"]]}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8bd45e079d76bab7d61fe35f883684de50097c3de430aaed09b9c40d35ab2e1d")


def test_construct_from_rational_quadrilateral_is_pinned(tmp_path, capsys, monkeypatch):
    """Hom rows of a rational source: the entries that are not integral
    stay Fractions, and the JSON is the one written when every entry
    was a Fraction.  The file is named relative to the working directory
    because the output records its path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quad.json").write_text(json.dumps(RATIONAL_QUAD))
    code, out, _ = run_cli(capsys, "construct", "file:quad.json", "simplex:2", "--json")
    assert code == 0
    rows = json.loads(out)["inequalities"]
    assert len(rows) == 12 and rows[0] == {"normal": ["-1", "0", "1/2", "-1/5", "0", "0"],
                                           "offset": "0"}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d7bc80863f32a8242fec98e82df50d72125fb4d15b7e41a025416f26f2264fc8")


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


@pytest.mark.parametrize("value", ["0", "-3", "2.5"])
def test_thread_count_that_is_not_a_positive_integer_is_usage_error(capsys, monkeypatch, recording_pool, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", value])
    assert exc.value.code == 2
    assert f"--threads: must be an integer >= 1, got '{value}'" in capsys.readouterr().err
    monkeypatch.setenv("HOMPOLY_THREADS", value)
    code, out, err = run_cli(capsys, "verify", "--claim", "beta-value",
                             "--param", "n=1", "--param", "expected=1")
    assert code == 2
    assert out == "" and err == f"error: HOMPOLY_THREADS must be an integer >= 1, got '{value}'\n"
    assert recording_pool == []


def test_verify_threads_beyond_the_claims_start_one_worker_per_claim(
        capsys, monkeypatch, recording_pool):
    from hompoly import verify

    plan = [("beta-value", {"n": 1, "expected": 1}), ("beta-value", {"n": 2, "expected": 0})]
    monkeypatch.setattr(verify, "CORE_SUITE", plan)
    code, out, _ = run_cli(capsys, "verify", "--threads", "5000", "--json")
    assert code == 0 and len(json.loads(out)) == 2
    monkeypatch.setenv("HOMPOLY_THREADS", "5000")
    assert run_cli(capsys, "verify", "--json")[:2] == (code, out)
    assert recording_pool == [2, 2]


def test_table_without_a_usable_draw_is_usage_error(capsys):
    # eps = 1000 pushes every jittered center out of the simplex
    code, out, err = run_cli(capsys, "table", "3", "3", "--eps", "1000")
    assert code == 2
    assert out == "" and "within 32 draws" in err


@pytest.mark.parametrize("eps", [
    "1e2000000",   # Fraction would build a 6.6 M-bit integer from it
    "0.001", "1e-3", "1_000", " 1/1000 ", "1/0",
])
def test_table_eps_outside_the_number_grammar_is_usage_error(capsys, eps):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "3", "3", "--eps", eps)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "" and repr(eps) in err


@pytest.mark.parametrize("command", ["vertices {path}", "dual file:{path}",
                                     "construct file:{path} simplex:1"])
def test_too_deeply_nested_json_is_usage_error(tmp_path, capsys, command):
    """JSON nested past the parser's recursion limit exits 2 with a
    message, not 1 with a RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, *command.format(path=path).split())
    assert code == 2
    assert out == "" and err == f"error: JSON in {str(path)!r} is nested too deeply\n"


@pytest.mark.parametrize("claim,params,message", [
    ("count-agreement", ["family=foo", "m=1", "n=1"], "unknown count family 'foo'"),
    ("diamond-image-shape-witness", ["m=3", "n=3"], "needs m > n > 3"),
    ("rank-sandwich", ["m=2", "k=3"], "needs 1 <= k <= m"),
], ids=["unknown-family", "witness-m-not-above-n", "sandwich-k-above-m"])
def test_verify_bad_claim_parameters_are_usage_errors(capsys, claim, params, message):
    argv = ["verify", "--claim", claim]
    for kv in params:
        argv += ["--param", kv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


def test_verify_missing_param_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "beta-value", "--param", "n=2")
    assert code == 2
    assert "expected" in err


# SHA-256 of stdout, recorded before the enumerated counts were read from
# the claims' cached enumeration and before beta was counted by its lemma
COUNT_ENUMERATE_SHA256 = {
    ("box-simplex", 2, 2): "c7ce17b8f7dafcc432da89cdc1d8a60b7e364b45a070ca7b5b25df76302907c5",
    ("box-simplex", 3, 3): "0c44e149aedd77b0fa3fd3333710e86eec08de647e2708095ae2c7d0ddc93599",
    ("diamond-simplex", 2, 2): "9311ac903be67a22359eb737db7c7d9d93e1b8c483b922e889860a6cb750b9e0",
    ("diamond-simplex", 3, 2): "13a1e9811942fb7f2bb8f9bd0465db72ac05e16a7101e33ab4571726e3d3e234",
    ("diamond-simplex", 2, 3): "d24449abcd4216bb4149a8d17be50eb54883f2f1ab9245178d11604baa48d77d",
    ("diamond-simplex", 3, 3): "91f627ae3e5cc19a31d23c8389a8f2b3867c305a0795a80de3de107a6ab4fc04",
    ("diamond-diamond", 2, 2): "6d25eda959e730d10992a3edd6dab8f193c787bd837a12ed3e43a916b69d4200",
    ("diamond-diamond", 2, 3): "9e15b11d31a730b0830989793333ac5bf50d960733737f61cc64ef1b379da362",
    ("diamond-diamond", 3, 2): "d8d38f4a6d0c98b743f9d75afedb825613bdf8ab28fe29cade7b620756ff2788",
}
BETA_SHA256 = {
    1: "c9a6ff9312cb86fec5f8aea5f5221428760d805572eb42fa1ef248c80b53e3bc",
    2: "d2d026909a6496984cbce9cfb09d2fb30e8f1267738c2729520c12b33519947a",
    3: "872faf1ef5cd828fba702e1b190a808a6182fee9c98811877090746b87567374",
    4: "41cdd697c2c235586ae0363b133e8552ba61ca16efe5cba90bea125ad90e4895",
    5: "3af4541c39017a2debd9cd54f6475c57a39906eb26f55bd4f373db5ffa47d4af",
}


def test_count_enumerate_json_is_pinned(capsys):
    from hompoly.verify import CORE_SUITE

    plan = [(p["family"], p["m"], p["n"]) for c, p in CORE_SUITE if c == "count-agreement"]
    assert sorted(plan) == sorted(COUNT_ENUMERATE_SHA256)
    for (family, m, n), digest in COUNT_ENUMERATE_SHA256.items():
        code, out, _ = run_cli(capsys, "count", family, str(m), str(n), "--enumerate", "--json")
        assert code == 0
        assert json.loads(out)["agreement"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_beta_json_is_pinned(capsys):
    for n, digest in BETA_SHA256.items():
        code, out, _ = run_cli(capsys, "beta", str(n), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the --json stdout, recorded while the V -> H conversion still
# took Fraction points: hulls, duals and intersections are byte-identical
BUILT_SHA256 = {
    ("dual", "cube:4"): "1271411fb1e0cd36e9b122ff98f75982337465576c9f1dba7b11ebdf0197f24c",
    ("intersect", "cube:3", "crosspolytope:3"):
        "9e6ec4b98a8145627f33031ecdd328d7e72979ea7b49250a10e7fe4e897df50d",
    ("intersect", "simplex:3", "crosspolytope:3"):
        "c0de7e34208a56ee403e3d11af53e927760636b57bc80a54f2a4faaf5ef2339a",
    ("table", "3", "8", "--seed", "1"):
        "ed8200d0590221241d983f4dfdedc7fbe2188311bcf4c55290294f53648932bc",
}


@pytest.mark.parametrize("argv", list(BUILT_SHA256), ids=" ".join)
def test_dual_intersect_and_table_json_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BUILT_SHA256[argv]


def test_count_enumerate_is_size_guarded(capsys, monkeypatch):
    from hompoly import verify

    def no_enumeration(*args):
        raise AssertionError("enumerated past the size guard")

    # the gate runs inside `_hom`, before the hom is built
    monkeypatch.setattr(verify, "_hom", verify._hom.__wrapped__)
    monkeypatch.setattr(verify, "build_hom", no_enumeration)
    # Hom(crosspolytope_4, crosspolytope_4): 8 x 16 = 128 rows in dimension 20
    code, out, err = run_cli(capsys, "count", "diamond-diamond", "4", "4", "--enumerate")
    assert (code, out) == (2, "")
    assert "128 inequalities in dimension 20" in err and "--allow-large" in err


def test_count_enumerate_allow_large_passes_the_guard(capsys, monkeypatch):
    from hompoly import verify

    limits = []

    def enumerated_count(family, m, n, limit):
        limits.append(limit)
        return 13704

    monkeypatch.setattr(verify, "enumerated_count", enumerated_count)
    code, out, _ = run_cli(capsys, "count", "diamond-diamond", "4", "4", "--enumerate",
                           "--allow-large", "--json")
    assert code == 0
    assert json.loads(out)["enumerated"] == 13704
    assert limits == [None]  # no limit: neither the spec gate nor the DD gate


def test_count_enumerate_disagreement_exits_1(capsys, monkeypatch):
    from hompoly import verify

    monkeypatch.setattr(verify, "enumerated_count", lambda family, m, n, limit: 0)
    code, out, _ = run_cli(capsys, "count", "box-simplex", "2", "2", "--enumerate")
    assert code == 1
    assert out.endswith("enumerated: 0 (DISAGREES)\n")


@pytest.mark.parametrize("argv", [
    ("box-simplex", "100000000000", "2"),
    ("diamond-diamond", "3", "100000000000"),
    ("box-simplex", "100000", "2"),  # 2^100000 has over 4,300 digits
], ids=" ".join)
def test_count_enumerate_of_an_oversized_spec_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", *argv, "--enumerate")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "has more than 256 vertices or facets" in err and "--allow-large" in err


@pytest.mark.parametrize("claim, params", [
    ("dim-formula", ("source=cube", "m=40", "target=simplex", "n=1")),
    ("count-agreement", ("family=box-simplex", "m=9", "n=1")),
    ("diamond-image-shape-witness", ("m=40", "n=5")),
], ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_oversized_claim_spec_names_the_claim_limit(capsys, claim, params):
    """verify takes no --allow-large, so the spec gate's refusal on the
    claim path names the claim limit instead, as the DD gate's does."""
    argv = [x for kv in params for x in ("--param", kv)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--claim", claim, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "has more than 256 vertices or facets; claims stop at 256 vertices or facets" in err
    assert "--allow-large" not in err


def test_cli_import_leaves_out_the_process_pool():
    # the process pool is imported only by `verify --threads N` with N > 1;
    # it would pull multiprocessing, pickle and socket into every run
    env = dict(os.environ, PYTHONPATH=str(Path(hompoly.__file__).resolve().parents[1]))
    probe = "import sys, hompoly.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
