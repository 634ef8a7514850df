import io
import json
from fractions import Fraction

import pytest

from hompoly import jsonio
from hompoly.homs import AffineMap, build_hom
from hompoly.polytope import standard
from hompoly.verify import run_claim


def test_rational_strings():
    assert jsonio.rat_to_str(Fraction(-1, 2)) == "-1/2"
    assert jsonio.rat_to_str(Fraction(4, 2)) == "2"
    assert jsonio.rat_to_str(0) == "0"
    assert jsonio.str_to_rat("-7/3") == Fraction(-7, 3)
    assert jsonio.str_to_rat("5") == 5


@pytest.mark.parametrize("x, text", [
    (0, "0"), (-7, "-7"), (2**70, str(2**70)),
    (Fraction(6, -4), "-3/2"), (Fraction(5), "5"), (Fraction(1, 2**40), f"1/{2**40}"),
    ("6/4", "3/2"), ("-10/5", "-2"), ("0.25", "1/4"), (" 3 ", "3"),
])
def test_rat_to_str_on_int_fraction_and_string_inputs(x, text):
    assert jsonio.rat_to_str(x) == text
    assert jsonio.str_to_rat(text) == Fraction(x)


def test_str_to_rat_caps_each_part_at_4300_digits():
    big = "9" * 4300
    assert jsonio.str_to_rat(f"-{big}/{big}") == -1
    for text in ("9" * 4301, f"1/{big}9"):
        with pytest.raises(ValueError, match="expected a rational string"):
            jsonio.str_to_rat(text)


@pytest.mark.parametrize("value", [True, None, 1.5, ["1"], "1e3", "+1", "1/2/3", "", "\u0661"])
def test_str_to_rat_rejects_values_outside_the_grammar(value):
    with pytest.raises(ValueError):
        jsonio.str_to_rat(value)


def test_polytope_round_trip():
    P = standard("crosspolytope", 3)
    data = json.loads(jsonio.dumps_canonical(jsonio.polytope_to_json(P)))
    Q = jsonio.polytope_from_json(data)
    assert Q.vertices == P.vertices
    assert Q.hrep == P.hrep


def test_polytope_json_vertex_order_is_canonical():
    P = standard("cube", 2)
    data = jsonio.polytope_to_json(P)
    assert data["vertices"] == sorted(data["vertices"])


F = Fraction

# (A, b, rank) of maps R^m -> R^n
MAP_CASES = [
    (((F(1, 2), F(0)),), (F(-1),), 1),
    # 2x3, negative, zero and mixed-denominator entries
    (((F(-3, 4), F(0), F(5, 6)), (F(2), F(-1, 3), F(0))), (F(-7, 10), F(0)), 2),
    # rank-deficient: the second row is -2 times the first
    (((F(1, 2), F(-1), F(3, 4)), (F(-1), F(2), F(-3, 2))), (F(1, 3), F(-2, 9)), 1),
    (((F(0), F(0), F(0)), (F(0), F(0), F(0))), (F(5, 3), F(-1)), 0),
    # integral (t = 1), negative entries
    (((F(2), F(-3)), (F(-4), F(6))), (F(0), F(-5)), 1),
    # m = 0: a constant map to R^2
    (((), ()), (F(-1, 3), F(1, 2)), 0),
]


def _map_cases():
    """The cases as AffineMaps, plus a map R^2 -> R^0 (n = 0), with the
    objects of the maps file built from their Fractions."""
    maps = [AffineMap(A, b) for A, b, _ in MAP_CASES] + [AffineMap.from_ray((1,), 2, 0)]
    objects = [{"A": [[jsonio.rat_to_str(x) for x in row] for row in A],
                "b": [jsonio.rat_to_str(x) for x in b], "rank": rank}
               for A, b, rank in [*MAP_CASES, ((), (), 0)]]
    return maps, objects


def _written(maps):
    fh = io.StringIO()
    ranks = jsonio.write_maps(fh, maps)
    return fh.getvalue(), ranks


def test_map_to_json():
    """`write_maps` writes stdlib json.dumps(sort_keys=True, indent=2) of
    the Fraction-built objects, map by map and for all maps at once,
    and returns the ranks."""
    maps, objects = _map_cases()
    for f, obj in zip(maps, objects):
        assert _written([f]) == (json.dumps([obj], sort_keys=True, indent=2) + "\n",
                                 [obj["rank"]])
    assert _written(maps) == (json.dumps(objects, sort_keys=True, indent=2) + "\n",
                              [obj["rank"] for obj in objects])
    assert _written([]) == (json.dumps([], indent=2) + "\n", [])


def test_map_round_trip():
    """The maps file read back through `str_to_rat` gives the maps."""
    maps, _ = _map_cases()
    data = json.loads(_written(maps)[0])
    assert len(data) == len(maps)
    for f, obj in zip(maps, data):
        A = tuple(jsonio.json_to_vec(row, f.source_dim) for row in obj["A"])
        b = jsonio.json_to_vec(obj["b"], f.target_dim)
        assert A == f.matrix and b == f.offset


def test_hom_json_contents():
    H = build_hom(standard("cube", 2), standard("simplex", 2))
    data = jsonio.hom_to_json(H, {"kind": "cube", "n": 2}, {"kind": "simplex", "n": 2})
    assert data["ambient_dim"] == 6
    assert len(data["inequalities"]) == 12
    assert len(data["pairs"]) == 12
    assert "b first" in data["coordinate_convention"]


def test_result_json_timing_flag():
    r = run_claim("beta-value", {"n": 1, "expected": 1})
    plain = jsonio.result_to_json(r)
    assert "elapsed_seconds" not in plain
    timed = jsonio.result_to_json(r, include_timing=True)
    assert "elapsed_seconds" in timed


def test_dumps_canonical_sorted_and_stable():
    a = jsonio.dumps_canonical({"b": 1, "a": [2, 3]})
    b = jsonio.dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
