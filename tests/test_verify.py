from fractions import Fraction
from functools import lru_cache

import pytest

from hompoly import verify
from hompoly.counts import beta, sigma
from hompoly.homs import AffineMap, flatten_map, image_polytope, is_vertex_map, map_rank
from hompoly.linalg import vec
from hompoly.polytope import combinatorially_equal, intersect, negate, standard, translate
from hompoly.verify import CLAIMS, CORE_SUITE, VerificationResult, run_claim, run_suite


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claim("no-such-claim", {})


def test_box_simplex_rank_claim():
    r = run_claim("box-simplex-rank", {"m": 3, "n": 2})
    assert r.passed
    assert r.witness is None
    assert r.elapsed >= 0


def test_diamond_center_claim():
    assert run_claim("diamond-center", {"m": 2, "n": 2}).passed


def test_dim_formula_claim():
    r = run_claim("dim-formula",
                  {"source": "simplex", "m": 1, "target": "simplex", "n": 1})
    assert r.passed


def test_constant_maps_claim():
    assert run_claim("constant-maps",
                     {"source": "cube", "m": 2, "target": "simplex", "n": 2}).passed


def test_facet_form_claim():
    assert run_claim("facet-form",
                     {"source": "simplex", "m": 1, "target": "simplex", "n": 2}).passed


def test_hom_into_cube_claim():
    assert run_claim("hom-into-cube",
                     {"source": "crosspolytope", "m": 2, "n": 1}).passed


def test_failing_claim_reports_witness():
    r = run_claim("beta-value", {"n": 2, "expected": 99})
    assert not r.passed
    assert r.witness == {"beta": 0, "expected": 99}


def test_every_core_claim_id_is_registered():
    for cid, params in CORE_SUITE:
        assert cid in CLAIMS
        # parameters must bind to the claim callable
        import inspect

        sig = inspect.signature(CLAIMS[cid])
        sig.bind(**params)


def test_every_registered_claim_has_core_coverage():
    covered = {cid for cid, _ in CORE_SUITE}
    extended_only = {"box-diamond-large", "diamond-image-shape-witness"}
    assert covered | extended_only == set(CLAIMS)


def test_run_suite_returns_results_in_plan_order():
    results = run_suite("core")
    assert [(r.claim_id, r.parameters) for r in results] == CORE_SUITE
    assert len(results) == 69
    failed = [(r.claim_id, r.parameters, r.witness) for r in results if r.status != "pass"]
    assert failed == []
    with pytest.raises(ValueError):
        run_suite("nightly")


def test_suite_results_do_not_depend_on_thread_count(monkeypatch):
    plan = [
        ("dim-formula", {"source": "cube", "m": 2, "target": "simplex", "n": 2}),
        ("box-simplex-rank", {"m": 2, "n": 2}),
        ("diamond-center", {"m": 2, "n": 2}),
        ("count-agreement", {"family": "box-simplex", "m": 2, "n": 2}),
        ("beta-value", {"n": 4, "expected": 5}),
        ("beta-value", {"n": 3, "expected": 99}),  # fails, with a witness
    ]
    monkeypatch.setattr(verify, "CORE_SUITE", plan)

    def outcome(threads):
        return [(r.claim_id, r.parameters, r.status, r.witness)
                for r in run_suite("core", threads=threads)]

    serial = outcome(1)
    assert [(cid, params) for cid, params, _, _ in serial] == plan
    assert [status for _, _, status, _ in serial] == ["pass"] * 5 + ["fail"]
    assert outcome(2) == serial


def test_vertex_image_law_single():
    assert run_claim("vertex-image-law",
                     {"m": 2, "target": "simplex", "n": 2}).passed


def test_face_law_single():
    assert run_claim("face-law", {"source": "simplex", "m": 1, "n": 2}).passed


def test_result_dataclass():
    r = VerificationResult("x", {}, "pass")
    assert r.passed and r.witness is None


@pytest.mark.parametrize("m, n", [(3, 3), (4, 3)])
def test_diamond_records_match_image_oracle(m, n):
    """The record agrees with the generic path, image H-rep plus
    isomorphism search, on every vertex map at the core-suite sizes."""
    P, _, _, maps = verify._hom("crosspolytope", m, "simplex", n)
    model = standard("crosspolytope", n)
    expected = tuple((map_rank(f), combinatorially_equal(image_polytope(f, P), model))
                     for f in maps)
    assert verify._diamond_records(m, n) == expected


def _map(columns, offset):
    n = len(offset)
    return AffineMap(tuple(vec(col[j] for col in columns) for j in range(n)), vec(offset))


@pytest.mark.parametrize("columns, record", [
    ([(2, 0), (0, 2), (1, 1)], (2, True)),      # a_3 on the boundary: |a_S^-1 a_3|_1 = 1
    ([(2, 0), (0, 2), (2, 2)], (2, False)),     # a_3 outside: a hexagon
    ([(1, 0), (0, 1), (-1, 0), (0, 0)], (2, True)),    # opposite and zero columns
    ([(1, 2), (2, 4), (-1, -2)], (1, False)),   # rank below n
    ([(0, 0), (0, 0), (1, 0), (0, 1), (1, 1)], (2, False)),  # the first basis is singular
    ([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 6))], (2, True)),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], (3, False)),
    ([(1, 0, 0), (0, 1, 0)], (2, False)),       # m < n
])
def test_cross_record_on_hand_picked_maps(columns, record):
    f = _map(columns, (0,) * len(columns[0]))
    assert verify._cross_record(f) == record
    P = standard("crosspolytope", f.source_dim)
    model = standard("crosspolytope", f.target_dim)
    assert combinatorially_equal(image_polytope(f, P), model) == record[1]


def _non_crosspolytope_vertex_map():
    """The rank-4 vertex map of Hom(crosspolytope_5, simplex_4) built as in
    the diamond-image-shape-witness claim."""
    f = verify._full_rank_diamond_witness(4)
    b = f.offset
    target = standard("simplex", 4)
    K = intersect(target, translate(negate(target), [2 * x for x in b]))
    hit = set(image_polytope(f, standard("crosspolytope", 4)).vertices)
    v = next(v for v in K.vertices if v not in hit)
    column = [vi - bi for vi, bi in zip(v, b)]
    return AffineMap(tuple(row + (c,) for row, c in zip(f.matrix, column)), b)


def test_diamond_image_claims_fail_with_the_generic_witness(monkeypatch):
    P, Q = standard("crosspolytope", 5), standard("simplex", 4)
    g = _non_crosspolytope_vertex_map()
    assert map_rank(g) == 4 and is_vertex_map(g, P, Q)
    img = image_polytope(g, P)
    assert not combinatorially_equal(img, standard("crosspolytope", 4))
    monkeypatch.setattr(verify, "_hom", lambda *key: (P, Q, None, (g,)))
    monkeypatch.setattr(verify, "_diamond_records",
                        lru_cache(maxsize=64)(verify._diamond_records.__wrapped__))
    assert verify._diamond_records(5, 4) == ((4, False),)
    shape = run_claim("diamond-image-shape", {"m": 5, "n": 4})
    assert not shape.passed
    assert shape.witness == {"map": [str(x) for x in flatten_map(g)],
                             "image_vertices": img.n_vertices}
    count = run_claim("diamond-image-count", {"m": 5, "n": 4})
    assert not count.passed
    assert count.witness == {"crosspolytope_image_maps": 0,
                             "expected": sigma(5, 4) * beta(4)}
