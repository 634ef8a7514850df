import pytest

from hompoly import verify
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
