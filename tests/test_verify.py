import contextlib
import logging
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest

from _oracles import _dot, reflected_points, strictly_inside
from hompoly import dd, homs, verify
from hompoly.counts import beta, sigma
from hompoly.homs import (
    AffineMap,
    build_hom,
    flatten_map,
    image_polytope,
    is_vertex_map,
    map_rank,
    restrict_to_subcrosspolytope,
)
from hompoly.linalg import rank, vec
from hompoly.polytope import (
    combinatorially_equal,
    from_inequalities,
    from_points,
    intersect,
    standard,
)
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


def test_count_agreement_reads_the_enumeration_dim_formula_cached(monkeypatch):
    from hompoly import homs

    calls = []
    original = homs.enumerate_vertex_maps

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patch the defining module too, so an enumeration that bypasses
    # verify's own binding is counted as well
    monkeypatch.setattr(homs, "enumerate_vertex_maps", counting)
    monkeypatch.setattr(verify, "enumerate_vertex_maps", counting)
    verify._hom.cache_clear()
    assert run_claim("dim-formula", {"source": "crosspolytope", "m": 3,
                                     "target": "simplex", "n": 3}).passed
    assert run_claim("count-agreement",
                     {"family": "diamond-simplex", "m": 3, "n": 3}).passed
    assert len(calls) == 1


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


def test_box_diamond_large_at_cube_4_crosspolytope_3_keeps_few_rays(caplog):
    # Hom(cube 4, crosspolytope 3) goes in facet by facet (8 facets, 16
    # vertices) and peaks at 2,318 rays; vertex by vertex it peaked at
    # 13,737 and took about ten times as long
    import re

    from hompoly.counts import bound_box_diamond

    assert bound_box_diamond(4, 3) == 270
    params = {"m": 4, "n": 3, "expected": 270}
    assert ("box-diamond-large", params) in verify.EXTENDED_SUITE
    verify._hom.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="hompoly.dd"):
        result = run_claim("box-diamond-large", params)
    assert (result.status, result.witness) == ("pass", None)
    rays = [int(re.search(r": rays (\d+),", r.getMessage()).group(1))
            for r in caplog.records if r.name == "hompoly.dd"]
    assert rays and max(rays) <= 2400


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


def test_suite_starts_no_more_workers_than_claims(monkeypatch, recording_pool):
    plan = [("beta-value", {"n": 1, "expected": 1}), ("beta-value", {"n": 3, "expected": 1}),
            ("beta-value", {"n": 2, "expected": 0})]
    monkeypatch.setattr(verify, "CORE_SUITE", plan)
    for threads in (5000, 3, 2, 1):
        results = run_suite("core", threads=threads)
        assert [(r.claim_id, r.parameters, r.status) for r in results] == \
            [(cid, params, "pass") for cid, params in plan]
    assert recording_pool == [3, 3, 2]  # threads = 1 runs in this process
    monkeypatch.setattr(verify, "CORE_SUITE", plan[:1])
    run_suite("core", threads=5000)
    assert recording_pool == [3, 3, 2]  # one claim: no pool
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_suite("core", threads=threads)
    assert recording_pool == [3, 3, 2]


def test_claims_make_no_fraction_maps_or_points(monkeypatch):
    """The hulls, images and vertex comparisons of these claims read
    integer rays: with a cold hom cache, none of them flattens a map to
    Fractions, reads a map's Fraction accessors or converts rays to
    Fraction points, and every core-suite case of them passes."""

    def refuse(*args, **kwargs):
        raise AssertionError("a claim went through Fraction maps or points")

    # every binding, as `from .homs import flatten_map` makes one per module
    for original in (homs.flatten_map, dd._ray_points):
        for name, mod in list(sys.modules.items()):
            if name == "hompoly" or name.startswith("hompoly."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, refuse)
    for accessor in ("matrix", "offset"):
        monkeypatch.setattr(AffineMap, accessor, property(refuse))
    monkeypatch.setattr(AffineMap, "evaluate", refuse)
    for cached in ("_hom", "_record"):
        monkeypatch.setattr(verify, cached,
                            lru_cache(maxsize=64)(getattr(verify, cached).__wrapped__))
    claims = {"facet-form", "hom-into-cube", "cube-simplex-realization", "constant-maps",
              "rank1-factorization", "vertex-image-law", "face-law", "diamond-center"}
    plan = [(c, p) for c, p in CORE_SUITE if c in claims]
    assert {c for c, _ in plan} == claims
    assert ("cube-simplex-realization", {"m": 2, "n": 2, "compare": True}) in plan
    for claim_id, params in plan:
        result = run_claim(claim_id, params)
        assert (result.status, result.witness) == ("pass", None), (claim_id, params)


def test_core_suite_and_table_never_read_fraction_vertices(monkeypatch):
    """Hom rows, centroid checks, hulls, K = Q & (2b - Q) and containment
    read vertex rays: with `Polytope.vertices` refused and cold hom
    caches, every core-suite claim passes and the seed-1 table keeps its
    pinned counts."""
    from test_experiments import GENERIC_PERTURBED, TABLE_RANDOM_COUNTS

    from hompoly.experiments import reproduce_table
    from hompoly.polytope import Polytope

    def refuse(self):
        raise AssertionError("Fraction vertices read")

    monkeypatch.setattr(Polytope, "vertices", property(refuse))
    for cached in ("_hom", "_record"):
        monkeypatch.setattr(verify, cached,
                            lru_cache(maxsize=64)(getattr(verify, cached).__wrapped__))
    results = run_suite("core")
    assert len(results) == 69
    assert [(r.claim_id, r.parameters) for r in results if not r.passed] == []
    rows = reproduce_table(3, 8, seed=1)
    assert [(r.n, r.random_count) for r in rows] == TABLE_RANDOM_COUNTS[1]
    assert [r.perturbed_count for r in rows] == [GENERIC_PERTURBED[r.n] for r in rows]


def test_vertex_image_law_single():
    assert run_claim("vertex-image-law",
                     {"m": 2, "target": "simplex", "n": 2}).passed


def test_face_law_single():
    assert run_claim("face-law", {"source": "simplex", "m": 1, "n": 2}).passed


def test_result_dataclass():
    r = VerificationResult("x", {}, "pass")
    assert r.passed and r.witness is None


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
    K = intersect(target, from_points(reflected_points(target.vertices, b)))
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
    _patched_hom(monkeypatch, P, Q, [g])
    number, hit_sets = verify._record("crosspolytope", 5, "simplex", 4)
    assert number == (0,) and [(h.rank, h.cross) for h in hit_sets] == [(4, False)]
    shape = run_claim("diamond-image-shape", {"m": 5, "n": 4})
    assert not shape.passed
    assert shape.witness == {"map": [str(x) for x in flatten_map(g)],
                             "image_vertices": img.n_vertices}
    count = run_claim("diamond-image-count", {"m": 5, "n": 4})
    assert not count.passed
    assert count.witness == {"crosspolytope_image_maps": 0,
                             "expected": sigma(5, 4) * beta(4)}


# -- one check per distinct hit set, offset and restriction -------------------
# Reference oracles: the three claims as loops that check every map.  They
# look the checks up on `verify`, so a test that records those calls sees
# the oracle's calls too; the vertex-image-law oracle builds K on Fraction
# rows itself and lists the offsets it builds K for.


def _oracle_diamond_subcross(P, Q, maps, n):
    m = P.ambient_dim
    sub = standard("crosspolytope", n)
    sub_hom = build_hom(sub, Q)
    for f in maps:
        if map_rank(f) != n:
            continue
        found = False
        for idx in combinations(range(m), n):
            g = restrict_to_subcrosspolytope(f, idx)
            if rank(g.matrix) < n:
                continue
            if verify.is_vertex_map(g, sub, Q, hom=sub_hom):
                found = True
                break
        if not found:
            return False, {"map": [str(x) for x in flatten_map(f)]}
    return True, None


def _oracle_vertex_image_law(P, Q, maps, cuts):
    """The claim on Fraction points; each offset b whose K it builds is
    appended to `cuts`."""
    for f in maps:
        hit = {f.evaluate(v) for v in P.vertices}
        img = verify.image_polytope(f, P)
        if set(img.vertices) != hit:
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "reason": "image vertices differ from vertex images"}
        b = f.offset
        cuts.append(b)
        K = intersect(Q, from_points(reflected_points(Q.vertices, b)))
        if not hit <= set(K.vertices):
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "reason": "vertex image outside symmetric intersection"}
    return True, None


def _oracle_face_law(P, Q, maps, n):
    facet_rows = Q.hrep.inequalities
    for f in maps:
        img = verify.image_polytope(f, P)
        active = [(u, c) for u, c in facet_rows
                  if all(_dot(u, v) == c for v in img.vertices)]
        G = from_inequalities(facet_rows, active, n)
        g_dim = G.dim
        if g_dim != img.dim:
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "face_dim": g_dim, "image_dim": img.dim}
        for u, c in G.hrep.inequalities:
            h = img.hrep
            cut = from_inequalities(h.inequalities, h.equations + ((u, c),), n)
            if cut.dim != g_dim - 1:
                return False, {"map": [str(x) for x in flatten_map(f)],
                               "facet_cut_dim": cut.dim, "expected": g_dim - 1}
    return True, None


def _calls(monkeypatch, name, key):
    """Replace `verify.<name>` by a wrapper that appends key(*args) of each
    call to the returned list."""
    calls = []
    original = getattr(verify, name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, wrapper)
    return calls


def _hit(f, P):
    return frozenset(f.evaluate(v) for v in P.vertices)


def _ray_points(rays, ambient):
    """The points y / t of the rays (t, y) that `verify._from_rays` hulls,
    as the set `_hit` gives for the map whose hit set they are."""
    return frozenset(tuple(Fraction(y, t) for y in ys) for t, *ys in rays)


def _patched_hom(monkeypatch, P, Q, maps):
    """`_hom` gives these maps at every key, and `_record` starts empty
    and fills a cache of its own, which the real cache never sees."""
    monkeypatch.setattr(verify, "_hom", lambda *key: (P, Q, None, tuple(maps)))
    monkeypatch.setattr(verify, "_record", lru_cache(maxsize=64)(verify._record.__wrapped__))


def _outcome(oracle_result):
    ok, witness = oracle_result
    return ("pass" if ok else "fail"), witness


def _passing_and_failing_maps():
    """Maps of the crosspolytope_4 into the simplex_3: a rank-3 vertex
    map p, which passes all three claims, and the rank-3 map q with p's
    offset b = (1/4, 1/4, 1/4) and columns e_1/8, e_2/8, e_3/8, 0.  q maps
    into the interior of the simplex, so it is not a vertex map and its
    image meets no facet, and it sends +-e_4 to b, inside the hull of the
    other images: it fails each of the three claims.  The tests list q
    twice after p."""
    P, Q, _, maps = verify._hom("crosspolytope", 4, "simplex", 3)
    p = next(f for f in maps if map_rank(f) == 3)
    eighth = Fraction(1, 8)
    q = _map([(eighth, 0, 0), (0, eighth, 0), (0, 0, eighth), (0, 0, 0)], p.offset)
    assert q.offset == p.offset == (Fraction(1, 4),) * 3 and map_rank(q) == 3
    assert all(strictly_inside(Q.hrep, q.evaluate(v)) for v in P.vertices)
    assert is_vertex_map(p, P, Q) and not is_vertex_map(q, P, Q)
    return P, Q, p, q


# -- the per-hom record ------------------------------------------------------
# The `_record` key each record-reading claim reads, from its parameters.

RECORD_READERS = {
    "box-simplex-rank": lambda m, n: ("cube", m, "simplex", n),
    "rank1-factorization": lambda m, n: ("cube", m, "simplex", n),
    "diamond-subcross": lambda m, n: ("crosspolytope", m, "simplex", n),
    "diamond-image-count": lambda m, n: ("crosspolytope", m, "simplex", n),
    "diamond-image-shape": lambda m, n: ("crosspolytope", m, "simplex", n),
    "rank-sandwich": lambda m, k: ("crosspolytope", m, "simplex", k),
    "face-law": lambda source, m, n: (source, m, "simplex", n),
    "vertex-image-law": lambda m, target, n: ("crosspolytope", m, target, n),
}
RECORD_KEYS = sorted({RECORD_READERS[c](**p) for c, p in CORE_SUITE if c in RECORD_READERS})


def _check_record(key, P, Q, maps):
    """`verify._record(*key)` against the evaluated Fraction images, map
    by map: the hit set is frozenset(f.evaluate(v)), held as primitive
    int rays (t, y), t > 0, of the points y / t, so equal sets of images
    give one hit set and different sets different ones; the rank is
    `map_rank(f)`; the tight mask is Q's facets on which every image
    lies, by Fraction dot products; the crosspolytope flag, for
    Hom(crosspolytope, simplex) only, is the isomorphism search on the
    image.  Hit sets are numbered in order of first appearance."""
    number, hit_sets = verify._record(*key)
    assert len(number) == len(maps)
    assert list(dict.fromkeys(number)) == list(range(len(hit_sets)))
    assert [h.first for h in hit_sets] == [number.index(k) for k in range(len(hit_sets))]
    facets = Q.hrep.inequalities
    diamond = key[::2] == ("crosspolytope", "simplex")
    model = standard("crosspolytope", Q.ambient_dim)
    for f, k in zip(maps, number):
        h = hit_sets[k]
        images = [f.evaluate(v) for v in P.vertices]
        assert frozenset(tuple(Fraction(x, t) for x in y) for t, *y in h.rays) == set(images)
        assert h.rank == map_rank(f)
        assert h.tight == sum(1 << j for j, (u, c) in enumerate(facets)
                              if all(_dot(u, y) == c for y in images))
        if diamond:
            assert h.cross == combinatorially_equal(image_polytope(f, P), model)
        else:
            assert h.cross is None
    assert all(type(x) is int for h in hit_sets for ray in h.rays for x in ray)
    assert all(ray[0] > 0 and gcd(*ray) == 1 for h in hit_sets for ray in h.rays)
    assert len({_hit(f, P) for f in maps}) == len(hit_sets)
    return hit_sets


@pytest.mark.parametrize("key", RECORD_KEYS, ids=lambda key: "-".join(map(str, key)))
def test_record_matches_the_evaluated_oracle(key):
    P, Q, _, maps = verify._hom(*key)
    _check_record(key, P, Q, maps)


def test_record_matches_the_evaluated_oracle_on_a_rational_polytope(monkeypatch):
    """Random maps of a polytope with fractional vertices into the
    triangle, with constant maps onto its vertices and maps onto the
    line of its facet y >= 0 among them, so that masks are not all 0,
    and with repeats."""
    rng = random.Random(0)

    def rat():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 12)))

    P = from_points([(rat(), rat(), rat()) for _ in range(7)])
    Q = standard("simplex", 2)
    assert P.dim == 3
    maps = [_map([(rat(), rat()) for _ in range(3)], (rat(), rat())) for _ in range(40)]
    maps += [_map([(0, 0)] * 3, v) for v in Q.vertices]
    maps += [_map([(rat(), 0) for _ in range(3)], (rat(), 0)) for _ in range(3)]
    maps += maps[::7]
    _patched_hom(monkeypatch, P, Q, maps)
    hit_sets = _check_record(("rational", 3, "simplex", 2), P, Q, maps)
    assert {h.tight for h in hit_sets} >= {0, 0b011, 0b101, 0b110, 0b010}


@pytest.mark.parametrize("failing", [0, 2])
def test_diamond_subcross_checks_each_restriction_once(monkeypatch, failing):
    P, Q, p, q = _passing_and_failing_maps()
    maps = [p] + [q] * failing
    _patched_hom(monkeypatch, P, Q, maps)
    checked = _calls(monkeypatch, "is_vertex_map", lambda g, *rest: g)
    result = run_claim("diamond-subcross", {"m": 4, "n": 3})
    claim_calls, checked[:] = checked[:], []
    assert (result.status, result.witness) == _outcome(
        _oracle_diamond_subcross(P, Q, maps, 3))
    assert result.passed == (not failing)
    assert claim_calls and claim_calls == list(dict.fromkeys(checked))
    if failing:
        assert result.witness == {"map": [str(x) for x in flatten_map(q)]}
        assert claim_calls[-1] == restrict_to_subcrosspolytope(q, (0, 1, 2))


@pytest.mark.parametrize("failing", ["none", "image", "intersection"])
def test_vertex_image_law_checks_each_hit_set_and_offset_once(monkeypatch, failing):
    """p2 shares p's offset, so its symmetric intersection is p's.  The
    tail fails twice: q on its image, or r, at a second offset, because
    its vertex images are not vertices of that offset's intersection."""
    P, Q, p, q = _passing_and_failing_maps()
    a = list(zip(*p.matrix))
    p2 = _map([a[0], a[1], a[0], a[1]], p.offset)   # same offset, a square image
    assert _hit(p2, P) != _hit(p, P)
    d = Fraction(1, 16)
    r = _map([(d, 0, 0), (0, d, 0), (0, 0, d), (d, d, 0)], (Fraction(1, 8),) * 3)
    tail = {"none": None, "image": q, "intersection": r}[failing]
    maps = [p, p2] + [tail] * 2 * (tail is not None)
    _patched_hom(monkeypatch, P, Q, maps)
    claim_images = _calls(monkeypatch, "_from_rays", _ray_points)
    images = _calls(monkeypatch, "image_polytope", _hit)
    claim_cuts = _calls(monkeypatch, "_symmetric_core",
                         lambda Q, ray: tuple(Fraction(y, ray[0]) for y in ray[1:]))
    result = run_claim("vertex-image-law", {"m": 4, "target": "simplex", "n": 3})
    assert images == []
    cuts = []
    assert (result.status, result.witness) == _outcome(
        _oracle_vertex_image_law(P, Q, maps, cuts))
    assert claim_images == list(dict.fromkeys(images))
    assert claim_cuts == list(dict.fromkeys(cuts))
    assert len(claim_images) == 2 + (tail is not None)
    assert len(claim_cuts) == 1 + (tail is r)
    reason = {"none": None,
              "image": "image vertices differ from vertex images",
              "intersection": "vertex image outside symmetric intersection"}[failing]
    if tail is None:
        assert result.passed
    else:
        assert result.witness == {"map": [str(x) for x in flatten_map(tail)],
                                  "reason": reason}


@pytest.mark.parametrize("failing", [0, 2])
def test_face_law_checks_each_hit_set_once(monkeypatch, failing):
    P, Q, p, q = _passing_and_failing_maps()
    maps = [p] + [q] * failing
    _patched_hom(monkeypatch, P, Q, maps)
    claim_images = _calls(monkeypatch, "_from_rays", _ray_points)
    images = _calls(monkeypatch, "image_polytope", _hit)
    result = run_claim("face-law", {"source": "crosspolytope", "m": 4, "n": 3})
    assert images == []
    assert (result.status, result.witness) == _outcome(_oracle_face_law(P, Q, maps, 3))
    assert result.passed == (not failing)
    assert claim_images == list(dict.fromkeys(images)) == [_hit(f, P) for f in maps[:2]]
    if failing:
        assert result.witness["map"] == [str(x) for x in flatten_map(q)]
        assert "facet_cut_dim" in result.witness


def _oracle_diamond_image_shape(P, maps, n):
    model = standard("crosspolytope", n)
    for f in maps:
        img = verify.image_polytope(f, P)
        if map_rank(f) == n and not combinatorially_equal(img, model):
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "image_vertices": img.n_vertices}
    return True, None


def test_claims_walking_hit_sets_name_the_first_failing_map(monkeypatch):
    """q1 and q2 map into the interior of the simplex, with images that
    are no crosspolytopes: a column e_1 + e_2, resp. e_1 + e_3, lies
    outside the octahedron of the others.  Each fails face-law and
    diamond-image-shape, on its own hit set.  Listed as [p, q2, q1],
    both claims name q2, as a check of every map does."""
    P, Q, p, _ = _passing_and_failing_maps()
    d = Fraction(1, 16)
    q1 = _map([(d, 0, 0), (0, d, 0), (0, 0, d), (d, d, 0)], p.offset)
    q2 = _map([(d, 0, 0), (0, d, 0), (0, 0, d), (d, 0, d)], p.offset)
    maps = [p, q2, q1]
    _patched_hom(monkeypatch, P, Q, maps)
    assert [h.first for h in verify._record("crosspolytope", 4, "simplex", 3)[1]] == [0, 1, 2]
    face = run_claim("face-law", {"source": "crosspolytope", "m": 4, "n": 3})
    assert (face.status, face.witness) == _outcome(_oracle_face_law(P, Q, maps, 3))
    shape = run_claim("diamond-image-shape", {"m": 4, "n": 3})
    assert (shape.status, shape.witness) == _outcome(_oracle_diamond_image_shape(P, maps, 3))
    assert face.witness["map"] == shape.witness["map"] == [str(x) for x in flatten_map(q2)]
    for q in (q1, q2):
        assert map_rank(q) == 3
        assert _oracle_face_law(P, Q, [q], 3)[0] is False
        assert _oracle_diamond_image_shape(P, [q], 3)[0] is False


@pytest.mark.parametrize("claim_id, params, name, calls", [
    ("diamond-subcross", {"m": 4, "n": 3}, "is_vertex_map", 48),
    ("face-law", {"source": "crosspolytope", "m": 3, "n": 3}, "_from_rays", 11),
    ("vertex-image-law", {"m": 3, "target": "simplex", "n": 3}, "_from_rays", 11),
    ("vertex-image-law", {"m": 3, "target": "simplex", "n": 3}, "_symmetric_core", 11),
    ("diamond-image-count", {"m": 4, "n": 3}, "_cross_record", 11),
])
def test_checks_run_once_per_distinct_key_on_the_core_suite(
        monkeypatch, claim_id, params, name, calls):
    """With `_record` cold, so that the checks it runs are counted too."""
    monkeypatch.setattr(verify, "_record", lru_cache(maxsize=64)(verify._record.__wrapped__))
    recorded = _calls(monkeypatch, name, lambda *args: None)
    assert run_claim(claim_id, params).passed
    assert len(recorded) == calls


def test_each_core_claim_alone_gives_its_suite_result(monkeypatch):
    """Each core-suite entry, run alone with `_hom` and `_record` cold,
    returns the (status, witness) it returns in suite order, so no claim
    depends on a record another claim filled; and it reads exactly the
    record that `RECORD_READERS` names for it."""
    in_order = [(r.status, r.witness) for r in run_suite("core")]
    record, keys = verify._record, []
    monkeypatch.setattr(verify, "_record", lambda *key: keys.append(key) or record(*key))
    for (claim_id, params), expected in zip(CORE_SUITE, in_order):
        verify._hom.cache_clear()
        record.cache_clear()
        keys.clear()
        result = run_claim(claim_id, params)
        assert (result.status, result.witness) == expected, (claim_id, params)
        reads = {RECORD_READERS[claim_id](**params)} if claim_id in RECORD_READERS else set()
        assert set(keys) == reads, (claim_id, params)


@pytest.mark.extended
def test_extended_claims_at_diamond_4_simplex_4():
    """The three per-map claims at (crosspolytope_4, simplex_4): 1920
    rank-4 maps, each its own restriction, and few distinct hit sets."""
    plan = [("diamond-subcross", {"m": 4, "n": 4}),
            ("vertex-image-law", {"m": 4, "target": "simplex", "n": 4}),
            ("face-law", {"source": "crosspolytope", "m": 4, "n": 4})]
    assert all(item in verify.EXTENDED_SUITE and item not in CORE_SUITE for item in plan)
    for claim_id, params in plan:
        result = run_claim(claim_id, params)
        assert (result.status, result.witness) == ("pass", None)


@pytest.mark.extended
def test_extended_facet_form_into_and_out_of_crosspolytope_3():
    """facet-form at dimension 3: each hull of up to 1296 vertex maps is
    one V -> H conversion, affordable with rows inserted in sorted order."""
    plan = [("facet-form", {"source": src, "m": 3, "target": tgt, "n": 3})
            for src, tgt in [("cube", "crosspolytope"), ("crosspolytope", "crosspolytope"),
                             ("simplex", "crosspolytope"), ("crosspolytope", "simplex")]]
    assert all(item in verify.EXTENDED_SUITE and item not in CORE_SUITE for item in plan)
    for claim_id, params in plan:
        result = run_claim(claim_id, params)
        assert (result.status, result.witness) == ("pass", None)


def test_no_suite_entry_is_refused_by_the_gate(monkeypatch):
    """Every CORE_SUITE and EXTENDED_SUITE entry passes the spec gate and
    the claim budget.  The enumeration behind the gate is stubbed, and
    the caches are bypassed so that no cached hom skips the gate: each
    claim either reaches the stub or runs to its end."""

    class Enumerated(Exception):
        pass

    def no_enumeration(*args):
        raise Enumerated

    monkeypatch.setattr(verify, "_hom", verify._hom.__wrapped__)
    monkeypatch.setattr(verify, "_record", verify._record.__wrapped__)
    monkeypatch.setattr(verify, "build_hom", no_enumeration)
    for claim_id, params in verify.EXTENDED_SUITE:
        with contextlib.suppress(Enumerated):
            verify.run_claim(claim_id, params)
