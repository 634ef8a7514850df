from fractions import Fraction

import pytest

from hompoly.homs import (
    AffineMap,
    build_hom,
    cube_simplex_realization,
    enumerate_vertex_maps,
    flatten_map,
    image_polytope,
    is_vertex_map,
    map_rank,
    rank_histogram,
    restrict_to_subcrosspolytope,
    structured_row_order,
)
from hompoly.linalg import vec
from hompoly.polytope import (
    Polytope,
    combinatorially_equal,
    from_inequalities,
    from_points,
    standard,
)

from _oracles import brute_force_vertices, dd_vertices, oracle_rref, vertex_certificate_ok

F = Fraction


def constant_map(point, m):
    point = vec(point)
    return AffineMap(tuple((0,) * m for _ in point), point)


def identity_map(n):
    return AffineMap([[int(i == j) for j in range(n)] for i in range(n)], (0,) * n)


def test_build_hom_cube2_simplex2():
    H = build_hom(standard("cube", 2), standard("simplex", 2))
    assert len(H.rows) == 12
    assert H.ambient_dim == 6


def test_build_hom_segment_pair():
    H = build_hom(standard("simplex", 1), standard("simplex", 1))
    assert len(H.rows) == 4
    assert H.ambient_dim == 2


def test_build_hom_crosspolytope3_simplex3():
    H = build_hom(standard("crosspolytope", 3), standard("simplex", 3))
    assert len(H.rows) == 24
    assert H.ambient_dim == 12


def _is_int_row(normal, offset):
    return type(normal) is tuple and all(type(x) is int for x in (*normal, offset))


@pytest.mark.parametrize("source", ["simplex", "cube", "crosspolytope"])
@pytest.mark.parametrize("target", ["simplex", "cube", "crosspolytope"])
def test_hom_rows_of_standard_polytopes_are_int_tuples(source, target):
    """Facet rows and the hom rows built from them hold ints, so
    `is_vertex_map` and the DD kernel read them without Fractions."""
    for m, n in [(1, 2), (2, 2), (3, 2)]:
        P, Q = standard(source, m), standard(target, n)
        for h in (P.hrep, Q.hrep):
            assert all(_is_int_row(u, c) for u, c in h.inequalities + h.equations)
        H = build_hom(P, Q)
        assert all(_is_int_row(u, c) for u, c in H.rows)


def test_hom_rows_of_a_rational_source_keep_fractions_where_not_integral():
    P = from_points([(F(1, 3), 0), (F(-1, 2), F(1, 5)), (0, F(-2, 7)), (F(1, 4), F(1, 4))])
    H = build_hom(P, standard("simplex", 2))
    entries = [x for u, c in H.rows for x in (*u, c)]
    assert all(type(x) is int or x.denominator > 1 for x in entries)
    assert {type(x) for x in entries} == {int, Fraction}
    assert all(type(c) is int for _, c in H.rows)


def test_build_hom_rejects_lower_dimensional_source():
    seg = from_points([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        build_hom(seg, standard("simplex", 2))


def test_flatten_round_trip():
    f = AffineMap(((F(1), F(2)), (F(3), F(4)), (F(5), F(6))), (F(7), F(8), F(9)))
    assert f.ray == (1, 7, 8, 9, 1, 2, 3, 4, 5, 6)
    assert AffineMap.from_ray(f.ray, 2, 3) == f
    # convention: offset first, then matrix rows
    assert flatten_map(f)[:3] == (7, 8, 9)
    assert flatten_map(f)[3:5] == (1, 2)


def test_affine_map_is_its_primitive_ray():
    """t is the lcm of the denominators; the accessors give the Fractions
    back, and ints and Fractions of equal value give one map."""
    f = AffineMap(((F(1, 2), F(0)), (F(-2, 3), F(1))), (F(1, 4), F(-1)))
    assert f.ray == (12, 3, -12, 6, 0, -8, 12)
    assert f.parts == (12, (3, -12), ((6, 0), (-8, 12)))
    assert f.matrix == ((F(1, 2), F(0)), (F(-2, 3), F(1)))
    assert f.offset == (F(1, 4), F(-1))
    assert all(type(x) is Fraction for x in flatten_map(f) + f.evaluate([1, 3]))
    assert f.evaluate([1, 3]) == (F(3, 4), F(4, 3))
    g = AffineMap(((1, 0), (0, 1)), (0, 0))
    assert g == identity_map(2) and hash(g) == hash(identity_map(2))
    assert g != f and g != AffineMap.from_ray(g.ray, 1, 2)
    with pytest.raises(ValueError):
        AffineMap(((F(1), F(2)), (F(3),)), (F(0), F(0)))
    with pytest.raises(ValueError):
        AffineMap(((F(1), F(2)),), (F(0), F(0)))


def test_enumerate_cube2_simplex2_has_15_vertex_maps():
    H = build_hom(standard("cube", 2), standard("simplex", 2))
    maps = enumerate_vertex_maps(H)
    assert len(maps) == 15
    # independent route: exhaustive basis enumeration on the same system
    oracle = brute_force_vertices(H.rows, (), H.ambient_dim)
    assert sorted(flatten_map(f) for f in maps) == oracle


def test_enumerate_diamond2_diamond2_has_36_vertex_maps():
    H = build_hom(standard("crosspolytope", 2), standard("crosspolytope", 2))
    assert len(enumerate_vertex_maps(H)) == 36


def test_enumerate_segment_to_triangle_has_9_vertex_maps():
    H = build_hom(standard("simplex", 1), standard("simplex", 2))
    maps = enumerate_vertex_maps(H)
    assert len(maps) == 9
    oracle = brute_force_vertices(H.rows, (), H.ambient_dim)
    assert sorted(flatten_map(f) for f in maps) == oracle


def test_every_enumerated_map_passes_the_vertex_certificate():
    P, Q = standard("cube", 2), standard("simplex", 2)
    H = build_hom(P, Q)
    for f in enumerate_vertex_maps(H):
        assert is_vertex_map(f, P, Q, hom=H)


def test_constant_map_onto_vertex_is_vertex_map():
    P, Q = standard("cube", 2), standard("simplex", 2)
    for w in Q.vertices:
        assert is_vertex_map(constant_map(w, 2), P, Q)


def test_vertex_to_vertex_map_is_vertex_map():
    P = standard("cube", 2)
    assert is_vertex_map(identity_map(2), P, P)


def test_barycenter_constant_is_not_a_vertex_map():
    P, Q = standard("cube", 2), standard("simplex", 2)
    f = constant_map([F(1, 3), F(1, 3)], 2)
    assert not is_vertex_map(f, P, Q)


def _row_excess(H, f):
    """u . f(v) - c on each hom row, in Fractions."""
    x = flatten_map(f)
    return [sum((a * b for a, b in zip(u, x)), F(0)) - c for u, c in H.rows]


def test_is_vertex_map_rejects_outside_maps():
    P, Q = standard("cube", 2), standard("simplex", 2)
    with pytest.raises(ValueError):
        is_vertex_map(constant_map([5, 5], 2), P, Q)
    # Rays with t = 3 that break exactly one hom row by 1/3, next to rays
    # that meet that row with equality.  [0, 3] -> [0, 1]: x -> (x - 1) / 3
    # breaks -f(0) <= 0, and x -> x / 3 is a vertex map.  The square into
    # the triangle: f(x) = (0, (1 - x_1 - x_2) / 3) breaks -f_2(1, 1) <= 0,
    # and f(x) = (0, (1 - x_2) / 3), tight there, is not a vertex map.
    seg = from_points([(0,), (3,)])
    cases = [(seg, standard("simplex", 1), (3, -1, 1), (3, 0, 1), True),
             (P, Q, (3, 0, 1, 0, 0, -1, -1), (3, 0, 1, 0, 0, 0, -1), False)]
    for source, target, out_ray, on_ray, verdict in cases:
        H = build_hom(source, target)
        m, n = source.ambient_dim, target.ambient_dim
        outside = AffineMap.from_ray(out_ray, m, n)
        on = AffineMap.from_ray(on_ray, m, n)
        excess = _row_excess(H, outside)
        broken = [k for k, e in enumerate(excess) if e > 0]
        assert len(broken) == 1 and excess[broken[0]] == F(1, 3)
        assert _row_excess(H, on)[broken[0]] == 0
        assert max(_row_excess(H, on)) == 0
        for hom in (None, H):
            with pytest.raises(ValueError, match="does not send"):
                is_vertex_map(outside, source, target, hom=hom)
            assert is_vertex_map(on, source, target, hom=hom) is verdict
        assert vertex_certificate_ok([flatten_map(on)], H.rows, ()) is verdict
    with pytest.raises(ValueError, match="coordinates"):  # a map R^1 -> R^1
        is_vertex_map(AffineMap.from_ray((1, 0, 0), 1, 1), P, Q)


def test_map_rank():
    assert map_rank(constant_map([1, 0], 2)) == 0
    assert map_rank(identity_map(3)) == 3
    # facet projection of the square onto the edge [0, e_1] of the triangle
    proj = AffineMap(((F(1, 2), F(0)), (F(0), F(0))), (F(1, 2), F(0)))
    assert map_rank(proj) == 1
    assert is_vertex_map(proj, standard("cube", 2), standard("simplex", 2))


def test_rank_histogram_cube2_simplex2():
    H = build_hom(standard("cube", 2), standard("simplex", 2))
    assert rank_histogram(enumerate_vertex_maps(H)) == {0: 3, 1: 12}


def test_rank_histogram_diamond2_simplex2():
    H = build_hom(standard("crosspolytope", 2), standard("simplex", 2))
    hist = rank_histogram(enumerate_vertex_maps(H))
    assert hist == {0: 3, 1: 12}
    assert hist.get(2, 0) == 0


def test_rank_histogram_segment_to_segment():
    H = build_hom(standard("simplex", 1), standard("simplex", 1))
    assert rank_histogram(enumerate_vertex_maps(H)) == {0: 2, 1: 2}


def test_image_polytope_of_constant_map():
    P = standard("cube", 2)
    img = image_polytope(constant_map([1, 0], 2), P)
    assert img.vertices == (vec([1, 0]),)
    assert img.dim == 0


def test_image_polytope_of_projection_is_an_edge():
    proj = AffineMap(((F(1, 2), F(0)), (F(0), F(0))), (F(1, 2), F(0)))
    img = image_polytope(proj, standard("cube", 2))
    assert img.vertices == (vec([0, 0]), vec([1, 0]))


def test_restrict_full_index_set_is_identity():
    f = AffineMap(((F(1), F(2), F(3)), (F(4), F(5), F(6))), (F(0), F(0)))
    assert restrict_to_subcrosspolytope(f, [0, 1, 2]) == f


def test_restrict_identity_gives_axis_inclusion():
    f = identity_map(3)
    g = restrict_to_subcrosspolytope(f, [0, 1])
    assert g.matrix == ((F(1), F(0)), (F(0), F(1)), (F(0), F(0)))
    assert g.offset == (0,) * 3
    # the restriction embeds the smaller crosspolytope into the larger
    assert is_vertex_map(g, standard("crosspolytope", 2), standard("crosspolytope", 3))


def test_restriction_is_a_primitive_ray():
    """b = 0 and A = (1/2, 1) restricted to axis 1 is x -> x, ray (1, 0, 1),
    not (2, 0, 2): equal restrictions must be equal maps."""
    f = AffineMap.from_ray((2, 0, 1, 2), 2, 1)
    g = restrict_to_subcrosspolytope(f, [1])
    expected = AffineMap(((1,),), (0,))
    assert g.ray == expected.ray == (1, 0, 1)
    assert g == expected and hash(g) == hash(expected)


def test_cube_simplex_realization_smallest():
    pts = cube_simplex_realization(1, 1)
    assert len(pts) == 4
    assert vec([0, 0]) in pts and vec([2, 0]) in pts
    assert vec([1, 1]) in pts and vec([1, -1]) in pts


def test_cube_simplex_realization_counts_and_dimension():
    for m, n in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
        pts = cube_simplex_realization(m, n)
        assert len(pts) == (n + 1) * (m * n + 1)
        hull = from_points(pts)
        assert hull.dim == n * m + n
        assert hull.n_vertices == len(pts)  # every listed point is extreme


def test_cube_simplex_realization_matches_enumerated_hom():
    hull = from_points(cube_simplex_realization(2, 2))
    H = build_hom(standard("cube", 2), standard("simplex", 2))
    assert combinatorially_equal(hull, from_inequalities(H.rows, (), H.ambient_dim))


def _vertex_order(H):
    # the rows of the first m+1 source vertices (in order) whose lifts
    # (v, 1) raise the rank go first, then vertex by vertex
    verts = H.source.vertices
    chosen = []
    for vi in range(len(verts)):
        lifts = [list(verts[j]) + [1] for j in chosen + [vi]]
        if len(chosen) <= H.source_dim and len(oracle_rref(lifts)[1]) > len(chosen):
            chosen.append(vi)
    assert len(chosen) == H.source_dim + 1
    return sorted(range(len(H.rows)), key=lambda k: (H.pairs[k][0] not in chosen, H.pairs[k]))


def _facet_order(H):
    return sorted(range(len(H.rows)), key=lambda k: (H.pairs[k][1], H.pairs[k][0]))


@pytest.mark.parametrize("kind", ["simplex", "cube", "crosspolytope"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_structured_row_order_starts_with_independent_vertices(kind, m):
    # into the 8 facets of crosspolytope 3: a source with fewer vertices
    # goes vertex by vertex, independent vertices first; cube 3 and
    # crosspolytope 4 (ties) and cube 4 go facet by facet
    H = build_hom(standard(kind, m), standard("crosspolytope", 3))
    assert len(H.target.hrep.inequalities) == 8
    if len(H.source.vertices) < 8:
        assert structured_row_order(H) == _vertex_order(H)
    else:
        assert (kind, m) in {("cube", 3), ("cube", 4), ("crosspolytope", 4)}
        assert structured_row_order(H) == _facet_order(H)


@pytest.mark.parametrize("src, m, tgt, n, by", [
    ("cube", 2, "simplex", 3, "facet"),            # 4 vertices, 4 facets
    ("crosspolytope", 2, "cube", 2, "facet"),      # 4 vertices, 4 facets
    ("crosspolytope", 3, "cube", 2, "facet"),      # 6 vertices, 4 facets
    ("simplex", 2, "crosspolytope", 2, "vertex"),  # 3 vertices, 4 facets
    ("simplex", 3, "cube", 3, "vertex"),           # 4 vertices, 6 facets
])
def test_structured_row_order_goes_by_the_smaller_index_set(src, m, tgt, n, by):
    # facet by facet when Q has no more facets than P has vertices
    H = build_hom(standard(src, m), standard(tgt, n))
    expected = _facet_order(H) if by == "facet" else _vertex_order(H)
    assert structured_row_order(H) == expected


def test_structured_enumeration_matches_heuristic_order():
    # the vertex set cannot depend on the insertion order: the chosen
    # order, the other rule's order, pair order and reversed pair order
    for src, m, tgt, n in [("cube", 2, "simplex", 2),
                           ("crosspolytope", 2, "crosspolytope", 2),
                           ("crosspolytope", 3, "simplex", 2),
                           ("cube", 3, "crosspolytope", 3),     # facets, a tie
                           ("simplex", 2, "crosspolytope", 2),  # vertices
                           ("cube", 2, "simplex", 3),           # facets, a tie
                           ("crosspolytope", 3, "cube", 2)]:    # facets
        H = build_hom(standard(src, m), standard(tgt, n))
        structured = [flatten_map(f) for f in enumerate_vertex_maps(H)]
        chosen = structured_row_order(H)
        other = _vertex_order(H) if chosen == _facet_order(H) else _facet_order(H)
        assert other != chosen
        n_rows = len(H.rows)
        for order in (other, range(n_rows), reversed(range(n_rows))):
            rows = [H.rows[k] for k in order]
            assert structured == dd_vertices(rows, H.ambient_dim)


def test_witness_sweep_leaves_few_full_tests(caplog):
    # each witness a full test finds removes every remaining candidate it
    # refutes, so most of the 32,456 candidates never reach a full test;
    # refuting them one at a time by known witnesses ran 28,563 full tests
    # in vertex order, where the sweep leaves 11,699 of 93,636.  Facet
    # order (8 facets, 8 vertices) peaks at 502 rays, vertex order 1,593.
    import logging
    import re

    H = build_hom(standard("cube", 3), standard("crosspolytope", 3))
    with caplog.at_level(logging.DEBUG, logger="hompoly.dd"):
        maps = enumerate_vertex_maps(H)
    assert len(maps) == 168
    line = re.compile(r"insert \d+/\d+ row \d+: rays (\d+), negative \d+, candidates (\d+), "
                      r"witness hits (\d+), full tests (\d+), new \d+, \d+\.\d+s$")
    records = [tuple(map(int, line.match(r.getMessage()).groups()))
               for r in caplog.records if r.name == "hompoly.dd"]
    counts = [record[1:] for record in records]
    # one record per row outside the initial basis (the hom rows and the
    # homogenizing row, less ambient_dim + 1 basis rows)
    assert len(counts) == len(H.rows) - H.ambient_dim
    # every candidate is either swept away or fully tested
    assert all(cands == hits + tests for cands, hits, tests in counts)
    assert sum(tests for _, _, tests in counts) <= 5000
    assert max(rays for rays, *_ in records) <= 600


def test_dd_working_memory_holds_only_values_still_needed():
    # each ray keeps its values on the rows still to insert, not a slot
    # for every row: on Hom(crosspolytope 4, simplex 3) (676 maps) the
    # traced peak above the returned rays is 0.31 MB on CPython 3.10-3.13,
    # where a full row of values per ray read 0.55 MB
    import tracemalloc

    from hompoly import dd

    H = build_hom(standard("crosspolytope", 4), standard("simplex", 3))
    rows = [H.rows[k] for k in structured_row_order(H)]
    tracemalloc.start()
    try:
        rays = dd.polytope_rays(rows, H.ambient_dim)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rays) == 676
    assert peak - current < 430_000
