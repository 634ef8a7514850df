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
    unflatten_map,
)
from hompoly.linalg import mat, vec, zero_vec
from hompoly.polytope import (
    Polytope,
    combinatorially_equal,
    from_inequalities,
    from_points,
    standard,
)

from _oracles import brute_force_vertices, oracle_rref

F = Fraction


def constant_map(point, m):
    point = vec(point)
    return AffineMap(tuple(zero_vec(m) for _ in point), point)


def identity_map(n):
    return AffineMap(mat([[int(i == j) for j in range(n)] for i in range(n)]), zero_vec(n))


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


def test_build_hom_rejects_lower_dimensional_source():
    seg = from_points([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        build_hom(seg, standard("simplex", 2))


def test_flatten_round_trip():
    f = AffineMap(((F(1), F(2)), (F(3), F(4)), (F(5), F(6))), (F(7), F(8), F(9)))
    assert unflatten_map(flatten_map(f), 2, 3) == f
    # convention: offset first, then matrix rows
    assert flatten_map(f)[:3] == (7, 8, 9)
    assert flatten_map(f)[3:5] == (1, 2)


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


def test_is_vertex_map_rejects_outside_maps():
    P, Q = standard("cube", 2), standard("simplex", 2)
    with pytest.raises(ValueError):
        is_vertex_map(constant_map([5, 5], 2), P, Q)


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
    assert g.offset == zero_vec(3)
    # the restriction embeds the smaller crosspolytope into the larger
    assert is_vertex_map(g, standard("crosspolytope", 2), standard("crosspolytope", 3))


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


@pytest.mark.parametrize("kind", ["simplex", "cube", "crosspolytope"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_structured_row_order_starts_with_independent_vertices(kind, m):
    # the rows of the first m+1 source vertices (in order) whose lifts
    # (v, 1) raise the rank go first
    H = build_hom(standard(kind, m), standard("simplex", 1))
    verts = H.source.vertices
    chosen = []
    for vi, v in enumerate(verts):
        lifts = [list(verts[j]) + [1] for j in chosen + [vi]]
        if len(chosen) <= m and len(oracle_rref(lifts)[1]) > len(chosen):
            chosen.append(vi)
    assert len(chosen) == m + 1
    assert structured_row_order(H) == sorted(
        range(len(H.rows)), key=lambda k: (H.pairs[k][0] not in chosen, H.pairs[k]))


def test_structured_enumeration_matches_heuristic_order():
    # the vertex set cannot depend on the insertion order
    from hompoly import dd

    for src, m, tgt, n in [("cube", 2, "simplex", 2),
                           ("crosspolytope", 2, "crosspolytope", 2),
                           ("crosspolytope", 3, "simplex", 2)]:
        H = build_hom(standard(src, m), standard(tgt, n))
        structured = [flatten_map(f) for f in enumerate_vertex_maps(H)]
        for rows in (list(H.rows), list(reversed(H.rows))):  # pair order and reversed
            heuristic = dd.polytope_vertices(rows, H.ambient_dim)
            assert structured == heuristic



def test_witness_sweep_leaves_few_full_tests(caplog):
    # each witness a full test finds removes every remaining candidate it
    # refutes, so most of the 93,636 candidates never reach a full test;
    # refuting them one at a time by known witnesses ran 28,563 full tests
    import logging
    import re

    H = build_hom(standard("cube", 3), standard("crosspolytope", 3))
    with caplog.at_level(logging.DEBUG, logger="hompoly.dd"):
        maps = enumerate_vertex_maps(H)
    assert len(maps) == 168
    line = re.compile(r"insert \d+/\d+ row \d+: rays \d+, negative \d+, candidates (\d+), "
                      r"witness hits (\d+), full tests (\d+), new \d+, \d+\.\d+s$")
    counts = [tuple(map(int, line.match(r.getMessage()).groups()))
              for r in caplog.records if r.name == "hompoly.dd"]
    # one record per row outside the initial basis (the hom rows and the
    # homogenizing row, less ambient_dim + 1 basis rows)
    assert len(counts) == len(H.rows) - H.ambient_dim
    # every candidate is either swept away or fully tested
    assert all(cands == hits + tests for cands, hits, tests in counts)
    assert sum(tests for _, _, tests in counts) <= 14000
