from fractions import Fraction

import pytest

from hompoly import dd
from hompoly.errors import SizeGuardError, UnboundedPolytopeError
from hompoly.linalg import vec
from hompoly.polytope import (
    Polytope,
    _incidence,
    bipyramid,
    combinatorially_equal,
    from_inequalities,
    from_points,
    intersect,
    polar_dual,
    standard,
)

from _oracles import (
    brute_force_vertices,
    moved_points,
    reflected_points,
    strictly_inside,
    vertex_certificate_ok,
)

F = Fraction


def both_reps_agree(P):
    # every vertex satisfies the H-rep, and DD reproduces the vertex list
    for v in P.vertices:
        assert P.contains(v)
    h = P.hrep
    assert from_inequalities(h.inequalities, h.equations, P.ambient_dim).vertices == P.vertices
    assert vertex_certificate_ok(P.vertices, h.inequalities, h.equations)


def test_standard_simplex():
    P = standard("simplex", 2)
    assert P.vertices == (vec([0, 0]), vec([0, 1]), vec([1, 0]))
    assert P.n_facets == 3
    assert P.dim == 2
    both_reps_agree(P)


def test_standard_cube():
    P = standard("cube", 2)
    assert P.n_vertices == 4
    assert all(set(map(abs, v)) == {1} for v in P.vertices)
    assert P.n_facets == 4
    both_reps_agree(P)


def test_standard_crosspolytope():
    P = standard("crosspolytope", 3)
    assert P.n_vertices == 6
    assert P.n_facets == 8
    both_reps_agree(P)


def test_standard_rejects_n_zero():
    with pytest.raises(ValueError):
        standard("simplex", 0)
    with pytest.raises(ValueError):
        standard("pyramid", 2)


@pytest.mark.parametrize("kind", ["simplex", "cube", "crosspolytope"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_standard(kind, n):
    P = standard(kind, n)
    Q = from_inequalities(P.hrep.inequalities, P.hrep.equations, P.ambient_dim)
    assert Q.vertices == P.vertices
    R = from_points(P.vertices)
    assert R.hrep == P.hrep


@pytest.mark.parametrize("kind,n", [("cube", 2), ("crosspolytope", 2), ("simplex", 3)])
def test_dd_matches_brute_force(kind, n):
    P = standard(kind, n)
    expected = brute_force_vertices(P.hrep.inequalities, P.hrep.equations, n)
    assert list(P.vertices) == expected


def test_hrep_to_vrep_crosspolytope_from_facets():
    P = standard("crosspolytope", 3)
    Q = from_inequalities(P.hrep.inequalities, (), 3)
    assert Q.n_vertices == 6
    assert Q.vertices == P.vertices


def test_vrep_to_hrep_unit_segment():
    P = from_points([[0], [1]])
    ineqs = P.hrep.inequalities
    assert ineqs == ((vec([-1]), F(0)), (vec([1]), F(1)))
    assert P.hrep.equations == ()


def test_vrep_to_hrep_diagonal_segment():
    P = from_points([[0, 0], [1, 1]])
    assert P.dim == 1
    # canonicalization maps {0 <= x <= 1, x = y} to the same H-rep
    Q = from_inequalities([([1, 0], 1), ([-1, 0], 0)], [([1, -1], 0)], 2)
    assert P.hrep == Q.hrep
    assert Q.vertices == (vec([0, 0]), vec([1, 1]))


def test_vrep_to_hrep_crosspolytope_2():
    P = from_points([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert P.n_facets == 4
    normals = {n for n, c in P.hrep.inequalities}
    assert normals == {vec([1, 1]), vec([1, -1]), vec([-1, 1]), vec([-1, -1])}
    assert all(c == 1 for _, c in P.hrep.inequalities)


def test_from_points_drops_interior_and_duplicate_points():
    P = from_points([[0, 0], [1, 0], [0, 1], [1, 1], [F(1, 2), F(1, 2)], [0, 0]])
    assert P.n_vertices == 4


def test_polar_dual_cube_crosspolytope():
    for n in range(1, 6):
        cube = standard("cube", n)
        cross = standard("crosspolytope", n)
        assert polar_dual(cube).vertices == cross.vertices
        assert polar_dual(cross).vertices == cube.vertices


def test_polar_dual_involution_on_shifted_simplex():
    P = standard("simplex", 2)
    c = vec([F(1, 3), F(1, 3)])
    P0 = from_points(moved_points(P.vertices, [-x for x in c]))
    assert polar_dual(polar_dual(P0)).vertices == P0.vertices


def test_polar_dual_requires_interior_origin():
    with pytest.raises(ValueError):
        polar_dual(standard("simplex", 2))  # 0 is a vertex, not interior
    seg = from_points([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        polar_dual(seg)


def test_intersect_idempotent():
    P = standard("simplex", 2)
    Q = intersect(P, P)
    assert Q.vertices == P.vertices


def test_intersect_diamond_with_shifted_diamond():
    # |x|+|y| <= 1 meets |x-1|+|y| <= 1 in the square with corners
    # (0,0), (1,0), (1/2, +-1/2); checked against the subset-solve oracle.
    D = standard("crosspolytope", 2)
    S = from_points(moved_points(D.vertices, [1, 0]))
    K = intersect(D, S)
    rows = D.hrep.inequalities + S.hrep.inequalities
    assert list(K.vertices) == brute_force_vertices(rows, (), 2)
    assert K.vertices == (
        vec([0, 0]),
        vec([F(1, 2), F(-1, 2)]),
        vec([F(1, 2), F(1, 2)]),
        vec([1, 0]),
    )
    assert K.dim == 2


def test_intersect_lower_dimensional_result_flagged():
    D = standard("crosspolytope", 2)
    S = from_points(moved_points(D.vertices, [1, 1]))
    K = intersect(D, S)
    assert K.dim == 1
    assert K.vertices == (vec([0, 1]), vec([1, 0]))


def test_intersect_empty():
    D = standard("crosspolytope", 2)
    K = intersect(D, from_points(moved_points(D.vertices, [5, 5])))
    assert K.is_empty
    assert K.dim == -1


def test_intersect_commutative():
    P = standard("cube", 2)
    Q = from_points(moved_points(standard("crosspolytope", 2).vertices, [F(1, 3), F(1, 5)]))
    assert intersect(P, Q).vertices == intersect(Q, P).vertices


def test_point_reflection_of_simplex():
    P = standard("simplex", 2)
    c = vec([F(1, 3), F(1, 3)])
    R = from_points(reflected_points(P.vertices, c))  # 2c - P
    assert sorted(R.vertices) == sorted(
        tuple(2 * ci - vi for ci, vi in zip(c, v)) for v in P.vertices
    )


def test_bipyramid_counts():
    P = standard("cube", 2)
    B = bipyramid(P)
    assert B.n_vertices == P.n_vertices + 2
    assert B.ambient_dim == 3


def test_bipyramid_of_crosspolytope_is_crosspolytope():
    B = bipyramid(standard("crosspolytope", 2))
    assert B.vertices == standard("crosspolytope", 3).vertices


def test_bipyramid_of_segment_is_square_combinatorially():
    B = bipyramid(from_points([[-1], [1]]))
    assert combinatorially_equal(B, standard("cube", 2))


def test_bipyramid_needs_the_origin_inside():
    # the lifted vertices of P are the bipyramid's vertices only with the
    # origin in P's relative interior: over [1, 2] the hull has 3 vertices
    with pytest.raises(ValueError, match="relative interior"):
        bipyramid(from_points([[1], [2]]))
    with pytest.raises(ValueError, match="relative interior"):
        bipyramid(from_points([[0], [1]]))


def test_dimension_and_interior():
    t2 = standard("simplex", 2)
    assert strictly_inside(t2.hrep, [F(1, 3), F(1, 3)])
    assert not strictly_inside(t2.hrep, [0, 0])
    assert from_points([[0, 0], [1, 1]]).dim == 1
    seg = from_points([[0, 0], [1, 1]])
    assert strictly_inside(seg.hrep, [F(1, 2), F(1, 2)])  # relative interior
    assert not strictly_inside(seg.hrep, [0, 0])


def test_vertex_facet_incidence_shape():
    P = standard("simplex", 2)
    assert P.n_facets == 3
    passes = [_incidence(P.hrep.inequalities, ray) for ray in P._vertex_rays()]
    assert len(passes) == 3 and all(m < 1 << 3 for m, _ in passes)
    assert all(m.bit_count() == 2 for m, _ in passes)  # simple polygon: 2 facets per vertex
    assert all(over == 0 for _, over in passes)  # every vertex lies in P


def test_combinatorially_equal_square_vs_diamond():
    assert combinatorially_equal(standard("cube", 2), standard("crosspolytope", 2))


def test_combinatorially_not_equal():
    assert not combinatorially_equal(standard("simplex", 3), standard("cube", 3))


def test_combinatorially_equal_self():
    for kind in ("simplex", "cube", "crosspolytope"):
        P = standard(kind, 3)
        assert combinatorially_equal(P, P)


def test_combinatorial_guard():
    P = standard("cube", 8)  # 256 vertices
    with pytest.raises(SizeGuardError):
        combinatorially_equal(P, P)


@pytest.mark.parametrize("kind, largest", [("simplex", 255), ("cube", 8), ("crosspolytope", 8)])
def test_standard_builds_up_to_the_spec_guard(kind, largest):
    P = standard(kind, largest)
    assert max(P.n_vertices, P.n_facets) == 256
    with pytest.raises(SizeGuardError, match=f"'{kind}:{largest + 1}' has more than 256 "
                                             "vertices or facets; pass --allow-large"):
        standard(kind, largest + 1)
    P = standard(kind, largest + 1, allow_large=True)
    assert max(P.n_vertices, P.n_facets) > 256


def test_empty_polytope_value():
    E = Polytope(3, rays=())
    assert E.is_empty
    assert E.dim == -1
    assert not strictly_inside(E.hrep, [0, 0, 0])


def test_unbounded_raises():
    # half-line x >= 0 in R^1
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([([-1], 0)], (), 1)


def test_unbounded_raises_at_construction_not_on_read():
    # the unit square cut open on one side: the DD runs in from_inequalities
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([([1, 0], 1), ([-1, 0], 1), ([0, 1], 1)], (), 2)
    # unbounded inside the plane x + y + z = 1
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([([-1, 0, 0], 0), ([0, -1, 0], 0)], [([1, 1, 1], 1)], 3)


def test_empty_system_whose_normals_do_not_span():
    # x <= -1 and -x <= -1: empty, though the normals span only a line
    E = from_inequalities([([1, 0], -1), ([-1, 0], -1)], (), 2)
    assert E.n_vertices == 0 and E.dim == -1
    E = from_inequalities([([1, 1, 0], 0), ([-1, -1, 0], -1), ([1, -1, 0], 5)], (), 3)
    assert E.n_vertices == 0 and E.dim == -1
    # the same normals with room between them: a strip, and a prism
    # over a square, both unbounded
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([([1, 0], 1), ([-1, 0], 1)], (), 2)
    with pytest.raises(UnboundedPolytopeError):
        from_inequalities([([1, 1, 0], 1), ([-1, -1, 0], 1), ([1, -1, 0], 1),
                           ([-1, 1, 0], 1)], (), 3)


def test_intersect_counts_vertices_without_converting_them(monkeypatch):
    """`intersect` lifts the DD's rays to vertex rays once, as it builds
    the polytope; counting them, emptiness and repr make no Fraction
    point, which is made once per polytope, on first read."""
    import hompoly.polytope as polytope_mod

    lifts, points = [], []
    lift, to_points = polytope_mod._vertices_from_hrep, dd._ray_points

    def counted_lift(*args):
        lifts.append(args)
        return lift(*args)

    def counted_points(rays):
        points.append(rays)
        return to_points(rays)

    S = standard("simplex", 3)
    z = [F(1, 4), F(1, 5), F(1, 6)]
    operands = [from_points(reflected_points(S.vertices, z)),
                from_points([[2, 0, -1], [0, 2, -1], [0, 0, 1]]),  # in x + y + z = 1
                from_points(moved_points(S.vertices, [5, 0, 0]))]
    monkeypatch.setattr(polytope_mod, "_vertices_from_hrep", counted_lift)
    monkeypatch.setattr(dd, "_ray_points", counted_points)
    K, flat, gone = (intersect(S, X) for X in operands)
    assert len(lifts) == 3 and all(equations == () for _, equations, _ in lifts)
    assert (K.n_vertices, flat.n_vertices, gone.n_vertices) == (12, 3, 0)
    assert not K.is_empty and gone.is_empty
    assert repr(K) == "Polytope(R^3, 12 vertices)"
    assert points == []
    assert flat.vertices == (vec([0, 0, 1]), vec([0, 1, 0]), vec([1, 0, 0]))
    assert K.vertices == K.vertices and K.vertices == tuple(sorted(K.vertices))
    assert len(points) == 2 and len(lifts) == 3  # one per polytope read, cached after that
    assert all(S.contains(v) for v in K.vertices)


def test_infeasible_hrep_gives_empty():
    P = from_inequalities([([1], -1), ([-1], -1)], (), 1)  # x <= -1 and x >= 1
    assert P.is_empty


SQUARE_ROWS = [([1, 0], 1), ([-1, 0], 1), ([0, 1], 1), ([0, -1], 1)]


def test_from_inequalities_keeps_only_facets():
    # the square plus the redundant row x + y <= 5
    P = from_inequalities(SQUARE_ROWS + [([1, 1], 5)], (), 2)
    assert len(P.hrep.inequalities) == 4
    assert P.hrep == standard("cube", 2).hrep


def test_infeasible_zero_normal_row_gives_canonical_empty_system():
    # 0 <= -1 holds nowhere; it used to be dropped, leaving the square
    P = from_inequalities(SQUARE_ROWS + [([0, 0], -1)], (), 2)
    assert P.is_empty
    assert P.hrep == Polytope(2, rays=()).hrep
    assert not P.contains([0, 0])
    # rows 0 <= c with c >= 0 are still dropped
    Q = from_inequalities(SQUARE_ROWS + [([0, 0], 0), ([0, 0], 3)], (), 2)
    assert Q.hrep == from_inequalities(SQUARE_ROWS, (), 2).hrep


def test_contradictory_equation_gives_canonical_empty_system():
    # 0 = 1 used to stay as an equation and turn x <= 1 into x <= 0
    P = from_inequalities([([1, 0], 1)], [([0, 0], 1)], 2)
    assert P.is_empty
    assert P.hrep == Polytope(2, rays=()).hrep
    # x = 0 and 2x = 1 are each consistent, together 0 = 1
    Q = from_inequalities(SQUARE_ROWS, [([1, 0], 0), ([2, 0], 1)], 2)
    assert Q.hrep == Polytope(2, rays=()).hrep
    # consistent dependent equations and 0 = 0 stay one equation
    R = from_inequalities(SQUARE_ROWS, [([1, 0], 0), ([2, 0], 0), ([0, 0], 0)], 2)
    assert R.hrep.equations == ((vec([1, 0]), F(0)),)
    assert R.vertices == (vec([0, -1]), vec([0, 1]))


def test_operations_keep_the_empty_polytope_empty():
    E = Polytope(2, rays=())
    assert intersect(standard("cube", 2), E).is_empty
    assert intersect(E, standard("cube", 2)).is_empty


def test_single_point_from_equations():
    P = from_inequalities((), [([1, 0], 2), ([0, 1], 3)], 2)
    assert P.vertices == (vec([2, 3]),)
    assert P.dim == 0


def test_lower_dimensional_hrep_to_vrep():
    # triangles in the planes x+y+z=1 and 3x+2y+z=6 of R^3 (the second
    # with a leading coefficient other than 1), and a segment of R^3 cut
    # out by two equations
    nonneg = [([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0)]
    cases = [
        (nonneg, [([1, 1, 1], 1)], [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
        (nonneg, [([3, 2, 1], 6)], [(0, 0, 6), (0, 3, 0), (2, 0, 0)]),
        ([([1, 0, 0], 3), ([-1, 0, 0], -1)], [([1, -1, 0], 0), ([0, 1, 1], 2)],
         [(1, 1, 1), (3, 3, -1)]),
    ]
    for ineqs, eqs, vertices in cases:
        P = from_inequalities(ineqs, eqs, 3)
        assert P.vertices == tuple(vec(v) for v in vertices)
        assert P.dim == 3 - len(eqs)
        both_reps_agree(P)


def test_implicit_equality_in_inequality_system():
    # x <= 0 and -x <= 0 pin x = 0 without an explicit equation
    P = from_inequalities([([1, 0], 0), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)], (), 2)
    assert P.vertices == (vec([0, 0]), vec([0, 1]))
    assert P.dim == 1
    assert len(P.hrep.equations) == 1


def test_from_points_matches_extreme_point_oracle():
    """The vertices of the hull are the extreme points of the set: integer
    points, rational points over mixed denominators (2^20 among them),
    sets with duplicates, and collinear sets."""
    import random as _random

    from _oracles import brute_force_extreme_points

    rng = _random.Random(23)

    def coord(rational):
        if rational:
            return F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5, 7, 2 ** 20)))
        return F(rng.randrange(-3, 4))

    for d in (2, 3):
        for rational in (False, True):
            for _ in range(8):
                pts = [tuple(coord(rational) for _ in range(d))
                       for _ in range(rng.randrange(3, 8))]
                pts += rng.sample(pts, rng.randrange(0, 3))  # duplicates
                hull = from_points(pts, d)
                assert list(hull.vertices) == brute_force_extreme_points(set(pts))
        for _ in range(4):
            # five points a + s u on a line, some of them equal
            a = [coord(True) for _ in range(d)]
            u = [coord(True) for _ in range(d)]
            steps = [F(rng.randrange(-4, 5), rng.choice((1, 3, 4))) for _ in range(5)]
            pts = [tuple(x + s * y for x, y in zip(a, u)) for s in steps]
            hull = from_points(pts, d)
            assert list(hull.vertices) == brute_force_extreme_points(set(pts))
            assert hull.dim == min(len(set(pts)), 2) - 1


def test_intersect_matches_brute_force_on_random_shifted_diamonds():
    import random as _random

    D = standard("crosspolytope", 2)
    rng = _random.Random(31)
    for _ in range(10):
        t = [F(rng.randrange(-3, 4), 4), F(rng.randrange(-3, 4), 4)]
        S = from_points(moved_points(D.vertices, t))
        K = intersect(D, S)
        rows = D.hrep.inequalities + S.hrep.inequalities
        assert list(K.vertices) == brute_force_vertices(rows, (), 2)


def test_hull_of_diamond_hom_vertices_keeps_few_rays(caplog):
    # the V -> H conversion inserts one dual row per vertex in sorted
    # order, which peaks at 1,404 rays here; inserting the row violated
    # by the fewest rays peaks at 8,250
    import logging
    import re

    from hompoly.polytope import _from_rays
    from hompoly.verify import _hom

    _, _, H, maps = _hom("crosspolytope", 3, "crosspolytope", 3)
    assert len(maps) == 318
    with caplog.at_level(logging.DEBUG, logger="hompoly.dd"):
        hull = _from_rays([f.ray for f in maps], H.ambient_dim)
    assert (hull.n_vertices, hull.n_facets) == (318, 48)
    rays = [int(re.search(r": rays (\d+),", r.getMessage()).group(1))
            for r in caplog.records if r.name == "hompoly.dd"]
    assert rays and max(rays) <= 2000
