"""Differential tests: the exact kernels against the brute-force oracles.

`linalg.vec` is checked to be idempotent, the integer rows of the
reduced `linalg._echelon` sweep, `linalg.affine_hull` on the rays of rational points and the greedy
`linalg._independent_rows` with the oracle's textbook Fraction
elimination (and its choice on each prefix of hom rows and
rank-deficient rows with its choice on all of them), `linalg.int_det`
with the Leibniz formula and the rank of integer matrices with the
oracle's pivot count, `dd.polytope_rays` (as sorted points) with exhaustive basis
enumeration, each system as given and with its rows reversed
(zero-normal rows included; unbounded
systems must raise; small hom systems and degenerate systems in cone
dimension 5-7, where the kernel's row-count threshold and witness sweep
run often; the same result with DEBUG logging on; the exact vertex
order when two coordinates are as close as their denominators allow),
the V -> H -> V
round trip of lower-dimensional point sets and the vertices `from_points`
reads off its facets (points inside edges and faces, duplicates, the
centroid, one and two points) with the extreme-point oracle,
the cofactor-sign test of `counts.origin_strictly_inside` and the
half-space mask search `counts._valid_subsets` (exhaustively for
n <= 4) with a barycentric solve, the cofactor vectors of
`counts._face_cofactors` (from cached prefix minors and from the face
alone) and the masks built from them with `int_det` on cube faces,
singular ones included, the
canonical H-rep of systems with zero-normal and dependent equations with
exhaustive basis enumeration (its rows ints, its equations the oracle's
RREF rows made primitive), `homs.is_vertex_map` with
the vertex-certificate oracle on small homs from integer and rational
sources (vertex maps, points between two, drawn rays that often leave
the target), the rank and crosspolytope flag of
`verify._cross_record` with the Fraction rank of A and the hull of the
Fraction images, its isomorphism search and vertex count (m up to 5),
`homs.image_polytope` (a hull of the images' primitive point rays)
with `from_points` of the Fraction images,
`polytope._incidence` (the tight and over rows at a ray) with Fraction
evaluation of int polytope rows and of hom rows with Fraction entries,
`polytope._contains_ray`, strict and not, on a ray and on a point, and
`Polytope.contains` with the Fraction rows of P at vertices, midpoints,
centroids and points outside or off the affine hull, `homs.build_hom`'s
rows from vertex rays with a Fraction row builder on rational sources,
`linalg._int_row` on int rows with the same rows as Fractions, and the
ray-held `homs.AffineMap` (its equality, hash, Fraction
accessors, `map_rank` and the maps file of `jsonio.write_maps`) with
the map built from the Fractions c / t and stdlib `json.dumps` of its
Fraction strings, `linalg.rank` and `rat_to_str` (entries up
to 2^70, non-primitive rays, rank-deficient A), `dd.cone_extreme_rays`
started from a known cone (a cold run on a prefix of the rows) with the
cold run on all of them, `polytope.intersect` from the first operand's
cone, full-dimensional, flat or empty, in either order, with
exhaustive basis enumeration of the joint facet system, on generated
inputs that stress the degenerate cases.
"""

import io
import json
import logging
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _oracles import (  # noqa: E402
    _dot,
    brute_force_extreme_points,
    brute_force_vertices,
    dd_vertices,
    hom_rows,
    leibniz_det,
    moved_points,
    oracle_rref,
    origin_inside_oracle,
    reflected_points,
    vertex_certificate_ok,
)
from hompoly import counts, dd, homs, jsonio, linalg, polytope, verify  # noqa: E402
from hompoly.errors import UnboundedPolytopeError  # noqa: E402

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=2 ** 20),
)


# entries as callers pass them: Fractions, plain ints, or zeros of either type
mixed_entries = st.one_of(rationals, st.integers(-9, 9), st.just(0))


@given(st.lists(st.one_of(mixed_entries, rationals.map(str)), max_size=8))
def test_vec_is_idempotent(values):
    once = linalg.vec(values)
    assert all(type(x) is Fraction for x in once)
    assert once == tuple(Fraction(x) for x in values)
    assert linalg.vec(once) == once


@st.composite
def matrices(draw):
    """Random rational matrices padded with zero rows, duplicate rows and
    rational combinations of other rows (so often rank-deficient)."""
    n_cols = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "combo"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * n_cols)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(rationals), draw(rationals)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(matrices())
def test_reduced_echelon_matches_oracle(M):
    """The reduced sweep's integer rows are the RREF times their pivots."""
    rows = [linalg._int_row(r) for r in M]
    pivots, _ = linalg._echelon(rows, reduced=True)
    red, expected = oracle_rref(M)
    assert pivots == expected
    assert all(type(x) is int for r in rows for x in r)
    assert [[Fraction(x, r[c]) for x in r] for r, c in zip(rows, pivots)] == red
    assert not any(x for r in rows[len(pivots):] for x in r)
    assert linalg.rank(M) == len(pivots)


@st.composite
def hull_point_sets(draw):
    """Nonempty rational point sets in R^1 to R^5: random points with
    entries over 2^20 denominators (as the simplex experiments draw
    them), often with affine combinations of earlier points added, so
    the hull is often lower-dimensional."""
    ambient = draw(st.integers(1, 5))
    point = st.lists(rationals, min_size=ambient, max_size=ambient)
    pts = draw(st.lists(point, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        s = draw(rationals)
        pts.append([x + s * (y - x) for x, y in zip(a, b)])
    return draw(st.permutations(pts)), ambient


@given(hull_point_sets())
def test_affine_hull_matches_oracle(case):
    pts, ambient = case
    hull = linalg.affine_hull([linalg.primitive([1, *p]) for p in pts])
    assert hull.dim == len(oracle_rref([[a - b for a, b in zip(p, pts[0])] for p in pts])[1])
    assert len(hull.equations) == ambient - hull.dim
    assert all(type(x) is int for u, e in hull.equations for x in (*u, e))
    assert all(sum(a * x for a, x in zip(u, p)) == e for u, e in hull.equations for p in pts)
    assert len(oracle_rref([u for u, _ in hull.equations])[1]) == len(hull.equations)


@given(matrices(), st.integers(1, 7))
def test_independent_rows_match_rank_increase_sweep(M, cap):
    """Row i is chosen iff it raises the rank of the rows chosen before
    it, until cap rows are chosen."""
    expected = []
    for i, row in enumerate(M):
        if len(expected) == cap:
            break
        if len(oracle_rref([M[j] for j in expected] + [row])[1]) > len(expected):
            expected.append(i)
    assert linalg._independent_rows([linalg._int_row(r) for r in M], cap) == expected


# mostly sparse 0/+-1 entries, as in hom rows and crosspolytope vertices
int_entries = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-4, 4))


@st.composite
def int_matrices(draw, square):
    """Integer matrices of up to 6 x 6 with zero and duplicate rows, and
    often a zero leading entry, so elimination has to swap rows."""
    n_rows = draw(st.integers(0, 6))
    n_cols = n_rows if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(int_entries, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]
    for kind in draw(st.lists(st.sampled_from(["zero", "copy"]), max_size=2)):
        if rows:
            i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
            rows[i] = [0] * n_cols if kind == "zero" else list(rows[j])
    if rows and draw(st.booleans()):
        rows[0][0] = 0
    return rows


@given(int_matrices(square=True))
def test_int_det_matches_leibniz(M):
    before = [list(row) for row in M]
    assert linalg.int_det(M) == leibniz_det(M)
    assert M == before
    assert linalg.int_det([]) == 1


@given(int_matrices(square=False))
def test_integer_rank_matches_oracle_pivot_count(M):
    assert linalg.rank(M) == len(oracle_rref(M)[1])


@st.composite
def bounded_systems(draw):
    """Small bounded inequality systems: a box, random cuts, cuts through
    one lattice point (a degenerate vertex when it survives), duplicate
    rows, positive multiples and loosened copies (redundant rows)."""
    dim = draw(st.integers(1, 3))
    coeff = st.integers(-3, 3)
    half = draw(st.integers(1, 3))
    rows = []
    for i in range(dim):
        for sign in (1, -1):
            rows.append((tuple(sign * int(j == i) for j in range(dim)), half))
    normals = st.lists(coeff, min_size=dim, max_size=dim).map(tuple)
    for normal in draw(st.lists(normals, max_size=3)):
        rows.append((normal, draw(st.integers(-2, 6))))
    point = draw(st.lists(st.integers(-half, half), min_size=dim, max_size=dim))
    for normal in draw(st.lists(normals, max_size=dim + 1)):
        rows.append((normal, sum(a * b for a, b in zip(normal, point))))
    for kind in draw(st.lists(st.sampled_from(["copy", "scaled", "loose"]), max_size=3)):
        normal, offset = draw(st.sampled_from(rows))
        if kind == "copy":
            rows.append((normal, offset))
        elif kind == "scaled":
            k = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
            rows.append((tuple(k * a for a in normal), k * offset))
        else:
            rows.append((normal, offset + draw(st.integers(1, 3))))
    return draw(st.permutations(rows)), dim


# The kernel inserts rows in the order given; the result must not depend
# on it, so the tests below run each system as given and reversed.
ORDERS = {"given": list, "reversed": lambda rows: list(reversed(rows))}


@pytest.mark.parametrize("order", ORDERS)
@given(bounded_systems())
def test_polytope_vertices_match_brute_force(order, system):
    ineqs, dim = system
    assert dd_vertices(ORDERS[order](ineqs), dim) == \
        brute_force_vertices(ineqs, [], dim)


# Hom systems of 12 rows in dimension 6 (cone dimension 7): vertex maps
# share many tight rows, so the kernel's row-count threshold and its
# sweep of non-adjacency witnesses both run often.
SMALL_HOMS = [("simplex", 2, "crosspolytope", 2), ("cube", 2, "simplex", 2),
              ("crosspolytope", 2, "simplex", 2), ("simplex", 2, "cube", 2)]


@pytest.mark.parametrize("pair", SMALL_HOMS, ids=lambda p: "{}{}-{}{}".format(*p))
def test_hom_vertices_match_brute_force(pair):
    src, m, tgt, n = pair
    H = homs.build_hom(polytope.standard(src, m), polytope.standard(tgt, n))
    expected = brute_force_vertices(H.rows, [], H.ambient_dim)
    for order in ORDERS.values():
        assert dd_vertices(order(H.rows), H.ambient_dim) == expected


def assert_prefix_matches_full_sweep(rows):
    """The greedy choice on each prefix of the rows is the full sweep's
    choice among that prefix: whether a row is chosen depends only on
    the rows before it."""
    full = linalg._independent_rows(rows, len(rows))
    for k in range(1, len(rows) + 1):
        assert linalg._independent_rows(rows[:k], k) == [i for i in full if i < k]


@pytest.mark.parametrize("pair", SMALL_HOMS + [("cube", 3, "crosspolytope", 3),
                                               ("crosspolytope", 3, "crosspolytope", 3)],
                         ids=lambda p: "{}{}-{}{}".format(*p))
def test_independent_rows_prefix_matches_full_sweep_on_hom_rows(pair):
    # the DD's homogenized rows, in insertion order and reversed, and the
    # source vertices that the structured order chooses among
    src, m, tgt, n = pair
    H = homs.build_hom(polytope.standard(src, m), polytope.standard(tgt, n))
    rows = [linalg._int_row([c] + [-x for x in a])
            for a, c in (H.rows[k] for k in homs.structured_row_order(H))]
    lifted = [linalg._int_row(v + (1,)) for v in H.source.vertices]
    for system in (rows, rows[::-1], lifted):
        assert_prefix_matches_full_sweep(system)


@st.composite
def rank_deficient_rows(draw):
    """Integer rows of length 2-6 spanning a space of lower dimension,
    each a small combination of a few basis rows; sparse coefficients
    make zero rows and runs of dependent leading rows common."""
    n_cols = draw(st.integers(2, 6))
    r = draw(st.integers(0, n_cols - 1))
    entry = st.integers(-3, 3)
    basis = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(r)]
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2])
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        coeffs = [draw(coeff) for _ in basis]
        rows.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n_cols)))
    return rows


@given(rank_deficient_rows())
def test_independent_rows_prefix_matches_full_sweep_on_rank_deficient_rows(rows):
    assert_prefix_matches_full_sweep(rows)


@st.composite
def degenerate_systems(draw):
    """Bounded systems in dimension 4-6 (cone dimension 5-7): the simplex
    x_i >= -h, sum x <= h, cuts through one lattice point (one of two
    of its vertices, a point on an edge, or the origin inside it), and
    copies and positive multiples of rows."""
    dim = draw(st.integers(4, 6))
    h = draw(st.integers(1, 2))
    rows = [(tuple(-int(j == i) for j in range(dim)), h) for i in range(dim)]
    rows.append(((1,) * dim, h))
    point = draw(st.sampled_from([(-h,) * dim, (0,) * dim, (dim * h,) + (-h,) * (dim - 1),
                                  (h,) + (-h,) * (dim - 1)]))
    normals = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(tuple)
    for normal in draw(st.lists(normals, min_size=1, max_size=3)):
        rows.append((normal, sum(a * b for a, b in zip(normal, point))))
    for kind in draw(st.lists(st.sampled_from(["copy", "scaled"]), max_size=2)):
        normal, offset = draw(st.sampled_from(rows))
        k = 1 if kind == "copy" else Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        rows.append((tuple(k * a for a in normal), k * offset))
    return draw(st.permutations(rows)), dim


@settings(max_examples=40)
@given(degenerate_systems())
def test_degenerate_vertices_match_brute_force(system):
    ineqs, dim = system
    expected = brute_force_vertices(ineqs, [], dim)
    for order in ORDERS.values():
        assert dd_vertices(order(ineqs), dim) == expected


@st.composite
def close_triangles(draw):
    """Triangles whose first two vertices have first coordinates k/n and
    k/(n - 1), which differ by only |k|/(n(n - 1)), and second
    coordinates in the opposite order, so only an exact comparison of
    the first coordinates sorts them; the third vertex lies off their
    line."""
    n = draw(st.integers(3, 2 ** 20))
    k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    x0, x1 = sorted([Fraction(k, n), Fraction(k, n - 1)])
    lo, hi = sorted(draw(st.lists(st.integers(-5, 5), min_size=2, max_size=2, unique=True)))
    a, b = (x0, Fraction(hi)), (x1, Fraction(lo))
    c = (x0 + draw(st.integers(-3, 3)), Fraction(draw(st.integers(-5, 5))))
    assume((b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0]))
    return a, b, c


@given(close_triangles())
def test_vertices_are_sorted_exactly(triangle):
    ineqs = []
    for p, q, r in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        p, q, r = triangle[p], triangle[q], triangle[r]
        normal = (q[1] - p[1], p[0] - q[0])
        offset = normal[0] * p[0] + normal[1] * p[1]
        if normal[0] * r[0] + normal[1] * r[1] > offset:
            normal, offset = (-normal[0], -normal[1]), -offset
        ineqs.append((normal, offset))
    for order in ORDERS.values():
        assert dd_vertices(order(ineqs), 2) == sorted(triangle)


def test_dd_result_does_not_depend_on_log_level(caplog):
    H = homs.build_hom(polytope.standard("cube", 2), polytope.standard("crosspolytope", 2))
    with caplog.at_level(logging.WARNING, logger="hompoly.dd"):
        quiet = dd_vertices(H.rows, H.ambient_dim)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="hompoly.dd"):
        loud = dd_vertices(H.rows, H.ambient_dim)
    assert loud == quiet
    assert len(loud) == counts.bound_box_diamond(2, 2)
    # each candidate pair is refuted by a witness or gets one full test
    stats = [re.search(r"candidates (\d+), witness hits (\d+), full tests (\d+), new (\d+)",
                       r.getMessage()) for r in caplog.records]
    assert stats and all(stats)
    for cands, hits, tests, new in (map(int, s.groups()) for s in stats):
        assert cands == hits + tests and new <= tests
    assert sum(int(s.group(2)) for s in stats) > 0


@st.composite
def unbounded_systems(draw):
    """Feasible systems with a recession direction d: every normal has
    n . d <= 0 and every row holds at a lattice point x0, so x0 + t d is
    feasible for all t >= 0.  Some have too few rows to span."""
    dim = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    d = draw(vector.filter(any))
    x0 = draw(vector)
    rows = []
    for normal in draw(st.lists(vector, max_size=6)):
        if sum(a * b for a, b in zip(normal, d)) > 0:
            normal = tuple(-a for a in normal)
        slack = draw(st.integers(0, 2))
        rows.append((normal, sum(a * b for a, b in zip(normal, x0)) + slack))
    return rows, dim


@pytest.mark.parametrize("order", ORDERS)
@given(unbounded_systems())
def test_polytope_vertices_rejects_unbounded_systems(order, system):
    ineqs, dim = system
    with pytest.raises(UnboundedPolytopeError):
        dd_vertices(ORDERS[order](ineqs), dim)


@st.composite
def flat_point_sets(draw):
    """Distinct points of a k-flat in R^2, R^3 or R^4 with k < ambient
    dimension: a lattice base point plus small rational combinations of
    k integer directions (which may be dependent, lowering the flat),
    sometimes with the points' centroid added as one more point."""
    ambient = draw(st.integers(2, 4))
    k = draw(st.integers(0, ambient - 1))
    vector = st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient)
    base = draw(vector)
    dirs = draw(st.lists(vector, min_size=k, max_size=k))
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    pts = set()
    for cs in draw(st.lists(st.lists(coeff, min_size=k, max_size=k), min_size=1, max_size=6)):
        pts.add(tuple(Fraction(b) + sum((c * d[i] for c, d in zip(cs, dirs)), Fraction(0))
                      for i, b in enumerate(base)))
    if draw(st.booleans()):
        pts.add(tuple(sum(col) / len(pts) for col in zip(*pts)))
    return sorted(pts), ambient


@given(flat_point_sets())
def test_lower_dimensional_v_h_v_round_trip(case):
    pts, ambient = case
    expected = brute_force_extreme_points(pts)
    P = polytope.from_points(pts, ambient)
    assert list(P.vertices) == expected
    assert P.dim == len(oracle_rref([[a - b for a, b in zip(p, pts[0])] for p in pts])[1])
    assert P.dim < ambient
    back = polytope.from_inequalities(P.hrep.inequalities, P.hrep.equations, ambient)
    assert list(back.vertices) == expected
    assert back.dim == P.dim


@st.composite
def hull_point_lists(draw):
    """Point lists for `from_points`: a flat point set, the corners of a
    box in R^1 to R^3, or rational points in R^1 to R^4, sometimes cut to
    one or two points; plus points inside edges and faces (midpoints of
    two points, barycenters of three), the centroid and duplicates."""
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    base = draw(st.sampled_from(["flat", "box", "free"]))
    if base == "flat":
        pts, ambient = draw(flat_point_sets())
    elif base == "box":
        ambient = draw(st.integers(1, 3))
        pts = list(product(*(sorted(draw(st.sets(coord, min_size=2, max_size=2)))
                             for _ in range(ambient))))
    else:
        ambient = draw(st.integers(1, 4))
        point = st.lists(coord, min_size=ambient, max_size=ambient).map(tuple)
        pts = draw(st.lists(point, min_size=1, max_size=6))
    if draw(st.booleans()):
        pts = pts[:draw(st.integers(1, 2))]
    extras = []
    kinds = st.sampled_from(["midpoint", "barycenter", "centroid", "duplicate"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "duplicate":
            extras.append(draw(st.sampled_from(pts)))
            continue
        k = min({"midpoint": 2, "barycenter": 3}.get(kind, len(pts)), len(pts))
        chosen = [pts[i] for i in draw(st.sets(st.integers(0, len(pts) - 1),
                                               min_size=k, max_size=k))]
        extras.append(tuple(sum(col, Fraction(0)) / k for col in zip(*chosen)))
    return draw(st.permutations(list(pts) + extras)), ambient


@given(hull_point_lists())
def test_from_points_keeps_exactly_the_extreme_points(case):
    """The vertices `from_points` reads off the facet incidences are the
    extreme points, and the facet system is the hull's."""
    pts, ambient = case
    expected = brute_force_extreme_points(set(pts))  # the oracle wants distinct points
    P = polytope.from_points(pts, ambient)
    assert list(P.vertices) == expected
    h = P.hrep
    assert polytope.from_inequalities(h.inequalities, h.equations, ambient).vertices == P.vertices


@st.composite
def point_tuples(draw):
    """n+1 integer points of R^n (n = 1..4, entries in [-3, 3]), often
    degenerate: a repeated point, three points on a line, or the origin
    on a facet (a point at 0, or a point and its negative)."""
    n = draw(st.integers(1, 4))
    point = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    pts = draw(st.lists(point, min_size=n + 1, max_size=n + 1))
    kind = draw(st.sampled_from(["free", "repeat", "line", "zero", "antipodal"]))
    i, j, k = (draw(st.integers(0, n)) for _ in range(3))
    if kind == "repeat":
        pts[i] = pts[j]
    elif kind == "line":
        p, q = pts[i], pts[j]
        t = draw(st.integers(-2, 2))
        pts[k] = tuple(a + t * (b - a) for a, b in zip(p, q))
    elif kind == "zero":
        pts[i] = (0,) * n
    elif kind == "antipodal":
        pts[i] = tuple(-a for a in pts[j])
    return tuple(draw(st.permutations(pts)))


@given(point_tuples())
def test_origin_strictly_inside_matches_oracle(points):
    assert counts.origin_strictly_inside(points) == origin_inside_oracle(points)


@lru_cache(maxsize=None)
def _oracle_centered(n):
    """The (n+1)-sets of cube vertices that the oracle calls centered."""
    verts = product((-1, 1), repeat=n)
    return {frozenset(s) for s in combinations(verts, n + 1) if origin_inside_oracle(s)}


def _oracle_subsets(n, anchor):
    """`_valid_subsets` by brute force: filter the combinations of cube
    vertices with the oracle, in the same order."""
    verts = list(product((-1, 1), repeat=n))
    if anchor is None:
        return [s for s in combinations(verts, n + 1) if frozenset(s) in _oracle_centered(n)]
    rest = [v for v in verts if v != anchor]
    return [(anchor,) + s for s in combinations(rest, n)
            if frozenset((anchor,) + s) in _oracle_centered(n)]


def test_valid_subsets_match_oracle():
    # exhaustive: every n <= 4, every anchor and no anchor
    for n in range(1, 5):
        for anchor in [None] + list(product((-1, 1), repeat=n)):
            assert list(counts._valid_subsets(n, anchor)) == _oracle_subsets(n, anchor)


@st.composite
def cube_faces(draw):
    """n - 1 vertices of the n-cube, n <= 5; repeated, antipodal and
    sign-combined rows make many of them singular."""
    n = draw(st.integers(1, 5))
    vertex = st.tuples(*[st.sampled_from((-1, 1))] * n)
    rows = draw(st.lists(vertex, min_size=n - 1, max_size=n - 1))
    if n >= 3:
        kind = draw(st.sampled_from(["free", "repeat", "antipodal", "combined"]))
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        if kind == "repeat":
            rows[i] = rows[j]
        elif kind == "antipodal":
            rows[i] = tuple(-a for a in rows[j])
        elif kind == "combined" and n == 5:
            # a - b + c is a cube vertex where b agrees with a or with c
            combo = tuple(a - b + c for a, b, c in zip(*rows[:3]))
            if all(abs(x) == 1 for x in combo):
                rows[3] = combo
    return rows


def _cofactor_vector(rows):
    """The cofactor vector of the n - 1 rows alone, by `counts._face_cofactors`."""
    n = len(rows) + 1
    return counts._face_cofactors(n, rows)(tuple(range(n - 1)))


@given(cube_faces())
def test_cofactor_vector_matches_int_det(rows):
    """C . v == det(rows + [v]) for every cube vertex v, and the
    half-space masks of `_valid_subsets` are the signs of those
    determinants; a singular face has C = 0 and empty masks.  C is read
    as `_valid_subsets` reads it, off minors cached by a face with the
    same proper prefixes, and off the face's rows alone."""
    n = len(rows) + 1
    verts = counts.cube_vertices(n)
    cofactor = counts._face_cofactors(n, verts)
    face = tuple(verts.index(v) for v in rows)
    if face:
        cofactor(face[:-1] + (len(verts) - 1 - face[-1],))
    C = cofactor(face)
    assert _cofactor_vector(rows) == C
    dets = [linalg.int_det(rows + [v]) for v in verts]
    assert [sum(c * x for c, x in zip(C, v)) for v in verts] == dets
    neg, pos = counts._half_space_masks(C, verts)
    assert neg == sum(1 << k for k, d in enumerate(dets) if d < 0)
    assert pos == sum(1 << k for k, d in enumerate(dets) if d > 0)
    if linalg.rank(rows) < n - 1:
        assert C == (0,) * n and (neg, pos) == (0, 0)


def test_cofactor_vector_singular_faces():
    faces = [[(1, 1, -1), (1, 1, -1)], [(1, -1, 1), (-1, 1, -1)],
             [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, 1, 1)], [], [(1, 0)], [(1, 0, 0), (0, 1, 0)],
             [(2, -3, 5, 7), (0, 4, -1, 6), (3, 3, 0, -2)]]
    assert [_cofactor_vector(rows) for rows in faces[:-1]] == [
        (0, 0, 0), (0, 0, 0), (0,) * 4, (1,), (0, 1), (0, 0, 1)]
    for rows in faces:
        n = len(rows) + 1
        C = _cofactor_vector(rows)
        for v in product(range(-2, 3), repeat=n):
            assert sum(c * x for c, x in zip(C, v)) == linalg.int_det(rows + [list(v)])


@given(bounded_systems(), rationals)
def test_polytope_vertices_zero_normal_rows(system, offset):
    """A row 0 <= c is dropped for c >= 0 and empties the set for c < 0."""
    ineqs, dim = system
    rows = list(ineqs) + [((Fraction(0),) * dim, offset)]
    got = dd_vertices(rows, dim)
    assert got == brute_force_vertices(rows, [], dim)
    if offset < 0:
        assert got == []
    else:
        assert got == dd_vertices(ineqs, dim)
    assert dd_vertices([((0,) * dim, -1)] + list(ineqs), dim) == []


@st.composite
def systems_with_equations(draw):
    """A bounded system plus equations: zero-normal rows 0 = c, rows
    through a lattice point (some with rational entries), copies,
    rational combinations of earlier equations and shifted copies, which
    contradict the row they copy."""
    ineqs, dim = draw(bounded_systems())
    coeff = st.integers(-3, 3)
    point = draw(st.lists(coeff, min_size=dim, max_size=dim))
    eqs = []
    kinds = ["zero", "through", "rational", "copy", "combo", "shifted"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "zero":
            eqs.append(((0,) * dim, draw(st.integers(-2, 2))))
        elif kind in ("through", "rational") or not eqs:
            entry = rationals if kind == "rational" else coeff
            normal = tuple(draw(st.lists(entry, min_size=dim, max_size=dim)))
            eqs.append((normal, sum(a * b for a, b in zip(normal, point))))
        elif kind == "copy":
            eqs.append(draw(st.sampled_from(eqs)))
        elif kind == "combo":
            (u, c), (w, d) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
            s, t = draw(rationals), draw(rationals)
            eqs.append((tuple(s * a + t * b for a, b in zip(u, w)), s * c + t * d))
        else:
            normal, offset = draw(st.sampled_from(eqs))
            eqs.append((normal, offset + draw(st.integers(1, 2))))
    return ineqs, draw(st.permutations(eqs)), dim


@given(systems_with_equations())
def test_canonical_hrep_with_equations_matches_brute_force(system):
    """Contradictory equations give the canonical empty system; otherwise
    the canonical H-rep keeps the vertex set."""
    ineqs, eqs, dim = system
    P = polytope.from_inequalities(ineqs, eqs, dim)
    expected = brute_force_vertices(ineqs, eqs, dim)
    assert P.n_vertices == len(expected)
    assert dd._ray_points(polytope._vertices_from_hrep(*P._frame_rays, dim)) == expected
    assert list(P.vertices) == expected
    h = polytope._canonical_hrep(ineqs, eqs)
    assert all(type(x) is int for u, c in h.inequalities + h.equations for x in (*u, c))
    red, pivots = oracle_rref([list(u) + [c] for u, c in eqs])
    if dim in pivots:  # the equations alone reduce to 0 = 1
        assert h == polytope.Polytope(dim, rays=()).hrep
    else:
        assert all(any(u) for u, _ in h.equations)
        # the oracle's RREF rows lead with 1, so clearing their
        # denominators leaves them primitive and sign-oriented
        canon = []
        for row in red:
            m = lcm(*(x.denominator for x in row))
            ints = [int(x * m) for x in row]
            canon.append((tuple(ints[:-1]), ints[-1]))
        assert polytope._canonical_hrep([], eqs).equations == tuple(canon)
        if h != polytope.Polytope(dim, rays=()).hrep:  # no row reduced to 0 <= c < 0
            assert h.equations == tuple(canon)


@st.composite
def crosspolytope_maps(draw, max_m=4):
    """Affine maps from the m-crosspolytope to R^n, n <= 3,
    n - 1 <= m <= max_m, not necessarily vertex maps.  The columns start
    from a basis or not; the others are random, zero, repeats, opposites,
    sums, differences and midpoints of earlier columns, so the rank is often below n
    and columns fall inside, on and outside the hull of the others."""
    n = draw(st.sampled_from([3, 2, 1]))
    m = draw(st.sampled_from([k for k in range(max_m, 0, -1) if k >= n - 1]))
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    kinds = ["random", "zero", "repeat", "opposite", "sum", "difference", "midpoint"]
    cols = []
    if draw(st.booleans()):
        # start from a basis: a triangular matrix with a nonzero diagonal
        nonzero = st.integers(-3, 3).filter(bool)
        for k in range(min(m, n)):
            cols.append(linalg.vec(draw(st.integers(-3, 3)) if j < k else
                                   draw(nonzero) if j == k else 0 for j in range(n)))
    while len(cols) < m:
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            cols.append((Fraction(0),) * n)
        elif kind == "random" or not cols:
            cols.append(linalg.vec(draw(vectors)))
        elif kind == "repeat":
            cols.append(draw(st.sampled_from(cols)))
        elif kind == "opposite":
            cols.append(tuple(-x for x in draw(st.sampled_from(cols))))
        else:
            a, b = draw(st.permutations(cols))[:2] if len(cols) > 1 else cols * 2
            if kind == "difference":
                b = tuple(-y for y in b)
            scale = Fraction(1, 2) if kind == "midpoint" else 1
            cols.append(tuple(scale * (x + y) for x, y in zip(a, b)))
    cols = draw(st.permutations(cols))
    matrix = tuple(tuple(col[j] for col in cols) for j in range(n))
    return homs.AffineMap(matrix, linalg.vec(draw(vectors)))


@given(crosspolytope_maps(max_m=5))
def test_cross_record_matches_image_oracle(f):
    """The record's rank is the Fraction rank of A, and its flag says
    that the hull of the Fraction images f(+-e_i) is combinatorially the
    n-crosspolytope, which for rank n is having 2n vertices (m up to 5,
    rank-deficient and non-vertex maps)."""
    P = polytope.standard("crosspolytope", f.source_dim)
    n = f.target_dim
    model = polytope.standard("crosspolytope", n)
    image = polytope.from_points([f.evaluate(v) for v in P.vertices], n)
    r = linalg.rank(f.matrix)
    cross = polytope.combinatorially_equal(image, model)
    assert cross == (r == n and image.n_vertices == 2 * n)
    assert verify._cross_record(f) == (r, cross)


@st.composite
def small_homs_with_maps(draw):
    """Hom(P, Q) for a full-dimensional P in R^1 or R^2 with integer or
    rational vertices and a standard Q in R^1 or R^2, with a map: one of
    its vertex maps, a point between two of them, or a drawn ray, which
    often sends P outside Q."""
    m = draw(st.sampled_from([1, 2]))
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        coord = st.one_of(coord, st.fractions(min_value=-3, max_value=3, max_denominator=5))
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1, max_size=5))
    P = polytope.from_points(points, m)
    assume(P.dim == m)
    Q = polytope.standard(draw(st.sampled_from(["simplex", "cube", "crosspolytope"])),
                          draw(st.sampled_from([1, 2])))
    H = homs.build_hom(P, Q)
    n = Q.ambient_dim
    kind = draw(st.sampled_from(["vertex", "between", "ray"]))
    if kind == "ray":
        t = draw(st.integers(1, 4))
        c = draw(st.lists(st.integers(-6, 6), min_size=H.ambient_dim, max_size=H.ambient_dim))
        g = gcd(t, *c)
        return H, homs.AffineMap.from_ray(tuple(a // g for a in (t, *c)), m, n)
    maps = homs.enumerate_vertex_maps(H)
    f = draw(st.sampled_from(maps))
    if kind == "vertex":
        return H, f
    # (k f + l g) / (k + l) in the integers of the two rays
    g, k, l = draw(st.sampled_from(maps)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    (s, *x), (u, *y) = f.ray, g.ray
    ray = [(k + l) * s * u, *(k * u * a + l * s * b for a, b in zip(x, y))]
    d = gcd(*ray)
    return H, homs.AffineMap.from_ray(tuple(a // d for a in ray), m, n)


@given(small_homs_with_maps())
def test_is_vertex_map_matches_certificate_oracle(case):
    """The one integer pass over the hom rows raises exactly when a row
    fails at the map and otherwise agrees with the Fraction oracle."""
    H, f = case
    x = homs.flatten_map(f)
    inside = all(sum((a * b for a, b in zip(u, x)), Fraction(0)) <= c for u, c in H.rows)
    if not inside:
        with pytest.raises(ValueError):
            homs.is_vertex_map(f, H.source, H.target, hom=H)
        return
    assert homs.is_vertex_map(f, H.source, H.target, hom=H) == \
        vertex_certificate_ok([x], H.rows, ())


@given(st.one_of(
    small_homs_with_maps().map(lambda case: (case[0].source, case[1])),
    crosspolytope_maps().map(lambda f: (polytope.standard("crosspolytope", f.source_dim), f))))
def test_image_polytope_matches_fraction_hull(case):
    """The hull of the images' point rays is the hull of the Fraction
    images f(v): the same vertices and canonical H-rep (sources with
    integer and rational vertices, maps in and out of the target)."""
    P, f = case
    image = homs.image_polytope(f, P)
    hull = polytope.from_points([f.evaluate(v) for v in P.vertices], f.target_dim)
    assert image.n_vertices == hull.n_vertices and image.dim == hull.dim
    assert image.hrep == hull.hrep
    assert image.vertices == hull.vertices


@st.composite
def polytopes_with_rays(draw):
    """A polytope, full-dimensional or a triangle in R^3, and the integer
    ray (t, x) of a point x / t that is a vertex, a midpoint of two
    vertices (on an edge, on a facet or inside), the centroid, a vertex
    pushed out from the centroid, the centroid moved off the triangle's
    plane along the leading column of its equation (which no facet row
    reads), or drawn (often off the affine hull), times k so that the
    ray is often not primitive.  Returns the place drawn as well."""
    kind = draw(st.sampled_from(["simplex", "cube", "crosspolytope", "flat"]))
    if kind == "flat":
        P = polytope.from_points([(0, 0, 0), (2, 1, 0), (1, 3, 1)])
    else:
        P = polytope.standard(kind, draw(st.integers(1, 3)))
    verts = P.vertices
    d = P.ambient_dim
    centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
    places = ["vertex", "midpoint", "centroid", "outside", "drawn"]
    where = draw(st.sampled_from(places + ["off_hull"] * (kind == "flat")))
    if where == "off_hull":
        normal, _ = P.hrep.equations[0]
        lead = next(i for i, a in enumerate(normal) if a)
        s = draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
        point = tuple(c + s * (i == lead) for i, c in enumerate(centroid))
    elif where == "vertex":
        point = draw(st.sampled_from(verts))
    elif where == "midpoint":
        u, v = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        point = tuple((a + b) / 2 for a, b in zip(u, v))
    elif where == "centroid":
        point = centroid
    elif where == "outside":
        v, s = draw(st.sampled_from(verts)), draw(st.fractions(1, 3, max_denominator=4))
        point = tuple(c + (1 + s) * (a - c) for a, c in zip(v, centroid))
    else:
        point = tuple(draw(st.lists(rationals, min_size=d, max_size=d)))
    t = lcm(*(Fraction(x).denominator for x in point))
    k = draw(st.sampled_from([1, 2, 6]))
    return P, where, point, (k * t, *(int(k * t * x) for x in point))


@given(polytopes_with_rays())
def test_interior_ray_matches_contains_interior(case):
    """The one integer containment routine, through the ray and through
    the point, strict and not, against the Fraction oracle on P's rows;
    vertices and midpoints lie in P, and vertices on its boundary."""
    P, where, point, ray = case
    h = P.hrep
    x = tuple(Fraction(a) for a in point)
    on_hull = all(_dot(n, x) == c for n, c in h.equations)
    interior = on_hull and all(_dot(n, x) < c for n, c in h.inequalities)
    inside = on_hull and all(_dot(n, x) <= c for n, c in h.inequalities)
    assert polytope._contains_ray(P, ray, strict=True) == interior
    assert polytope._contains_ray(P, polytope._point_ray(P, point), strict=True) == interior
    assert polytope._contains_ray(P, ray) == inside
    assert P.contains(point) == inside
    if where in ("vertex", "midpoint", "centroid"):
        assert inside
    if where == "vertex":
        assert not interior


def _fraction_incidence(rows, x):
    """(tight, over) over the rows (n, c) at the Fraction point x, by
    Fraction dot products: n . x = c and n . x > c."""
    values = [(_dot(n, x), c) for n, c in rows]
    return (sum(1 << k for k, (s, c) in enumerate(values) if s == c),
            sum(1 << k for k, (s, c) in enumerate(values) if s > c))


@given(st.one_of(
    polytopes_with_rays().map(
        lambda case: (case[0].hrep.equations + case[0].hrep.inequalities, case[2], case[3])),
    small_homs_with_maps().map(
        lambda case: (case[0].rows, homs.flatten_map(case[1]), case[1].ray))))
def test_incidence_matches_fraction_evaluation(case):
    """The one integer row pass against Fraction evaluation: the int
    equation and facet rows of a polytope at vertices, midpoints,
    centroids and points outside or off its hull, through rays that are
    often not primitive, and the hom rows of integer and rational
    sources, with Fraction entries, at vertex maps, points between two
    and drawn rays that often leave the target."""
    rows, point, ray = case
    assert polytope._incidence(rows, ray) == \
        _fraction_incidence(rows, tuple(Fraction(a) for a in point))


@st.composite
def rational_hom_pairs(draw):
    """Full-dimensional P in R^1 .. R^3 with rational vertices (small
    denominators, so some products u_j v_i are integral and some not)
    and full-dimensional Q, standard or the hull of drawn integer
    points, whose facet rows then have entries other than 0 and +-1."""
    m = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
    P = polytope.from_points(draw(st.lists(st.tuples(*[coord] * m),
                                           min_size=m + 1, max_size=m + 3)), m)
    assume(P.dim == m)
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        Q = polytope.standard(draw(st.sampled_from(["simplex", "cube", "crosspolytope"])), n)
    else:
        pts = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                            min_size=n + 1, max_size=n + 3))
        Q = polytope.from_points(pts, n)
        assume(Q.dim == n)
    return P, Q


@given(rational_hom_pairs())
def test_hom_rows_match_fraction_builder(pair):
    """`build_hom`'s rows, built from P's vertex rays, are the Fraction
    rows (u, u_j v_i; c) of P's Fraction vertices, in the same order, each
    entry an int exactly where it is integral."""
    P, Q = pair
    H = homs.build_hom(P, Q)
    facets = Q.hrep.inequalities
    assert list(H.rows) == hom_rows(P.vertices, facets)
    assert H.pairs == tuple((i, j) for i in range(P.n_vertices) for j in range(len(facets)))
    for normal, offset in H.rows:
        assert type(offset) is int
        assert all((type(a) is int) == (Fraction(a).denominator == 1) for a in normal)


# integers up to 2^70 in size, with small values and 0 drawn often
big_ints = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-2 ** 70, 2 ** 70))


@given(st.lists(big_ints, max_size=8), st.sampled_from([1, 2, 6, 2 ** 35]),
       st.sampled_from([list, tuple]))
def test_int_row_of_ints_matches_fraction_row(row, k, kind):
    """An int row, scaled by k so its gcd is often above 1, clears to
    the primitive row the Fraction path gives, as a new list of ints."""
    row = kind(k * x for x in row)
    got = linalg._int_row(row)
    assert got == linalg._int_row([Fraction(x) for x in row])
    assert type(got) is list and got is not row
    assert all(type(x) is int for x in got)


@given(big_ints, st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70)),
       st.sampled_from([1, 2, 6, 2 ** 35]))
def test_ray_coordinate_string_matches_fraction(c, t, k):
    """The string of c / t read off gcd(c, t), for primitive and scaled
    (non-primitive) pairs alike, is the one `rat_to_str` gives."""
    text = jsonio.rat_to_str(Fraction(c, t))
    assert jsonio._ray_str(c, t) == text
    assert jsonio._ray_str(k * c, k * t) == text


@st.composite
def map_rays(draw):
    """An integer ray (t, b, A) of a map R^m -> R^n, times a scale k so
    that it is often not primitive; the rows of A are drawn free, zero
    or as integer combinations of earlier rows, so A is often
    rank-deficient."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    t = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2 ** 70)))
    entries = st.lists(big_ints, min_size=m, max_size=m)
    b = draw(st.lists(big_ints, min_size=n, max_size=n))
    A: list[list[int]] = []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "zero", "combo"]))
        if kind == "free" or (kind == "combo" and not A):
            A.append(draw(entries))
        elif kind == "zero":
            A.append([0] * m)
        else:
            s, u = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            r1, r2 = draw(st.sampled_from(A)), draw(st.sampled_from(A))
            A.append([s * x + u * y for x, y in zip(r1, r2)])
    k = draw(st.sampled_from([1, 3, 2 ** 35]))
    return tuple(k * x for x in [t, *b, *(x for row in A for x in row)]), m, n


@given(map_rays(), st.data())
def test_ray_map_matches_fraction_map(case, data):
    """`AffineMap.from_ray` of the primitive form of a drawn ray is the
    map built from the Fractions c / t: equal and hash-equal, with the
    same Fractions from its accessors, the rank of its Fraction matrix,
    and, from `write_maps`, the bytes of stdlib `json.dumps` of those
    Fractions' strings."""
    ray, m, n = case
    flat = tuple(Fraction(c, ray[0]) for c in ray[1:])
    b, A = flat[:n], tuple(flat[n + j * m: n + (j + 1) * m] for j in range(n))
    g = gcd(*ray)
    f = homs.AffineMap.from_ray(tuple(c // g for c in ray), m, n)
    ref = homs.AffineMap(A, b)
    assert f.ray == ref.ray and hash(f) == hash(ref)
    # a matrix without rows has no width: only from_ray makes R^m -> R^0, m > 0
    assert (f == ref) == (n > 0 or m == 0)
    assert f.matrix == A and f.offset == b and homs.flatten_map(f) == flat
    x = tuple(data.draw(st.lists(rationals, min_size=m, max_size=m)))
    assert f.evaluate(x) == tuple(sum((a * y for a, y in zip(row, x)), c)
                                  for row, c in zip(A, b))
    assert homs.map_rank(f) == linalg.rank(A)
    expected = {"A": [jsonio.vec_to_json(row) for row in A], "b": jsonio.vec_to_json(b),
                "rank": linalg.rank(A)}
    fh = io.StringIO()
    assert jsonio.write_maps(fh, [f]) == [linalg.rank(A)]
    assert fh.getvalue() == json.dumps([expected], sort_keys=True, indent=2) + "\n"


def _cone_rows(ineqs, dim):
    """The DD's homogenized rows (c, -n) of a system, then 1 >= 0."""
    return [tuple(linalg._int_row([c, *(-a for a in n)])) for n, c in ineqs] + \
        [(1,) + (0,) * dim]


def _known_start(rows, k):
    """A cold run on rows[:k], as the start `cone_extreme_rays` takes."""
    rays = dd.cone_extreme_rays(rows[:k])
    masks = [sum(1 << i for i, row in enumerate(rows[:k])
                 if sum(a * b for a, b in zip(row, ray)) == 0) for ray in rays]
    return k, rays, masks


@settings(max_examples=60)
@given(st.one_of(bounded_systems(), degenerate_systems()), st.data())
def test_known_start_matches_cold_start(system, data):
    """Started from the cone of a prefix of its rows (any prefix of full
    rank, all the rows included), the kernel finds the cold run's rays;
    a next row t <= 0 leaves no ray.  The systems hold duplicated,
    scaled and zero rows, degenerate vertices and empty sets."""
    rows = _cone_rows(*system)
    cold = set(dd.cone_extreme_rays(rows))
    first = next(k for k in range(1, len(rows) + 1)
                 if linalg.rank(rows[:k]) == len(rows[0]))
    for k in {data.draw(st.integers(first, len(rows))), len(rows)}:
        start = _known_start(rows, k)
        assert set(dd.cone_extreme_rays(rows, start=start)) == cold
        emptied = rows[:k] + [(-1,) + (0,) * (len(rows[0]) - 1)] + rows[k:]
        assert dd.cone_extreme_rays(emptied, start=start) == []


intersect_coords = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def full_polytopes(draw, ambient):
    """conv of ambient + 1 or ambient + 2 rational points, full-dimensional."""
    point = st.lists(intersect_coords, min_size=ambient, max_size=ambient).map(tuple)
    P = polytope.from_points(draw(st.lists(point, min_size=ambient + 1,
                                           max_size=ambient + 2)), ambient)
    assume(P.dim == ambient)
    return P


@st.composite
def flat_polytopes(draw, ambient, normal=None):
    """conv of one to four rational points of a hyperplane n . x = c
    (drawn unless `normal` gives it), n_last in {1, -1, 2}."""
    if normal is None:
        normal = (*draw(st.lists(st.integers(-2, 2), min_size=ambient - 1,
                                 max_size=ambient - 1)),
                  draw(st.sampled_from([1, -1, 2]))), draw(intersect_coords)
    n, c = normal
    free = st.lists(intersect_coords, min_size=ambient - 1, max_size=ambient - 1)
    pts = [(*x, (c - sum(a * b for a, b in zip(n, x))) / n[-1])
           for x in draw(st.lists(free, min_size=1, max_size=4))]
    return polytope.from_points(pts, ambient), normal


def _reflect(P, facet):
    """P mirrored in the hyperplane of its facet n . x <= c."""
    n, c = facet
    nn = sum(a * a for a in n)
    return polytope.from_points(
        [tuple(x - 2 * (sum(a * b for a, b in zip(n, v)) - c) * a / nn for a, x in zip(n, v))
         for v in P.vertices], P.ambient_dim)


def _intersect_routes(P, Q):
    """intersect(P, Q) and, per DD call it made, whether that call
    started from a known cone, and how many times it called
    `from_inequalities` or read a `dim`, which its one route needs not."""
    starts, fallbacks = [], []
    cold, from_ineqs = dd.cone_extreme_rays, polytope.from_inequalities
    dim = polytope.Polytope.dim

    def spy_dd(rows, start=None):
        starts.append(start is not None)
        return cold(rows, start=start)

    def spy_from_ineqs(*args):
        fallbacks.append(args)
        return from_ineqs(*args)

    def spy_dim(self):
        fallbacks.append(self)
        return dim.fget(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "cone_extreme_rays", spy_dd)
        mp.setattr(polytope, "from_inequalities", spy_from_ineqs)
        mp.setattr(polytope.Polytope, "dim", property(spy_dim))
        K = polytope.intersect(P, Q)
    return K, starts, len(fallbacks)


def _joint_vertices(P, Q):
    hp, hq = P.hrep, Q.hrep
    return brute_force_vertices(hp.inequalities + hq.inequalities,
                                hp.equations + hq.equations, P.ambient_dim)


@pytest.mark.parametrize("kind", ["full", "flat", "empty", "disjoint", "vertex", "facet",
                                  "self"])
@settings(max_examples=30)
@given(st.data())
def test_intersect_from_known_cone_matches_brute_force(kind, data):
    """The DD starts from the first operand's cone, in either argument
    order, and the vertices are those of the joint H-system: a
    full-dimensional P against a full-dimensional Q, points of a
    hyperplane (flat, so flat & full and full & flat), the empty
    polytope, P moved clear of itself, P mirrored through a vertex (they
    share that point) or in a facet's hyperplane (they share the facet),
    and P."""
    ambient = data.draw(st.integers(2, 3))
    P = data.draw(full_polytopes(ambient))
    if kind == "full":
        Q = data.draw(full_polytopes(ambient))
    elif kind == "flat":
        Q, _ = data.draw(flat_polytopes(ambient))
    elif kind == "empty":
        Q = polytope.from_points([], ambient)
    elif kind == "disjoint":
        xs = [v[0] for v in P.vertices]
        Q = polytope.from_points(
            moved_points(P.vertices, [max(xs) - min(xs) + 1] + [0] * (ambient - 1)), ambient)
    elif kind == "vertex":
        v = data.draw(st.sampled_from(P.vertices))
        Q = polytope.from_points(reflected_points(P.vertices, v), ambient)
    elif kind == "facet":
        n, c = data.draw(st.sampled_from(P.hrep.inequalities))
        Q = _reflect(P, (n, c))
    else:
        Q = P
    expected = _joint_vertices(P, Q)
    if kind in ("empty", "disjoint"):
        assert expected == []
    elif kind == "vertex":
        assert expected == [v]
    elif kind == "facet":
        assert expected == [v for v in P.vertices if sum(a * b for a, b in zip(n, v)) == c]
    for A, B in ((P, Q), (Q, P)):
        K, starts, fallbacks = _intersect_routes(A, B)
        assert (starts, fallbacks) == ([True], 0)
        assert list(K.vertices) == expected


@settings(max_examples=40)
@given(st.data())
def test_intersect_of_two_flat_polytopes_matches_brute_force(data):
    """With no full-dimensional operand the DD still starts from the
    first operand's cone, its equations each as two opposite rows, in
    either argument order; the operands share a hyperplane or not."""
    ambient = data.draw(st.integers(2, 3))
    P, normal = data.draw(flat_polytopes(ambient))
    Q, _ = data.draw(flat_polytopes(ambient, normal=data.draw(st.sampled_from([normal, None]))))
    expected = _joint_vertices(P, Q)
    for A, B in ((P, Q), (Q, P)):
        K, starts, fallbacks = _intersect_routes(A, B)
        assert (starts, fallbacks) == ([True], 0)
        assert list(K.vertices) == expected
