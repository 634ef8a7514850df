"""Differential tests: the exact kernels against the brute-force oracles.

`linalg.dot` is compared with the naive Fraction sum and `linalg.vec`
checked to be idempotent, `linalg.rref` and the greedy
`linalg._independent_rows` with the oracle's textbook Fraction
elimination (and its doubling prefix with one sweep over all rows, on
hom rows and rank-deficient rows), `linalg.int_det` with the Leibniz formula and the rank of
integer matrices with the oracle's pivot count, `dd.polytope_vertices`
with exhaustive basis enumeration, each system as given and with its
rows reversed (zero-normal rows included; unbounded
systems must raise; small hom systems and degenerate systems in cone
dimension 5-7, where the kernel's row-count threshold and witness sweep
run often; the same result with DEBUG logging on; the exact vertex
order when two coordinates are as close as their denominators allow),
the V -> H -> V
round trip of lower-dimensional point sets with the extreme-point oracle,
the cofactor-sign test of `counts.origin_strictly_inside` and the
half-space mask search `counts._valid_subsets` (exhaustively for
n <= 4) with a barycentric solve, `linalg.cofactor_vector` and the masks
built from it with `int_det` on cube faces, singular ones included, the
id-based `groups.orbit_count` with a sweep over point tuples, the
canonical H-rep of systems with zero-normal and dependent equations with
exhaustive basis enumeration, and the crosspolytope flag of
`verify._cross_record` with the image's H-rep and isomorphism search, on
generated inputs that stress the degenerate cases.
"""

import logging
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _oracles import (  # noqa: E402
    brute_force_extreme_points,
    brute_force_vertices,
    leibniz_det,
    oracle_rref,
    origin_inside_oracle,
)
from hompoly import counts, dd, groups, homs, linalg, polytope, verify  # noqa: E402
from hompoly.errors import UnboundedPolytopeError  # noqa: E402

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=2 ** 20),
)


# entries as callers pass them: Fractions, plain ints, or zeros of either type
mixed_entries = st.one_of(rationals, st.integers(-9, 9), st.just(0))


@st.composite
def vector_pairs(draw):
    """Two vectors of one length; either may be all zeros."""
    n = draw(st.integers(0, 8))
    vector = st.one_of(st.lists(mixed_entries, min_size=n, max_size=n),
                       st.just([Fraction(0)] * n), st.just([0] * n))
    return tuple(draw(vector)), tuple(draw(vector))


@given(vector_pairs())
def test_dot_matches_naive_sum(pair):
    u, v = pair
    got = linalg.dot(u, v)
    assert type(got) is Fraction
    assert got == sum((a * b for a, b in zip(u, v)), Fraction(0))
    with pytest.raises(ValueError):
        linalg.dot(u + (1,), v)


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
def test_rref_matches_oracle(M):
    red, pivots = linalg.rref(M)
    assert (red, pivots) == oracle_rref(M)
    assert all(type(x) is Fraction for r in red for x in r)
    assert linalg.rank(M) == len(pivots)


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
    assert dd.polytope_vertices(ORDERS[order](ineqs), dim) == \
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
        assert dd.polytope_vertices(order(H.rows), H.ambient_dim) == expected


def full_sweep_independent_rows(rows, cap):
    """`_independent_rows` without the prefix: one sweep over every row."""
    return linalg._echelon([list(col) for col in zip(*rows)])[0][:cap]


@pytest.mark.parametrize("pair", SMALL_HOMS + [("cube", 3, "crosspolytope", 3),
                                               ("crosspolytope", 3, "crosspolytope", 3)],
                         ids=lambda p: "{}{}-{}{}".format(*p))
def test_independent_rows_prefix_matches_full_sweep_on_hom_rows(pair):
    # the DD's basis over its homogenized rows, in insertion order, and
    # the structured order's choice of source vertices
    src, m, tgt, n = pair
    H = homs.build_hom(polytope.standard(src, m), polytope.standard(tgt, n))
    rows = [linalg._int_row([c] + [-x for x in a])
            for a, c in (H.rows[k] for k in homs.structured_row_order(H))]
    lifted = [linalg._int_row(v + (1,)) for v in H.source.vertices]
    for system in (rows, rows[::-1], lifted):
        for cap in range(1, len(system[0]) + 1):
            assert linalg._independent_rows(system, cap) == \
                full_sweep_independent_rows(system, cap)


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


@given(rank_deficient_rows(), st.integers(1, 6))
def test_independent_rows_prefix_matches_full_sweep_on_rank_deficient_rows(rows, cap):
    assert linalg._independent_rows(rows, cap) == full_sweep_independent_rows(rows, cap)


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
        assert dd.polytope_vertices(order(ineqs), dim) == expected


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
        assert dd.polytope_vertices(order(ineqs), 2) == sorted(triangle)


def test_dd_result_does_not_depend_on_log_level(caplog):
    H = homs.build_hom(polytope.standard("cube", 2), polytope.standard("crosspolytope", 2))
    with caplog.at_level(logging.WARNING, logger="hompoly.dd"):
        quiet = dd.polytope_vertices(H.rows, H.ambient_dim)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="hompoly.dd"):
        loud = dd.polytope_vertices(H.rows, H.ambient_dim)
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
        dd.polytope_vertices(ORDERS[order](ineqs), dim)


@st.composite
def flat_point_sets(draw):
    """Distinct points of a k-flat in R^2 or R^3 with k < ambient
    dimension: a lattice base point plus small rational combinations of
    k integer directions (which may be dependent, lowering the flat)."""
    ambient = draw(st.integers(2, 3))
    k = draw(st.integers(0, ambient - 1))
    vector = st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient)
    base = draw(vector)
    dirs = draw(st.lists(vector, min_size=k, max_size=k))
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    pts = set()
    for cs in draw(st.lists(st.lists(coeff, min_size=k, max_size=k), min_size=1, max_size=6)):
        pts.add(tuple(Fraction(b) + sum((c * d[i] for c, d in zip(cs, dirs)), Fraction(0))
                      for i, b in enumerate(base)))
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


@given(cube_faces())
def test_cofactor_vector_matches_int_det(rows):
    """C . v == det(rows + [v]) for every cube vertex v, and the
    half-space masks of `_valid_subsets` are the signs of those
    determinants; a singular face has C = 0 and empty masks."""
    n = len(rows) + 1
    verts = counts.cube_vertices(n)
    C = linalg.cofactor_vector(rows)
    dets = [linalg.int_det(rows + [v]) for v in verts]
    assert [sum(c * x for c, x in zip(C, v)) for v in verts] == dets
    neg, pos = counts._half_space_masks(C, verts)
    assert neg == sum(1 << k for k, d in enumerate(dets) if d < 0)
    assert pos == sum(1 << k for k, d in enumerate(dets) if d > 0)
    if linalg.rank(rows) < n - 1:
        assert C == (0,) * n and (neg, pos) == (0, 0)


def test_cofactor_vector_singular_faces():
    assert linalg.cofactor_vector([(1, 1, -1), (1, 1, -1)]) == (0, 0, 0)
    assert linalg.cofactor_vector([(1, -1, 1), (-1, 1, -1)]) == (0, 0, 0)
    assert linalg.cofactor_vector([(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, 1, 1)]) == (0,) * 4
    assert linalg.cofactor_vector([]) == (1,)
    assert linalg.cofactor_vector([(1, 0)]) == (0, 1)
    assert linalg.cofactor_vector([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)


def _generated_group(gens, n):
    """The subgroup generated by gens, by closing under composition."""
    elements = {groups.identity_element(n)}
    frontier = list(elements)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = groups.compose(g, h)
            if gh not in elements:
                elements.add(gh)
                frontier.append(gh)
    return sorted(elements, key=lambda g: (g.perm, g.signs))


def _naive_orbit_count(tuples, group):
    pool = set(tuples)
    seen = set()
    orbits = 0
    free = True
    for t in sorted(pool):
        if t not in seen:
            orbit = {groups.act_tuple(g, t) for g in group}
            assert orbit <= pool
            orbits += 1
            free = free and len(orbit) == len(group)
            seen |= orbit
    return orbits, free


@st.composite
def closed_tuple_sets(draw):
    """A small signed-permutation group (generated by random elements)
    and a set of point tuples closed under it."""
    n = draw(st.integers(1, 3))
    element = st.builds(groups.SignedPermutation,
                        st.permutations(range(n)).map(tuple),
                        st.lists(st.sampled_from((-1, 1)), min_size=n,
                                 max_size=n).map(tuple))
    group = _generated_group(draw(st.lists(element, max_size=3)), n)
    size = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    seeds = draw(st.lists(st.lists(point, min_size=size, max_size=size).map(tuple),
                          max_size=4))
    return {groups.act_tuple(g, t) for g in group for t in seeds}, group


@given(closed_tuple_sets())
def test_orbit_count_matches_naive_sweep(case):
    tuples, group = case
    assert groups.orbit_count(tuples, group) == _naive_orbit_count(tuples, group)


@given(closed_tuple_sets(), st.data())
def test_orbit_count_rejects_a_set_that_is_not_closed(case, data):
    tuples, group = case
    moved = sorted(t for t in tuples if any(groups.act_tuple(g, t) != t for g in group))
    assume(moved)
    dropped = data.draw(st.sampled_from(moved))
    with pytest.raises(ValueError, match="not closed"):
        groups.orbit_count(tuples - {dropped}, group)


@given(bounded_systems(), rationals)
def test_polytope_vertices_zero_normal_rows(system, offset):
    """A row 0 <= c is dropped for c >= 0 and empties the set for c < 0."""
    ineqs, dim = system
    rows = list(ineqs) + [((Fraction(0),) * dim, offset)]
    got = dd.polytope_vertices(rows, dim)
    assert got == brute_force_vertices(rows, [], dim)
    if offset < 0:
        assert got == []
    else:
        assert got == dd.polytope_vertices(ineqs, dim)
    assert dd.polytope_vertices([((0,) * dim, -1)] + list(ineqs), dim) == []


@st.composite
def systems_with_equations(draw):
    """A bounded system plus equations: zero-normal rows 0 = c, rows
    through a lattice point, copies, rational combinations of earlier
    equations and shifted copies, which contradict the row they copy."""
    ineqs, dim = draw(bounded_systems())
    coeff = st.integers(-3, 3)
    point = draw(st.lists(coeff, min_size=dim, max_size=dim))
    eqs = []
    kinds = ["zero", "through", "copy", "combo", "shifted"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "zero":
            eqs.append(((0,) * dim, draw(st.integers(-2, 2))))
        elif kind == "through" or not eqs:
            normal = tuple(draw(st.lists(coeff, min_size=dim, max_size=dim)))
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
    assert list(P.vertices) == expected
    h = polytope._canonical_hrep(ineqs, eqs)
    assert polytope._vertices_from_hrep(h, dim) == expected
    _, pivots = oracle_rref([list(u) + [c] for u, c in eqs])
    if dim in pivots:  # the equations alone reduce to 0 = 1
        assert h == polytope.empty_polytope(dim).hrep
    else:
        assert all(any(u) for u, _ in h.equations)


@st.composite
def crosspolytope_maps(draw):
    """Affine maps from the m-crosspolytope to R^n, n <= 3, n - 1 <= m <= 4,
    not necessarily vertex maps.  The columns start from a basis or not;
    the others are random, zero, repeats, opposites, sums and midpoints
    of earlier columns, so the rank is often below n and columns fall
    inside, on and outside the hull of the others."""
    n = draw(st.sampled_from([3, 2, 1]))
    m = draw(st.sampled_from([k for k in (4, 3, 2, 1) if k >= n - 1]))
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    kinds = ["random", "zero", "repeat", "opposite", "sum", "midpoint"]
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
            scale = 1 if kind == "sum" else Fraction(1, 2)
            cols.append(tuple(scale * (x + y) for x, y in zip(a, b)))
    cols = draw(st.permutations(cols))
    matrix = tuple(tuple(col[j] for col in cols) for j in range(n))
    return homs.AffineMap(matrix, linalg.vec(draw(vectors)))


@given(crosspolytope_maps())
def test_cross_record_matches_image_oracle(f):
    P = polytope.standard("crosspolytope", f.source_dim)
    model = polytope.standard("crosspolytope", f.target_dim)
    image = homs.image_polytope(f, P)
    assert verify._cross_record(f) == (homs.map_rank(f),
                                       polytope.combinatorially_equal(image, model))
