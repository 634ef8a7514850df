"""Named verification claims binding enumeration output to closed-form
structure statements.

Each claim is data in a registry, so the CLI can list, select, and run
them; a claim execution either passes or fails with a reproducible
witness payload.  The core suite covers every claim at parameters that
finish in minutes; the extended suite adds the long enumerations.
Claims build no spec over the guard of `standard` and no hom over
`homs.CLAIM_BUDGET`, 128 rows in dimension 20, which no flag lifts: the
sizes of Hom(crosspolytope 4, crosspolytope 4) and Hom(cube 3,
crosspolytope 4), the largest homs that EXTENDED_SUITE builds.

Claims read two caches keyed by (source, m, target, n): `_hom`, the
enumerated vertex maps (a family's `enumerated_count` is their number,
for `count-agreement` and `hompoly count --enumerate` alike), and
`_record`, what the claims read of each image f(P).  P being
full-dimensional, the rank of A, whether f(P) is a crosspolytope and
the facets of Q tight on f(P) depend on f only through its hit set
f(vert P).  So the record numbers the distinct hit sets in order of
first appearance, keeps one number per map and the data per hit set,
and a claim that walks the hit sets in order names the same first
failing map as a check of every map.  What reads more than the hit set
has a memo local to the call: K = Q & (2b - Q) per offset b in
`vertex-image-law`, the verdict per restriction in `diamond-subcross`.

The per-map checks read the integers of each map's ray (t, t b, rows of
t A) against Q's integer facet rows and vertex rays, with no Fraction
per map: `diamond-center` tests t b and the columns of t A,
`_cross_record` eliminates the rows of t A, hit sets and
`rank1-factorization`'s images are point rays (`homs._int_images`), K
above is cut out by integer rows (`_symmetric_core`), and the hulls of a
hom's maps take their rays (`polytope._from_rays`).  Fractions appear
only in failure witnesses (`_map_witness`).
"""

from __future__ import annotations

import inspect
import logging
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

from .counts import COUNT_FAMILIES, beta, bound_box_diamond, rank_k_sandwich, sigma
from .errors import SizeGuardError
from .homs import (
    CLAIM_BUDGET,
    AffineMap,
    _int_images,
    _vertex_terms,
    build_hom,
    check_size,
    cube_simplex_realization,
    enumerate_vertex_maps,
    flatten_map,
    image_polytope,
    is_vertex_map,
    map_rank,
    restrict_to_subcrosspolytope,
)
from .linalg import (
    _echelon,
    _int_row,
    primitive,
    rank,
)
from .polytope import (
    SPEC_SIZE_GUARD,
    Polytope,
    _canonical_hrep,
    _contains_ray,
    _from_rays,
    _incidence,
    _symmetric_core,
    bipyramid,
    combinatorially_equal,
    from_inequalities,
    from_points,
    polar_dual,
    standard,
)

log = logging.getLogger(__name__)
_HitSet = namedtuple("_HitSet", "first rays rank tight cross")  # see `_record`


@dataclass
class VerificationResult:
    claim_id: str
    parameters: dict
    status: str  # "pass" or "fail"
    witness: object = None  # counterexample payload, present on fail
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _standard(kind: str, n: int, limit=CLAIM_BUDGET) -> Polytope:
    """`standard(kind, n)`, its spec gate lifted by `limit` None; under the
    claim budget a refusal names that limit, as verify has no --allow-large."""
    try:
        return standard(kind, n, allow_large=limit is None)
    except SizeGuardError as exc:
        if limit != CLAIM_BUDGET:
            raise
        spec = str(exc).partition(";")[0]
    raise SizeGuardError(f"{spec}; claims stop at {SPEC_SIZE_GUARD} vertices or facets")


def _gate(source_kind: str, m: int, target_kind: str, n: int, limit=CLAIM_BUDGET):
    """The standard P and Q once Hom(P, Q) passes the spec gate
    (`_standard`) and `limit` (`homs.check_size`); `limit` None lifts both."""
    P = _standard(source_kind, m, limit)
    Q = _standard(target_kind, n, limit)
    check_size(n * (m + 1), P.n_vertices * Q.n_facets, limit)
    return P, Q


@lru_cache(maxsize=64)
def _hom(source_kind: str, m: int, target_kind: str, n: int, limit=CLAIM_BUDGET):
    H = build_hom(*_gate(source_kind, m, target_kind, n, limit))
    return H.source, H.target, H, enumerate_vertex_maps(H)


def enumerated_count(family: str, m: int, n: int, *limit) -> int:
    """Number of vertex maps of the family's hom, from `_hom`; a `limit`
    goes on only when given, so a claim's call shares others' cache entry."""
    source, target, _ = COUNT_FAMILIES[family]
    return len(_hom(source, m, target, n, *limit)[3])


def _cross_record(f: AffineMap) -> tuple[int, bool]:
    """(rank, is_cross) of f(x) = A x + b on the m-crosspolytope.

    The lemma: the image conv(b +- a_i), with a_i the columns of A, is
    centrally symmetric about b.  If A has rank n, the image is
    combinatorially the n-crosspolytope iff it has exactly 2n vertices,
    iff some n columns a_S have det(a_S) != 0 and every other column has
    |a_S^-1 a_j|_1 <= 1.  Indeed 2n vertices b +- v_k, each v_k one of
    the +-a_i, span R^n, so the image is b + V(crosspolytope_n) for the
    invertible V with columns v_k, and every a_j lies in it; S is the
    set of columns behind the v_k.  Conversely such an S makes the image
    b + a_S(crosspolytope_n).  Below rank n, is_cross is False.

    The test runs on the integer rows of t A (it is homogeneous).  The
    rank is one forward `_echelon` of those rows.  For each n-subset S,
    one reduced `_echelon` of the rows of [a_S | a_rest] has pivots
    0 .. n-1 iff det(a_S) != 0, and then leaves d I on the left, with
    |d| = |det(a_S)|, and d a_S^-1 a_rest on the right: by Cramer's rule
    entry (k, j) there is +-D_k(j), the determinant of a_S with column k
    replaced by a_j, all with one sign (Bareiss 1968).  The test is
    sum_k |D_k(j)| <= |d| for each column j of the right block.
    """
    n, m = f.target_dim, f.source_dim
    rows = f.parts[2]
    r = map_rank(f, rows)
    if r < n:
        return r, False
    left = list(range(n))
    for S in combinations(range(m), n):
        rest = [j for j in range(m) if j not in S]
        work = [[row[s] for s in S] + [row[j] for j in rest] for row in rows]
        if _echelon(work, reduced=True)[0] != left:
            continue  # det(a_S) = 0
        bound = abs(work[-1][n - 1])
        if all(sum(abs(row[c]) for row in work) <= bound for c in range(n, m)):
            return r, True
    return r, False


@lru_cache(maxsize=64)
def _record(source: str, m: int, target: str, n: int):
    """(number, hit_sets) for the maps of `_hom(source, m, target, n)`:
    the distinct hit sets f(vert P) in order of first appearance, and
    number[i] the index of map i's.  A `_HitSet` holds its first map's
    index, the frozenset of its point rays (`homs._int_images`), the
    rank of A, the mask of the rows of Q.hrep.inequalities tight on
    every ray (bit k for row k, from `polytope._incidence`) and, for
    Hom(crosspolytope_m, simplex_n), the crosspolytope flag of
    `_cross_record` on the first map, else None."""
    P, Q, _, maps = _hom(source, m, target, n)
    terms = _vertex_terms(P)
    facet_rows = Q.hrep.inequalities
    diamond = (source, target) == ("crosspolytope", "simplex")
    index, number, hit_sets = {}, [], []
    for i, f in enumerate(maps):
        rays = frozenset(_int_images(f, terms))
        k = index.get(rays)
        if k is None:
            k = index[rays] = len(hit_sets)
            r, cross = _cross_record(f) if diamond else (map_rank(f), None)
            tight = reduce(and_, (_incidence(facet_rows, y)[0] for y in rays))
            hit_sets.append(_HitSet(i, rays, r, tight, cross))
        number.append(k)
    return tuple(number), tuple(hit_sets)


def _map_witness(f: AffineMap) -> list[str]:
    """A map in a failure witness: its flattened coordinates as strings."""
    return [str(x) for x in flatten_map(f)]


# -- claim implementations ---------------------------------------------------
# each returns (ok, witness)


def _claim_dim_formula(source: str, m: int, target: str, n: int):
    P, Q, H, maps = _hom(source, m, target, n)
    expected = P.dim * Q.dim + Q.dim
    if H.ambient_dim != expected:
        return False, {"ambient": H.ambient_dim, "expected": expected}
    # build_hom certified an interior point, so the system is full-dimensional;
    # cross-check through the enumerated vertex set: the rays (t, c) are
    # homogeneous, so their rank minus one is the dimension of its hull
    got = rank([f.ray for f in maps]) - 1
    if got != expected:
        return False, {"hull_dim": got, "expected": expected}
    return True, None


def _claim_constant_maps(source: str, m: int, target: str, n: int):
    P, Q, H, maps = _hom(source, m, target, n)
    rays = {f.ray for f in maps}
    for k, w in enumerate(Q._vertex_rays()):  # w primitive, so (*w, 0, ...) is too
        if (*w, *[0] * (n * m)) not in rays:
            return False, {"missing_constant_map_onto": [str(x) for x in Q.vertices[k]]}
    return True, None


def _claim_facet_form(source: str, m: int, target: str, n: int):
    """Every facet of the mapping polytope is one of the (vertex, facet)
    rows; also logs how many rows are facet-defining."""
    P, Q, H, maps = _hom(source, m, target, n)
    poly = _from_rays([f.ray for f in maps], H.ambient_dim)
    facets = set(poly.hrep.inequalities)
    rows = set(_canonical_hrep(H.rows, ()).inequalities)
    extra = facets - rows
    log.info("facet-form %s_%d->%s_%d: %d of %d rows facet-defining",
             source, m, target, n, len(facets & rows), len(H.rows))
    if extra:
        return False, {"facets_not_of_pair_form": len(extra)}
    return True, None


def _claim_box_simplex_rank(m: int, n: int):
    _, _, _, maps = _hom("cube", m, "simplex", n)
    expected = (n + 1) * (m * n + 1)
    if len(maps) != expected:
        return False, {"count": len(maps), "expected": expected}
    number, hit_sets = _record("cube", m, "simplex", n)
    bad = [i for i, k in enumerate(number) if hit_sets[k].rank > 1]
    if bad:
        return False, {"rank_ge_2_maps": len(bad), "first": _map_witness(maps[bad[0]])}
    return True, None


def _claim_rank1_factorization(m: int, n: int):
    """Rank-1 vertex maps hit exactly two points, both vertices of the
    target or endpoints of a diagonal, with fibers split by a facet pair.
    Rank and hit set are read from `_record`, the fibers from each
    rank-1 map's point rays (`homs._int_images`), compared with Q's."""
    P, Q, H, maps = _hom("cube", m, "simplex", n)
    vertex_set = set(Q._vertex_rays())
    terms = _vertex_terms(P)
    number, hit_sets = _record("cube", m, "simplex", n)
    for f, k in zip(maps, number):
        if hit_sets[k].rank != 1:
            continue
        images = hit_sets[k].rays
        if len(images) != 2:
            return False, {"map": _map_witness(f), "image_points": len(images)}
        if not images <= vertex_set:
            # endpoints of a diagonal are still vertices for the simplex,
            # so anything else is a failure here
            return False, {"map": _map_witness(f)}
        fibers = {y: [] for y in images}
        for v, y in zip(P._vertex_rays(), _int_images(f, terms)):
            fibers[y].append(v)
        # each fiber must be a facet of the cube: all vertices sharing one
        # fixed coordinate value (entry i + 1 of the ray (1, v))
        for pts in fibers.values():
            if len(pts) != 2 ** (m - 1):
                return False, {"fiber_size": len(pts)}
            fixed = [i for i in range(1, m + 1)
                     if len({p[i] for p in pts}) == 1]
            if not fixed:
                return False, {"fiber_not_a_facet": True}
    return True, None


def _claim_cube_simplex_realization(m: int, n: int, compare: bool = False):
    _gate("cube", m, "simplex", n)
    pts = cube_simplex_realization(m, n)
    if len(pts) != (n + 1) * (m * n + 1):
        return False, {"points": len(pts)}
    hull = from_points(pts)
    if hull.dim != n * m + n:
        return False, {"hull_dim": hull.dim, "expected": n * m + n}
    if hull.n_vertices != len(pts):
        return False, {"extreme_points": hull.n_vertices}
    if compare:
        _, _, H, maps = _hom("cube", m, "simplex", n)
        poly = _from_rays([f.ray for f in maps], H.ambient_dim)
        if not combinatorially_equal(hull, poly):
            return False, {"combinatorially_equal": False}
    return True, None


def _claim_hom_simplex_power(m: int, target: str, n: int):
    _, Q, _, maps = _hom("simplex", m, target, n)
    expected = Q.n_vertices ** (m + 1)
    if len(maps) != expected:
        return False, {"count": len(maps), "expected": expected}
    return True, None


def _claim_hom_into_cube(source: str, m: int, n: int):
    P, Q, H, maps = _hom(source, m, "cube", n)
    model = bipyramid(polar_dual(P))
    expected = model.n_vertices ** n
    if len(maps) != expected:
        return False, {"count": len(maps), "expected": expected}
    if n == 1 and model.n_vertices <= 12:
        poly = _from_rays([f.ray for f in maps], H.ambient_dim)
        if not combinatorially_equal(poly, model):
            return False, {"combinatorially_equal": False}
    return True, None


def _claim_diamond_center(m: int, n: int):
    """The vertex maps with f(0) = b interior to Q are the 2^m n^m maps
    with b = 0 that send each axis e_i to a vertex of Q (and so -e_i to
    its antipode).  Read off the ray (t, t b, columns t a_i): b is
    interior iff `_contains_ray` holds strictly for (t, t b), and
    f(e_i) = a_i (b being 0) is a vertex of Q iff the primitive ray of
    (t, t a_i) is one of Q's vertex rays."""
    P, Q, H, maps = _hom("crosspolytope", m, "crosspolytope", n)
    vertex_set = set(Q._vertex_rays())
    interior_count = 0
    for f in maps:
        if not _contains_ray(Q, f.ray[:n + 1], strict=True):
            continue
        interior_count += 1
        t, b, rows = f.parts
        if any(b):
            return False, {"offset": [str(x) for x in f.offset]}
        for i in range(m):
            if tuple(_int_row([t, *(row[i] for row in rows)])) not in vertex_set:
                return False, {"axis": i, "map": _map_witness(f)}
    expected_interior = 2**m * n**m
    if interior_count != expected_interior:
        return False, {"interior_center_maps": interior_count,
                       "expected": expected_interior}
    return True, None


def _claim_diamond_subcross(m: int, n: int):
    """Every rank-n vertex map restricts to a rank-n vertex map of
    Hom(crosspolytope_n, simplex_n) on some n-axis sub-crosspolytope.

    The verdict on a restriction g (rank n and a vertex map) depends on
    g alone, and restrictions repeat across maps: the 576 rank-3 maps at
    (4, 3) meet only 48 distinct restrictions.  Each distinct g is
    checked once.

    At m == n the only n-axis restriction of f is f itself and the
    sub-crosspolytope is the source, so each `is_vertex_map` call
    re-certifies a map the DD enumeration returned as a vertex of the
    same hom (1920 calls at (4, 4)).  This is kept on purpose: there the
    claim is an independent check of the DD kernel's output by an
    active-set rank certificate.
    """
    P, Q, H, maps = _hom("crosspolytope", m, "simplex", n)
    sub = standard("crosspolytope", n)
    sub_hom = build_hom(sub, Q)
    number, hit_sets = _record("crosspolytope", m, "simplex", n)
    verdicts = {}  # restriction -> rank n and a vertex map
    for f, k in zip(maps, number):
        if hit_sets[k].rank != n:
            continue
        for idx in combinations(range(m), n):
            g = restrict_to_subcrosspolytope(f, idx)
            if g not in verdicts:
                verdicts[g] = map_rank(g) == n and is_vertex_map(g, sub, Q, hom=sub_hom)
            if verdicts[g]:
                break
        else:
            return False, {"map": _map_witness(f)}
    return True, None


def _claim_diamond_image_count(m: int, n: int):
    """sigma(m, n) beta(n) rank-n vertex maps have a crosspolytope image.

    Read from `_record`: the image of a rank-n map is a crosspolytope
    iff it has 2n vertices b +- a_s, decided once per distinct hit set by
    the Cramer's-rule test of `_cross_record` without building the image.
    """
    expected = sigma(m, n) * beta(n)
    number, hit_sets = _record("crosspolytope", m, "simplex", n)
    count = sum(hit_sets[k].cross for k in number)  # cross implies rank n
    if count != expected:
        return False, {"crosspolytope_image_maps": count, "expected": expected}
    return True, None


def _claim_diamond_image_shape(m: int, n: int):
    """Every full-rank vertex map image is a combinatorial crosspolytope
    (expected exactly when m == n or n == 3).

    Read from `_record`, as `diamond-image-count`; only the first
    failing hit set's image is built, from its rays, for the witness.
    """
    _, _, _, maps = _hom("crosspolytope", m, "simplex", n)
    for h in _record("crosspolytope", m, "simplex", n)[1]:
        if h.rank == n and not h.cross:
            return False, {"map": _map_witness(maps[h.first]),
                           "image_vertices": _from_rays(h.rays, n).n_vertices}
    return True, None


def _full_rank_diamond_witness(n: int) -> AffineMap:
    """A full-rank vertex map from the n-crosspolytope to the n-simplex.

    Built by dualizing an explicit centered simplex inscribed in the
    cube: the dual of that simplex is a simplex sandwiching the
    crosspolytope, and any affine isomorphism onto the standard simplex
    restricts to the wanted map.
    """
    tup = [(-1,) * n] + [tuple(1 - 2 * (j == i) for j in range(n)) for i in range(n)]
    inscribed = from_points(tup)
    sandwich = polar_dual(inscribed)
    target = standard("simplex", n)
    # affine map determined by where the n+1 simplex vertices go: the
    # reduced integer rows (s, 1 | d) read (D I | D X) with (s, 1) X = d and
    # D the last pivot; the map's ray is D (b, A) with b = X[n], A = X[:n]^T.
    # Row k is t u (s, 1 | d) for the k-th vertex rays (t, t s) of the
    # sandwich and (u, u d) of the simplex.
    rows = [_int_row([*(u * a for a in x), u * t, *(t * a for a in y)])
            for (t, *x), (u, *y) in zip(sandwich._vertex_rays(), target._vertex_rays())]
    _echelon(rows, reduced=True)
    ray = primitive([rows[n][n], *rows[n][n + 1:],
                     *(rows[i][n + 1 + j] for j in range(n) for i in range(n))], orient=True)
    return AffineMap.from_ray(ray, n, n)


def _claim_diamond_image_shape_witness(m: int, n: int):
    """For m > n > 3 a full-rank vertex map with non-crosspolytope image
    exists; construct and certify one.  g adds to f's columns m - n
    copies of v - b, v = y / s a vertex of K = Q & (2b - Q) that no vertex
    image hits: its ray is s (t, t b, rows of t A), each row followed by
    m - n entries t y_j - s (t b_j)."""
    if not (m > n > 3):
        raise ValueError(f"diamond-image-shape-witness needs m > n > 3, got m={m}, n={n}")
    source_big = _standard("crosspolytope", m)  # the spec gate, before g's m - n columns
    source_small = standard("crosspolytope", n)
    target = standard("simplex", n)
    f = _full_rank_diamond_witness(n)
    if map_rank(f) != n or not is_vertex_map(f, source_small, target):
        return False, {"base_map_not_vertex": True}
    hit = set(image_polytope(f, source_small)._vertex_rays())
    spare = [v for v in _symmetric_core(target, f.ray[:n + 1])._vertex_rays() if v not in hit]
    if not spare:
        return False, {"no_spare_intersection_vertex": True}
    s, *y = spare[0]
    t, b, rows = f.parts
    ray = [s * t, *(s * a for a in b)]
    for row, yj, bj in zip(rows, y, b):
        ray += [s * a for a in row] + [t * yj - s * bj] * (m - n)
    g = AffineMap.from_ray(tuple(_int_row(ray)), m, n)
    if map_rank(g) != n:
        return False, {"extended_rank": map_rank(g)}
    if not is_vertex_map(g, source_big, target):
        return False, {"extended_map_not_vertex": True}
    img_g = image_polytope(g, source_big)
    if combinatorially_equal(img_g, standard("crosspolytope", n)):
        return False, {"image_is_crosspolytope": True}
    return True, None


def _claim_vertex_image_law(m: int, target: str, n: int):
    """The image of each vertex map has exactly the vertex images as
    vertices, and they are vertices of K = Q & (2b - Q), b = f(0).

    The first check depends only on the hit set, so it runs on the hull
    of each hit set's rays (`_record`), and K only on the offset b, so
    each distinct offset's K is built once.  Both compare rays: the
    image's vertex count with the number of distinct image rays, and
    those rays with K's vertex rays, K cut out by integer rows
    (`_symmetric_core`).
    """
    _, Q, _, maps = _hom("crosspolytope", m, target, n)
    number, hit_sets = _record("crosspolytope", m, target, n)
    k_vertices = {}  # offset ray (t, t b), primitive -> vertex rays of K
    for i, (f, k) in enumerate(zip(maps, number)):
        hit = hit_sets[k].rays
        if i == hit_sets[k].first and _from_rays(hit, n).n_vertices != len(hit):
            return False, {"map": _map_witness(f),
                           "reason": "image vertices differ from vertex images"}
        offset = tuple(_int_row(f.ray[:n + 1]))
        if offset not in k_vertices:
            k_vertices[offset] = set(_symmetric_core(Q, offset)._vertex_rays())
        if not hit <= k_vertices[offset]:
            return False, {"map": _map_witness(f),
                           "reason": "vertex image outside symmetric intersection"}
    return True, None


def _face_law_failure(img: Polytope, tight: int, facet_rows, n: int):
    """None if the smallest face G of the simplex containing img has the
    dimension of img and each facet of G cuts img in a facet of img;
    else the failure payload.  G is cut out by the facet rows tight on
    img, bit k of `tight` for row k (`_HitSet.tight`)."""
    active = [row for k, row in enumerate(facet_rows) if tight >> k & 1]
    G = from_inequalities(facet_rows, active, n)
    g_dim = G.dim
    if g_dim != img.dim:
        return {"face_dim": g_dim, "image_dim": img.dim}
    h = img.hrep
    for u, c in G.hrep.inequalities:
        cut = from_inequalities(h.inequalities, h.equations + ((u, c),), n)
        if cut.dim != g_dim - 1:
            return {"facet_cut_dim": cut.dim, "expected": g_dim - 1}
    return None


def _claim_face_law(source: str, m: int, n: int):
    """The image of each vertex map into the n-simplex has the dimension
    of the smallest face of the simplex that contains it, and meets each
    facet of that face in one dimension less.

    The check reads only the image and the simplex, so it depends only
    on the hit set: each distinct hit set of `_record`, in order, is
    checked on the hull of its rays, with its tight facet rows.
    """
    _, Q, _, maps = _hom(source, m, "simplex", n)
    facet_rows = Q.hrep.inequalities
    for h in _record(source, m, "simplex", n)[1]:
        failure = _face_law_failure(_from_rays(h.rays, n), h.tight, facet_rows, n)
        if failure is not None:
            return False, {"map": _map_witness(maps[h.first]), **failure}
    return True, None


def _claim_count_agreement(family: str, m: int, n: int):
    if family not in COUNT_FAMILIES:
        raise ValueError(f"unknown count family {family!r}; known: {sorted(COUNT_FAMILIES)}")
    enumerated = enumerated_count(family, m, n)  # the gate, before the closed form's 2^m
    closed_form = COUNT_FAMILIES[family][2](m, n).closed_form
    if enumerated != closed_form:
        return False, {"closed_form": closed_form, "enumerated": enumerated}
    return True, None


def _claim_rank_sandwich(m: int, k: int):
    number, hit_sets = _record("crosspolytope", m, "simplex", k)  # the gate, before m!
    lo, hi = rank_k_sandwich(m, k)
    middle = sum(hit_sets[j].rank == k for j in number)
    if not (lo <= middle <= hi):
        return False, {"lower": lo, "enumerated": middle, "upper": hi}
    return True, None


def _claim_box_diamond_bound(m: int, n: int):
    _, _, _, maps = _hom("cube", m, "crosspolytope", n)
    bound = bound_box_diamond(m, n)
    if bound > len(maps):
        return False, {"bound": bound, "enumerated": len(maps)}
    return True, None


def _claim_box_diamond_large(m: int, n: int, expected: int):
    _, _, _, maps = _hom("cube", m, "crosspolytope", n)
    if len(maps) != expected:
        return False, {"count": len(maps), "expected": expected}
    return True, None


def _claim_beta_value(n: int, expected: int):
    got = beta(n)
    if got != expected:
        return False, {"beta": got, "expected": expected}
    return True, None


CLAIMS = {
    "dim-formula": _claim_dim_formula,
    "constant-maps": _claim_constant_maps,
    "facet-form": _claim_facet_form,
    "box-simplex-rank": _claim_box_simplex_rank,
    "rank1-factorization": _claim_rank1_factorization,
    "cube-simplex-realization": _claim_cube_simplex_realization,
    "hom-simplex-power": _claim_hom_simplex_power,
    "hom-into-cube": _claim_hom_into_cube,
    "diamond-center": _claim_diamond_center,
    "diamond-subcross": _claim_diamond_subcross,
    "diamond-image-count": _claim_diamond_image_count,
    "diamond-image-shape": _claim_diamond_image_shape,
    "diamond-image-shape-witness": _claim_diamond_image_shape_witness,
    "vertex-image-law": _claim_vertex_image_law,
    "face-law": _claim_face_law,
    "count-agreement": _claim_count_agreement,
    "rank-sandwich": _claim_rank_sandwich,
    "box-diamond-bound": _claim_box_diamond_bound,
    "box-diamond-large": _claim_box_diamond_large,
    "beta-value": _claim_beta_value,
}


def _claim(claim_id: str):
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; known: {sorted(CLAIMS)}")
    return CLAIMS[claim_id]


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


_PARAM_PARSERS = {"int": int, "bool": _parse_bool, "str": str}


def parse_params(claim_id: str, pairs) -> dict:
    """Claim parameters from "key=value" strings.

    Each value is converted by the annotation of the claim's parameter
    of that name (int, bool or str); a key the claim does not take stays
    a string, for `run_claim` to reject.  Raises ValueError on a pair
    without "=" and on a value that does not convert.
    """
    signature = inspect.signature(_claim(claim_id)).parameters
    params = {}
    for kv in pairs:
        key, sep, text = kv.partition("=")
        if not sep:
            raise ValueError(f"bad --param {kv!r}; expected key=value")
        kind = signature[key].annotation if key in signature else "str"
        try:
            params[key] = _PARAM_PARSERS[kind](text)
        except ValueError:
            raise ValueError(f"bad --param {kv!r}; {key} must be {kind}") from None
    return params


def run_claim(claim_id: str, params: dict) -> VerificationResult:
    claim = _claim(claim_id)
    try:
        inspect.signature(claim).bind(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for claim {claim_id!r}: {exc}") from None
    start = time.perf_counter()
    ok, witness = claim(**params)
    elapsed = time.perf_counter() - start
    return VerificationResult(claim_id, dict(params), "pass" if ok else "fail",
                              witness, elapsed)


CORE_SUITE: list[tuple[str, dict]] = [
    ("dim-formula", {"source": "simplex", "m": 1, "target": "simplex", "n": 1}),
    ("dim-formula", {"source": "cube", "m": 2, "target": "simplex", "n": 2}),
    ("dim-formula", {"source": "crosspolytope", "m": 2, "target": "crosspolytope", "n": 2}),
    ("dim-formula", {"source": "crosspolytope", "m": 3, "target": "simplex", "n": 3}),
    ("dim-formula", {"source": "simplex", "m": 2, "target": "crosspolytope", "n": 2}),
    ("dim-formula", {"source": "cube", "m": 1, "target": "cube", "n": 2}),
    ("constant-maps", {"source": "cube", "m": 2, "target": "simplex", "n": 2}),
    ("constant-maps", {"source": "crosspolytope", "m": 2, "target": "crosspolytope", "n": 2}),
    ("constant-maps", {"source": "simplex", "m": 1, "target": "simplex", "n": 2}),
    ("facet-form", {"source": "cube", "m": 2, "target": "simplex", "n": 2}),
    ("facet-form", {"source": "crosspolytope", "m": 2, "target": "crosspolytope", "n": 2}),
    ("facet-form", {"source": "simplex", "m": 1, "target": "simplex", "n": 2}),
    ("box-simplex-rank", {"m": 1, "n": 1}),
    ("box-simplex-rank", {"m": 2, "n": 2}),
    ("box-simplex-rank", {"m": 3, "n": 2}),
    ("box-simplex-rank", {"m": 2, "n": 3}),
    ("box-simplex-rank", {"m": 3, "n": 3}),
    ("rank1-factorization", {"m": 2, "n": 2}),
    ("rank1-factorization", {"m": 3, "n": 2}),
    ("cube-simplex-realization", {"m": 2, "n": 2, "compare": True}),
    ("cube-simplex-realization", {"m": 1, "n": 1}),
    ("cube-simplex-realization", {"m": 3, "n": 2}),
    ("cube-simplex-realization", {"m": 2, "n": 3}),
    ("cube-simplex-realization", {"m": 3, "n": 3}),
    ("hom-simplex-power", {"m": 1, "target": "simplex", "n": 1}),
    ("hom-simplex-power", {"m": 1, "target": "simplex", "n": 2}),
    ("hom-simplex-power", {"m": 2, "target": "simplex", "n": 2}),
    ("hom-simplex-power", {"m": 1, "target": "crosspolytope", "n": 2}),
    ("hom-into-cube", {"source": "crosspolytope", "m": 2, "n": 1}),
    ("hom-into-cube", {"source": "cube", "m": 1, "n": 1}),
    ("hom-into-cube", {"source": "cube", "m": 2, "n": 1}),
    ("hom-into-cube", {"source": "crosspolytope", "m": 2, "n": 2}),
    ("hom-into-cube", {"source": "cube", "m": 1, "n": 2}),
    ("diamond-center", {"m": 2, "n": 2}),
    ("diamond-center", {"m": 2, "n": 3}),
    ("diamond-center", {"m": 3, "n": 2}),
    ("diamond-subcross", {"m": 3, "n": 3}),
    ("diamond-subcross", {"m": 4, "n": 3}),
    ("diamond-image-count", {"m": 3, "n": 3}),
    ("diamond-image-count", {"m": 4, "n": 3}),
    ("diamond-image-shape", {"m": 3, "n": 3}),
    ("diamond-image-shape", {"m": 4, "n": 3}),
    ("vertex-image-law", {"m": 2, "target": "simplex", "n": 2}),
    ("vertex-image-law", {"m": 2, "target": "crosspolytope", "n": 2}),
    ("vertex-image-law", {"m": 2, "target": "simplex", "n": 3}),
    ("vertex-image-law", {"m": 3, "target": "simplex", "n": 3}),
    ("vertex-image-law", {"m": 3, "target": "crosspolytope", "n": 2}),
    ("vertex-image-law", {"m": 2, "target": "cube", "n": 2}),
    ("face-law", {"source": "cube", "m": 2, "n": 2}),
    ("face-law", {"source": "crosspolytope", "m": 2, "n": 2}),
    ("face-law", {"source": "simplex", "m": 1, "n": 2}),
    ("face-law", {"source": "cube", "m": 2, "n": 3}),
    ("face-law", {"source": "crosspolytope", "m": 3, "n": 3}),
    ("count-agreement", {"family": "box-simplex", "m": 2, "n": 2}),
    ("count-agreement", {"family": "box-simplex", "m": 3, "n": 3}),
    ("count-agreement", {"family": "diamond-simplex", "m": 2, "n": 2}),
    ("count-agreement", {"family": "diamond-simplex", "m": 3, "n": 2}),
    ("count-agreement", {"family": "diamond-simplex", "m": 2, "n": 3}),
    ("count-agreement", {"family": "diamond-simplex", "m": 3, "n": 3}),
    ("count-agreement", {"family": "diamond-diamond", "m": 2, "n": 2}),
    ("count-agreement", {"family": "diamond-diamond", "m": 2, "n": 3}),
    ("count-agreement", {"family": "diamond-diamond", "m": 3, "n": 2}),
    ("rank-sandwich", {"m": 3, "k": 3}),
    ("rank-sandwich", {"m": 4, "k": 3}),
    ("box-diamond-bound", {"m": 2, "n": 2}),
    ("beta-value", {"n": 1, "expected": 1}),
    ("beta-value", {"n": 2, "expected": 0}),
    ("beta-value", {"n": 3, "expected": 1}),
    ("beta-value", {"n": 4, "expected": 5}),
]

EXTENDED_SUITE: list[tuple[str, dict]] = CORE_SUITE + [
    ("diamond-center", {"m": 3, "n": 3}),
    ("count-agreement", {"family": "diamond-diamond", "m": 3, "n": 3}),
    ("diamond-center", {"m": 4, "n": 4}),
    ("count-agreement", {"family": "diamond-diamond", "m": 4, "n": 4}),
    ("diamond-image-shape-witness", {"m": 5, "n": 4}),
    ("beta-value", {"n": 5, "expected": 408}),
    ("box-diamond-large", {"m": 3, "n": 4, "expected": 27968}),
    ("box-diamond-large", {"m": 4, "n": 3, "expected": 270}),
    ("diamond-subcross", {"m": 4, "n": 4}),
    ("vertex-image-law", {"m": 4, "target": "simplex", "n": 4}),
    ("face-law", {"source": "crosspolytope", "m": 4, "n": 4}),
    ("facet-form", {"source": "cube", "m": 3, "target": "crosspolytope", "n": 3}),
    ("facet-form", {"source": "crosspolytope", "m": 3, "target": "crosspolytope", "n": 3}),
    ("facet-form", {"source": "simplex", "m": 3, "target": "crosspolytope", "n": 3}),
    ("facet-form", {"source": "crosspolytope", "m": 3, "target": "simplex", "n": 3}),
]


def run_suite(level: str = "core", threads: int = 1) -> list[VerificationResult]:
    """Run all claims of the chosen level; failures are recorded, not raised.

    With threads > 1 the claims run in worker processes, never more of
    them than there are claims."""
    if level == "core":
        plan = CORE_SUITE
    elif level == "extended":
        plan = EXTENDED_SUITE
    else:
        raise ValueError(f"unknown suite level {level!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(plan))
    if workers > 1:
        # imported here: it pulls multiprocessing, pickle and socket into
        # every run that imports this module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_claim, cid, params) for cid, params in plan]
            return [f.result() for f in futures]
    return [run_claim(cid, params) for cid, params in plan]
