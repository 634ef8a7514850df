"""Named verification claims binding enumeration output to closed-form
structure statements.

Each claim is data in a registry, so the CLI can list, select, and run
them; a claim execution either passes or fails with a reproducible
witness payload.  The core suite covers every claim at parameters that
finish in minutes; the extended suite adds the long enumerations.

Enumerated homs are cached per (source, m, target, n), and the
enumerated count of a `counts.COUNT_FAMILIES` family is the length of
that cached list (`enumerated_count`), for `count-agreement` and for
`hompoly count --enumerate` alike.  The claims on
Hom(crosspolytope_m, simplex_n) that need only each map's rank and
whether its image is a crosspolytope read one cached record per map
(`_diamond_records`) instead of building every image.

Claims that still check maps one by one do each expensive check once
per distinct value of what the check reads: the hit set f(vert P) for a
check on the image conv(f(vert P)) (`face-law`, the first half of
`vertex-image-law`), the offset b for the symmetric intersection
Q & (2b - Q) (`vertex-image-law`), and the restriction itself for the
sub-crosspolytope test (`diamond-subcross`).  Maps with the same value
get the same verdict, so this is exact; the memo is a dict local to the
call, and the maps are still visited in order, so a failure names the
same first map as a check of every map would.
"""

from __future__ import annotations

import inspect
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .counts import COUNT_FAMILIES, beta, bound_box_diamond, rank_k_sandwich, sigma
from .homs import (
    AffineMap,
    build_hom,
    cube_simplex_realization,
    enumerate_vertex_maps,
    flatten_map,
    image_polytope,
    is_vertex_map,
    map_rank,
    restrict_to_subcrosspolytope,
)
from .linalg import (
    _int_row,
    affine_hull,
    dot,
    int_det,
    mat,
    rank,
    solve,
    vec,
    zero_vec,
)
from .polytope import (
    Polytope,
    _canonical_hrep,
    bipyramid,
    combinatorially_equal,
    contains_interior,
    from_inequalities,
    from_points,
    intersect,
    negate,
    polar_dual,
    standard,
    translate,
)

log = logging.getLogger(__name__)


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


@lru_cache(maxsize=64)
def _hom(source_kind: str, m: int, target_kind: str, n: int):
    P = standard(source_kind, m)
    Q = standard(target_kind, n)
    H = build_hom(P, Q)
    return P, Q, H, enumerate_vertex_maps(H)


def enumerated_count(family: str, m: int, n: int) -> int:
    """Number of vertex maps of the family's hom, read from `_hom`."""
    source, target, _ = COUNT_FAMILIES[family]
    return len(_hom(source, m, target, n)[3])


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

    The test runs on A scaled to integers (it is homogeneous), by
    Cramer's rule: with D = det(a_S) and D_k(j) the same determinant
    with column k replaced by a_j, it requires sum_k |D_k(j)| <= |D|.
    """
    n, m = f.target_dim, f.source_dim
    flat = _int_row([x for row in f.matrix for x in row])
    cols = [flat[i::m] for i in range(m)]
    r = rank(cols)
    if r < n:
        return r, False
    for S in combinations(range(m), n):
        basis = [cols[s] for s in S]
        bound = abs(int_det(basis))
        if bound == 0:
            continue
        if all(sum(abs(int_det(basis[:k] + [cols[j]] + basis[k + 1:]))
                   for k in range(n)) <= bound
               for j in range(m) if j not in S):
            return r, True
    return r, False


@lru_cache(maxsize=64)
def _diamond_records(m: int, n: int) -> tuple[tuple[int, bool], ...]:
    """`_cross_record` of each vertex map of Hom(crosspolytope_m, simplex_n),
    in the order of `_hom`'s maps; small ints and bools only, no images."""
    maps = _hom("crosspolytope", m, "simplex", n)[3]
    return tuple(_cross_record(f) for f in maps)


# -- claim implementations ---------------------------------------------------
# each returns (ok, witness)


def _claim_dim_formula(source: str, m: int, target: str, n: int):
    P, Q, H, maps = _hom(source, m, target, n)
    expected = P.dim * Q.dim + Q.dim
    if H.ambient_dim != expected:
        return False, {"ambient": H.ambient_dim, "expected": expected}
    # build_hom certified an interior point, so the system is full-dimensional;
    # cross-check through the enumerated vertex set
    got = affine_hull([flatten_map(f) for f in maps]).dim
    if got != expected:
        return False, {"hull_dim": got, "expected": expected}
    return True, None


def _claim_constant_maps(source: str, m: int, target: str, n: int):
    P, Q, H, maps = _hom(source, m, target, n)
    flat = {flatten_map(f) for f in maps}
    for w in Q.vertices:
        const = w + zero_vec(n * m)
        if const not in flat:
            return False, {"missing_constant_map_onto": [str(x) for x in w]}
    return True, None


def _claim_facet_form(source: str, m: int, target: str, n: int):
    """Every facet of the mapping polytope is one of the (vertex, facet)
    rows; also logs how many rows are facet-defining."""
    P, Q, H, maps = _hom(source, m, target, n)
    poly = from_points([flatten_map(f) for f in maps], H.ambient_dim)
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
    bad = [flatten_map(f) for f in maps if map_rank(f) > 1]
    if bad:
        return False, {"rank_ge_2_maps": len(bad), "first": [str(x) for x in bad[0]]}
    return True, None


def _claim_rank1_factorization(m: int, n: int):
    """Rank-1 vertex maps hit exactly two points, both vertices of the
    target or endpoints of a diagonal, with fibers split by a facet pair."""
    P, Q, H, maps = _hom("cube", m, "simplex", n)
    vertex_set = set(Q.vertices)
    for f in maps:
        if map_rank(f) != 1:
            continue
        images = {f.evaluate(v) for v in P.vertices}
        if len(images) != 2:
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "image_points": len(images)}
        if not images <= vertex_set:
            # endpoints of a diagonal are still vertices for the simplex,
            # so anything else is a failure here
            return False, {"map": [str(x) for x in flatten_map(f)]}
        a, b = sorted(images)
        fibers = {a: [], b: []}
        for v in P.vertices:
            fibers[f.evaluate(v)].append(v)
        # each fiber must be a facet of the cube: all vertices sharing one
        # fixed coordinate value
        for pts in fibers.values():
            if len(pts) != 2 ** (m - 1):
                return False, {"fiber_size": len(pts)}
            fixed = [i for i in range(m)
                     if len({p[i] for p in pts}) == 1]
            if not fixed:
                return False, {"fiber_not_a_facet": True}
    return True, None


def _claim_cube_simplex_realization(m: int, n: int, compare: bool = False):
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
        poly = from_points([flatten_map(f) for f in maps], H.ambient_dim)
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
        poly = from_points([flatten_map(f) for f in maps], H.ambient_dim)
        if not combinatorially_equal(poly, model):
            return False, {"combinatorially_equal": False}
    return True, None


def _claim_diamond_center(m: int, n: int):
    P, Q, H, maps = _hom("crosspolytope", m, "crosspolytope", n)
    origin = zero_vec(n)
    vertex_set = set(Q.vertices)
    interior_count = 0
    for f in maps:
        if not contains_interior(Q, f.offset):
            continue
        interior_count += 1
        if f.offset != origin:
            return False, {"offset": [str(x) for x in f.offset]}
        for i in range(m):
            e = tuple(Fraction(int(j == i)) for j in range(m))
            plus, minus = f.evaluate(e), f.evaluate(tuple(-x for x in e))
            if plus not in vertex_set or minus != tuple(-x for x in plus):
                return False, {"axis": i, "map": [str(x) for x in flatten_map(f)]}
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
    verdicts = {}  # restriction -> rank n and a vertex map
    for f, (r, _) in zip(maps, _diamond_records(m, n)):
        if r != n:
            continue
        for idx in combinations(range(m), n):
            g = restrict_to_subcrosspolytope(f, idx)
            ok = verdicts.get(g)
            if ok is None:
                ok = verdicts[g] = (rank(g.matrix) == n
                                    and is_vertex_map(g, sub, Q, hom=sub_hom))
            if ok:
                break
        else:
            return False, {"map": [str(x) for x in flatten_map(f)]}
    return True, None


def _claim_diamond_image_count(m: int, n: int):
    """sigma(m, n) beta(n) rank-n vertex maps have a crosspolytope image.

    Read from `_diamond_records`: the image of a rank-n map is a
    crosspolytope iff it has 2n vertices b +- a_s, decided by the
    Cramer's-rule test of `_cross_record` without building the image.
    """
    expected = sigma(m, n) * beta(n)
    count = sum(cross for _, cross in _diamond_records(m, n))  # cross implies rank n
    if count != expected:
        return False, {"crosspolytope_image_maps": count, "expected": expected}
    return True, None


def _claim_diamond_image_shape(m: int, n: int):
    """Every full-rank vertex map image is a combinatorial crosspolytope
    (expected exactly when m == n or n == 3).

    Read from `_diamond_records`: a rank-n image conv(b +- a_i) is a
    crosspolytope iff it has 2n vertices, decided by the Cramer's-rule
    test of `_cross_record`.  Only a failing map's image is built, for
    the witness.
    """
    P, Q, H, maps = _hom("crosspolytope", m, "simplex", n)
    for f, (r, cross) in zip(maps, _diamond_records(m, n)):
        if r == n and not cross:
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "image_vertices": image_polytope(f, P).n_vertices}
    return True, None


def _full_rank_diamond_witness(n: int) -> AffineMap:
    """A full-rank vertex map from the n-crosspolytope to the n-simplex.

    Built by dualizing an explicit centered simplex inscribed in the
    cube: the dual of that simplex is a simplex sandwiching the
    crosspolytope, and any affine isomorphism onto the standard simplex
    restricts to the wanted map.
    """
    one = Fraction(1)
    tup = [(-one,) * n] + [tuple(one - 2 * int(j == i) for j in range(n))
                           for i in range(n)]
    inscribed = from_points(tup)
    sandwich = polar_dual(inscribed)
    target = standard("simplex", n)
    src = list(sandwich.vertices)
    dst = list(target.vertices)
    # affine map determined by where the n+1 simplex vertices go
    rows = [list(s) + [1] for s in src]
    cols = []
    for j in range(n):
        rhs = vec([d[j] for d in dst])
        sol = solve(mat([vec(r) for r in rows]), rhs)
        cols.append(sol.particular)
    matrix = tuple(tuple(cols[j][i] for i in range(n)) for j in range(n))
    offset = tuple(cols[j][n] for j in range(n))
    return AffineMap(matrix, offset)


def _claim_diamond_image_shape_witness(m: int, n: int):
    """For m > n > 3 a full-rank vertex map with non-crosspolytope image
    exists; construct and certify one."""
    if not (m > n > 3):
        return False, {"bad_parameters": (m, n)}
    source_small = standard("crosspolytope", n)
    target = standard("simplex", n)
    f = _full_rank_diamond_witness(n)
    if map_rank(f) != n or not is_vertex_map(f, source_small, target):
        return False, {"base_map_not_vertex": True}
    b = f.offset
    img = image_polytope(f, source_small)
    K = intersect(target, translate(negate(target), [2 * x for x in b]))
    spare = [v for v in K.vertices if v not in set(img.vertices)]
    if not spare:
        return False, {"no_spare_intersection_vertex": True}
    v = spare[0]
    ext_cols = list(zip(*f.matrix))
    new_col = tuple(vi - bi for vi, bi in zip(v, b))
    for _ in range(m - n):
        ext_cols.append(new_col)
    matrix = tuple(tuple(col[j] for col in ext_cols) for j in range(n))
    g = AffineMap(matrix, b)
    source_big = standard("crosspolytope", m)
    if map_rank(g) != n:
        return False, {"extended_rank": map_rank(g)}
    if not is_vertex_map(g, source_big, target):
        return False, {"extended_map_not_vertex": True}
    img_g = image_polytope(g, source_big)
    if combinatorially_equal(img_g, standard("crosspolytope", n)):
        return False, {"image_is_crosspolytope": True}
    return True, None


def _hit_sets(maps, P: Polytope):
    """(f, f(vert P)) for each map f, in order.  The image conv(f(vert P))
    depends on f only through the hit set, so a check that reads only
    the image has one verdict per hit set.

    Integer arithmetic: P's vertices are scaled once by the lcm V of
    their denominators and kept as their nonzero (coordinate, entry)
    pairs, and each map's offset and columns by the lcm L of its
    denominators, so V L f(v) = V (L b) + sum_k (V v_k)(L a_k) is summed
    column by column.  The hit set of Fraction points is built once per
    distinct set of integer images and denominator L V, and equals
    frozenset(f.evaluate(v) for v in P.vertices).
    """
    verts = P.vertices
    V = lcm(*(x.denominator for v in verts for x in v))
    terms = [[(k, x.numerator * (V // x.denominator)) for k, x in enumerate(v) if x]
             for v in verts]
    memo = {}  # (integer images, denominator) -> hit set
    for f in maps:
        L = lcm(*(x.denominator for x in f.offset),
                *(x.denominator for row in f.matrix for x in row))
        base = [V * x.numerator * (L // x.denominator) for x in f.offset]
        cols = list(zip(*([x.numerator * (L // x.denominator) for x in row]
                          for row in f.matrix)))
        images = set()
        for vt in terms:
            img = base
            for k, c in vt:
                img = [a + c * b for a, b in zip(img, cols[k])]
            images.add(tuple(img))
        D = L * V
        key = (frozenset(images), D)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = frozenset(tuple(Fraction(a, D) for a in img) for img in images)
        yield f, hit


def _claim_vertex_image_law(m: int, target: str, n: int):
    """The image of each vertex map has exactly the vertex images as
    vertices, and they are vertices of K = Q & (2b - Q), b = f(0).

    The first check depends only on the hit set and K only on the
    offset b, so each distinct hit set's image and each distinct
    offset's K are built once.
    """
    P, Q, H, maps = _hom("crosspolytope", m, target, n)
    image_ok = {}  # hit set -> its hull has exactly these vertices
    k_vertices = {}  # offset b -> vertices of K
    for f, hit in _hit_sets(maps, P):
        ok = image_ok.get(hit)
        if ok is None:
            ok = image_ok[hit] = set(image_polytope(f, P).vertices) == hit
        if not ok:
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "reason": "image vertices differ from vertex images"}
        b = f.offset
        K = k_vertices.get(b)
        if K is None:
            K = k_vertices[b] = frozenset(
                intersect(Q, translate(negate(Q), [2 * x for x in b])).vertices)
        if not hit <= K:
            return False, {"map": [str(x) for x in flatten_map(f)],
                           "reason": "vertex image outside symmetric intersection"}
    return True, None


def _face_law_failure(img: Polytope, facet_rows, n: int):
    """None if the smallest face G of the simplex containing img has the
    dimension of img and each facet of G cuts img in a facet of img;
    else the failure payload."""
    active = [(u, c) for u, c in facet_rows
              if all(dot(u, v) == c for v in img.vertices)]
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
    on the hit set; each distinct hit set is checked once, on the first
    map that has it.
    """
    P, Q, H, maps = _hom(source, m, "simplex", n)
    facet_rows = Q.hrep.inequalities
    failures = {}  # hit set -> failure payload, or None if it passes
    for f, hit in _hit_sets(maps, P):
        if hit not in failures:
            failures[hit] = _face_law_failure(image_polytope(f, P), facet_rows, n)
        failure = failures[hit]
        if failure is not None:
            return False, {"map": [str(x) for x in flatten_map(f)], **failure}
    return True, None


def _claim_count_agreement(family: str, m: int, n: int):
    if family not in COUNT_FAMILIES:
        return False, {"unknown_family": family}
    closed_form = COUNT_FAMILIES[family][2](m, n).closed_form
    enumerated = enumerated_count(family, m, n)
    if enumerated != closed_form:
        return False, {"closed_form": closed_form, "enumerated": enumerated}
    return True, None


def _claim_rank_sandwich(m: int, k: int):
    middle = sum(r == k for r, _ in _diamond_records(m, k))
    lo, hi = rank_k_sandwich(m, k)
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
    ("diamond-subcross", {"m": 4, "n": 4}),
    ("vertex-image-law", {"m": 4, "target": "simplex", "n": 4}),
    ("face-law", {"source": "crosspolytope", "m": 4, "n": 4}),
    ("facet-form", {"source": "cube", "m": 3, "target": "crosspolytope", "n": 3}),
    ("facet-form", {"source": "crosspolytope", "m": 3, "target": "crosspolytope", "n": 3}),
    ("facet-form", {"source": "simplex", "m": 3, "target": "crosspolytope", "n": 3}),
    ("facet-form", {"source": "crosspolytope", "m": 3, "target": "simplex", "n": 3}),
]


def run_suite(level: str = "core", threads: int = 1) -> list[VerificationResult]:
    """Run all claims of the chosen level; failures are recorded, not raised."""
    if level == "core":
        plan = CORE_SUITE
    elif level == "extended":
        plan = EXTENDED_SUITE
    else:
        raise ValueError(f"unknown suite level {level!r}")
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run_claim, cid, params) for cid, params in plan]
            return [f.result() for f in futures]
    return [run_claim(cid, params) for cid, params in plan]
