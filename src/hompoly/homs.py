"""Polytopes of affine maps and their vertex maps.

An affine map f(x) = A x + b from a full-dimensional polytope P in R^m
to a full-dimensional polytope Q in R^n lies in the mapping polytope
exactly when u . (A v + b) <= c for every vertex v of P and every facet
u . y <= c of Q.  Each such condition is linear in the entries of
(A, b), so the mapping polytope is itself a polytope in R^{nm+n}.

Flattening convention (fixed; documented for JSON round-trips): the
coordinates are b_1 .. b_n followed by A in row-major order, i.e.
A_{1,1} .. A_{1,m}, A_{2,1} .. A_{n,m}.

A vertex map is one primitive integer ray (t, c) of this space, c / t
being its coordinates, as the DD kernel returns it.  `AffineMap` holds
it, and this module is the only one that reads the layout of c.  The
images of a source's vertex rays are read off the same integers as
point rays (`_int_images`), and `image_polytope` hulls those rays
(`polytope._from_rays`).

The rows are built from P's vertex rays (s, x) and Q's facet rows, all
integers, and are kept as exact as the data allow: each entry
u_j v_i = u_j x_i / s is an int wherever it is integral (every entry,
for a source with integer vertices) and a Fraction only where a
rational vertex makes it so.

Vertexhood of an individual map is decided by the active-set rank
certificate: f is a vertex iff its tight constraints span R^{nm+n}.
This is the exact polyhedral form of the perturbation criterion (a
point of a polytope admits a line segment through it inside the
polytope iff its active constraints do not span).  `is_vertex_map`
reads containment and tightness off one integer row pass
(`polytope._incidence`), the one every test of rows at a point shares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import dd
from .errors import SizeGuardError
from .linalg import Mat, Vec, _echelon, _independent_rows, _int_row, rank
from .polytope import Polytope, _contains_ray, _from_rays, _incidence

__all__ = [
    "AffineMap",
    "HomPolytope",
    "build_hom",
    "enumerate_vertex_maps",
    "is_vertex_map",
    "map_rank",
    "rank_histogram",
    "image_polytope",
    "restrict_to_subcrosspolytope",
    "cube_simplex_realization",
]


class AffineMap:
    """f(x) = A x + b from R^source_dim to R^target_dim, held (immutable)
    as its primitive integer ray (t, c): t > 0, gcd(t, c) = 1 and
    c = t (b, A) flattened as above.  That ray is unique, so equality
    and hashing compare rays.  `parts` gives the integers t, t b and the
    rows of t A; `matrix`, `offset`, `flatten_map` and `evaluate` build
    Fractions on each call."""

    __slots__ = ("ray", "source_dim", "target_dim")

    def __init__(self, matrix, offset):
        m = len(matrix[0]) if matrix else 0
        if any(len(row) != m for row in matrix):
            raise ValueError("ragged matrix")
        if len(matrix) != len(offset):
            raise ValueError("matrix and offset of different target dimension")
        self.ray = tuple(_int_row([1, *offset, *(x for row in matrix for x in row)]))
        self.source_dim = m
        self.target_dim = len(offset)

    @classmethod
    def from_ray(cls, ray: tuple[int, ...], m: int, n: int) -> AffineMap:
        """The map R^m -> R^n of a primitive integer ray (t, c), t > 0."""
        f = cls.__new__(cls)
        f.ray, f.source_dim, f.target_dim = ray, m, n
        return f

    def __eq__(self, other):
        return (type(other) is AffineMap and self.ray == other.ray
                and self.source_dim == other.source_dim)

    def __hash__(self):
        return hash(self.ray)

    def __repr__(self):
        return f"AffineMap.from_ray({self.ray!r}, {self.source_dim}, {self.target_dim})"

    @property
    def parts(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(t, t b, rows of t A), all integers."""
        ray, m, n = self.ray, self.source_dim, self.target_dim
        return ray[0], ray[1:n + 1], tuple([ray[n + 1 + j * m: n + 1 + j * m + m]
                                            for j in range(n)])

    @property
    def matrix(self) -> Mat:
        t, _, rows = self.parts
        return tuple(tuple(Fraction(a, t) for a in row) for row in rows)

    @property
    def offset(self) -> Vec:
        t, b, _ = self.parts
        return tuple(Fraction(a, t) for a in b)

    def evaluate(self, x) -> Vec:
        """f(x), read off the image ray of x's ray (`_int_images`)."""
        if len(x) != self.source_dim:
            raise ValueError(f"point of dimension {len(x)} for a map from R^{self.source_dim}")
        s, *x = _int_row([1, *x])
        u, *y = _int_images(self, [(s, [(k, a) for k, a in enumerate(x) if a])])[0]
        return tuple(Fraction(a, u) for a in y)


def map_rank(f: AffineMap, rows=None) -> int:
    """Rank of the linear part = dimension of the image of a full-dim
    source: the rank of the integer rows of t A, which is that of A.
    A caller that has read `f.parts` passes its rows of t A as `rows`."""
    if rows is None:
        rows = f.parts[2]
    return len(_echelon([list(row) for row in rows])[0])


def flatten_map(f: AffineMap) -> Vec:
    t = f.ray[0]
    return tuple(Fraction(c, t) for c in f.ray[1:])


@dataclass(frozen=True)
class HomPolytope:
    """Inequality system of all affine maps source -> target.

    One row per (source vertex, target facet) pair, in that nesting
    order; `pairs[k]` records the (vertex index, facet index) behind
    row k.  The feasible set lives in R^{nm+n} with the flattening
    convention above.  Offsets and integral entries are ints, the
    other entries Fractions (see the module docstring).
    """

    source: Polytope
    target: Polytope
    rows: tuple[tuple[tuple[int | Fraction, ...], int], ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def source_dim(self) -> int:
        return self.source.ambient_dim

    @property
    def target_dim(self) -> int:
        return self.target.ambient_dim

    @property
    def ambient_dim(self) -> int:
        m, n = self.source_dim, self.target_dim
        return n * m + n


def _hom_row(ray: tuple[int, ...], u: tuple[int, ...], c: int, m: int, n: int):
    """The row u . f(v) <= c for the vertex ray (s, x) of v = x / s: u at
    b, u_j x_i / s at A_{j,i}, an int where s divides u_j x_i and a
    Fraction only where it does not."""
    s, *x = ray
    normal = list(u) + [0] * (n * m)
    for j in range(n):
        uj = u[j]
        if uj:
            base = n + j * m
            for i in range(m):
                q, r = divmod(uj * x[i], s)
                normal[base + i] = Fraction(uj * x[i], s) if r else q
    return tuple(normal), c


def build_hom(P: Polytope, Q: Polytope) -> HomPolytope:
    """Inequality system of Hom(P, Q) for full-dimensional P and Q.

    Feasible-set dimension nm+n is certified on the spot: the constant
    map onto the vertex centroid of Q, the ray (N L, sum (L / t) y) for
    Q's N vertex rays (t, y) and L the lcm of their t, satisfies every
    row strictly.
    """
    m, n = P.ambient_dim, Q.ambient_dim
    if P.dim != m:
        raise ValueError("source polytope must be full-dimensional")
    if Q.dim != n:
        raise ValueError("target polytope must be full-dimensional")
    facets = Q.hrep.inequalities
    rows = []
    pairs = []
    for vi, v in enumerate(P._vertex_rays()):
        for fi, (u, c) in enumerate(facets):
            rows.append(_hom_row(v, u, c, m, n))
            pairs.append((vi, fi))
    q_rays = Q._vertex_rays()
    L = lcm(*(t for t, *_ in q_rays))
    centroid = (len(q_rays) * L, *(sum(L // t * y[j] for t, *y in q_rays) for j in range(n)))
    if not _contains_ray(Q, centroid, strict=True):
        raise ValueError("target centroid not strictly interior; bad facet system")
    return HomPolytope(P, Q, tuple(rows), tuple(pairs))


# The largest (dimension, rows) enumerated without --allow-large, and a
# claim's budget, which no flag lifts (see `verify`).
INTERACTIVE_LIMIT = (15, 95)
CLAIM_BUDGET = (20, 128)


def check_size(dim: int, rows: int, limit: tuple[int, int] | None) -> None:
    """Raise SizeGuardError if `rows` inequalities in dimension `dim` are
    over `limit` (None: no limit), before anything is enumerated."""
    if limit is not None and (dim > limit[0] or rows > limit[1]):
        raise SizeGuardError(
            f"system of {rows} inequalities in dimension {dim} is a long exact-arithmetic "
            "run; " + ("pass --allow-large to proceed" if limit == INTERACTIVE_LIMIT else
                       f"claims stop at {limit[1]} inequalities in dimension {limit[0]}"))


def structured_row_order(H: HomPolytope) -> list[int]:
    """Row insertion order for double description.

    Row (v, f) says u_f . f(v) <= c_f, so the rows can go in as groups
    of either index.  A vertex group says f(v) lies in Q; a facet group
    says the affine function u_f . f, one of n+1 in all, is at most c_f
    on every vertex of P.  The order inserts by the smaller index set,
    ties going to facets:

    - Facet by facet, rows sorted by (facet, vertex), when Q has no more
      facets than P has vertices.
    - Vertex by vertex otherwise, the groups of an affinely independent
      set of source vertices first.  Evaluating an affine map at m+1
      affinely independent points is a linear isomorphism, so after
      those groups the intermediate feasible set is the product Q^(m+1).
      The set is chosen greedily: the first m+1 vertices, in vertex
      order, whose lifts (v, 1) are linearly independent.

    The rule is empirical, and it picks the faster order on every system
    below but cube 3 -> cross 4, where the two are close.  The vertex
    set never depends on the order, only the DD's intermediate ray
    counts and running time do.  Measured with `enumerate_vertex_maps` (2-vCPU
    Xeon VM, Python 3.11.7; peak is the most rays after any insertion),
    (vertices of P, facets of Q):

    | system | vertex order | facet order |
    | --- | --- | --- |
    | cube 3 -> cross 3 (8, 8) | 0.27 s, peak 1,593 | 0.10 s, peak 502 |
    | cross 4 -> simplex 4 (8, 5) | 0.54 s | 0.34 s |
    | cube 4 -> cross 3 (16, 8) | 8.4 s, peak 13,737 | 0.95 s, peak 2,318 |
    | cube 4 -> cube 3 (16, 6) | 4.7 s | 0.16 s |
    | cross 5 -> simplex 4 (10, 5) | 35.1 s | 33.5 s |
    | simplex 3 -> cross 3 (4, 8) | 0.06 s, peak 1,512 | 0.10 s, peak 2,401 |
    | cube 3 -> cross 4 (8, 16) | 46-58 s | 45.6 s |
    | cross 4 -> cross 4 (8, 16) | 86-123 s, peak 40,960 | over 420 s |

    Violation-count insertion heuristics (`mincutoff`) were measured to
    blow up on the larger of these systems.
    """
    if H.target.n_facets <= H.source.n_vertices:
        return sorted(range(len(H.rows)), key=lambda k: (H.pairs[k][1], H.pairs[k][0]))
    lifted = [(*x, t) for t, *x in H.source._vertex_rays()]  # (v, 1), times t
    chosen = set(_independent_rows(lifted, H.source_dim + 1))
    return sorted(range(len(H.rows)),
                  key=lambda k: (H.pairs[k][0] not in chosen, H.pairs[k]))


def vertex_maps_from_rows(rows, ambient_dim: int, m: int, n: int) -> tuple[AffineMap, ...]:
    """The DD's vertex maps of hom `rows` inserted in the order given, sorted by point."""
    rays = dd._sorted_rays(dd.polytope_rays(rows, ambient_dim))
    return tuple(AffineMap.from_ray(ray, m, n) for ray in rays)


def enumerate_vertex_maps(H: HomPolytope) -> tuple[AffineMap, ...]:
    """All vertex maps of H, its rows inserted in `structured_row_order`."""
    return vertex_maps_from_rows([H.rows[k] for k in structured_row_order(H)],
                                 H.ambient_dim, H.source_dim, H.target_dim)


def is_vertex_map(f: AffineMap, P: Polytope, Q: Polytope,
                  hom: HomPolytope | None = None) -> bool:
    """Active-set rank certificate for vertexhood of f in Hom(P, Q).

    One pass over the rows of `hom` (built when not given) in the
    integers of f's ray (`polytope._incidence`).  The rows are the
    conditions f(v) in Q, so a row over at f raises ValueError; f is a
    vertex iff its tight rows have full rank.
    """
    if hom is None:
        hom = build_hom(P, Q)
    if len(f.ray) - 1 != hom.ambient_dim:
        raise ValueError(f"map of {len(f.ray) - 1} coordinates, hom of {hom.ambient_dim}")
    tight, over = _incidence(hom.rows, f.ray)
    if over:
        raise ValueError("map does not send the source into the target")
    return rank([n for k, (n, _) in enumerate(hom.rows) if tight >> k & 1]) == hom.ambient_dim


def rank_histogram(maps) -> dict[int, int]:
    """Map rank k to the number of maps of that rank."""
    hist = Counter(map_rank(f) for f in maps)
    return dict(sorted(hist.items()))


def _vertex_terms(P: Polytope) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each vertex ray (s, x) of P as s and the (coordinate, entry)
    pairs of the nonzero entries of x."""
    return [(s, [(k, a) for k, a in enumerate(x) if a]) for s, *x in P._vertex_rays()]


def _int_images(f: AffineMap, terms) -> list[tuple[int, ...]]:
    """The images f(v) of the vertices v = x / s of P, given as
    `_vertex_terms(P)`, in P's vertex order, as primitive point rays:
    s t f(v) = s (t b) + sum_k x_k (t a_k), summed column by column, so
    f(v) is the ray (s t, s t f(v)) divided by its gcd."""
    t, b, rows = f.parts
    cols = list(zip(*rows)) or [()] * f.source_dim  # no rows: target dimension 0
    images = []
    for s, vt in terms:
        img = [s * x for x in b]
        for k, c in vt:
            img = [a + c * e for a, e in zip(img, cols[k])]
        images.append(tuple(_int_row([s * t, *img])))
    return images


def image_polytope(f: AffineMap, P: Polytope) -> Polytope:
    """conv(f(vert P)), carried with canonical representations, hulled
    from the integer images (`_int_images`): no Fraction is built until
    its vertices are read."""
    return _from_rays(_int_images(f, _vertex_terms(P)), f.target_dim)


def restrict_to_subcrosspolytope(f: AffineMap, indices) -> AffineMap:
    """Precompose with the axis embedding of a sub-crosspolytope.

    `indices` are 0-based source axes; the embedding sends the k-th
    basis vector to the axis indices[k] and fixes the origin, so the
    restriction keeps the columns of A at those axes.  The kept entries
    are divided by their gcd with t, so the ray stays primitive.
    """
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("need a nonempty axis subset")
    if idx[0] < 0 or idx[-1] >= f.source_dim:
        raise ValueError("axis index out of range")
    t, b, rows = f.parts
    ray = [t, *b, *(row[i] for row in rows for i in idx)]
    g = gcd(*ray)
    return AffineMap.from_ray(tuple(a // g for a in ray), len(idx), f.target_dim)


def cube_simplex_realization(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Explicit vertex model of the cube-to-simplex mapping polytope, as
    its sorted tuple of integer points.

    In R^{n+nm}, with e_i the simplex directions and e_{ik} the m extra
    directions attached to each of them, the points are 0, 2e_i,
    e_i +- e_{ik}, and (e_i + e_j) + (e_{ik} - e_{jk}) for i != j.
    There are (n+1)(mn+1) of them.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    d = n + n * m

    def point(*terms):
        """The point sum of c e_pos over the (pos, c) terms."""
        p = [0] * d
        for pos, c in terms:
            p[pos] += c
        return tuple(p)

    pts = {point()}
    for i in range(n):
        pts.add(point((i, 2)))
        for k in range(m):
            pts.add(point((i, 1), (n + i * m + k, 1)))
            pts.add(point((i, 1), (n + i * m + k, -1)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(m):
                pts.add(point((i, 1), (j, 1), (n + i * m + k, 1), (n + j * m + k, -1)))
    assert len(pts) == (n + 1) * (m * n + 1)
    return tuple(sorted(pts))
