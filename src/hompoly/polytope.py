"""Polytopes as vertex sets with their facet systems.

A Polytope is its canonical vertex tuple plus one inequality
representation, the canonical irredundant one: every inequality a
facet, the equations the affine hull.  Constructors fix the vertices
(`from_inequalities` converts its rows by double description at once);
the facet system is derived from them on first use and cached.  The
cache fill-in is idempotent, so concurrent readers are safe; values are
otherwise immutable.

Canonical forms, used everywhere set comparison or reproducible output
matters:

- vertices are sorted lexicographically under the rational total order;
- inequality rows are scaled to coprime integers (positive scaling
  only), reduced modulo the equation rows, and sorted;
- equation rows are the primitive reduced row echelon form of the
  affine hull's equation system.

The DD kernel inserts rows in the order it is given them, so every
conversion inserts in canonical sorted order: H -> V the sorted
inequality rows, V -> H one dual row per point, points sorted.
Lower-dimensional polytopes keep explicit equations and all conversions
run inside the affine hull's coordinate frame.  The empty polytope is a
first-class value: no vertices, contradictory inequality system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import dd
from .errors import SizeGuardError
from .linalg import (
    Vec,
    add,
    affine_hull,
    dot,
    is_zero,
    neg as vneg,
    primitive,
    rank,
    rref,
    scale,
    solve,
    sub,
    vec,
    zero_vec,
)

IneqRow = tuple[Vec, Fraction]

COMBINATORIAL_GUARD = 200  # vertices, in `combinatorially_equal`


@dataclass(frozen=True)
class HRep:
    """Facet inequalities (normal . x <= offset) plus affine-hull equations."""

    inequalities: tuple[IneqRow, ...]
    equations: tuple[IneqRow, ...]


def _canonical_equations(eqs) -> tuple[tuple[IneqRow, ...], list[list[Fraction]], list[int]]:
    """Joint RREF of equation rows; also returns raw rows and pivots for reduction."""
    rows = [list(normal) + [offset] for normal, offset in eqs]
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return (), [], []
    red, pivots = rref(rows)
    canon = []
    for row in red:
        p = primitive(tuple(row), orient=True)
        canon.append((p[:-1], p[-1]))
    return tuple(canon), red, pivots


def _reduce_ineq(normal: Vec, offset: Fraction, eq_red, eq_pivots) -> IneqRow:
    """Subtract equation rows to zero the equation-pivot coordinates."""
    row = list(normal) + [offset]
    for erow, p in zip(eq_red, eq_pivots):
        f = row[p]
        if f != 0:
            row = [x - f * y for x, y in zip(row, erow)]
    p = primitive(tuple(row))
    return (p[:-1], p[-1])


def _canonical_hrep(ineqs, eqs) -> HRep:
    canon_eqs, eq_red, eq_pivots = _canonical_equations(eqs)
    if eq_pivots and eq_pivots[-1] == len(eq_red[0]) - 1:
        # an equation reduced to 0 = c with c != 0: the canonical empty system
        return HRep(((zero_vec(eq_pivots[-1]), Fraction(-1)),), ())
    seen = set()
    rows = []
    for normal, offset in ineqs:
        n, c = _reduce_ineq(vec(normal), Fraction(offset), eq_red, eq_pivots)
        if is_zero(n):
            if c < 0:  # 0 <= c < 0: the canonical empty system
                return HRep(((n, c),), ())
            continue
        if (n, c) not in seen:
            seen.add((n, c))
            rows.append((n, c))
    rows.sort()
    return HRep(tuple(rows), canon_eqs)


class Polytope:
    """Bounded convex polytope in Q^ambient_dim: its sorted vertices and
    `hrep`, its canonical facet system, derived from them on first use.
    A constructor below that passes `hrep` or `dim` vouches for them."""

    __slots__ = ("ambient_dim", "_vertices", "_hrep", "_dim")

    def __init__(self, ambient_dim: int, vertices: tuple[Vec, ...],
                 hrep: HRep | None = None, dim: int | None = None):
        self.ambient_dim = ambient_dim
        self._vertices = vertices
        self._hrep = hrep
        self._dim = dim

    # -- representations -------------------------------------------------

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return self._vertices

    @property
    def hrep(self) -> HRep:
        if self._hrep is None:
            self._hrep = _hrep_from_vertices(self._vertices, self.ambient_dim)
        return self._hrep

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    @property
    def dim(self) -> int:
        if self._dim is None:
            vs = self.vertices
            self._dim = affine_hull(vs).dim if vs else -1
        return self._dim

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.hrep.inequalities)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.vertices == other.vertices

    def __repr__(self):
        facets = "" if self._hrep is None else f", {len(self._hrep.inequalities)} facets"
        return f"Polytope(R^{self.ambient_dim}, {len(self.vertices)} vertices{facets})"

    def contains(self, x: Vec) -> bool:
        x = vec(x)
        h = self.hrep
        return (all(dot(n, x) == c for n, c in h.equations)
                and all(dot(n, x) <= c for n, c in h.inequalities))


def empty_polytope(ambient_dim: int) -> Polytope:
    return Polytope(ambient_dim, (), dim=-1)


# -- conversions ---------------------------------------------------------


def _vertices_from_hrep(hrep: HRep, ambient: int) -> list[Vec]:
    ineqs = hrep.inequalities
    if not hrep.equations:
        return dd.polytope_vertices(ineqs, ambient)

    sol = solve([n for n, _ in hrep.equations], [c for _, c in hrep.equations])
    if sol is None:
        return []  # 0 = 1 after reduction: no solutions
    base, dirs = sol.particular, sol.nullspace

    frame_ineqs = [(tuple(dot(normal, d) for d in dirs), offset - dot(normal, base))
                   for normal, offset in ineqs]
    out = []
    for u in dd.polytope_vertices(frame_ineqs, len(dirs)):
        x = list(base)
        for coeff, direction in zip(u, dirs):
            if coeff:
                for i, di in enumerate(direction):
                    x[i] += coeff * di
        out.append(tuple(x))
    out.sort()
    return out


def _frame_coords(points, hull) -> tuple[list[Vec], list[int]]:
    # hull.basis is in RREF, so frame coordinates are read off pivot columns
    pivot_cols = []
    for row in hull.basis:
        pivot_cols.append(next(i for i, x in enumerate(row) if x != 0))
    base = hull.basepoint
    coords = [tuple(p[c] - base[c] for c in pivot_cols) for p in points]
    return coords, pivot_cols


def _hrep_from_vertices(vertices, ambient: int) -> HRep:
    if not vertices:
        return HRep(((zero_vec(ambient), Fraction(-1)),), ())
    hull = affine_hull(vertices)
    k = hull.dim
    if k == 0:
        return _canonical_hrep((), hull.equations)

    coords, pivot_cols = _frame_coords(vertices, hull)
    m = len(coords)
    centroid = tuple(sum(c[j] for c in coords) / m for j in range(k))
    shifted = [sub(c, centroid) for c in coords]
    dual_rows = [(w, Fraction(1)) for w in shifted]
    dual_vertices = dd.polytope_vertices(dual_rows, k)

    # y . w <= 1 on the shifted frame coordinates reads, in the ambient
    # space, y . x[pivot_cols] <= 1 + y . (centroid + basepoint[pivot_cols])
    anchor = tuple(g + hull.basepoint[c] for g, c in zip(centroid, pivot_cols))
    ineqs = []
    for y in dual_vertices:
        normal = [Fraction(0)] * ambient
        for yj, c in zip(y, pivot_cols):
            normal[c] = yj
        ineqs.append((tuple(normal), 1 + dot(y, anchor)))
    return _canonical_hrep(ineqs, hull.equations)


# -- constructors ----------------------------------------------------------


def from_inequalities(ineqs, eqs, ambient_dim: int) -> Polytope:
    """Polytope from (normal, offset) inequality and equation rows.

    The rows may be redundant: they are canonicalised and converted to
    vertices at once, and `hrep` is then derived from the vertices.
    Raises UnboundedPolytopeError if the rows cut out an unbounded set.
    """
    hrep = _canonical_hrep(ineqs, eqs)
    return Polytope(ambient_dim, tuple(_vertices_from_hrep(hrep, ambient_dim)))


def from_points(points, ambient_dim: int | None = None) -> Polytope:
    """Convex hull of a point list (duplicates and interior points allowed)."""
    pts = sorted({vec(p) for p in points})
    if not pts:
        if ambient_dim is None:
            raise ValueError("empty point set with unknown ambient dimension")
        return empty_polytope(ambient_dim)
    ambient = len(pts[0]) if ambient_dim is None else ambient_dim
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")
    hrep = _hrep_from_vertices(pts, ambient)
    if len(pts) == 1:
        return Polytope(ambient, tuple(pts), hrep, dim=0)
    eq_normals = [n for n, _ in hrep.equations]
    verts = tuple(p for p in pts
                  if _tight_rows_span(p, hrep.inequalities, eq_normals, ambient))
    return Polytope(ambient, verts, hrep)


def standard(kind: str, n: int) -> Polytope:
    """The standard n-simplex, n-cube [-1,1]^n, or n-crosspolytope conv(+-e_i)."""
    if n < 1:
        raise ValueError(f"standard polytope needs n >= 1, got {n}")
    one = Fraction(1)
    if kind == "simplex":
        verts = [zero_vec(n)] + [tuple(one if j == i else Fraction(0) for j in range(n))
                                 for i in range(n)]
        ineqs = [(tuple(-one if j == i else Fraction(0) for j in range(n)), Fraction(0))
                 for i in range(n)]
        ineqs.append(((one,) * n, one))
    elif kind == "cube":
        verts = [tuple(Fraction(s) for s in signs) for signs in product((-1, 1), repeat=n)]
        ineqs = []
        for i in range(n):
            for s in (-1, 1):
                ineqs.append((tuple(Fraction(s) if j == i else Fraction(0) for j in range(n)), one))
    elif kind == "crosspolytope":
        verts = []
        for i in range(n):
            for s in (-1, 1):
                verts.append(tuple(Fraction(s) if j == i else Fraction(0) for j in range(n)))
        ineqs = [(tuple(Fraction(s) for s in signs), one) for signs in product((-1, 1), repeat=n)]
    else:
        raise ValueError(f"unknown polytope kind {kind!r}")
    return Polytope(n, tuple(sorted(verts)), _canonical_hrep(ineqs, ()), dim=n)


# -- operations ------------------------------------------------------------


def polar_dual(P: Polytope) -> Polytope:
    """Dual polytope {y : y . x <= 1 for all x in P} (0 must be interior)."""
    d = P.ambient_dim
    if P.dim != d:
        raise ValueError("polar dual needs a full-dimensional polytope")
    h = P.hrep
    if any(c <= 0 for _, c in h.inequalities):
        raise ValueError("polar dual needs the origin in the interior")
    verts = sorted(scale(n, 1 / c) for n, c in h.inequalities)
    ineqs = [(v, Fraction(1)) for v in P.vertices]
    return Polytope(d, tuple(verts), _canonical_hrep(ineqs, ()), dim=d)


def _map_rows(P: Polytope, row):
    """P's facet system with each row sent through `row`, if it is cached."""
    h = P._hrep
    if h is None:
        return None
    return _canonical_hrep([row(n, c) for n, c in h.inequalities],
                           [row(n, c) for n, c in h.equations])


def translate(P: Polytope, t) -> Polytope:
    t = vec(t)
    if len(t) != P.ambient_dim:
        raise ValueError("translation vector of wrong dimension")
    return Polytope(P.ambient_dim, tuple(sorted(add(v, t) for v in P.vertices)),
                    _map_rows(P, lambda n, c: (n, c + dot(n, t))), P._dim)


def negate(P: Polytope) -> Polytope:
    return Polytope(P.ambient_dim, tuple(sorted(vneg(v) for v in P.vertices)),
                    _map_rows(P, lambda n, c: (vneg(n), c)), P._dim)


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Intersection; may be lower-dimensional or empty."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("intersection of polytopes in different ambient spaces")
    hp, hq = P.hrep, Q.hrep
    return from_inequalities(hp.inequalities + hq.inequalities,
                             hp.equations + hq.equations, P.ambient_dim)


def bipyramid(P: Polytope) -> Polytope:
    """conv(P x {0}, +-e_{n+1}) one dimension up.

    P's vertices stay vertices only when the origin lies in P's relative
    interior; any other P raises ValueError.
    """
    d = P.ambient_dim
    if not contains_interior(P, zero_vec(d)):
        raise ValueError("bipyramid needs the origin in the relative interior of P")
    zero = Fraction(0)
    one = Fraction(1)
    verts = [v + (zero,) for v in P.vertices]
    verts.append(zero_vec(d) + (-one,))
    verts.append(zero_vec(d) + (one,))
    return Polytope(d + 1, tuple(sorted(verts)))


def contains_interior(P: Polytope, x) -> bool:
    """Is x in the interior of P relative to its affine hull?"""
    x = vec(x)
    if P.is_empty:
        return False
    h = P.hrep
    return (all(dot(n, x) == c for n, c in h.equations)
            and all(dot(n, x) < c for n, c in h.inequalities))


def _incidence_masks(P: Polytope) -> list[int]:
    ineqs = P.hrep.inequalities
    masks = []
    for v in P.vertices:
        m = 0
        for j, (n, c) in enumerate(ineqs):
            if dot(n, v) == c:
                m |= 1 << j
        masks.append(m)
    return masks


def combinatorially_equal(P: Polytope, Q: Polytope) -> bool:
    """Vertex-facet incidence matrices agree up to row/column permutation.

    Backtracking search over vertex bijections with color refinement and
    pairwise common-facet pruning; guarded to small vertex counts.
    """
    if P.n_vertices > COMBINATORIAL_GUARD or Q.n_vertices > COMBINATORIAL_GUARD:
        raise SizeGuardError(f"combinatorial comparison guarded to {COMBINATORIAL_GUARD} "
                             f"vertices; compare counts instead")
    if P.n_vertices != Q.n_vertices or P.n_facets != Q.n_facets:
        return False
    mp = _incidence_masks(P)
    mq = _incidence_masks(Q)
    nf = P.n_facets

    def facet_degrees(masks):
        return [sum((m >> j) & 1 for m in masks) for j in range(nf)]

    fdeg_p, fdeg_q = facet_degrees(mp), facet_degrees(mq)
    if sorted(fdeg_p) != sorted(fdeg_q):
        return False

    def colors(masks, fdeg):
        cols = []
        for m in masks:
            inc = sorted(fdeg[j] for j in range(nf) if (m >> j) & 1)
            cols.append((m.bit_count(), tuple(inc)))
        return cols

    col_p, col_q = colors(mp, fdeg_p), colors(mq, fdeg_q)
    if sorted(col_p) != sorted(col_q):
        return False

    facets_p = [frozenset(i for i, m in enumerate(mp) if (m >> j) & 1) for j in range(nf)]
    facets_q = {frozenset(i for i, m in enumerate(mq) if (m >> j) & 1) for j in range(nf)}

    n = len(mp)
    order = sorted(range(n), key=lambda i: (col_p.count(col_p[i]), i))
    common_p = [[(mp[i] & mp[j]).bit_count() for j in range(n)] for i in range(n)]
    common_q = [[(mq[i] & mq[j]).bit_count() for j in range(n)] for i in range(n)]
    assignment: dict[int, int] = {}
    used = [False] * n

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            mapped = {frozenset(assignment[i] for i in f) for f in facets_p}
            return mapped == facets_q
        i = order[pos]
        for cand in range(n):
            if used[cand] or col_q[cand] != col_p[i]:
                continue
            if any(common_p[i][j] != common_q[cand][assignment[j]] for j in assignment):
                continue
            assignment[i] = cand
            used[cand] = True
            if backtrack(pos + 1):
                return True
            del assignment[i]
            used[cand] = False
        return False

    return backtrack(0)


def _tight_rows_span(x: Vec, ineqs, eq_normals: list, dim: int) -> bool:
    """Active-set rank certificate: the normals of the rows tight at x,
    together with the equation normals, have rank dim.  For a point of
    the feasible set this holds iff the point is a vertex."""
    tight = [n for n, c in ineqs if dot(n, x) == c]
    return rank(tight + eq_normals) == dim
