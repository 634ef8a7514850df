"""Polytopes with exact dual representations.

A Polytope carries a vertex representation, an inequality
representation, or both; whichever is missing is computed on demand
through the double description kernel and cached.  The cache fill-in is
idempotent (the computed representation is canonical), so concurrent
readers are safe; values are otherwise immutable.

Canonical forms, used everywhere set comparison or reproducible output
matters:

- vertices are sorted lexicographically under the rational total order;
- inequality rows are scaled to coprime integers (positive scaling
  only), reduced modulo the equation rows, and sorted;
- equation rows are the primitive reduced row echelon form of the
  affine hull's equation system.

Lower-dimensional polytopes keep explicit equations and all conversions
run inside the affine hull's coordinate frame.  The empty polytope is a
first-class value: no vertices, contradictory inequality system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from . import dd
from .errors import SizeGuardError
from .linalg import (
    Vec,
    _free_column_basis,
    add,
    affine_hull,
    dot,
    is_zero,
    neg as vneg,
    primitive,
    rank,
    rref,
    scale,
    sub,
    vec,
    zero_vec,
)

IneqRow = tuple[Vec, Fraction]


@dataclass(frozen=True)
class VRep:
    """Irredundant vertex list, lexicographically sorted."""

    vertices: tuple[Vec, ...]


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
    """Bounded convex polytope in Q^ambient_dim with cached dual reps.

    `hrep` is any valid inequality description; `minimal_hrep` is the
    canonical irredundant one (every inequality a facet, equations the
    affine hull), recomputed from the vertex set when the stored system
    is not known to be minimal.
    """

    __slots__ = ("ambient_dim", "_vrep", "_hrep", "_hrep_minimal", "_dim")

    def __init__(self, ambient_dim: int, vrep: VRep | None = None,
                 hrep: HRep | None = None, dim: int | None = None,
                 hrep_minimal: bool = False):
        if vrep is None and hrep is None:
            raise ValueError("a polytope needs at least one representation")
        self.ambient_dim = ambient_dim
        self._vrep = vrep
        self._hrep = hrep
        self._hrep_minimal = hrep_minimal and hrep is not None
        self._dim = dim

    # -- representations -------------------------------------------------

    @property
    def vertices(self) -> tuple[Vec, ...]:
        if self._vrep is None:
            self._vrep = VRep(tuple(_vertices_from_hrep(self._hrep, self.ambient_dim)))
        return self._vrep.vertices

    @property
    def hrep(self) -> HRep:
        if self._hrep is None:
            self._hrep = _hrep_from_vertices(self.vertices, self.ambient_dim)
            self._hrep_minimal = True
        return self._hrep

    @property
    def minimal_hrep(self) -> HRep:
        if not self._hrep_minimal:
            self._hrep = _hrep_from_vertices(self.vertices, self.ambient_dim)
            self._hrep_minimal = True
        return self._hrep

    @property
    def inequalities(self) -> tuple[IneqRow, ...]:
        return self.hrep.inequalities

    @property
    def equations(self) -> tuple[IneqRow, ...]:
        return self.hrep.equations

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
        return len(self.minimal_hrep.inequalities)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.vertices == other.vertices

    def __repr__(self):
        reps = []
        if self._vrep is not None:
            reps.append(f"{len(self._vrep.vertices)} vertices")
        if self._hrep is not None:
            reps.append(f"{len(self._hrep.inequalities)} inequalities")
        return f"Polytope(R^{self.ambient_dim}, {', '.join(reps)})"

    def contains(self, x: Vec) -> bool:
        x = vec(x)
        h = self.hrep
        return (all(dot(n, x) == c for n, c in h.equations)
                and all(dot(n, x) <= c for n, c in h.inequalities))


def empty_polytope(ambient_dim: int) -> Polytope:
    contradiction = ((zero_vec(ambient_dim), Fraction(-1)),)
    return Polytope(ambient_dim, vrep=VRep(()), hrep=HRep(contradiction, ()), dim=-1,
                    hrep_minimal=True)


# -- conversions ---------------------------------------------------------


def _vertices_from_hrep(hrep: HRep, ambient: int) -> list[Vec]:
    eqs = hrep.equations
    ineqs = hrep.inequalities
    if not eqs:
        return dd.polytope_vertices(ineqs, ambient)

    _, eq_red, eq_pivots = _canonical_equations(eqs)
    if ambient in eq_pivots:
        return []  # 0 = 1 after reduction: no solutions
    base = [Fraction(0)] * ambient
    for row, p in zip(eq_red, eq_pivots):
        base[p] = row[-1]
    dirs = _free_column_basis(eq_red, eq_pivots, ambient)
    base_v = tuple(base)

    frame_ineqs = []
    for normal, offset in ineqs:
        frame_ineqs.append((tuple(dot(normal, d) for d in dirs),
                            offset - dot(normal, base_v)))
    frame_pts = dd.polytope_vertices(frame_ineqs, len(dirs))
    out = []
    for u in frame_pts:
        x = list(base_v)
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
    """Polytope from (normal, offset) inequality and equation rows."""
    rows = [(vec(n), Fraction(c)) for n, c in ineqs]
    eq_rows = [(vec(n), Fraction(c)) for n, c in eqs]
    hrep = _canonical_hrep(rows, eq_rows)
    return Polytope(ambient_dim, hrep=hrep)  # not necessarily irredundant


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
        return Polytope(ambient, vrep=VRep(tuple(pts)), hrep=hrep, dim=0,
                        hrep_minimal=True)
    eq_normals = [n for n, _ in hrep.equations]
    verts = tuple(p for p in pts
                  if _tight_rows_span(p, hrep.inequalities, eq_normals, ambient))
    return Polytope(ambient, vrep=VRep(verts), hrep=hrep, hrep_minimal=True)


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
        verts = [tuple(Fraction(s) for s in signs) for signs in iproduct((-1, 1), repeat=n)]
        ineqs = []
        for i in range(n):
            for s in (-1, 1):
                ineqs.append((tuple(Fraction(s) if j == i else Fraction(0) for j in range(n)), one))
    elif kind == "crosspolytope":
        verts = []
        for i in range(n):
            for s in (-1, 1):
                verts.append(tuple(Fraction(s) if j == i else Fraction(0) for j in range(n)))
        ineqs = [(tuple(Fraction(s) for s in signs), one) for signs in iproduct((-1, 1), repeat=n)]
    else:
        raise ValueError(f"unknown polytope kind {kind!r}")
    vrep = VRep(tuple(sorted(verts)))
    hrep = _canonical_hrep(ineqs, ())
    return Polytope(n, vrep=vrep, hrep=hrep, dim=n, hrep_minimal=True)


# -- operations ------------------------------------------------------------


def polar_dual(P: Polytope) -> Polytope:
    """Dual polytope {y : y . x <= 1 for all x in P} (0 must be interior)."""
    d = P.ambient_dim
    if P.dim != d:
        raise ValueError("polar dual needs a full-dimensional polytope")
    h = P.minimal_hrep
    if any(c <= 0 for _, c in h.inequalities):
        raise ValueError("polar dual needs the origin in the interior")
    verts = sorted(scale(n, 1 / c) for n, c in h.inequalities)
    ineqs = [(v, Fraction(1)) for v in P.vertices]
    return Polytope(d, vrep=VRep(tuple(verts)), hrep=_canonical_hrep(ineqs, ()), dim=d,
                    hrep_minimal=True)


def translate(P: Polytope, t) -> Polytope:
    t = vec(t)
    if len(t) != P.ambient_dim:
        raise ValueError("translation vector of wrong dimension")
    vrep = hrep = None
    if P._vrep is not None:
        vrep = VRep(tuple(sorted(add(v, t) for v in P._vrep.vertices)))
    if P._hrep is not None:
        h = P._hrep
        hrep = _canonical_hrep(
            [(n, c + dot(n, t)) for n, c in h.inequalities],
            [(n, c + dot(n, t)) for n, c in h.equations])
    return Polytope(P.ambient_dim, vrep=vrep, hrep=hrep, dim=P._dim,
                    hrep_minimal=P._hrep_minimal)


def negate(P: Polytope) -> Polytope:
    vrep = hrep = None
    if P._vrep is not None:
        vrep = VRep(tuple(sorted(vneg(v) for v in P._vrep.vertices)))
    if P._hrep is not None:
        h = P._hrep
        hrep = _canonical_hrep(
            [(vneg(n), c) for n, c in h.inequalities],
            [(vneg(n), c) for n, c in h.equations])
    return Polytope(P.ambient_dim, vrep=vrep, hrep=hrep, dim=P._dim,
                    hrep_minimal=P._hrep_minimal)


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Intersection; may be lower-dimensional or empty."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("intersection of polytopes in different ambient spaces")
    d = P.ambient_dim
    hp, hq = P.hrep, Q.hrep
    combined = _canonical_hrep(hp.inequalities + hq.inequalities,
                               hp.equations + hq.equations)
    verts = _vertices_from_hrep(combined, d)
    if not verts:
        return empty_polytope(d)
    return Polytope(d, vrep=VRep(tuple(verts)))


def bipyramid(P: Polytope) -> Polytope:
    """conv(P x {0}, +-e_{n+1}) one dimension up."""
    d = P.ambient_dim
    zero = Fraction(0)
    one = Fraction(1)
    verts = [v + (zero,) for v in P.vertices]
    verts.append(zero_vec(d) + (-one,))
    verts.append(zero_vec(d) + (one,))
    return Polytope(d + 1, vrep=VRep(tuple(sorted(verts))))


def product(P: Polytope, Q: Polytope) -> Polytope:
    """Cartesian product with both representations assembled directly."""
    dp, dq = P.ambient_dim, Q.ambient_dim
    zq = zero_vec(dq)
    zp = zero_vec(dp)
    verts = tuple(vp + vq for vp in P.vertices for vq in Q.vertices)
    hp, hq = P.minimal_hrep, Q.minimal_hrep
    ineqs = [(n + zq, c) for n, c in hp.inequalities]
    ineqs += [(zp + n, c) for n, c in hq.inequalities]
    eqs = [(n + zq, c) for n, c in hp.equations]
    eqs += [(zp + n, c) for n, c in hq.equations]
    dim = None
    if P._dim is not None and Q._dim is not None:
        dim = -1 if (P._dim < 0 or Q._dim < 0) else P._dim + Q._dim
    return Polytope(dp + dq, vrep=VRep(verts), hrep=_canonical_hrep(ineqs, eqs), dim=dim,
                    hrep_minimal=True)


def contains_interior(P: Polytope, x) -> bool:
    """Is x in the interior of P relative to its affine hull?"""
    x = vec(x)
    if P.is_empty:
        return False
    h = P.minimal_hrep
    return (all(dot(n, x) == c for n, c in h.equations)
            and all(dot(n, x) < c for n, c in h.inequalities))


def vertex_facet_incidence(P: Polytope) -> list[list[bool]]:
    """Rows indexed by canonical vertices, columns by canonical facets."""
    ineqs = P.minimal_hrep.inequalities
    return [[dot(n, v) == c for n, c in ineqs] for v in P.vertices]


def _incidence_masks(P: Polytope) -> list[int]:
    ineqs = P.minimal_hrep.inequalities
    masks = []
    for v in P.vertices:
        m = 0
        for j, (n, c) in enumerate(ineqs):
            if dot(n, v) == c:
                m |= 1 << j
        masks.append(m)
    return masks


def combinatorially_equal(P: Polytope, Q: Polytope, guard: int = 200) -> bool:
    """Vertex-facet incidence matrices agree up to row/column permutation.

    Backtracking search over vertex bijections with color refinement and
    pairwise common-facet pruning; guarded to small vertex counts.
    """
    if P.n_vertices > guard or Q.n_vertices > guard:
        raise SizeGuardError(
            f"combinatorial comparison guarded to {guard} vertices; compare counts instead")
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


def vertex_certificate_ok(P: Polytope) -> bool:
    """Every claimed vertex is feasible and has active constraints of full rank."""
    h = P.minimal_hrep
    eq_normals = [n for n, _ in h.equations]
    return all(P.contains(v) and _tight_rows_span(v, h.inequalities, eq_normals, P.ambient_dim)
               for v in P.vertices)
