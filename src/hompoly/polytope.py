"""Polytopes as vertex sets with their facet systems.

A Polytope is its vertices plus one inequality representation, the
canonical irredundant one: every inequality a facet, the equations the
affine hull.  A vertex is held as its primitive integer ray (t, x),
t > 0, the point x / t: the form the DD kernel returns and the one form
in which this module takes, compares and tests points; the
Fraction tuple `vertices` is built only when it is read.  Constructors
pass the vertices as `rays`, or as the DD's `frame_rays`
(`from_inequalities` converts its rows at once, so an unbounded system
raises there); the facet system is derived from them on first use and
cached.  Each cache fill-in is idempotent, so concurrent readers are
safe; values are otherwise immutable.

Canonical forms, used everywhere set comparison or reproducible output
matters:

- vertex rays are primitive and sorted by their points, which sorts
  the vertices lexicographically under the rational total order;
- inequality rows are scaled to coprime integers (positive scaling
  only), reduced modulo the equation rows, and sorted;
- equation rows are the primitive reduced row echelon form of the
  affine hull's equation system;
- both are held as those integers: a row (normal, offset) is a tuple
  of ints and an int, so checks against it and the DD kernel read it
  without Fraction arithmetic.  One pass, `_incidence`, gives the rows
  tight at a point and those it exceeds; every such check reads it.
  The empty system is the single row 0 . x <= -1.

Both conversions run in one coordinate frame: the columns that lead no
canonical equation.  Each leading column is zero in every other
equation and in every canonical inequality, so a point of the affine
hull is its frame coordinates plus one solved entry per equation.

- H -> V restricts the inequalities to the frame and enumerates the
  vertices there as integer rays (t, c), the point c / t.  On first
  use each is lifted, still in integers, with x_p = (e - n . x) / n_p
  for each equation n . x = e with leading column p.
- V -> H is one cone call on the rays (`_hrep_from_rays`): by
  homogenization the facets of conv(V) are the extreme rays (c, a) of
  the cone {(c, a) : c t + a . x[frame] >= 0 for all rays (t, x) of V},
  each the facet -a . x[frame] <= c (Fukuda & Prodon 1996).  When the
  frame is all columns the rays are the cone's rows as they are.  The
  same integer rows decide which points are vertices: point v is one
  iff no other point lies on every facet through v.  A vertex is the
  only point of the face those facets cut out.  Any other point lies in
  the relative interior of a face of dimension >= 1 (the whole hull,
  for a point on no facet), whose vertices are among the points and
  lie on every facet through v.

The DD kernel inserts rows in the order it is given them, so every
conversion inserts in canonical sorted order: H -> V the sorted
inequality rows, V -> H one row per point, rays sorted by their points.
The empty polytope is a first-class value: no vertices, contradictory
inequality system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from . import dd
from .errors import SizeGuardError
from .linalg import (
    Vec,
    _echelon,
    _int_row,
    affine_hull,
    primitive,
    rank,
)

IneqRow = tuple[tuple[int, ...], int]

COMBINATORIAL_GUARD = 200  # vertices, in `combinatorially_equal`
STANDARD_KINDS = ("simplex", "cube", "crosspolytope")
SPEC_SIZE_GUARD = 256  # vertices or facets, in `standard`: cube:8 has 256


@dataclass(frozen=True)
class HRep:
    """Facet inequalities (normal . x <= offset) plus affine-hull
    equations (normal . x = offset), each row primitive integers."""

    inequalities: tuple[IneqRow, ...]
    equations: tuple[IneqRow, ...]


def _canonical_equations(eqs) -> tuple[IneqRow, ...]:
    """The canonical equation rows of a system: its reduced row echelon
    form, each row primitive with a positive leading entry.  The rows
    are cleared to ints first (input rows may hold Fractions) and swept
    once; a system that reduces to 0 = c ends in the row (0, c), c > 0."""
    rows = [_int_row([*normal, offset]) for normal, offset in eqs]
    pivots, _ = _echelon(rows, reduced=True)
    canon = []
    for row in rows[:len(pivots)]:
        p = primitive(row, orient=True)
        canon.append((p[:-1], p[-1]))
    return tuple(canon)


def _reduce_ineq(normal, offset, eqs, lead) -> IneqRow:
    """Zero the leading column p of each canonical equation (n, e) in an
    inequality row: row <- n_p row - row_p (n, e).  The multiplier n_p
    is > 0, so the inequality keeps its direction.  The steps are exact
    on Fraction entries too; `primitive` clears the result."""
    row = [*normal, offset]
    for (n, e), p in zip(eqs, lead):
        f = row[p]
        if f:
            n_p = n[p]
            row = [n_p * x - f * y for x, y in zip(row, (*n, e))]
    p = primitive(row)
    return p[:-1], p[-1]


def _canonical_hrep(ineqs, eqs) -> HRep:
    canon_eqs = _canonical_equations(eqs)
    if canon_eqs and not any(canon_eqs[-1][0]):
        # an equation reduced to 0 = c with c != 0: the canonical empty system
        return HRep(((canon_eqs[-1][0], -1),), ())
    lead = [next(i for i, x in enumerate(n) if x) for n, _ in canon_eqs]
    seen = set()
    rows = []
    for normal, offset in ineqs:
        n, c = _reduce_ineq(normal, offset, canon_eqs, lead)
        if not any(n):
            if c < 0:  # 0 <= c < 0: the canonical empty system
                return HRep(((n, c),), ())
            continue
        if (n, c) not in seen:
            seen.add((n, c))
            rows.append((n, c))
    rows.sort()
    return HRep(tuple(rows), canon_eqs)


Ray = tuple[int, ...]


class Polytope:
    """Bounded convex polytope in Q^ambient_dim: its vertices and `hrep`,
    its canonical facet system, derived from them on first use.

    `_vertex_rays()` gives the vertices as rays sorted by their points,
    the form `hrep`, `dim`, equality, containment and
    `combinatorially_equal` read.  A constructor passes either `rays`,
    primitive and sorted by their points, or (`from_inequalities`,
    `intersect`) `frame_rays`, the DD's rays in the frame of the
    canonical equations and those equations, lifted on first need
    (`_vertices_from_hrep`).  `vertices` makes the Fraction points on
    first read (`dd._ray_points`).  A constructor that passes `hrep`
    vouches for it."""

    __slots__ = ("ambient_dim", "_vertices", "_rays", "_frame_rays", "_hrep", "_dim")

    def __init__(self, ambient_dim: int, hrep: HRep | None = None,
                 rays: tuple[Ray, ...] | None = None,
                 frame_rays: tuple[list[Ray], tuple[IneqRow, ...]] | None = None):
        self.ambient_dim = ambient_dim
        self._vertices = None
        self._rays = rays
        self._frame_rays = frame_rays
        self._hrep = hrep
        self._dim = None

    # -- representations -------------------------------------------------

    def _vertex_rays(self) -> tuple[Ray, ...]:
        """The vertices as primitive integer rays (t, x), t > 0, sorted
        by their points x / t."""
        if self._rays is None:
            self._rays = _vertices_from_hrep(*self._frame_rays, self.ambient_dim)
        return self._rays

    @property
    def vertices(self) -> tuple[Vec, ...]:
        if self._vertices is None:
            self._vertices = tuple(dd._ray_points(self._vertex_rays()))
        return self._vertices

    @property
    def hrep(self) -> HRep:
        if self._hrep is None:
            self._hrep = _hrep_from_rays(self._vertex_rays(), self.ambient_dim)[0]
        return self._hrep

    @property
    def is_empty(self) -> bool:
        return self.n_vertices == 0

    @property
    def dim(self) -> int:
        if self._dim is None:
            if self.is_empty:
                self._dim = -1
            elif self._hrep is not None:  # its equations are the affine hull's
                self._dim = self.ambient_dim - len(self._hrep.equations)
            elif self._rays is None:
                # the DD's rays: the lift out of the frame is linear and injective
                self._dim = rank(self._frame_rays[0]) - 1
            else:  # the rays (t, x) are homogeneous
                self._dim = rank(self._vertex_rays()) - 1
        return self._dim

    @property
    def n_vertices(self) -> int:
        if self._rays is None:
            return len(self._frame_rays[0])
        return len(self._rays)

    @property
    def n_facets(self) -> int:
        return len(self.hrep.inequalities)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._vertex_rays() == other._vertex_rays())

    def __repr__(self):
        facets = "" if self._hrep is None else f", {len(self._hrep.inequalities)} facets"
        return f"Polytope(R^{self.ambient_dim}, {self.n_vertices} vertices{facets})"

    def contains(self, x: Vec) -> bool:
        return _contains_ray(self, _point_ray(self, x))


# -- conversions ---------------------------------------------------------


def _frame(equations, ambient: int) -> tuple[list[int], list[int]]:
    """The frame columns, those that lead no canonical equation, and the
    leading column of each equation."""
    lead = [next(i for i, x in enumerate(n) if x) for n, _ in equations]
    return [i for i in range(ambient) if i not in lead], lead


def _vertices_from_hrep(rays, equations, ambient: int) -> tuple[Ray, ...]:
    """The vertices of a canonical H-rep with these `equations`, as
    primitive rays in all coordinates sorted by their points, from the
    integer rays (t, c) that `dd.polytope_rays` gives for its
    inequalities restricted to the frame.

    The lift stays in integers: with L the lcm of the leading
    coefficients n_p, the vertex is (X_0, ..., X_ambient-1) / (t L),
    where a frame entry is X_i = c_i L and a leading one is
    X_p = (L / n_p) (e t - n . c) for the equation n . x = e.  Each
    leading column is zero in every other equation, so the entries
    already solved do not enter n . c.  Without equations the lift is
    the identity, and the DD's rays are already primitive.
    """
    if not equations:
        return tuple(dd._sorted_rays(rays))
    frame, lead = _frame(equations, ambient)
    eqs = [([n[i] for i in frame], e, p, n[p]) for (n, e), p in zip(equations, lead)]
    L = lcm(*(n_p for *_, n_p in eqs))
    lifted = []
    for t, *c in rays:
        x = [0] * ambient
        for i, ci in zip(frame, c):
            x[i] = ci * L
        for n, e, p, n_p in eqs:
            x[p] = L // n_p * (e * t - sum(a * b for a, b in zip(n, c)))
        lifted.append(tuple(_int_row([t * L, *x])))
    return tuple(dd._sorted_rays(lifted))


def _hrep_from_rays(rays, ambient: int) -> tuple[HRep, tuple[Ray, ...]]:
    """The facet system of the hull of the points x / t of `rays`, and
    the rays that are its vertices, in the given order.  The rays are
    distinct primitive integer rays (t, x), t > 0, best sorted by their
    points (the DD inserts one row per ray in that order).  Ray k is a
    vertex iff the AND of the bitsets of the facets through it is {k}
    (the module docstring has the proof)."""
    if not rays:
        return HRep((((0,) * ambient, -1),), ()), ()
    eqs = _canonical_equations(affine_hull(rays).equations)
    frame, _ = _frame(eqs, ambient)
    if not frame:  # a single point: no facets
        return HRep((), eqs), tuple(rays)
    rows = rays if len(frame) == ambient else [
        tuple(_int_row([r[0], *(r[i + 1] for i in frame)])) for r in rays]
    ineqs = []
    on = []  # per facet, the bitset of the points on it
    for ray in dd.cone_extreme_rays(rows):
        c, *a = ray
        normal = [0] * ambient
        for i, ai in zip(frame, a):
            normal[i] = -ai
        ineqs.append((normal, c))
        on.append(sum(1 << k for k, row in enumerate(rows)
                      if sum(x * y for x, y in zip(ray, row)) == 0))
    verts = []
    for k, r in enumerate(rays):
        bit = 1 << k
        common = (1 << len(rays)) - 1
        for m in on:
            if m & bit:
                common &= m
        if common == bit:
            verts.append(r)
    return _canonical_hrep(ineqs, eqs), tuple(verts)


# `bench/tracer.py` traces the conversion behind `Polytope.hrep` under
# this name
_hrep_from_vertices = _hrep_from_rays


# -- constructors ----------------------------------------------------------


def from_inequalities(ineqs, eqs, ambient_dim: int) -> Polytope:
    """Polytope from (normal, offset) inequality and equation rows.

    The rows may be redundant: they are canonicalised and converted by
    double description at once, the vertices kept as the DD's integer
    rays until first needed, and `hrep` is then derived from the
    vertices.  Raises UnboundedPolytopeError if the rows cut out an
    unbounded set.
    """
    hrep = _canonical_hrep(ineqs, eqs)
    frame, _ = _frame(hrep.equations, ambient_dim)
    rays = dd.polytope_rays([(tuple(n[i] for i in frame), c) for n, c in hrep.inequalities],
                            len(frame))
    return Polytope(ambient_dim, frame_rays=(rays, hrep.equations))


def _from_rays(rays, ambient: int) -> Polytope:
    """conv of the points x / t of primitive integer rays (t, x), t > 0
    (duplicates and points that are not vertices allowed), with its
    facet system and its vertices kept as rays."""
    hrep, verts = _hrep_from_rays(dd._sorted_rays(set(rays)), ambient)
    return Polytope(ambient, hrep=hrep, rays=verts)


def from_points(points, ambient_dim: int | None = None) -> Polytope:
    """Convex hull of a point list (duplicates and interior points allowed).

    Each point p is cleared once, to the primitive ray of (1, p)."""
    rays = [tuple(_int_row([1, *p])) for p in points]
    if not rays and ambient_dim is None:
        raise ValueError("empty point set with unknown ambient dimension")
    ambient = len(rays[0]) - 1 if ambient_dim is None else ambient_dim
    if any(len(r) != ambient + 1 for r in rays):
        raise ValueError("points of mixed dimension")
    return _from_rays(rays, ambient)


def standard(kind: str, n: int, allow_large: bool = False) -> Polytope:
    """The standard n-simplex, n-cube [-1,1]^n, or n-crosspolytope conv(+-e_i).

    Unless `allow_large`, one of more than SPEC_SIZE_GUARD vertices or
    facets (n + 1 for the simplex, else 2^n, computed only for n below
    the guard) raises SizeGuardError before anything is built."""
    if n < 1:
        raise ValueError(f"standard polytope needs n >= 1, got {n}")
    if kind not in STANDARD_KINDS:
        raise ValueError(f"unknown polytope kind {kind!r}")
    if not allow_large and (n >= SPEC_SIZE_GUARD
                            or kind != "simplex" and 2 ** n > SPEC_SIZE_GUARD):
        raise SizeGuardError(f"polytope '{kind}:{n}' has more than {SPEC_SIZE_GUARD} "
                             f"vertices or facets; pass --allow-large to build it")
    return _build_standard(kind, n)


def _build_standard(kind: str, n: int) -> Polytope:
    if kind == "simplex":
        rays = [(1, *(int(j == i) for j in range(n))) for i in range(-1, n)]
        ineqs = [(tuple(-(j == i) for j in range(n)), 0) for i in range(n)] + [((1,) * n, 1)]
    elif kind == "cube":
        rays = [(1, *signs) for signs in product((-1, 1), repeat=n)]
        ineqs = [(tuple(s * (j == i) for j in range(n)), 1) for i in range(n) for s in (-1, 1)]
    else:
        rays = [(1, *(s * (j == i) for j in range(n))) for i in range(n) for s in (-1, 1)]
        ineqs = [(signs, 1) for signs in product((-1, 1), repeat=n)]
    return Polytope(n, _canonical_hrep(ineqs, ()), rays=tuple(dd._sorted_rays(rays)))


# -- operations ------------------------------------------------------------


def polar_dual(P: Polytope) -> Polytope:
    """Dual polytope {y : y . x <= 1 for all x in P} (0 must be interior):
    P's facet n . x <= c is the vertex ray (c, n), its vertex ray (t, x)
    the facet x . y <= t."""
    d = P.ambient_dim
    if P.dim != d:
        raise ValueError("polar dual needs a full-dimensional polytope")
    h = P.hrep
    if any(c <= 0 for _, c in h.inequalities):
        raise ValueError("polar dual needs the origin in the interior")
    rays = tuple(dd._sorted_rays([(c, *n) for n, c in h.inequalities]))
    ineqs = [(x, t) for t, *x in P._vertex_rays()]
    return Polytope(d, hrep=_canonical_hrep(ineqs, ()), rays=rays)


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Intersection; may be lower-dimensional or empty.

    The DD starts from the cone over P, which it knows: P's rows
    (`_halfspaces`) cut out a pointed cone whose extreme rays are P's
    vertex rays, full-dimensional or not, each active on the rows tight
    at it (`_incidence`), and only Q's rows are inserted.  An empty P has
    no rays; an empty Q's row 0 . x <= -1 is negative on every ray.
    """
    d = P.ambient_dim
    if d != Q.ambient_dim:
        raise ValueError("intersection of polytopes in different ambient spaces")
    start = _halfspaces(P.hrep)
    rays = P._vertex_rays()
    masks = [_incidence(start, ray)[0] for ray in rays]
    rows = [(c, *(-a for a in n)) for n, c in start + _halfspaces(Q.hrep)]
    return Polytope(d, frame_rays=(
        dd.cone_extreme_rays(rows, start=(len(start), rays, masks)), ()))


def _halfspaces(h: HRep) -> list[IneqRow]:
    """The rows n . x <= c of `h`: each equation as (n, c) and (-n, -c),
    then the inequalities."""
    return [r for n, c in h.equations for r in ((n, c), (tuple(-a for a in n), -c))
            ] + list(h.inequalities)


def bipyramid(P: Polytope) -> Polytope:
    """conv(P x {0}, +-e_{n+1}) one dimension up.

    P's vertices stay vertices only when the origin lies in P's relative
    interior; any other P raises ValueError.
    """
    d = P.ambient_dim
    if not _contains_ray(P, (1,) + (0,) * d, strict=True):
        raise ValueError("bipyramid needs the origin in the relative interior of P")
    apexes = [(1,) + (0,) * d + (s,) for s in (-1, 1)]
    return Polytope(d + 1, rays=tuple(dd._sorted_rays([r + (0,) for r in P._vertex_rays()]
                                                      + apexes)))


def _point_ray(P: Polytope, x) -> tuple[int, ...]:
    """The primitive integer ray (t, t x) of a rational point x of P's space."""
    if len(x) != P.ambient_dim:
        raise ValueError(f"point of dimension {len(x)} in R^{P.ambient_dim}")
    return tuple(_int_row([1, *x]))


def _incidence(rows, ray) -> tuple[int, int]:
    """(tight, over): bitsets over the rows (n, c), bit k for row k, of
    those with n . x = c t and those with n . x > c t at the point x / t
    of an integer ray (t, x), t > 0.  Row entries may be Fractions, as
    the hom rows of a rational source are."""
    t, *x = ray
    tight = over = 0
    for k, (n, c) in enumerate(rows):
        s = sum([a * b for a, b in zip(n, x) if a])
        ct = c * t
        if s == ct:
            tight |= 1 << k
        elif s > ct:
            over |= 1 << k
    return tight, over


def _contains_ray(P: Polytope, ray, strict: bool = False) -> bool:
    """Does P, or with `strict` its interior relative to its affine hull,
    hold the point x / t of an integer ray (t, x), t > 0?  Iff every
    equation of P is tight, no facet row over and, with `strict`, none
    tight (`_incidence`); the empty P's row 0 . x <= -1 is over anywhere."""
    h = P.hrep
    on, _ = _incidence(h.equations, ray)
    tight, over = _incidence(h.inequalities, ray)
    return on.bit_count() == len(h.equations) and not over and not (strict and tight)


def _symmetric_core(Q: Polytope, ray) -> Polytope:
    """K = Q & (2b - Q) for a full-dimensional Q and the point b = y / t
    of an integer ray (t, y), t > 0, cut out in integers: Q's facets
    n . x <= c and, times t, their reflections n . (2b - x) <= c."""
    t, *y = ray
    rows = Q.hrep.inequalities
    return from_inequalities(rows + tuple(
        (tuple(-t * a for a in n), t * c - 2 * sum(a * b for a, b in zip(n, y)))
        for n, c in rows), (), Q.ambient_dim)


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
    mp, mq = ([_incidence(X.hrep.inequalities, ray)[0] for ray in X._vertex_rays()]
              for X in (P, Q))
    nf = P.n_facets

    fdeg_p, fdeg_q = ([sum(m >> j & 1 for m in masks) for j in range(nf)] for masks in (mp, mq))
    if sorted(fdeg_p) != sorted(fdeg_q):
        return False

    def colors(masks, fdeg):
        return [(m.bit_count(), tuple(sorted(fdeg[j] for j in range(nf) if m >> j & 1)))
                for m in masks]

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
