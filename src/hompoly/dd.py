"""Double description kernel over exact integer arithmetic.

Vertex enumeration runs on the homogenization cone of the polytope: a
point x satisfying a . x <= b corresponds to the ray (1, x), and the
inequality to the linear functional (b, -a) applied to homogeneous
coordinates.  The kernel maintains the extreme rays of the cone cut out
by the functionals processed so far, inserting one functional at a
time.

Representation choices, all in service of exactness and speed:

- Rays are primitive integer vectors (gcd 1).  New rays are positive
  integer combinations of an adjacent (positive, negative) pair, so no
  rational arithmetic happens in the loop.
- Each ray keeps its values only on the rows still to insert, as a
  stack with the next row last.  Every insertion pops the value on its
  row from every live ray before any ray is made, and a new ray's stack
  is the same combination of its parents' popped stacks, so all live
  stacks hold the same rows in the same order and shrink as rows go in.
  No memory goes to rows already inserted; a value is still computed
  once per ray and row, at the seed or as a combination.
- Active constraint sets are bitmasks over the row indices.  Two rays
  are adjacent iff no third extreme ray's active set contains the
  intersection of theirs (the standard combinatorial test, exact when
  the maintained set is precisely the extreme rays; Fukuda & Prodon
  1996).  All per-pair work runs word-parallel on bitsets over ray ids:
  each row keeps the set of ids of the rays active on it.
- Candidates by a bit-sliced count.  For a negative ray w, the row sets
  of w's active rows, restricted to the positive rays, are summed into
  a few bit-planes with a ripple adder; comparing the planes with
  dim - 2 gives at once the ids of the positive rays that share enough
  active rows with w to span a 2-face with it.  They are taken in
  ascending id order, which is the order of the ray list.
- Witness sweep.  A pair (u, w) with common active set s is not
  adjacent iff some third live ray r is active on every row of s; the
  full test ANDs the live rays other than u and w with the set of every
  row of s.  Every r the test leaves also refutes each later candidate
  v of w with v.mask & w.mask inside r.mask, that is each v active on
  no row of w.mask & ~r.mask, so one bitset expression per witness
  removes them all from w's candidates (r itself kept).  The full test
  runs only on the candidates that survive every sweep.
- Input rows are cleared to primitive integer rows by the shared
  `linalg._int_row` (multiply by the lcm of the denominators, divide by
  the content; positive scalings only, so each inequality keeps its
  direction).  A row whose normal clears to zero reads 0 <= c: it is
  dropped for c >= 0 and makes the set empty for c < 0.
- Two ways to start, one insertion loop.  Cold, for a bare inequality
  system: a basis of rows is chosen and its simplicial cone built by
  the shared fraction-free elimination `linalg._echelon` (forward on
  the transposed rows, reduced on [B | I]), so no Fraction arises in
  the kernel.  From a known cone (`start`): the caller hands over the
  extreme rays of the cone cut out by a prefix of the rows, with each
  ray's active-row bitset, and only the remaining rows are inserted;
  `polytope.intersect` starts so from its first operand's vertex rays,
  full-dimensional or not, and their incidences with that operand's
  equation and facet rows.  `polytope_rays` returns the integer rays
  themselves, and `_sorted_rays` puts them in the lexicographic order
  of their points c / t without building those points.  A vertex map is such a ray
  (`homs.AffineMap.from_ray`, for `enumerate_vertex_maps` and `hompoly
  vertices` alike), and so is a vertex of a `polytope.Polytope`
  (sorted by `_sorted_rays`), so Fractions appear only in the input rows and,
  for `Polytope.vertices`, in the output points.
- After the initial cone, functionals are inserted in exactly the
  order given.  The order is the caller's choice: it can change the
  intermediate ray counts by orders of magnitude, never the result.
  Hom systems come in `homs.structured_row_order` (facet by facet when
  the target has no more facets than the source has vertices, vertex by
  vertex otherwise); polytope conversions pass rows in the canonical
  sorted order they already hold.

The kernel requires a pointed cone, which is automatic for the
homogenization of a bounded (possibly lower-dimensional or empty)
polytope.  A rank-deficient input system means the cone contains a
line, so the feasible set is empty or unbounded; `cone_extreme_rays`
raises UnboundedPolytopeError, and `polytope_rays` tells the two apart
by a second DD on the rows restricted to their pivot columns, giving []
for an empty set and re-raising for an unbounded one.
"""

from __future__ import annotations

import logging
import time
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import UnboundedPolytopeError
from .linalg import Vec, _echelon, _independent_rows, _int_row

__all__ = ["cone_extreme_rays", "polytope_rays"]

log = logging.getLogger(__name__)


class _Ray:
    __slots__ = ("coords", "mask", "vals", "val", "id")

    def __init__(self, coords, mask, vals):
        self.coords = coords
        self.mask = mask
        self.vals = vals  # values on the rows still to insert, the next last
        self.val = 0  # value on the row being inserted
        self.id = -1


def _bitsets(rays: list[_Ray], n_rows: int, by_id: list[_Ray]) -> list[int]:
    """Give rays[k] the next free id len(by_id) + k and append it to
    by_id; return, per row, the id bitset of the given rays active on
    that row."""
    first = len(by_id)
    by_id.extend(rays)
    for k, ray in enumerate(rays, first):
        ray.id = k
    if not rays:
        return [0] * n_rows
    # transpose the masks as binary strings: character n_rows - 1 - i of
    # each string is the ray's bit for row i
    fmt = f"0{n_rows}b"
    cols = [int("".join(col[::-1]), 2) << first
            for col in zip(*[format(ray.mask, fmt) for ray in rays])]
    cols.reverse()
    return cols


def _id_set(rays: list[_Ray], n_ids: int) -> int:
    buf = bytearray((n_ids + 7) >> 3)
    for ray in rays:
        buf[ray.id >> 3] |= 1 << (ray.id & 7)
    return int.from_bytes(buf, "little")


def cone_extreme_rays(rows: list[tuple[int, ...]],
                      start: tuple[int, list[tuple[int, ...]], list[int]] | None = None,
                      ) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : r . y >= 0 for all r in rows}.

    Rays come back as primitive integer tuples in no particular order.
    Raises UnboundedPolytopeError when the rows do not have full column
    rank (the cone then contains a line).

    The rows outside the initial basis are inserted in the order given,
    so the caller picks the insertion order by ordering the rows.

    With `start` = (k, rays, masks) the kernel starts from a known cone
    instead: `rays` are the extreme rays, primitive, of the pointed cone
    that rows[:k] cut out, and masks[i] the bitset of the rows among
    rows[:k] on which rays[i] is zero.  Only rows[k:] are inserted, in
    the order given; no basis is chosen and no rank is checked.
    """
    if start is None:
        rows = [row for row in rows if any(row)]
        if not rows:
            raise UnboundedPolytopeError("no constraints: feasible cone is all of space")
        dim = len(rows[0])
        basis_idx = _independent_rows(rows, dim)
        if len(basis_idx) < dim:
            raise UnboundedPolytopeError("constraint rows do not span; cone contains a line")
        # Initial simplicial cone from the basis rows B; its extreme rays
        # are the columns of B^-1.  Reduced elimination of [B | I] leaves
        # row k as D e_k | D (row k of B^-1) with D = +-det B, so column j
        # of the right half times the sign of D is a positive multiple of
        # ray j, active on every basis row but the j-th.
        aug = [list(rows[i]) + [int(k == j) for j in range(dim)]
               for k, i in enumerate(basis_idx)]
        _echelon(aug, reduced=True)
        sign = 1 if aug[0][0] > 0 else -1
        all_basis = sum(1 << i for i in basis_idx)
        seeds = [(tuple(_int_row([sign * row[dim + j] for row in aug])),
                  all_basis ^ 1 << basis_idx[j]) for j in range(dim)]
        rest = [i for i in range(len(rows)) if not all_basis >> i & 1]
    else:
        k, start_rays, masks = start
        if not start_rays:
            return []
        dim = len(start_rays[0])
        seeds = list(zip(start_rays, masks))
        rest = list(range(k, len(rows)))
    n_rows = len(rows)

    rays = [_Ray(coords, mask, [sum(map(mul, rows[i], coords)) for i in reversed(rest)])
            for coords, mask in seeds]

    # Adjacency is tested on id bitsets: cols[i] holds the ids of the rays
    # active on row i (dead ids may linger), live the ids of current rays,
    # and by_id[k] is the ray with id k.
    by_id: list[_Ray] = []
    cols = _bitsets(rays, n_rows, by_id)
    live = (1 << len(by_id)) - 1

    need = dim - 2  # active-set size needed for a 2-face

    trace = log.isEnabledFor(logging.DEBUG)
    for step, j in enumerate(rest, 1):
        t_step = time.perf_counter() if trace else 0.0

        pos: list[_Ray] = []
        neg: list[_Ray] = []
        zero: list[_Ray] = []
        bit_j = 1 << j
        for ray in rays:
            ray.val = v = ray.vals.pop()
            if v > 0:
                pos.append(ray)
            elif v < 0:
                neg.append(ray)
            else:
                ray.mask |= bit_j
                zero.append(ray)
        n_ids = len(by_id)
        cols[j] = _id_set(zero, n_ids)
        pos_ids = _id_set(pos, n_ids)
        pos_cols = [c & pos_ids for c in cols]

        newborn: list[_Ray] = []
        n_cands = n_hits = n_tests = 0
        for w in neg:
            w_mask = w.mask
            if need <= 0:  # cone dimension <= 2: no row count to reach
                cands = pos_ids
            else:
                # Bit-sliced count: planes[k] holds bit k of the number of
                # rows of w on which each positive ray is active.
                planes: list[int] = []
                m = w_mask
                while m:
                    b = m & -m
                    m ^= b
                    v = pos_cols[b.bit_length() - 1]
                    for k, p in enumerate(planes):
                        if not v:
                            break
                        planes[k] = p ^ v
                        v &= p
                    else:
                        if v:
                            planes.append(v)
                # compare the counts with need from the top bit down: tied
                # holds the ids whose higher bits equal need's, cands those
                # already above need; at the end cands is count >= need
                cands = 0
                tied = pos_ids
                for k in range(max(len(planes), need.bit_length()) - 1, -1, -1):
                    p = planes[k] if k < len(planes) else 0
                    if need >> k & 1:
                        tied &= p
                    else:
                        cands |= tied & p
                        tied &= ~p
                cands |= tied
            n_cands += cands.bit_count()

            wv = w.val
            w_coords = w.coords
            w_vals = w.vals
            others = live ^ (1 << w.id)
            while cands:
                bit_u = cands & -cands
                cands ^= bit_u
                u = by_id[bit_u.bit_length() - 1]
                s = u.mask & w_mask
                # (u, w) is not adjacent iff a third live ray is active on
                # every row of s
                n_tests += 1
                x = others ^ bit_u
                m = s
                while m:
                    b = m & -m
                    x &= cols[b.bit_length() - 1]
                    if not x:
                        break
                    m ^= b
                if x:
                    # each witness r also refutes every remaining candidate v
                    # with v.mask & w.mask inside r.mask, i.e. every v active
                    # on no row of w.mask & ~r.mask (r itself excepted)
                    n_left = cands.bit_count()
                    while x and cands:
                        bit_r = x & -x
                        x ^= bit_r
                        keep = bit_r
                        m = w_mask & ~by_id[bit_r.bit_length() - 1].mask
                        while m:
                            b = m & -m
                            keep |= pos_cols[b.bit_length() - 1]
                            m ^= b
                        cands &= keep
                    n_hits += n_left - cands.bit_count()
                    continue
                uv = u.val
                coords = [uv * wc - wv * uc for wc, uc in zip(w_coords, u.coords)]
                g = gcd(*coords)
                if g > 1:
                    coords = [a // g for a in coords]
                    vals = [(uv * a - wv * b) // g for a, b in zip(w_vals, u.vals)]
                else:
                    vals = [uv * a - wv * b for a, b in zip(w_vals, u.vals)]
                newborn.append(_Ray(tuple(coords), s | bit_j, vals))

        rays = [r for r in rays if r.val >= 0] + newborn
        if trace:
            log.debug("insert %d/%d row %d: rays %d, negative %d, candidates %d, "
                      "witness hits %d, full tests %d, new %d, %.2fs",
                      step, len(rest), j, len(rays), len(neg), n_cands,
                      n_hits, n_tests, len(newborn), time.perf_counter() - t_step)
        if not rays:
            return []

        if n_ids + len(newborn) > 2 * len(rays):
            # more ids dead than live: renumber the current rays from 0
            by_id = []
            cols = _bitsets(rays, n_rows, by_id)
            live = (1 << len(by_id)) - 1
        else:
            live ^= _id_set(neg, n_ids)
            new_cols = _bitsets(newborn, n_rows, by_id)
            cols = [a | b for a, b in zip(cols, new_cols)]
            live |= ((1 << len(newborn)) - 1) << n_ids

    return [r.coords for r in rays]


def polytope_rays(ineqs, dim: int) -> list[tuple[int, ...]]:
    """Vertices of {x in R^dim : normal . x <= offset for all inequalities}
    as primitive integer rays (t, c_1, ..., c_dim) with t > 0, the vertex
    being x = c / t.

    Inequalities are (normal, offset) pairs with integer-valued rational
    entries accepted.  Rays come back in no particular order; raises
    UnboundedPolytopeError if the feasible set has a recession direction.
    An empty feasible set yields an empty list, also when the normals do
    not span (only then does a second, smaller DD run).  The kernel
    inserts the inequalities in the order given (the homogenizing row
    1 >= 0 last), so their order changes only the running time.
    """
    rows: list[tuple[int, ...]] = []
    for normal, offset in ineqs:
        ints = _int_row([offset] + [-x for x in normal])
        if not any(ints[1:]):
            if ints[0] < 0:
                return []  # 0 <= negative: infeasible
            continue
        rows.append(tuple(ints))
    rows.append(tuple([1] + [0] * dim))

    if dim == 0:
        return [(1,)]

    try:
        rays = cone_extreme_rays(rows)
    except UnboundedPolytopeError:
        # The cone is C + L with L the nullspace of the rows and C the
        # pointed cone of the rows restricted to their pivot columns.  The
        # row 1 >= 0 makes column 0 a pivot and t = 0 on L, so the set is
        # empty iff no extreme ray of C has t > 0; otherwise it holds a line.
        pivots = _echelon([list(row) for row in rows])[0]
        if any(ray[0] > 0 for ray in
               cone_extreme_rays([tuple(row[c] for c in pivots) for row in rows])):
            raise
        return []
    if any(ray[0] <= 0 for ray in rays):
        raise UnboundedPolytopeError("feasible set has a recession direction")
    return rays


def _sorted_rays(rays) -> list[tuple[int, ...]]:
    """Integer rays (t, c) with t > 0 sorted by their points c / t,
    lexicographically.  The rays need not be primitive."""
    # Two different points c/t and c'/t' differ by at least 1/(t t') > 2^-K
    # in their first differing coordinate, so the integer keys
    # floor(c 2^K / t) order the points exactly.
    K = 2 * max((ray[0] for ray in rays), default=1).bit_length()
    return sorted(rays, key=lambda ray: [(c << K) // ray[0] for c in ray[1:]])


def _ray_points(rays) -> list[Vec]:
    """The points c / t of integer rays (t, c) with t > 0, in the given
    order.  The rays need not be primitive."""
    return [tuple(Fraction(c, ray[0]) for c in ray[1:]) for ray in rays]
