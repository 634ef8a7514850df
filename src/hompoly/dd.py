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
- Initial basis selection and the initial simplicial cone use the
  shared fraction-free elimination `linalg._echelon` (forward on the
  transposed rows, reduced on [B | I]), so Fractions appear only in the
  input rows and in the output vertices.
- After the initial basis, functionals are inserted in exactly the
  order given.  The order is the caller's choice: it can change the
  intermediate ray counts by orders of magnitude, never the result.
  Hom systems come in `homs.structured_row_order`; polytope conversions
  pass rows in the canonical sorted order they already hold.

The kernel requires a pointed cone, which is automatic for the
homogenization of a bounded (possibly lower-dimensional or empty)
polytope.  A rank-deficient input system means the cone contains a
line, i.e. the feasible set is unbounded or an affine subspace; that is
reported as UnboundedPolytopeError.
"""

from __future__ import annotations

import logging
import time
from fractions import Fraction
from math import gcd

from .errors import UnboundedPolytopeError
from .linalg import Vec, _echelon, _independent_rows, _int_row

__all__ = ["cone_extreme_rays", "polytope_vertices"]

log = logging.getLogger(__name__)


class _Ray:
    __slots__ = ("coords", "mask", "vals", "id")

    def __init__(self, coords, mask, vals):
        self.coords = coords
        self.mask = mask
        self.vals = vals
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


def cone_extreme_rays(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : r . y >= 0 for all r in rows}.

    Rays come back as primitive integer tuples in no particular order.
    Raises UnboundedPolytopeError when the rows do not have full column
    rank (the cone then contains a line).

    The rows outside the initial basis are inserted in the order given,
    so the caller picks the insertion order by ordering the rows.
    """
    rows = [row for row in rows if any(row)]
    if not rows:
        raise UnboundedPolytopeError("no constraints: feasible cone is all of space")
    dim = len(rows[0])
    n_rows = len(rows)

    basis_idx = _independent_rows(rows, dim)
    if len(basis_idx) < dim:
        raise UnboundedPolytopeError("constraint rows do not span; cone contains a line")

    # Initial simplicial cone from the basis rows B; its extreme rays are
    # the columns of B^-1.  Reduced elimination of [B | I] leaves row k as
    # D e_k | D (row k of B^-1) with D = +-det B, so column j of the right
    # half times the sign of D is a positive multiple of ray j.
    aug = [list(rows[i]) + [int(k == j) for j in range(dim)]
           for k, i in enumerate(basis_idx)]
    _echelon(aug, reduced=True)
    sign = 1 if aug[0][0] > 0 else -1

    basis = set(basis_idx)
    rest = [i for i in range(n_rows) if i not in basis]
    rays: list[_Ray] = []
    for j in range(dim):
        coords = _int_row([sign * row[dim + j] for row in aug])
        mask = 0
        for i, bi in enumerate(basis_idx):
            if i != j:
                mask |= 1 << bi
        vals = [0] * n_rows
        for i in rest:
            row = rows[i]
            vals[i] = sum(r * c for r, c in zip(row, coords))
        rays.append(_Ray(tuple(coords), mask, vals))

    # Adjacency is tested on id bitsets: cols[i] holds the ids of the rays
    # active on row i (dead ids may linger), live the ids of current rays,
    # and by_id[k] is the ray with id k.
    by_id: list[_Ray] = []
    cols = _bitsets(rays, n_rows, by_id)
    live = (1 << len(by_id)) - 1

    need = dim - 2  # active-set size needed for a 2-face

    trace = log.isEnabledFor(logging.DEBUG)
    for step, j in enumerate(rest, 1):
        rem = rest[step:]  # the rows still to insert
        t_step = time.perf_counter() if trace else 0.0

        pos: list[_Ray] = []
        neg: list[_Ray] = []
        zero: list[_Ray] = []
        bit_j = 1 << j
        for ray in rays:
            v = ray.vals[j]
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

            wv = w.vals[j]
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
                uv = u.vals[j]
                u_coords = u.coords
                coords = [uv * wc - wv * uc for wc, uc in zip(w_coords, u_coords)]
                g = 0
                for a in coords:
                    g = gcd(g, a)
                u_vals = u.vals
                if g > 1:
                    coords = [a // g for a in coords]
                    vals = [0] * n_rows
                    for i in rem:
                        vals[i] = (uv * w_vals[i] - wv * u_vals[i]) // g
                else:
                    vals = [0] * n_rows
                    for i in rem:
                        vals[i] = uv * w_vals[i] - wv * u_vals[i]
                newborn.append(_Ray(tuple(coords), s | bit_j, vals))

        rays = [r for r in rays if r.vals[j] >= 0] + newborn
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


def polytope_vertices(ineqs, dim: int) -> list[Vec]:
    """Vertices of {x in R^dim : normal . x <= offset for all inequalities}.

    Inequalities are (normal, offset) pairs with integer-valued rational
    entries accepted.  Returns the lexicographically sorted vertex list;
    raises UnboundedPolytopeError if the feasible set has a recession
    direction.  An empty feasible set yields an empty list.  The kernel
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
        return [()]

    rays = cone_extreme_rays(rows)
    if any(ray[0] <= 0 for ray in rays):
        raise UnboundedPolytopeError("feasible set has a recession direction")
    # Two different points c/t and c'/t' differ by at least 1/(t t') > 2^-K
    # in their first differing coordinate, so the integer keys
    # floor(c 2^K / t) order the points exactly.
    K = 2 * max((ray[0] for ray in rays), default=1).bit_length()
    rays.sort(key=lambda ray: [(c << K) // ray[0] for c in ray[1:]])
    return [tuple(Fraction(c, ray[0]) for c in ray[1:]) for ray in rays]
