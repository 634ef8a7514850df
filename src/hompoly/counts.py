"""Closed-form vertex counts, bounds, and the centered simplex count beta.

The counting functions evaluate the exact vertex-count formulas for the
mapping polytopes between cubes, simplices, and crosspolytopes, with a
per-rank term breakdown.  `COUNT_FAMILIES` names each family's source
and target kinds next to its closed form; the enumeration that checks it
is the cached vertex-map list in `verify`, not code here.

The crosspolytope families sum r_k(m), the number of rank-k vertex maps
of the m-crosspolytope onto a k-simplex, over the target's faces: r_0 =
1, and r_k(m) = sigma(m, k) beta(k) for k <= 3 and for k = m, where
every rank-k image is a crosspolytope; any other r_k(m), such as r_4(5),
comes from a `high_rank_table` of enumerated counts.

`beta(n)` counts the orbits of the signed permutation group on ordered
(n+1)-tuples of cube vertices whose convex hull is a full-dimensional
simplex with the origin strictly inside.  The group acts freely on these
tuples and transitively on cube vertices, so the orbit count is the
number of such vertex sets that contain the vertex (-1, ..., -1); the
proof is in `beta`'s docstring.

Whether the origin is strictly inside is decided by the signs of
cofactors: n+1 determinants of n x n integer matrices, one per point
left out, which must be nonzero and alternate in sign
(`origin_strictly_inside`).  The subset enumeration does not test the
subsets one by one.  It extends each n-point prefix by a last point
picked from a bitmask over the cube vertices: each determinant with the
last point in it is the cofactor vector of an (n-1)-point face dotted
with that point, so the admissible last points are an AND of one
half-space mask per face.  At n = 5 the 169,911 anchored subsets come
from 31,465 prefixes and 4,391 cofactor vectors (264 distinct), each
read by Laplace expansion off the minors of the face's proper row
prefixes, which faces share: no elimination runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, factorial

from .errors import SizeGuardError
from .linalg import int_det

BETA_GUARD = 5


def stirling2(m: int, n: int) -> int:
    """Number of partitions of m labeled objects into n nonempty blocks, by
    S(i, k) = k S(i-1, k) + S(i-1, k-1) bottom-up, one row of k <= n at a time."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    if n >= m:
        return int(n == m)
    row = [1] + [0] * n  # S(0, k)
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return row[n]


def surjections(m: int, n: int) -> int:
    """Number of surjective maps {1..m} -> {1..n}."""
    return factorial(n) * stirling2(m, n)


def sigma(m: int, n: int) -> int:
    """Maps {1..m} -> {+-1..+-n} whose absolute values cover {1..n}."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return 2**m * surjections(m, n)


# -- centered simplex tuples in the cube -----------------------------------


def cube_vertices(n: int) -> list[tuple[int, ...]]:
    return [tuple(s) for s in product((-1, 1), repeat=n)]


def _signs_agree(values) -> bool:
    """Are all the values nonzero and of one sign?  Stops at the first
    value that is zero or of the other sign."""
    first = 0
    for v in values:
        if v == 0 or (first and (v > 0) != (first > 0)):
            return False
        first = v
    return True


def origin_strictly_inside(points) -> bool:
    """Is 0 interior to the full-dimensional simplex spanned by the points?

    points is an (n+1)-tuple of integer points in R^n.  Exact, by the
    cofactor-sign test: with D_i the n x n determinant of the points
    other than point i, the barycentric coordinate of 0 at point i is
    (-1)^i D_i / sum_j (-1)^j D_j.  So 0 is strictly inside iff every
    (-1)^i D_i is nonzero and all have the same sign (which also makes
    the simplex full-dimensional).
    """
    n = len(points) - 1
    return _signs_agree(
        (-1) ** i * int_det([points[j][:n] for j in range(n + 1) if j != i])
        for i in range(n + 1))


def _half_space_masks(C, points) -> tuple[int, int]:
    """Bitmasks over the points' indices of C . p < 0 and of C . p > 0."""
    neg = pos = 0
    for k, p in enumerate(points):
        t = sum(c * x for c, x in zip(C, p))
        if t > 0:
            pos |= 1 << k
        elif t < 0:
            neg |= 1 << k
    return neg, pos


def _laplace_steps(n: int) -> list[tuple]:
    """The Laplace expansions that build cofactor vectors of n - 1 rows
    of length n, one row at a time.

    W_k[S] is the minor of the first k rows on the columns S = (s_0 <
    ... < s_{k-1}); expanded along row k it is sum_p (-1)^(k-1+p)
    r_k[s_p] W_{k-1}[S minus s_p].  Step k - 1 lists, per minor, its
    terms (sign, s_p, position of S minus s_p among the (k-1)-subsets in
    `combinations(range(n), k - 1)` order).  Steps k < n - 1 give every
    W_k[S], S in `combinations` order; the last step gives the cofactors
    C_j = (-1)^(n-1+j) W_{n-1}[range(n) minus j], j = 0..n-1, with that
    sign folded into the terms.
    """
    steps = []
    for k in range(1, n):
        at = {S: i for i, S in enumerate(combinations(range(n), k - 1))}
        if k < n - 1:
            minors = [(0, S) for S in combinations(range(n), k)]
        else:
            minors = [(n - 1 + j, tuple(c for c in range(n) if c != j)) for j in range(n)]
        steps.append(tuple(
            tuple(((-1) ** (k - 1 + p + e), s, at[S[:p] + S[p + 1:]]) for p, s in enumerate(S))
            for e, S in minors))
    return steps


def _expand(W, row, step) -> tuple[int, ...]:
    """The minors (or cofactors) of one more row from those of its prefix."""
    return tuple([sum([sign * row[s] * W[i] for sign, s, i in terms]) for terms in step])


def _face_cofactors(n: int, rows):
    """Function from a face, an index tuple of n - 1 of the rows (integer
    rows of length n), to its cofactor vector: the integer C with C . v
    = det(face rows + [v]) for every v, zero when the face is singular.

    The minors of each proper prefix of a face are kept for the length
    of the returned function's life, so faces that share a prefix share
    its minors, and a face whose proper prefixes are all known costs
    n (n - 1) products.  The faces themselves are not kept.
    """
    steps = _laplace_steps(n)
    if not steps:  # n = 1: the empty face, det([v]) = v
        return lambda face: (1,)
    leaf = steps.pop()
    minors = {(): (1,)}

    def cofactor(face):
        k = len(face) - 1
        j = k
        while face[:j] not in minors:
            j -= 1
        W = minors[face[:j]]
        for r in range(j, k):
            W = minors[face[:r + 1]] = _expand(W, rows[face[r]], steps[r])
        return _expand(W, rows[face[k]], leaf)

    return cofactor


def _valid_subsets(n: int, require_first=None):
    """(n+1)-subsets of cube vertices spanning a centered simplex.

    With require_first, only subsets containing that vertex are visited
    (the symmetry group is transitive on cube vertices, so counts for
    the full set follow by scaling).

    The subsets are those that pass the cofactor-sign test of
    `origin_strictly_inside` with the points in index order (the anchor
    first), found as n-point prefixes p_0, ..., p_{n-1} and a last point
    v.  Left-out point i < n gives D_i = det(F_i + [v]) = C_i . v, with
    F_i the prefix without p_i and C_i its cofactor vector, and D_n =
    det(prefix) fixes the sign each D_i needs.  So the admissible last
    points are one AND of bitmasks over the cube vertices: the indices
    above the prefix, and per face F_i the half-space {v : sign(C_i . v)
    = (-1)^(n-i) sign(D_n)}.  Each face's cofactor vector is computed
    once, by `_face_cofactors` from the minors of the face's proper
    prefixes (faces holding the anchor all start with it, and the
    prefixes of one (n-1)-subset are shared by every face extending
    them), and each vector's two half-space masks once, cached for the
    length of the call; no elimination runs.  The faces holding the
    anchor are shared by many prefixes and tested first; F_0, the face
    without it, comes last and is computed only while candidates are
    left.  Candidate bits are read in ascending order, so the subsets
    come in the order of `combinations`, the order the per-subset test
    visited them in.
    """
    verts = cube_vertices(n)
    if require_first is None:
        head, pool = (), range(len(verts))
    else:
        a = verts.index(tuple(require_first))
        head, pool = (a,), [k for k in range(len(verts)) if k != a]
    pool_mask = sum(1 << k for k in pool)
    cofactor = _face_cofactors(n, verts)
    faces = {}  # face index tuple -> half-space masks of its cofactor vector
    halves = {}  # cofactor vector -> (mask of C . v < 0, mask of C . v > 0)

    def half_spaces(face):
        C = cofactor(face)
        masks = halves.get(C)
        if masks is None:
            masks = halves[C] = _half_space_masks(C, verts)
        faces[face] = masks
        return masks

    # face i needs the sign (-1)^(n-i) sign(D_n), so it takes the mask
    # C . v > 0 iff (n - i even) == (D_n > 0); face 0 comes last
    order = {positive: [(i, ((n - i) % 2 == 0) == positive) for i in range(n - 1, -1, -1)]
             for positive in (False, True)}
    for rest in combinations(pool, n - len(head)):
        cand = pool_mask >> (rest[-1] + 1) << (rest[-1] + 1) if rest else pool_mask
        if not cand:
            continue
        prefix = head + rest
        # D_n = C_{n-1} . p_{n-1}: its sign is the side of p_{n-1}
        face = prefix[:-1]
        neg, pos = faces.get(face) or half_spaces(face)
        last = 1 << prefix[-1]
        if not (neg | pos) & last:
            continue
        for i, side in order[bool(pos & last)]:
            face = prefix[:i] + prefix[i + 1:]
            cand &= (faces.get(face) or half_spaces(face))[side]
            if not cand:
                break
        else:
            points = tuple(verts[k] for k in prefix)
            while cand:
                low = cand & -cand
                yield points + (verts[low.bit_length() - 1],)
                cand ^= low


def beta(n: int) -> int:
    """Orbit count of the signed permutation group on the ordered
    (n+1)-tuples of cube vertices that span a simplex with the origin
    strictly inside.

    The lemma: the count equals the number of such vertex sets that
    contain a = (-1, ..., -1).  A signed permutation g is linear, and
    the points of a tuple span R^n (they are affinely independent with 0
    in their hull), so g fixes a tuple only if g is the identity: the
    action is free, and each orbit has 2^n n! tuples.  g maps valid
    sets to valid sets and is transitive on the 2^n cube vertices, so
    each vertex lies in the same number N_a of valid sets, and the
    N = 2^n N_a / (n+1) sets give (n+1)! N = 2^n n! N_a tuples.  Dividing
    by the group order leaves N_a.
    """
    if n > BETA_GUARD:
        raise SizeGuardError(f"beta guarded to n <= {BETA_GUARD}")
    if n < 1:
        raise ValueError("need n >= 1")
    return sum(1 for _ in _valid_subsets(n, require_first=(-1,) * n))


# -- count reports ----------------------------------------------------------


@dataclass
class CountReport:
    """Closed-form count; `enumerated` is set by a caller that also
    enumerated the family's vertex maps."""

    family: str
    m: int
    n: int
    closed_form: int
    terms: dict[str, int] = field(default_factory=dict)
    enumerated: int | None = None

    @property
    def agreement(self) -> bool | None:
        if self.enumerated is None:
            return None
        return self.enumerated == self.closed_form


def count_box_simplex(m: int, n: int) -> CountReport:
    """Vertex count of the cube-to-simplex mapping polytope: (n+1)(mn+1)."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    terms = {"rank-0": n + 1, "rank-1": (n + 1) * m * n}
    return CountReport("box-simplex", m, n, (n + 1) * (m * n + 1), terms)


def _diamond_rank_counts(m: int, n_cap: int, high_rank_table) -> dict[int, int]:
    """r_k(m) for k = 0..n_cap, by the rule of the module docstring."""
    counts = {0: 1}
    for k in range(1, n_cap + 1):
        if k <= 3 or k == m:  # 2^m, 0 and sigma(m, 3) for k = 1, 2, 3
            counts[k] = sigma(m, k) * beta(k)
        elif high_rank_table is None or k not in high_rank_table:
            raise ValueError(
                f"rank-{k} vertex count required; supply high_rank_table[{k}] "
                f"from an enumeration run")
        else:
            counts[k] = high_rank_table[k]
    return counts


def count_diamond_simplex(m: int, n: int,
                          high_rank_table: dict[int, int] | None = None) -> CountReport:
    """Vertex count of the crosspolytope-to-simplex mapping polytope."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    per_rank = _diamond_rank_counts(m, min(m, n), high_rank_table)
    terms = {f"rank-{k}": comb(n + 1, k + 1) * c for k, c in per_rank.items()}
    return CountReport("diamond-simplex", m, n, sum(terms.values()), terms)


def count_diamond_diamond(m: int, n: int,
                          high_rank_table: dict[int, int] | None = None) -> CountReport:
    """Vertex count of the crosspolytope-to-crosspolytope mapping polytope.

    Maps whose center image is interior contribute 2^m n^m (they send
    vertices to vertices, antipodally); the rest land in proper faces
    and reduce to the crosspolytope-to-simplex counts.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    per_rank = _diamond_rank_counts(m, min(m, n - 1), high_rank_table)
    terms = {"center-interior": 2**m * n**m}
    for k, c in per_rank.items():
        terms[f"rank-{k}"] = 2 ** (k + 1) * comb(n, k + 1) * c
    return CountReport("diamond-diamond", m, n, sum(terms.values()), terms)


# family name -> (source kind, target kind, closed-form count)
COUNT_FAMILIES = {
    "box-simplex": ("cube", "simplex", count_box_simplex),
    "diamond-simplex": ("crosspolytope", "simplex", count_diamond_simplex),
    "diamond-diamond": ("crosspolytope", "crosspolytope", count_diamond_diamond),
}


def bound_box_diamond(m: int, n: int) -> int:
    """Lower bound for the cube-to-crosspolytope vertex count:
    2n + 2mn(2n-1) + 2mn(m-1)(n-1)."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    return 2 * n + 2 * m * n * (2 * n - 1) + 2 * m * n * (m - 1) * (n - 1)


def intersection_bound(n: int) -> int:
    """Upper bound for the vertex count of an intersection of two
    n-simplices: C(2n+2, n+2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return comb(2 * n + 2, n + 2)


def rank_k_sandwich(m: int, k: int) -> tuple[int, int]:
    """Lower and upper bounds for the rank-k vertex-map count from the
    m-crosspolytope onto a k-simplex."""
    if not 1 <= k <= m:
        raise ValueError(f"rank sandwich needs 1 <= k <= m, got m={m}, k={k}")
    lo = sigma(m, k) * beta(k)
    hi = (2**k * factorial(m) // factorial(m - k)) * intersection_bound(k) ** (m - k) * beta(k)
    return lo, hi
