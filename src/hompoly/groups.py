"""Signed permutations and orbit counting.

The group of signed permutations on n axes (order 2^n n!) is the full
symmetry group of both the n-cube and the n-crosspolytope.  Elements
act on points by permuting coordinates and flipping signs; the action
on ordered tuples of points is componentwise and never reorders the
tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import SizeGuardError

GROUP_SIZE_GUARD = 6


@dataclass(frozen=True)
class SignedPermutation:
    """Axis permutation with signs: (g.x)[perm[i]] = signs[i] * x[i]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("not a signed permutation")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @property
    def n(self) -> int:
        return len(self.perm)


def identity_element(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(n)), (1,) * n)


def compose(g: SignedPermutation, h: SignedPermutation) -> SignedPermutation:
    """g after h: (g*h).x = g.(h.x)."""
    perm = tuple(g.perm[h.perm[i]] for i in range(h.n))
    signs = tuple(h.signs[i] * g.signs[h.perm[i]] for i in range(h.n))
    return SignedPermutation(perm, signs)


def inverse(g: SignedPermutation) -> SignedPermutation:
    perm = [0] * g.n
    signs = [1] * g.n
    for i in range(g.n):
        perm[g.perm[i]] = i
        signs[g.perm[i]] = g.signs[i]
    return SignedPermutation(tuple(perm), tuple(signs))


def enumerate_group(n: int) -> list[SignedPermutation]:
    """All 2^n n! signed permutations, in a fixed deterministic order."""
    if n > GROUP_SIZE_GUARD:
        raise SizeGuardError(f"signed permutation group guarded to n <= {GROUP_SIZE_GUARD}")
    out = []
    for perm in permutations(range(n)):
        for signs in product((-1, 1), repeat=n):
            out.append(SignedPermutation(perm, signs))
    return out


def act_point(g: SignedPermutation, x):
    """Apply a signed permutation to a point (any scalar type)."""
    if len(x) != g.n:
        raise ValueError("dimension mismatch")
    y = [None] * g.n
    for i in range(g.n):
        y[g.perm[i]] = g.signs[i] * x[i]
    return tuple(y)


def act_tuple(g: SignedPermutation, t):
    """Componentwise action on an ordered tuple of points."""
    return tuple(act_point(g, x) for x in t)


def orbit_count(tuples, group) -> tuple[int, bool]:
    """Number of orbits of the group on a set of ordered point tuples.

    The set must be closed under the action (checked while sweeping).
    Also reports whether the action is free (every orbit has full group
    size).  Deterministic: orbit representatives are visited in sorted
    order.

    The sweep acts on point ids: the distinct points of the set are
    numbered in sorted order, and each element's move table (the id of
    the image of every point) is computed once, with one `act_point` per
    element and point.  Ids keep the order of the points, so sorting id
    tuples visits the representatives in the same order.
    """
    pool = set(tuples)
    points = sorted({x for t in pool for x in t})
    ids = {x: k for k, x in enumerate(points)}
    # id -1 marks an image outside the set, so its tuples fail the check below
    moves = [tuple(ids.get(act_point(g, x), -1) for x in points) for g in group]
    pool = {tuple(map(ids.__getitem__, t)) for t in pool}
    seen = set()
    orbits = 0
    free = True
    for t in sorted(pool):
        if t in seen:
            continue
        orbit = {tuple(map(move.__getitem__, t)) for move in moves}
        if not orbit <= pool:
            raise ValueError("tuple set is not closed under the group action")
        orbits += 1
        if len(orbit) != len(group):
            free = False
        seen |= orbit
    return orbits, free
