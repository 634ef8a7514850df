"""Seeded intersection experiments on simplices.

All randomness comes from a fixed 64-bit linear congruential generator
with a documented rational extraction rule, so every run is bit-exact
reproducible from its seed; the drawn coordinates are exact rationals
with denominator 2^20 and everything downstream stays exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .counts import intersection_bound
from .errors import SizeGuardError
from .linalg import _int_row, vec
from .polytope import _contains_ray, _symmetric_core, from_points, intersect, standard

log = logging.getLogger(__name__)

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1

MAX_RETRIES = 32  # draws per experiment before ValueError


class SeededGenerator:
    """64-bit LCG: state' = state * 6364136223846793005 + 1442695040888963407.

    A rational draw advances the state once and maps the new state to
    ((state >> 11) mod (2^21 + 1) - 2^20) / 2^20, a fraction in [-1, 1].
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_state(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def next_rational(self) -> Fraction:
        s = self.next_state()
        return Fraction(((s >> 11) % (2**21 + 1)) - 2**20, 2**20)

    def draw_point(self, n: int):
        return vec([self.next_rational() for _ in range(n)])


def perturbed_barycenter_count(n: int, seed: int, eps=Fraction(1, 1000)) -> int:
    """Vertex count of K = S & (2z - S), S the simplex, for a center z
    jittered off the barycenter by eps times a seeded draw.

    Draws are redrawn (bounded) if K fails to be full-dimensional, and
    ValueError is raised when every draw fails (an eps too large for the
    simplex); with the default eps the count is expected to be the
    generic value, independent of the seed.

    K is full-dimensional iff z is strictly inside S, which is what is
    tested: K is symmetric about z, so a nonempty K contains z, and if z
    lies on a facet u . x = c of S then every x in K has u . x = c.  Both
    the test and K (`polytope._symmetric_core`) read the integer ray of z.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("need eps >= 0")
    simplex = standard("simplex", n)
    bary = vec([Fraction(1, n + 1)] * n)
    gen = SeededGenerator(seed)
    for attempt in range(MAX_RETRIES):
        d = gen.draw_point(n)
        z = tuple(_int_row([1, *(b + eps * di for b, di in zip(bary, d))]))
        if _contains_ray(simplex, z, strict=True):
            if attempt:
                log.info("perturbed intersection needed %d redraws (n=%d seed=%d)",
                         attempt, n, seed)
            return _symmetric_core(simplex, z).n_vertices
        log.info("degenerate perturbation, redrawing (n=%d seed=%d attempt=%d)",
                 n, seed, attempt)
    raise ValueError(f"no full-dimensional perturbation within {MAX_RETRIES} draws")


def random_simplex_intersection_count(n: int, seed: int) -> int:
    """Vertex count of the intersection of two seeded random n-simplices.

    The value depends on the seed (the generic count does not exist
    here); degenerate draws are rejected, and ValueError is raised when
    every draw is.  An empty intersection counts zero vertices.
    `intersect` starts its DD from the first simplex's vertex rays and
    inserts only the second one's n + 1 facet rows.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    gen = SeededGenerator(seed)
    for _ in range(MAX_RETRIES):
        pts = [gen.draw_point(n) for _ in range(2 * (n + 1))]
        first = from_points(pts[: n + 1])
        second = from_points(pts[n + 1:])
        if first.dim != n or second.dim != n:
            log.info("degenerate random simplex, redrawing (n=%d seed=%d)", n, seed)
            continue
        return intersect(first, second).n_vertices
    raise ValueError(f"no nondegenerate simplex pair within {MAX_RETRIES} draws")


@dataclass(frozen=True)
class TableRow:
    n: int
    perturbed_count: int
    random_count: int
    bound: int

    @property
    def percent(self) -> float:
        # display-only; all comparisons elsewhere use exact integers
        return 100.0 * self.perturbed_count / self.bound


def reproduce_table(n_min: int, n_max: int, seed: int,
                    eps=Fraction(1, 1000)) -> list[TableRow]:
    """Rows (n, perturbed count, random count, binomial bound) for a
    range of dimensions; each row derives its generator state as
    seed + n, so rows are independent of each other."""
    if not (3 <= n_min <= n_max):
        raise ValueError("need 3 <= n_min <= n_max")
    if n_max > 8:
        raise SizeGuardError(f"table rows guarded to n <= 8, got {n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        p = perturbed_barycenter_count(n, seed + n, eps=eps)
        r = random_simplex_intersection_count(n, seed + n)
        rows.append(TableRow(n, p, r, intersection_bound(n)))
    return rows
