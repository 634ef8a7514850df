from fractions import Fraction

import pytest

from hompoly.counts import intersection_bound
from hompoly.errors import SizeGuardError
from hompoly.experiments import (
    SeededGenerator,
    perturbed_barycenter_count,
    random_simplex_intersection_count,
    reproduce_table,
)
from hompoly.linalg import vec
from hompoly.polytope import from_points, intersect, standard

from _oracles import reflected_points, strictly_inside


def test_generator_state_recurrence():
    gen = SeededGenerator(0)
    assert gen.next_state() == 1442695040888963407
    assert gen.next_state() == (1442695040888963407 * 6364136223846793005
                                + 1442695040888963407) % 2**64


def test_generator_rational_range_and_determinism():
    gen = SeededGenerator(42)
    draws = [gen.next_rational() for _ in range(200)]
    assert all(-1 <= d <= 1 for d in draws)
    assert all(d.denominator <= 2**20 for d in draws)
    gen2 = SeededGenerator(42)
    assert [gen2.next_rational() for _ in range(200)] == draws


@pytest.mark.parametrize("n,expected", [(3, 12), (4, 30)])
def test_perturbed_barycenter_count_matches_reference(n, expected):
    for seed in (1, 2, 3):
        assert perturbed_barycenter_count(n, seed) == expected


def test_perturbed_count_at_most_bound():
    for n in (3, 4):
        assert perturbed_barycenter_count(n, 7) <= intersection_bound(n)


def test_intersection_is_centrally_symmetric_about_z():
    n = 3
    simplex = standard("simplex", n)
    eps = Fraction(1, 1000)
    gen = SeededGenerator(5)
    d = gen.draw_point(n)
    z = tuple(Fraction(1, n + 1) + eps * di for di in d)
    K = intersect(simplex, from_points(reflected_points(simplex.vertices, z)))
    reflected = {tuple(2 * zi - xi for zi, xi in zip(z, v)) for v in K.vertices}
    assert reflected == set(K.vertices)


@pytest.mark.parametrize("n", [2, 3])
def test_full_dimensional_iff_center_strictly_inside(n):
    # perturbed_barycenter_count tests z against the simplex instead of
    # building K = S & (2z - S) and reading its dimension
    simplex = standard("simplex", n)
    third = Fraction(1, 3)
    centers = {
        "interior": [Fraction(1, n + 1)] * n,
        "near facet": [Fraction(1, 10**6)] + [third / n] * (n - 1),
        "on facet x_0 = 0": [0] + [third] * (n - 1),
        "on facet sum = 1": [Fraction(1, n)] * n,
        "vertex": [0] * n,
        "outside": [Fraction(-1, 10)] + [third] * (n - 1),
        "far outside": [2] * n,
    }
    for name, z in centers.items():
        K = intersect(simplex, from_points(reflected_points(simplex.vertices, z)))
        inside = strictly_inside(simplex.hrep, z)
        assert inside == (K.dim == n), name
        assert inside == (name in ("interior", "near facet")), name


def test_exact_barycenter_baseline_is_symmetric():
    # eps = 0: the degenerate baseline still has a centrally symmetric result
    n = 3
    count = perturbed_barycenter_count(n, 1, eps=0)
    assert count >= 4
    assert count <= intersection_bound(n)


def test_random_simplex_intersection_reproducible():
    a = random_simplex_intersection_count(3, 42)
    b = random_simplex_intersection_count(3, 42)
    assert a == b
    assert 0 <= a <= intersection_bound(3)


def test_random_simplex_intersection_planar_ceiling():
    # two triangles in the plane meet in at most 6 points
    for seed in (1, 5, 9):
        assert random_simplex_intersection_count(2, seed) <= 6


def test_reproduce_table_rows():
    rows = reproduce_table(3, 4, seed=1)
    assert [r.n for r in rows] == [3, 4]
    assert rows[0].perturbed_count == 12
    assert rows[0].bound == 56
    assert abs(rows[0].percent - 100.0 * 12 / 56) < 1e-9
    assert rows[1].perturbed_count == 30
    assert rows[1].bound == 210
    for r in rows:
        assert r.perturbed_count <= r.bound
        assert r.random_count <= r.bound


def test_reproduce_table_guards():
    with pytest.raises(ValueError):
        reproduce_table(2, 4, seed=1)
    with pytest.raises(SizeGuardError):
        reproduce_table(3, 9, seed=1)


def test_rows_are_seed_row_decoupled():
    # row n uses generator state seed + n, so a single-row table equals
    # the direct call with that derived seed
    rows = reproduce_table(3, 3, seed=10)
    assert rows[0].perturbed_count == perturbed_barycenter_count(3, 13)


# `hompoly table 3 8 --seed s` for s = 1..4: per seed, the (n, random count)
# of each row.  The perturbed count of row n is the generic value
# GENERIC_PERTURBED[n] whatever the seed.
GENERIC_PERTURBED = {3: 12, 4: 30, 5: 60, 6: 140, 7: 280, 8: 630}
TABLE_RANDOM_COUNTS = {
    1: [(3, 0), (4, 0), (5, 0), (6, 80), (7, 0), (8, 0)],
    2: [(3, 0), (4, 0), (5, 0), (6, 7), (7, 26), (8, 0)],
    3: [(3, 4), (4, 0), (5, 54), (6, 0), (7, 0), (8, 389)],
    4: [(3, 4), (4, 5), (5, 0), (6, 0), (7, 106), (8, 562)],
}


@pytest.mark.parametrize("seed", sorted(TABLE_RANDOM_COUNTS))
def test_table_rows_are_pinned(seed):
    rows = reproduce_table(3, 8, seed=seed)
    assert [(r.n, r.random_count) for r in rows] == TABLE_RANDOM_COUNTS[seed]
    assert [r.perturbed_count for r in rows] == [GENERIC_PERTURBED[r.n] for r in rows]
