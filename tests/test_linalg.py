import random
from fractions import Fraction

from _oracles import _dot, oracle_rref
from hompoly.linalg import (
    AffineHull,
    affine_hull,
    primitive,
    rank,
    vec,
)


def unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_rank_examples():
    assert rank(unit_rows(3)) == 3
    assert rank([[0] * 5, [0] * 5]) == 0
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_matches_transpose_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert rank(M) == rank(tuple(zip(*M)))


def test_rank_matches_rref_pivot_count():
    # independent route: pivot count of the oracle's rational RREF
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        M = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        _, pivots = oracle_rref(M)
        assert rank(M) == len(pivots)


def test_affine_hull_segment():
    # the rays (1, p) of the points p
    hull = affine_hull([(1, 0, 0), (1, 1, 0)])
    assert hull.dim == 1
    assert hull.equations == (((0, 1), 0),)


def test_affine_hull_single_point():
    hull = affine_hull([(1, 3, 4)])
    assert hull.dim == 0
    assert len(hull.equations) == 2
    for normal, offset in hull.equations:
        assert _dot(normal, vec([3, 4])) == offset


def test_affine_hull_full_dimensional_triangle():
    hull = affine_hull([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert hull.dim == 2
    assert hull.equations == ()


def test_affine_hull_generic_points_have_expected_dimension():
    rng = random.Random(19)
    for k in range(1, 5):
        # k+1 generic points in R^5 span a k-flat
        pts = [[rng.randrange(-50, 50) for _ in range(5)] for _ in range(k + 1)]
        hull = affine_hull([(1, *p) for p in pts])
        assert hull.dim == k
        for p in pts:
            for normal, offset in hull.equations:
                assert _dot(normal, p) == offset


def test_affine_hull_is_instance():
    assert isinstance(affine_hull([(1, 0)]), AffineHull)


def test_primitive_scaling():
    assert primitive(vec([Fraction(1, 2), Fraction(-3, 4)])) == vec([2, -3])
    assert primitive(vec([Fraction(-1, 2), Fraction(-1, 4)]), orient=True) == vec([2, 1])
    assert primitive(vec([0, 0])) == vec([0, 0])


def test_affine_hull_of_rational_points_has_int_equations():
    # x = 1/2 is held as the primitive int row 2x = 1; the rays (2, 1, 0)
    # and (2, 1, 2) are the points (1/2, 0) and (1/2, 1)
    hull = affine_hull([(2, 1, 0), (2, 1, 2)])
    assert hull.dim == 1
    assert hull.equations == (((2, 0), 1),)
    assert all(type(x) is int for x in hull.equations[0][0] + hull.equations[0][1:])
