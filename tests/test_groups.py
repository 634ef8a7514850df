import random
from itertools import permutations
from math import factorial

import pytest

from hompoly.errors import SizeGuardError
from hompoly.groups import (
    SignedPermutation,
    act_point,
    act_tuple,
    compose,
    enumerate_group,
    identity_element,
    inverse,
    orbit_count,
)
from hompoly.polytope import standard


@pytest.mark.parametrize("n,size", [(1, 2), (2, 8), (3, 48), (4, 384)])
def test_group_order(n, size):
    group = enumerate_group(n)
    assert len(group) == size == 2**n * factorial(n)
    assert len(set(group)) == size


def test_group_guard():
    with pytest.raises(SizeGuardError):
        enumerate_group(7)


def test_identity_action():
    e = identity_element(3)
    assert act_point(e, (1, 2, 3)) == (1, 2, 3)


def test_sign_flip():
    g = SignedPermutation((0, 1, 2), (-1, 1, 1))
    assert act_point(g, (1, 0, 0)) == (-1, 0, 0)


def test_group_axioms_on_sampled_triples():
    rng = random.Random(5)
    group = enumerate_group(3)
    e = identity_element(3)
    x = (3, -1, 7)
    for _ in range(50):
        g, h, k = (rng.choice(group) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        assert compose(g, e) == g and compose(e, g) == g
        assert compose(g, inverse(g)) == e
        assert act_point(g, act_point(inverse(g), x)) == x
        assert act_point(compose(g, h), x) == act_point(g, act_point(h, x))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_action_preserves_cube_and_crosspolytope_vertices(n):
    cube = set(standard("cube", n).vertices)
    cross = set(standard("crosspolytope", n).vertices)
    for g in enumerate_group(n):
        assert {act_point(g, v) for v in cube} == cube
        assert {act_point(g, v) for v in cross} == cross


def test_act_tuple_componentwise():
    g = SignedPermutation((1, 0), (1, -1))
    t = ((1, 0), (0, 1))
    assert act_tuple(g, t) == ((0, 1), (-1, 0))


def test_orbit_count_on_cube_vertices():
    # single transitive orbit of singleton tuples; action is not free for n >= 2
    group = enumerate_group(2)
    singletons = {(v,) for v in standard("cube", 2).vertices}
    orbits, free = orbit_count(singletons, group)
    assert orbits == 1
    assert not free


def test_orbit_count_empty():
    assert orbit_count(set(), enumerate_group(2)) == (0, True)


def test_orbit_count_closure_check():
    group = enumerate_group(2)
    with pytest.raises(ValueError):
        orbit_count({((1, 1),)}, group)  # orbit leaves the set


def test_axis_stabilizer_of_all_minus_one():
    # the stabilizer of (-1, ..., -1) is the plain permutation subgroup,
    # whose orbits on the tuples starting at that vertex the beta tests sweep
    point = (-1, -1, -1)
    stab = [g for g in enumerate_group(3) if act_point(g, point) == point]
    assert stab == [SignedPermutation(p, (1, 1, 1)) for p in permutations(range(3))]
    assert len(stab) == factorial(3)
