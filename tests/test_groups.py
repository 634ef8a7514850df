"""The signed permutation group of the beta reference in `_oracles`.

`tests/test_counts.py` checks `beta` against `naive_orbit_count` under
`signed_permutations` and under the stabilizer of (-1, ..., -1); these
tests pin the premises of that reference: the whole group, its action,
the free flag, and the refusal of a set that is not closed.
"""

from itertools import permutations
from math import factorial

import pytest

from _oracles import act_signed, naive_orbit_count, signed_permutations
from hompoly.polytope import standard


@pytest.mark.parametrize("n,size", [(1, 2), (2, 8), (3, 48), (4, 384)])
def test_group_order(n, size):
    group = signed_permutations(n)
    assert len(group) == size == 2**n * factorial(n)
    assert len(set(group)) == size


def test_sign_flip():
    assert act_signed(((0, 1, 2), (-1, 1, 1)), (1, 0, 0)) == (-1, 0, 0)
    assert act_signed(((1, 0), (1, -1)), (0, 1)) == (-1, 0)


def test_orbit_count_on_cube_vertices():
    # single transitive orbit of singleton tuples; action is not free for n >= 2
    singletons = {(v,) for v in standard("cube", 2).vertices}
    assert naive_orbit_count(singletons, signed_permutations(2)) == (1, False)


def test_orbit_count_empty():
    assert naive_orbit_count(set(), signed_permutations(2)) == (0, True)


def test_orbit_count_closure_check():
    with pytest.raises(ValueError, match="not closed"):
        naive_orbit_count({((1, 1),)}, signed_permutations(2))  # orbit leaves the set


def test_axis_stabilizer_of_all_minus_one():
    # the stabilizer of (-1, ..., -1) is the plain permutation subgroup,
    # whose orbits on the tuples starting at that vertex the beta tests sweep
    point = (-1, -1, -1)
    stab = [g for g in signed_permutations(3) if act_signed(g, point) == point]
    assert stab == [(p, (1, 1, 1)) for p in permutations(range(3))]
    assert len(stab) == factorial(3)
