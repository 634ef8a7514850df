import hashlib
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from _oracles import (
    naive_orbit_count,
    origin_inside_oracle,
    signed_permutations,
    surjections_inclusion_exclusion,
)
from hompoly import linalg
from hompoly.counts import (
    COUNT_FAMILIES,
    _valid_subsets,
    beta,
    bound_box_diamond,
    count_box_simplex,
    count_diamond_diamond,
    count_diamond_simplex,
    cube_vertices,
    intersection_bound,
    origin_strictly_inside,
    rank_k_sandwich,
    sigma,
    stirling2,
    surjections,
)
from hompoly.errors import SizeGuardError
from hompoly.verify import enumerated_count


# -- independent oracles -----------------------------------------------------


def partitions_into_blocks(items, n):
    """All set partitions of `items` into exactly n nonempty blocks."""
    if not items:
        if n == 0:
            yield []
        return
    head, rest = items[0], items[1:]
    for part in partitions_into_blocks(rest, n):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
    for part in partitions_into_blocks(rest, n - 1):
        yield part + [[head]]


def simplex_tuples(n):
    """Every ordering of every centered simplex vertex set of the n-cube."""
    return [t for s in _valid_subsets(n) for t in permutations(s)]


def anchored_tuples(n):
    """The centered simplex tuples whose first entry is (-1, ..., -1)."""
    return [s[:1] + rest for s in _valid_subsets(n, (-1,) * n)
            for rest in permutations(s[1:])]


def coordinate_permutations(n):
    """The stabilizer of (-1, ..., -1) in the signed permutation group."""
    return [(p, (1,) * n) for p in permutations(range(n))]


def sigma_brute_force(m, n):
    count = 0
    symbols = [s * k for k in range(1, n + 1) for s in (1, -1)]
    for f in product(symbols, repeat=m):
        if {abs(x) for x in f} == set(range(1, n + 1)):
            count += 1
    return count


# -- stirling / surjection / sigma -------------------------------------------


def test_stirling_examples():
    assert stirling2(4, 2) == 7 == sum(1 for _ in partitions_into_blocks([1, 2, 3, 4], 2))
    assert surjections(3, 3) == 6
    for m in range(1, 7):
        assert stirling2(m, m) == 1
        assert stirling2(m, 0) == 0


def test_stirling_matches_partition_enumeration():
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert stirling2(m, n) == sum(1 for _ in partitions_into_blocks(list(range(m)), n))


def test_surjection_triple_agreement():
    for m in range(1, 9):
        for n in range(1, m + 1):
            s = surjections(m, n)
            assert s == factorial(n) * stirling2(m, n)
            assert s == surjections_inclusion_exclusion(m, n)
            assert sigma(m, n) == 2**m * s


def test_stirling_at_large_m_needs_no_recursion():
    # m = 5000 is far past the interpreter's recursion limit
    assert sigma(5000, 3) == 2**5000 * surjections_inclusion_exclusion(5000, 3)
    with pytest.raises(ValueError):
        stirling2(-1, 2)


def test_sigma_examples():
    assert sigma(2, 2) == 8
    assert sigma(3, 3) == 48
    assert sigma(2, 3) == 0


def test_sigma_brute_force_small():
    for m in range(1, 5):
        for n in range(1, 5):
            assert sigma(m, n) == sigma_brute_force(m, n)


# -- centered simplex tuples --------------------------------------------------


def test_origin_inside_matches_oracle():
    # every 4-tuple of square vertices, and a sample of cube 4-tuples
    verts2 = cube_vertices(2)
    for t in product(verts2, repeat=3):
        assert origin_strictly_inside(t) == origin_inside_oracle(t)
    verts3 = cube_vertices(3)
    import random

    rng = random.Random(0)
    for _ in range(300):
        t = tuple(rng.choice(verts3) for _ in range(4))
        assert origin_strictly_inside(t) == origin_inside_oracle(t)


def test_tuple_counts_small():
    assert len(simplex_tuples(1)) == 2
    assert len(simplex_tuples(2)) == 0
    assert len(simplex_tuples(3)) == 48
    assert len(simplex_tuples(4)) == 1920


def test_tuple_count_v3_by_exhaustive_scan():
    # independent route: scan all ordered 4-tuples of cube vertices
    verts = cube_vertices(3)
    count = sum(
        1 for t in product(verts, repeat=4) if origin_inside_oracle(t)
    )
    assert count == 48


def test_reduced_tuples_consistent_with_full():
    for n in (1, 3, 4):
        assert 2**n * len(anchored_tuples(n)) == len(simplex_tuples(n))
    assert anchored_tuples(2) == []


def test_simplex_tuples_guard():
    with pytest.raises(SizeGuardError):
        beta(6)
    with pytest.raises(ValueError):
        beta(0)


# SHA-256 of repr(list(_valid_subsets(5, (-1,) * 5))), recorded from the
# per-subset cofactor test that the half-space mask search replaced
VALID_SUBSETS_5_SHA256 = "3f354ff64a36953c9ab64f94b012f7a5a6f7e9f8d1cb229c4fef0c34fee58d3f"


def test_valid_subsets_5_pinned():
    verts = cube_vertices(5)
    anchor = (-1,) * 5
    subsets = list(_valid_subsets(5, anchor))
    assert len(subsets) == 408
    assert all(origin_strictly_inside(s) for s in subsets)
    indices = [tuple(verts.index(p) for p in s) for s in subsets]
    assert all(s[0] == anchor for s in subsets)
    assert all(i[1:] == tuple(sorted(set(i[1:]))) and i[0] not in i[1:] for i in indices)
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert hashlib.sha256(repr(subsets).encode()).hexdigest() == VALID_SUBSETS_5_SHA256


def test_valid_subsets_5_run_no_elimination(monkeypatch):
    # the faces' cofactor vectors come from shared prefix minors, not from
    # one elimination per face (4,391 of them before)
    calls = []
    echelon = linalg._echelon

    def counted(*args, **kwargs):
        calls.append(1)
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    assert sum(1 for _ in _valid_subsets(5, (-1,) * 5)) == 408
    assert not calls


@pytest.mark.extended
def test_valid_subsets_5_match_per_subset_test():
    """The mask search against the per-subset cofactor-sign test on all
    169,911 anchored 6-subsets, in order."""
    verts = cube_vertices(5)
    anchor = (-1,) * 5
    rest = [v for v in verts if v != anchor]
    expected = [(anchor,) + s for s in combinations(rest, 5)
                if origin_strictly_inside((anchor,) + s)]
    assert list(_valid_subsets(5, anchor)) == expected


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 0), (3, 1), (4, 5)])
def test_beta_values(n, expected):
    assert beta(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_beta_counts_free_orbits_of_anchored_tuples(n):
    # beta counts anchored vertex sets by the free-action lemma; the
    # reference sweeps the anchored tuples under the anchor's stabilizer
    # and checks that every orbit has full size
    assert naive_orbit_count(anchored_tuples(n), coordinate_permutations(n)) == (beta(n), True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_beta_matches_full_group_orbit_count(n):
    # beta counts anchored vertex sets; the reference counts orbits of
    # the whole signed permutation group on all tuples
    orbits, free = naive_orbit_count(simplex_tuples(n), signed_permutations(n))
    assert free
    assert beta(n) == orbits


# -- closed-form counts --------------------------------------------------------


def test_count_box_simplex():
    assert count_box_simplex(2, 2).closed_form == 15
    assert count_box_simplex(2, 3).closed_form == 28
    assert count_box_simplex(1, 1).closed_form == 4
    r = count_box_simplex(3, 3)
    assert r.closed_form == 40
    assert r.terms == {"rank-0": 4, "rank-1": 36}
    assert r.agreement is None


def test_count_diamond_simplex_values():
    assert count_diamond_simplex(2, 2).closed_form == 15
    assert count_diamond_simplex(3, 2).closed_form == 27
    assert count_diamond_simplex(2, 3).closed_form == 28
    r = count_diamond_simplex(3, 3)
    assert r.closed_form == 100
    assert r.terms["rank-2"] == 0
    assert r.terms["rank-3"] == 48


def test_count_diamond_simplex_displayed_form():
    # the closed form collapses to 1 + n + 2^(m-1) n(n+1) + C(n+1,4) sigma(m,3)
    for m in range(1, 8):
        for n in range(1, 8):
            if min(m, n) > 3:
                continue
            displayed = 1 + n + 2 ** (m - 1) * n * (n + 1) + comb(n + 1, 4) * (
                sigma(m, 3) if m >= 1 else 0
            )
            assert count_diamond_simplex(m, n).closed_form == displayed


def test_count_diamond_simplex_needs_table_for_high_rank():
    with pytest.raises(ValueError, match="rank-4"):
        count_diamond_simplex(4, 4)
    r = count_diamond_simplex(4, 4, high_rank_table={4: 111})
    assert r.terms["rank-4"] == comb(5, 5) * 111


def test_count_diamond_diamond_values():
    assert count_diamond_diamond(2, 2).closed_form == 36
    assert count_diamond_diamond(2, 3).closed_form == 90
    assert count_diamond_diamond(3, 3).closed_form == 318
    r = count_diamond_diamond(2, 2)
    assert r.terms == {"center-interior": 16, "rank-0": 4, "rank-1": 16}


def test_count_enumeration_cross_check_small():
    for family, (_, _, closed_form) in COUNT_FAMILIES.items():
        assert enumerated_count(family, 2, 2) == closed_form(2, 2).closed_form


def test_bound_box_diamond():
    # formula 2n + 2mn(2n-1) + 2mn(m-1)(n-1)
    assert bound_box_diamond(2, 2) == 4 + 24 + 8 == 36
    assert bound_box_diamond(3, 4) == 8 + 168 + 144 == 320
    with pytest.raises(ValueError):
        bound_box_diamond(1, 2)


def test_intersection_bound():
    assert intersection_bound(3) == 56
    assert intersection_bound(4) == 210
    assert intersection_bound(10) == 646646


def test_rank_k_sandwich():
    assert rank_k_sandwich(3, 3) == (48, 48)
    lo, hi = rank_k_sandwich(4, 3)
    assert lo == 576
    assert hi == 8 * 24 * 56 * 1
