"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The extended items
(the largest enumerations) are opt-in: `pytest -m extended`.
"""

from fractions import Fraction

import pytest

from hompoly.counts import (
    beta,
    bound_box_diamond,
    count_box_simplex,
    count_diamond_diamond,
    count_diamond_simplex,
    intersection_bound,
    rank_k_sandwich,
    sigma,
    stirling2,
    surjections,
)
from hompoly.experiments import perturbed_barycenter_count
from hompoly.homs import (
    build_hom,
    cube_simplex_realization,
    enumerate_vertex_maps,
    flatten_map,
    map_rank,
    rank_histogram,
)
from hompoly.polytope import (
    bipyramid,
    combinatorially_equal,
    from_inequalities,
    from_points,
    polar_dual,
    standard,
    translate,
)
from hompoly.verify import _diamond_records, _hom, run_claim

from _oracles import surjections_inclusion_exclusion
from test_counts import sigma_brute_force


def note(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_cube_simplex_counts():
    expected = {(1, 1): 4, (2, 2): 15, (2, 3): 28, (3, 2): 21, (3, 3): 40}
    for (m, n), count in expected.items():
        maps = _hom("cube", m, "simplex", n)[3]
        assert len(maps) == count == (n + 1) * (m * n + 1)
    note(1, f"cube-to-simplex vertex counts {sorted(expected.values())} all exact")


def test_criterion_02_cube_simplex_rank_at_most_one():
    for m, n in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        maps = _hom("cube", m, "simplex", n)[3]
        assert all(map_rank(f) <= 1 for f in maps)
    note(2, "every cube-to-simplex vertex map has rank <= 1")


def test_criterion_03_explicit_realization():
    hull = from_points(cube_simplex_realization(2, 2))
    hom_poly = from_points(
        [flatten_map(f) for f in _hom("cube", 2, "simplex", 2)[3]], 6)
    assert combinatorially_equal(hull, hom_poly)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            pts = cube_simplex_realization(m, n)
            assert len(pts) == (n + 1) * (m * n + 1)
            hull = from_points(pts)
            assert hull.dim == n * m + n
            assert hull.n_vertices == len(pts)
    note(3, "explicit realization matches the enumerated polytope at (2,2); "
            "counts and hull dimensions exact up to (3,3)")


def test_criterion_04_beta_values():
    values = [beta(n) for n in (1, 2, 3, 4)]
    assert values == [1, 0, 1, 5]
    note(4, f"beta(1..4) = {values}")


def test_criterion_05_sigma_identity():
    for m in range(1, 9):
        for n in range(1, m + 1):
            assert sigma(m, n) == 2**m * surjections(m, n)
            assert surjections(m, n) == surjections_inclusion_exclusion(m, n)
            assert sigma(m, n) == 2**m * __import__("math").factorial(n) * stirling2(m, n)
    for m in range(1, 5):
        for n in range(1, 5):
            assert sigma(m, n) == sigma_brute_force(m, n)
    note(5, "sigma triple identity (1 <= n <= m <= 8) and brute force (m <= 4) exact")


def test_criterion_06_diamond_simplex_counts():
    expected = {(2, 2): 15, (3, 2): 27, (2, 3): 28, (3, 3): 100}
    for (m, n), count in expected.items():
        maps = _hom("crosspolytope", m, "simplex", n)[3]
        assert len(maps) == count == count_diamond_simplex(m, n).closed_form
        assert rank_histogram(maps).get(2, 0) == 0
    note(6, f"crosspolytope-to-simplex counts {sorted(expected.values())} exact, "
            "no rank-2 vertex maps")


def test_criterion_07_diamond_simplex_structure_4_3():
    assert run_claim("diamond-subcross", {"m": 4, "n": 3}).passed
    assert run_claim("diamond-image-shape", {"m": 4, "n": 3}).passed
    maps = _hom("crosspolytope", 4, "simplex", 3)[3]
    rank3 = rank_histogram(maps).get(3, 0)
    assert rank3 == sigma(4, 3) * beta(3) == 576
    note(7, "every rank-3 map from the 4-crosspolytope restricts to a "
            "sub-crosspolytope vertex map; all 576 images are octahedra")


def test_criterion_08_diamond_diamond_counts_and_center():
    expected = {(2, 2): 36, (2, 3): 90, (3, 2): count_diamond_diamond(3, 2).closed_form}
    assert expected[(3, 2)] == 100
    for (m, n), count in expected.items():
        maps = _hom("crosspolytope", m, "crosspolytope", n)[3]
        assert len(maps) == count == count_diamond_diamond(m, n).closed_form
        assert run_claim("diamond-center", {"m": m, "n": n}).passed
    note(8, f"crosspolytope-to-crosspolytope counts {sorted(expected.values())} "
            "exact; interior-center maps are linear with antipodal vertex images")


def test_criterion_09_product_isomorphism_counts():
    assert len(_hom("simplex", 1, "simplex", 2)[3]) == 9
    sq = len(_hom("cube", 1, "cube", 1)[3])
    assert sq == 4 == standard("crosspolytope", 2).n_vertices
    hex_count = len(_hom("crosspolytope", 2, "cube", 1)[3])
    assert hex_count == 6 == bipyramid(standard("cube", 2)).n_vertices
    note(9, "product-rule counts 9, 4, 6 match the model polytopes")


def test_criterion_10_intersection_table():
    expected = {3: 12, 4: 30, 5: 60, 6: 140}
    bounds = {3: 56, 4: 210, 5: 792, 6: 3003}
    for n, count in expected.items():
        assert intersection_bound(n) == bounds[n]
        seen = {perturbed_barycenter_count(n, seed, eps=Fraction(1, 1000))
                for seed in (1, 2, 3)}
        assert seen == {count}, f"n={n}: seeds disagree or differ from table: {seen}"
        assert count <= bounds[n]
    note(10, "perturbed-barycenter intersection counts 12, 30, 60, 140 "
             "unanimous over three seeds and below the binomial bound")


def test_criterion_11_bounds():
    for m in (3, 4):
        maps = _hom("crosspolytope", m, "simplex", 3)[3]
        middle = rank_histogram(maps).get(3, 0)
        lo, hi = rank_k_sandwich(m, 3)
        assert lo <= middle <= hi
    enumerated = len(_hom("cube", 2, "crosspolytope", 2)[3])
    assert bound_box_diamond(2, 2) <= enumerated
    assert enumerated == 36
    note(11, "rank-3 sandwich holds for m in {3, 4}; lower bound 36 <= 36 "
             "for the cube-to-crosspolytope count")


def test_criterion_13_property_suites():
    # duality involution
    for P in (standard("cube", 3), standard("crosspolytope", 3),
              translate(standard("simplex", 2), [Fraction(-1, 3)] * 2)):
        assert polar_dual(polar_dual(P)).vertices == P.vertices
    # V <-> H round trips
    for kind in ("simplex", "cube", "crosspolytope"):
        for n in (1, 2, 3, 4):
            P = standard(kind, n)
            assert from_inequalities(P.hrep.inequalities, (), n).vertices == P.vertices
    # dimension formula on all constructed homs
    for src, m, tgt, n in [("cube", 2, "simplex", 2), ("simplex", 1, "simplex", 1),
                           ("crosspolytope", 2, "crosspolytope", 2),
                           ("crosspolytope", 3, "simplex", 3),
                           ("simplex", 2, "crosspolytope", 2),
                           ("cube", 1, "cube", 2)]:
        assert run_claim("dim-formula",
                         {"source": src, "m": m, "target": tgt, "n": n}).passed
    # vertex-image law
    for m, tgt, n in [(2, "simplex", 2), (2, "crosspolytope", 2),
                      (3, "simplex", 3), (2, "cube", 2)]:
        assert run_claim("vertex-image-law", {"m": m, "target": tgt, "n": n}).passed
    # face law
    for src, m, n in [("cube", 2, 2), ("crosspolytope", 2, 2), ("simplex", 1, 2),
                      ("cube", 2, 3), ("crosspolytope", 3, 3)]:
        assert run_claim("face-law", {"source": src, "m": m, "n": n}).passed
    note(13, "duality involution, round trips, dimension formula, "
             "vertex-image law, face law: zero counterexamples")


def test_criterion_04_extended_beta_5():
    assert beta(5) == 408
    note("4-extended", "beta(5) = 408")


@pytest.mark.extended
def test_criterion_08_extended_diamond_diamond_3_3():
    maps = _hom("crosspolytope", 3, "crosspolytope", 3)[3]
    assert len(maps) == count_diamond_diamond(3, 3).closed_form == 318
    assert run_claim("diamond-center", {"m": 3, "n": 3}).passed
    note("8-extended", "crosspolytope-to-crosspolytope (3,3) count 318 exact")


@pytest.mark.extended
def test_criterion_08_extended_diamond_diamond_4_4():
    # the DD's longest run among the extended tests: 108 insertions,
    # peak 40,960 rays, about two minutes
    maps = _hom("crosspolytope", 4, "crosspolytope", 4)[3]
    assert len(maps) == count_diamond_diamond(4, 4).closed_form == 13704
    assert rank_histogram(maps) == {0: 8, 1: 448, 2: 1344, 3: 11520, 4: 384}
    assert run_claim("diamond-center", {"m": 4, "n": 4}).passed
    assert run_claim("count-agreement",
                     {"family": "diamond-diamond", "m": 4, "n": 4}).passed
    note("8-extended", "crosspolytope-to-crosspolytope (4,4) count 13704 exact; "
                       "4096 interior-center maps")


@pytest.mark.extended
def test_criterion_06_extended_diamond_simplex_4_4():
    maps = _hom("crosspolytope", 4, "simplex", 4)[3]
    assert len(maps) == 4965
    assert rank_histogram(maps) == {0: 5, 1: 160, 3: 2880, 4: 1920}
    assert count_diamond_simplex(4, 4, {4: 1920}).closed_form == 4965
    crosspolytope_images = sum(cross for _, cross in _diamond_records(4, 4))
    assert crosspolytope_images == sigma(4, 4) * beta(4) == 1920
    note("6-extended", "crosspolytope-to-simplex (4,4) count 4965 exact; all "
                       "1920 rank-4 images are crosspolytopes")


@pytest.mark.extended
def test_criterion_07_extended_shape_dichotomy_5_4():
    assert run_claim("diamond-image-shape-witness", {"m": 5, "n": 4}).passed
    note("7-extended", "rank-4 vertex map with non-crosspolytope image exists "
                       "for source dimension 5")


@pytest.mark.extended
def test_criterion_12_extended_large_cube_crosspolytope():
    maps = _hom("cube", 3, "crosspolytope", 4)[3]
    assert len(maps) == 27968
    note(12, "cube-to-crosspolytope (3,4) enumeration reproduces 27968 vertices")
