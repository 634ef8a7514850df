"""Differential tests: the exact kernels against the brute-force oracles.

`linalg.rref` is compared with the oracle's textbook Fraction
elimination, and `dd.polytope_vertices` with exhaustive basis
enumeration, on generated inputs that stress the degenerate cases.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _oracles import brute_force_vertices, oracle_rref  # noqa: E402
from hompoly import dd, linalg  # noqa: E402

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=2 ** 20),
)


@st.composite
def matrices(draw):
    """Random rational matrices padded with zero rows, duplicate rows and
    rational combinations of other rows (so often rank-deficient)."""
    n_cols = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "combo"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * n_cols)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(rationals), draw(rationals)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(matrices())
def test_rref_matches_oracle(M):
    red, pivots = linalg.rref(M)
    assert (red, pivots) == oracle_rref(M)
    assert all(type(x) is Fraction for r in red for x in r)
    assert linalg.rank(M) == len(pivots)


@st.composite
def bounded_systems(draw):
    """Small bounded inequality systems: a box, random cuts, cuts through
    one lattice point (a degenerate vertex when it survives), duplicate
    rows, positive multiples and loosened copies (redundant rows)."""
    dim = draw(st.integers(1, 3))
    coeff = st.integers(-3, 3)
    half = draw(st.integers(1, 3))
    rows = []
    for i in range(dim):
        for sign in (1, -1):
            rows.append((tuple(sign * int(j == i) for j in range(dim)), half))
    normals = st.lists(coeff, min_size=dim, max_size=dim).map(tuple)
    for normal in draw(st.lists(normals, max_size=3)):
        rows.append((normal, draw(st.integers(-2, 6))))
    point = draw(st.lists(st.integers(-half, half), min_size=dim, max_size=dim))
    for normal in draw(st.lists(normals, max_size=dim + 1)):
        rows.append((normal, sum(a * b for a, b in zip(normal, point))))
    for kind in draw(st.lists(st.sampled_from(["copy", "scaled", "loose"]), max_size=3)):
        normal, offset = draw(st.sampled_from(rows))
        if kind == "copy":
            rows.append((normal, offset))
        elif kind == "scaled":
            k = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
            rows.append((tuple(k * a for a in normal), k * offset))
        else:
            rows.append((normal, offset + draw(st.integers(1, 3))))
    return draw(st.permutations(rows)), dim


@pytest.mark.parametrize("order", ["mincutoff", "given"])
@given(bounded_systems())
def test_polytope_vertices_match_brute_force(order, system):
    ineqs, dim = system
    assert dd.polytope_vertices(ineqs, dim, order=order) == \
        brute_force_vertices(ineqs, [], dim)
