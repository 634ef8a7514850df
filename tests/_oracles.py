"""Independent brute-force oracles used to cross-check the fast paths.

The oracles use nothing from hompoly: they do their own textbook
Fraction elimination, so a defect in `hompoly.linalg` cannot hide in
both sides of a comparison.  Moved and reflected polytopes are built
from their Fraction points (`moved_points`, `reflected_points`), and
relative-interior tests read a facet system with Fraction dot products
(`strictly_inside`).  Signed permutations are (perm, signs) pairs with
their own action on points (`act_signed`), and `naive_orbit_count`
sweeps point tuples under them.  `dd_vertices` alone calls hompoly: it
is the side under test, the DD kernel's rays put in the oracles' form.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

from hompoly import dd


def oracle_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions.

    Returns the nonzero rows and the pivot column indices.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    n_cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def leibniz_det(rows):
    """Determinant of a square matrix by the Leibniz formula: the sum over
    all permutations of the signed products of one entry per row."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _unique_solution(rows, rhs):
    """The solution of rows . x = rhs if there is exactly one, else None."""
    n_cols = len(rows[0])
    red, pivots = oracle_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n_cols)):
        return None  # inconsistent (pivot in the last column) or a free column
    return tuple(row[-1] for row in red)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def hom_rows(vertices, facets):
    """The rows u . (A v + b) <= c of the affine maps A x + b, one per
    vertex v and facet u . y <= c, vertex-major: u at b and u_j v_i at
    A_{j,i}, A flattened row by row, all as Fractions."""
    return [(tuple(Fraction(a) for a in u)
             + tuple(Fraction(a) * Fraction(x) for a in u for x in v), Fraction(c))
            for v in vertices for u, c in facets]


def brute_force_vertices(ineqs, eqs, dim):
    """Vertex set by exhaustive basis enumeration.

    Solves every square subsystem (all equations plus a complementary
    subset of inequalities turned into equalities) and keeps the unique
    solutions that are feasible.  Exponential; only for small systems.
    """
    ineqs = [(tuple(Fraction(x) for x in n), Fraction(c)) for n, c in ineqs]
    eqs = [(tuple(Fraction(x) for x in n), Fraction(c)) for n, c in eqs]
    eq_normals = [n for n, _ in eqs]
    eq_rank = len(oracle_rref(eq_normals)[1]) if eq_normals else 0
    k = dim - eq_rank
    found = set()
    for subset in combinations(range(len(ineqs)), k):
        rows = eq_normals + [ineqs[i][0] for i in subset]
        rhs = [c for _, c in eqs] + [ineqs[i][1] for i in subset]
        x = _unique_solution(rows, rhs)
        if x is not None and all(_dot(n, x) <= c for n, c in ineqs):
            found.add(x)
    return sorted(found)


def dd_vertices(ineqs, dim):
    """The vertices of `dd.polytope_rays(ineqs, dim)` as rational points,
    sorted lexicographically like `brute_force_vertices`."""
    return dd._ray_points(dd._sorted_rays(dd.polytope_rays(ineqs, dim)))


def vertex_certificate_ok(vertices, ineqs, eqs):
    """Is each point a vertex of {x : n . x <= c for ineqs, n . x = c for
    eqs}?  Each must satisfy every row, and the normals of the equations
    and of the inequalities tight at it must have full rank."""
    for v in vertices:
        v = tuple(Fraction(x) for x in v)
        if not (all(_dot(n, v) <= c for n, c in ineqs)
                and all(_dot(n, v) == c for n, c in eqs)):
            return False
        tight = [n for n, c in ineqs if _dot(n, v) == c] + [n for n, _ in eqs]
        if len(oracle_rref(tight)[1]) != len(v):
            return False
    return True


def surjections_inclusion_exclusion(m, n):
    """Surjections {1..m} -> {1..n} by inclusion-exclusion over the
    points of {1..n} that are missed."""
    return sum((-1) ** (n - j) * comb(n, j) * j**m for j in range(n + 1))


def origin_inside_oracle(points):
    """Is 0 strictly inside the simplex spanned by the n+1 points of R^n?

    Solves the barycentric system (the points as columns over a row of
    ones, right-hand side (0, ..., 0, 1)) and demands a unique, strictly
    positive solution.
    """
    n = len(points) - 1
    rows = [[Fraction(p[r]) for p in points] for r in range(n)]
    rows.append([Fraction(1)] * (n + 1))
    lam = _unique_solution(rows, [Fraction(0)] * n + [Fraction(1)])
    return lam is not None and all(x > 0 for x in lam)


def brute_force_extreme_points(points):
    """Extreme points of a finite set: p is extreme iff it is not in the
    hull of the others, decided by exact LP-free barycentric search over
    small support sets (works because the sets here are tiny)."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    out = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        if not _in_hull(p, others):
            out.append(p)
    return sorted(set(out))


def _in_hull(p, points):
    # exact: p in conv(points) iff some subset of <= dim+1 points contains it
    # (Caratheodory); we search all subsets because inputs are tiny.
    n = len(p)
    for k in range(1, min(len(points), n + 1) + 1):
        for subset in combinations(points, k):
            rows = [list(col) for col in zip(*subset)] + [[1] * k]
            rhs = list(p) + [1]
            lam = _unique_solution(rows, rhs)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def moved_points(points, t):
    """The points p + t, as Fractions."""
    return [tuple(Fraction(a) + Fraction(b) for a, b in zip(p, t)) for p in points]


def reflected_points(points, b):
    """The points 2 b - p, the reflection of each p through b, as
    Fractions; with a polytope's vertices, the vertices of 2 b - P."""
    return [tuple(2 * Fraction(c) - Fraction(a) for a, c in zip(p, b)) for p in points]


def strictly_inside(hrep, x):
    """Is x in the relative interior of the polytope of a canonical
    facet system (every inequality a facet): on every equation and
    strictly inside every inequality?"""
    return (all(_dot(n, x) == c for n, c in hrep.equations)
            and all(_dot(n, x) < c for n, c in hrep.inequalities))


def signed_permutations(n):
    """All 2^n n! signed permutations of n axes as (perm, signs) pairs."""
    return [(perm, signs) for perm in permutations(range(n))
            for signs in product((-1, 1), repeat=n)]


def act_signed(g, x):
    """The signed permutation g = (perm, signs) applied to the point x:
    y[perm[i]] = signs[i] * x[i]."""
    perm, signs = g
    y = [None] * len(x)
    for i, (p, s) in enumerate(zip(perm, signs)):
        y[p] = s * x[i]
    return tuple(y)


def naive_orbit_count(tuples, group):
    """The number of orbits of a group of signed permutations on a set of
    point tuples, acting on each point of a tuple, and whether every
    orbit has the group's size.  Raises ValueError if an orbit leaves
    the set."""
    pool = set(tuples)
    seen = set()
    orbits = 0
    free = True
    for t in sorted(pool):
        if t not in seen:
            orbit = {tuple(act_signed(g, x) for x in t) for g in group}
            if not orbit <= pool:
                raise ValueError("tuple set is not closed under the group action")
            orbits += 1
            free = free and len(orbit) == len(group)
            seen |= orbit
    return orbits, free
