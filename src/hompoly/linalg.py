"""Exact rational vectors, matrices, and elimination.

Scalars are `fractions.Fraction`, which already maintains the canonical
form (lowest terms, positive denominator, zero as 0/1).  Vectors are
tuples of Fractions and matrices are tuples of row tuples, so every
value is immutable and hashable and every operation is a pure function.
Nothing in the computation path touches floating point; approximate
values exist only in CLI pretty-printing.

The hot primitives stay off Fraction arithmetic where they can.  `vec`
passes entries that already are Fractions through unchanged.  `dot`
skips every term with a zero factor (hom rows and crosspolytope
vertices are mostly zeros) and sums the rest as one integer numerator
over an integer denominator read from `.numerator` / `.denominator`,
so integer data keeps denominator 1 and one Fraction is built per call.

Rank and integer determinants are computed by one fraction-free
(Bareiss) elimination loop on an integer-cleared copy of the matrix,
which keeps intermediate entries small even for the dimension-16
inequality systems produced elsewhere.
The reduced row echelon form comes from fraction-free Gauss-Jordan
elimination on the same integer-cleared rows, each row divided by its
content after every step; rows are divided by their pivots only on
return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values) -> Vec:
    """Tuple of Fractions; entries that already are Fractions pass through."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(u: Vec, v: Vec) -> Fraction:
    """Exact inner product of two rational (or integer) vectors.

    Entries may be Fractions or ints.  Terms with a zero factor are
    skipped; the others accumulate into one integer numerator over the
    lcm of the terms' denominators, and a single Fraction is built on
    return.  Raises ValueError on vectors of different lengths.
    """
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        an = a.numerator
        if an:
            bn = b.numerator
            if bn:
                d = a.denominator * b.denominator
                if d == den:
                    num += an * bn
                else:
                    g = gcd(den, d)
                    num = num * (d // g) + an * bn * (den // g)
                    den = den // g * d
    return Fraction(num, den)


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def scale(u: Vec, c) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def transpose(M: Mat) -> Mat:
    return tuple(zip(*M)) if M else ()


def mat_vec(M: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in M)


def primitive(v: Vec, orient: bool = False) -> Vec:
    """Scale to coprime integer entries.

    Only positive scalings are applied, so inequality directions are
    preserved.  With `orient` the sign is also fixed so the first
    nonzero entry is positive (for equations, where both signs describe
    the same hyperplane).
    """
    ints = _int_row(v)
    if orient and next((a for a in ints if a), 0) < 0:
        ints = [-a for a in ints]
    return tuple(Fraction(a) for a in ints)


def _int_row(row) -> list[int]:
    """Primitive integer row spanning the same line as a rational row.

    Only positive scalings are applied; a zero row stays zero.
    """
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    m = lcm(*[x.denominator for x in row])
    if m == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [x.numerator * (m // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [a // g for a in ints]
    return ints


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """Integer row spanning with prow the same plane as row, zero in column c.

    prow[c] must be nonzero.  The result is a positive multiple of
    row - (row[c] / prow[c]) prow, divided by its content.
    """
    p, f = prow[c], row[c]
    if p < 0:
        p, f = -p, -f
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    out = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*out)
    if g > 1:
        out = [a // g for a in out]
    return out


def _independent_rows(rows, dim: int) -> list[int]:
    """Indices of the first dim linearly independent integer rows, greedily.

    Each row is reduced once against an integer echelon basis of the
    rows chosen before it; it is chosen iff something nonzero remains.
    """
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for i, row in enumerate(rows):
        red = list(row)
        for c, brow in basis:
            if red[c]:
                red = _eliminate(red, brow, c)
        c = next((c for c, a in enumerate(red) if a), None)
        if c is None:
            continue
        basis.append((c, red))
        chosen.append(i)
        if len(chosen) == dim:
            break
    return chosen


def _int_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns the nonzero rows and their pivot columns.  Row k is zero in
    every pivot column except pivots[k]; dividing it by its pivot entry
    gives row k of the reduced row echelon form.
    """
    work = list(rows)
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        for i in range(n_rows):
            if i != r and work[i][c]:
                work[i] = _eliminate(work[i], prow, c)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return work[:r], pivots


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Bareiss elimination of an integer matrix, in place.

    Returns (rank, sign, last pivot): the sign of the row permutation
    and the last pivot found.  Every entry stays an integer because each
    step divides exactly by the previous pivot; for a square matrix of
    full rank, sign * last pivot is the determinant.
    """
    if not rows:
        return 0, 1, 1
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    sign = 1
    prev = 1
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        for i in range(r + 1, n_rows):
            ri = rows[i]
            f = ri[c]
            if f:
                for j in range(c + 1, n_cols):
                    ri[j] = (p * ri[j] - f * rows[r][j]) // prev
                ri[c] = 0
            elif prev != p:
                # Bareiss divides every handled row by the previous pivot
                for j in range(c + 1, n_cols):
                    ri[j] = (p * ri[j]) // prev
        prev = p
        r += 1
        if r == n_rows:
            break
    return r, sign, prev


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination (destructive)."""
    return _bareiss(rows)[0]


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    The rows are copied, so the argument is left as it is.
    """
    n = len(rows)
    r, sign, last = _bareiss([list(row) for row in rows])
    return sign * last if r == n else 0


def rank(M) -> int:
    """Exact matrix rank (fraction-free elimination)."""
    rows = [r for r in map(_int_row, M) if any(r)]
    return int_rank(rows)


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows and the pivot column indices.  Elimination
    runs on integer-cleared rows (`_int_rref`); entries become
    Fractions only in the returned rows.
    """
    red, pivots = _int_rref([_int_row(row) for row in rows])
    out = []
    for row, c in zip(red, pivots):
        p = row[c]
        out.append([Fraction(a, p) if a else ZERO for a in row])
    return out, pivots


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of M x = rhs: a particular point plus a nullspace basis."""

    particular: Vec
    nullspace: tuple[Vec, ...]

    @property
    def unique(self) -> bool:
        return not self.nullspace


def solve(M: Mat, rhs: Vec):
    """Exact solution classification for M x = rhs.

    Returns None when inconsistent, otherwise a LinearSolution whose
    nullspace is empty exactly when the solution is unique.
    """
    if len(rhs) != len(M):
        raise ValueError("rhs length does not match row count")
    if not M:
        return LinearSolution((), ())
    n_cols = len(M[0])
    aug = [list(row) + [b] for row, b in zip(M, rhs)]
    red, pivots = rref(aug)
    if n_cols in pivots:
        return None
    particular = [ZERO] * n_cols
    for row, c in zip(red, pivots):
        particular[c] = row[-1]
    return LinearSolution(tuple(particular), _free_column_basis(red, pivots, n_cols))


def nullspace(M: Mat) -> tuple[Vec, ...]:
    """Basis of {x : M x = 0} (standard free-column construction)."""
    if not M:
        return ()
    red, pivots = rref(M)
    return _free_column_basis(red, pivots, len(M[0]))


def _free_column_basis(red, pivots: list[int], n_cols: int) -> tuple[Vec, ...]:
    """Nullspace basis read off a reduced row echelon form.

    One vector per non-pivot column f among the first n_cols: 1 at f,
    minus column f of the reduced rows at the pivots, 0 elsewhere.
    """
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [ZERO] * n_cols
        v[f] = ONE
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


@dataclass(frozen=True)
class AffineHull:
    """Affine hull of a point set.

    `basis` spans the hull's direction space (rows in reduced echelon
    form), and `equations` are (normal, offset) pairs with
    normal . x = offset cutting out the hull; dim = len(basis).
    """

    basepoint: Vec
    basis: tuple[Vec, ...]
    equations: tuple[tuple[Vec, Fraction], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def affine_hull(points) -> AffineHull:
    """Affine hull of a nonempty list of points of common dimension."""
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("affine hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    p0 = pts[0]
    red, pivots = rref(sub(p, p0) for p in pts[1:])
    basis = tuple(tuple(row) for row in red)
    equations = []
    for raw in _free_column_basis(red, pivots, n):
        normal = primitive(raw, orient=True)
        equations.append((normal, dot(normal, p0)))
    return AffineHull(p0, basis, tuple(equations))
