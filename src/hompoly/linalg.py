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

All integer elimination runs through one routine, `_echelon`:
fraction-free (Bareiss) elimination on integer-cleared rows, each update
divided exactly by the previous pivot, which keeps entries as small as
the minors of the input.  The forward sweep gives rank, determinants and
the greedy choice of independent rows; the reduced sweep, which also
clears the rows above each pivot, gives the reduced row echelon form
(rows divided by their pivots only on return) and the DD kernel's
inverse of its initial basis.
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


def _echelon(rows: list[list[int]], reduced: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Returns the pivot columns and the sign of the row permutation.  Each
    update p * row - f * pivot row is divided exactly by the previous
    pivot, also on rows with a zero in the pivot column (those are only
    rescaled), so every entry stays an integer minor of the input.  The
    rows come back in echelon form with the nonzero rows first; for a
    square matrix of full rank, sign * last pivot is the determinant.

    With `reduced` the rows above each pivot are eliminated too
    (fraction-free Gauss-Jordan): every pivot column is then zero except
    at its pivot, and every pivot entry equals the last pivot.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
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
        prow = rows[r]
        p = prow[c]
        below = range(c + 1, n_cols)
        for i in range(0 if reduced else r + 1, n_rows):
            if i == r:
                continue
            ri = rows[i]
            f = ri[c]
            # rows below the pivot are zero left of c, rows above are not
            cols = below if i > r else range(n_cols)
            if f:
                for j in cols:
                    ri[j] = (p * ri[j] - f * prow[j]) // prev
                ri[c] = 0
            elif prev != p:
                for j in cols:
                    ri[j] = p * ri[j] // prev
        pivots.append(c)
        prev = p
        r += 1
        if r == n_rows:
            break
    return pivots, sign


def _independent_rows(rows, dim: int) -> list[int]:
    """Indices of the first dim linearly independent integer rows, greedily.

    Row i is chosen iff it is independent of the rows before it, that is
    iff column i of the transposed rows is a pivot column.  Whether a
    column is a pivot depends only on the columns to its left, so the
    sweep runs on the first 2 * dim rows and doubles that prefix only
    while it holds fewer than dim pivots.
    """
    k = 2 * dim
    while True:
        pivots = _echelon([list(col) for col in zip(*rows[:k])])[0]
        if len(pivots) >= dim or k >= len(rows):
            return pivots[:dim]
        k *= 2


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    The rows are copied, so the argument is left as it is.
    """
    rows = [list(row) for row in rows]
    pivots, sign = _echelon(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * rows[-1][-1] if rows else 1


def cofactor_vector(rows) -> tuple[int, ...]:
    """Generalised cross product of n - 1 integer rows of length n.

    The integer vector C with C . v = det(rows + [v]) for every v: its
    entry j is (-1)^(n-1+j) times the minor of the rows without column j.
    Zero when the rows are dependent.  One reduced `_echelon` sweep: with
    f the one non-pivot column and d the last pivot, the reduced rows
    read d x_c + a_c x_f = 0, so (d at f, -a_c at each pivot column c)
    spans the nullspace, and C is that vector times the sign of the minor
    at f, (-1)^(n-1+f) times the sweep's row-permutation sign.
    """
    n = len(rows) + 1
    work = [list(row) for row in rows]
    if any(len(row) != n for row in work):
        raise ValueError(f"cofactor vector of {n - 1} rows needs rows of length {n}")
    pivots, sign = _echelon(work, reduced=True)
    if len(pivots) < n - 1:
        return (0,) * n
    f = next(j for j, c in enumerate(pivots + [n]) if j != c)
    if (n - 1 + f) % 2:
        sign = -sign
    out = [0] * n
    out[f] = sign * work[-1][pivots[-1]] if work else sign
    for row, c in zip(work, pivots):
        out[c] = -sign * row[f]
    return tuple(out)


def rank(M) -> int:
    """Exact matrix rank (fraction-free elimination)."""
    return len(_echelon([r for r in map(_int_row, M) if any(r)])[0])


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows and the pivot column indices.  Elimination
    runs on integer-cleared rows (`_echelon` with `reduced`); entries
    become Fractions only in the returned rows, each row divided by its
    pivot entry.
    """
    rows = [_int_row(row) for row in rows]
    pivots, _ = _echelon(rows, reduced=True)
    out = []
    for row, c in zip(rows, pivots):
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
