"""Exact rational vectors, matrices, and elimination.

Scalars are `fractions.Fraction`, which already maintains the canonical
form (lowest terms, positive denominator, zero as 0/1).  Vectors are
tuples of Fractions and matrices are tuples of row tuples, so every
value is immutable and hashable and every operation is a pure function.
They are the form of input and output.  A primitive row (`primitive`)
is a tuple of coprime ints, the form facet and equation rows and
vertex rays keep (see `polytope`), and the computation path works on
those.
Nothing in the computation path touches floating point; approximate
values exist only in CLI pretty-printing.

All integer elimination runs through one routine, `_echelon`:
fraction-free (Bareiss) elimination on integer-cleared rows, each update
divided exactly by the previous pivot, which keeps entries as small as
the minors of the input.  The forward sweep gives rank, determinants and
the greedy choice of independent rows, each in one sweep over all the
rows; the reduced sweep, which also clears the rows above each pivot,
leaves every pivot entry equal to the last pivot d, so its integer rows
are d times the reduced row echelon form.  Those rows are the result:
the canonical equations of `polytope`, the integer nullspace that
`affine_hull` (of the rays (t, x) of points x / t, the vertex form of
`polytope`) reads off them, and the DD kernel's inverse of its initial
basis; no elimination hands back Fraction rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(values) -> Vec:
    """Tuple of Fractions; entries that already are Fractions pass through."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def primitive(v, orient: bool = False) -> tuple[int, ...]:
    """The primitive integer row of a rational row: coprime ints, as a
    tuple of `int`s (a zero row stays zero).

    Only positive scalings are applied, so inequality directions are
    preserved.  With `orient` the sign is also fixed so the first
    nonzero entry is positive (for equations, where both signs describe
    the same hyperplane).
    """
    ints = _int_row(v)
    if orient and next((a for a in ints if a), 0) < 0:
        ints = [-a for a in ints]
    return tuple(ints)


def _int_row(row) -> list[int]:
    """Primitive integer row spanning the same line as a rational row.

    Only positive scalings are applied; a zero row stays zero.  A row of
    `int`s (facet rows, hom rows, the tight rows of `homs.is_vertex_map`)
    needs no denominators cleared, only its gcd divided out.
    """
    if all(type(x) is int for x in row):
        g = gcd(*row)
        return [a // g for a in row] if g > 1 else list(row)
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
    iff column i of the transposed rows is a pivot column.
    """
    return _echelon([list(col) for col in zip(*rows)])[0][:dim]


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    The rows are copied, so the argument is left as it is.
    """
    rows = [list(row) for row in rows]
    pivots, sign = _echelon(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * rows[-1][-1] if rows else 1


def rank(M) -> int:
    """Exact matrix rank (fraction-free elimination)."""
    return len(_echelon([r for r in map(_int_row, M) if any(r)])[0])


@dataclass(frozen=True)
class AffineHull:
    """Affine hull of a point set: its dimension and the rows
    (normal, offset) with normal . x = offset cutting it out, each a
    primitive int row whose normal leads with a positive entry."""

    dim: int
    equations: tuple[tuple[tuple[int, ...], int], ...]


def affine_hull(rays) -> AffineHull:
    """Affine hull of the points x / t of a nonempty list of integer rays
    (t, x), t > 0, of common length.

    The equations are the integer nullspace of the rays themselves, the
    homogeneous rows (t, x), found in one reduced `_echelon` sweep of
    copies of them.  Column 0 is a pivot, and the dimension is the
    number of the others.  With d the last pivot, each non-pivot column f
    gives the nullspace vector v with d at f and minus column f of the
    reduced rows at the pivots, that is the equation v[1:] . x = -v[0],
    scaled to a primitive int row.
    """
    rows = [list(ray) for ray in rays]
    if not rows:
        raise ValueError("affine hull of an empty point set")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("points of mixed dimension")
    pivots, _ = _echelon(rows, reduced=True)
    d = rows[0][0]  # every pivot entry equals the last pivot
    equations = []
    for f in range(1, n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = d
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        eq = primitive([*v[1:], -v[0]], orient=True)
        equations.append((eq[:-1], eq[-1]))
    return AffineHull(len(pivots) - 1, tuple(equations))
