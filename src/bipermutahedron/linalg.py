"""Exact linear algebra over the rationals.

Everything in this package that needs linear algebra needs *exact* answers:
determinants of lattice simplices, barycentric coordinates of rational
points, unique expansions of a ray in terms of other rays.  The matrices
involved are tiny (at most ``2n`` rows for the ground set sizes we care
about).

One kernel does all the elimination: fraction-free elimination (Bareiss
1968) on integer rows.  Rational input is first made integral row by row,
scaling each row by the lcm of its denominators, which changes neither the
solutions of a system nor its null space.  Every entry the kernel produces
is an integer minor of its input, so no ``Fraction`` is built during
elimination.  ``solve_unique`` and ``nullspace_normal`` run it as
Gauss-Jordan elimination: the reduced row echelon form is the result divided
by one common pivot value ``d``, and they read their answers off it.
``det_int`` needs only ``d``, the minor on the pivot rows and columns, so it
runs the kernel forward only, clearing below each pivot and never above.

Matrices are lists/tuples of rows; entries are ints or ``Fraction``s.

``_scaled_integers`` is the one rational-to-integer scaling of the package:
``solve_unique``, ``nullspace_normal``, ``primitive_integer_vector``,
``deformation._scaled_support``, ``deformation.generic_wallcross_oracle``
and ``triangulation.cover_locate`` call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _scaled_integers(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """``values`` as integer numerators over the lcm of their denominators,
    and that lcm.

    >>> _scaled_integers([Fraction(1, 2), Fraction(2, 3), 1])
    ([3, 4, 6], 6)
    """
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _bareiss(
    a: list[list[int]], ncols: int, forward_only: bool = False
) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows ``a`` in
    place, choosing pivots among the first ``ncols`` columns.

    Returns ``(pivot_cols, d, sign)``.  Afterwards row ``r`` of the first
    ``len(pivot_cols)`` rows holds ``d`` in column ``pivot_cols[r]`` and 0
    in every other pivot column, the remaining rows are zero in the first
    ``ncols`` columns, and dividing every entry by ``d`` gives the reduced
    row echelon form.  ``d`` is the minor on the pivot rows and columns (1
    when there is no pivot) and ``sign`` is -1 to the number of row swaps.
    Later columns (a right-hand side) are carried along.

    With ``forward_only`` no row above a pivot is touched: row ``r`` keeps
    the leading minor of order ``r + 1`` in column ``pivot_cols[r]``, so
    the rows form an echelon form instead, and the returned triple is the
    same.
    """
    rows = len(a)
    pivot_cols: list[int] = []
    prev = 1
    sign = 1
    for col in range(ncols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[col]
        for i in range(rank + 1 if forward_only else 0, rows):
            if i == rank:
                continue
            row = a[i]
            f = row[col]
            # Bareiss: every new entry is a minor, so the division is exact.
            if f:
                a[i] = [(x * pv - f * y) // prev for x, y in zip(row, top)]
            elif pv != prev:
                a[i] = [x * pv // prev for x in row]
        prev = pv
        pivot_cols.append(col)
    return pivot_cols, prev, sign


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by forward-only fraction-free
    Bareiss elimination.

    >>> det_int([[2, 0], [1, 3]])
    6
    >>> det_int([[1, 2], [2, 4]])
    0
    """
    a = [list(row) for row in matrix]
    m = len(a)
    if any(len(row) != m for row in a):
        raise ValueError("matrix must be square")
    pivot_cols, d, sign = _bareiss(a, m, forward_only=True)
    return sign * d if len(pivot_cols) == m else 0


def solve_unique(
    matrix: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> list[Fraction]:
    """Solve a square nonsingular system exactly; raise on a singular matrix.

    >>> solve_unique([[2, 0], [0, 4]], [1, 1])
    [Fraction(1, 2), Fraction(1, 4)]
    """
    m = len(matrix)
    if len(rhs) != m or any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square with one rhs entry per row")
    a = [_scaled_integers([*row, b])[0] for row, b in zip(matrix, rhs)]
    pivot_cols, d, _ = _bareiss(a, m)
    if len(pivot_cols) != m:
        raise ValueError("singular matrix")
    return [Fraction(row[m], d) for row in a]


def nullspace_normal(matrix: Sequence[Sequence[int | Fraction]]) -> list[int]:
    """A primitive integer spanning vector of the one-dimensional null space
    of ``matrix`` (rows = constraints).  Raises if the null space does not
    have dimension exactly one.

    The sign is normalized so that the first nonzero entry is positive.
    """
    cols = len(matrix[0])
    a = [_scaled_integers(row)[0] for row in matrix]
    pivot_cols, d, _ = _bareiss(a, cols)
    free = [c for c in range(cols) if c not in pivot_cols]
    if len(free) != 1:
        raise ValueError(f"null space has dimension {len(free)}, expected 1")
    f = free[0]
    vec = [0] * cols
    vec[f] = d
    for r, c in enumerate(pivot_cols):
        vec[c] = -a[r][f]
    return primitive_integer_vector(vec)


def primitive_integer_vector(vec: Sequence[int | Fraction]) -> list[int]:
    """Scale a nonzero rational vector to a primitive integer vector whose
    first nonzero entry is positive.

    >>> primitive_integer_vector([Fraction(1, 2), Fraction(-3, 2)])
    [1, -3]
    """
    if not any(vec):
        raise ValueError("zero vector")
    ints, _ = _scaled_integers(vec)
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints
