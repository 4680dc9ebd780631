"""Exact linear algebra over the integers.

Everything in this package that needs linear algebra needs *exact* answers:
determinants of lattice simplices, unique expansions of a ray in terms of
other rays, normals of walls.  The matrices involved are tiny (at most
``2n`` rows for the ground set sizes we care about).

One kernel does all the elimination: forward fraction-free elimination
(Bareiss 1968) on integer rows, which clears below each pivot and never
above it.  Every entry the kernel produces is an integer minor of its
input up to sign, so no ``Fraction`` is built during elimination.  Each
pivot is made positive by negating its row, and the kernel keeps the parity
of those negations, so ``d`` keeps its sign.  When a pivot and the one
before it are both 1, a row below takes a unit step, with no product and
no division; with a multiplier of +1 or -1 the step is one ``map`` of
``operator.sub`` or ``operator.add`` over the two rows, which runs in C.
Each job has one entry, and every entry takes integer rows:

- ``det_int`` needs only ``d``, the signed minor on the pivot rows and
  columns;
- ``solve_unique`` back-substitutes on the echelon form and returns the
  solution as integer numerators over ``d``; each row carries its
  right-hand side as its last entry;
- ``nullspace_normal`` back-substitutes the same way with the free column
  set to ``d`` and returns a primitive integer normal.

Back-substitution scaled by ``d`` divides exactly, because each value it
computes is ``d`` times a solution entry, a Cramer numerator, so it gives
the same integers as Gauss-Jordan elimination would, without clearing
above any pivot.

All three entries raise ``TypeError`` on an entry that is not an ``int``
and ``ValueError`` on rows of the wrong shape.

``_scaled_integers`` is the one rational-to-integer scaling of the package:
``geometry.SupportFunction``, once where a support is built, and
``triangulation.cover_locate`` call it to bring rational data onto integers
before any integer code sees it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence


def _scaled_integers(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """``values`` as integer numerators over the lcm of their denominators,
    and that lcm.

    >>> _scaled_integers([Fraction(1, 2), Fraction(2, 3), 1])
    ([3, 4, 6], 6)
    """
    try:
        den = lcm(*(x.denominator for x in values))
    except AttributeError:
        bad = next(x for x in values if not hasattr(x, "denominator"))
        raise TypeError(
            f"entries must be int or Fraction, got {type(bad).__name__}"
        ) from None
    return [x.numerator * (den // x.denominator) for x in values], den


def _bareiss(a: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Forward fraction-free elimination of the integer rows ``a`` in place,
    choosing pivots among the first ``ncols`` columns.

    Returns ``(pivot_cols, d, sign)``.  Afterwards the first
    ``len(pivot_cols)`` rows form an echelon form: row ``r`` is zero before
    column ``pivot_cols[r]`` and holds there the leading minor of order
    ``r + 1`` up to sign, made positive, and the remaining rows are zero in
    the first ``ncols`` columns.  ``d`` is the minor on the pivot rows and
    columns, with its sign (1 when there is no pivot), and ``sign`` is -1 to
    the number of row swaps.  Later columns (a right-hand side) are carried
    along.

    A negative pivot row is negated, which is negating an input row, so
    every entry stays a minor up to sign and every division stays exact;
    ``flip`` keeps the parity of those negations for ``d``.  A row with a
    zero in the pivot column is then rewritten only when the pivot differs
    from the one before, and a pivot of 1 after a pivot of 1 needs neither
    the product nor the division; with a multiplier of +1 or -1 such a unit
    step is one ``map`` of ``sub`` or ``add`` over the two rows.
    """
    rows = len(a)
    pivot_cols: list[int] = []
    rank = 0
    prev = 1
    flip = 1
    sign = 1
    for col in range(ncols):
        for pivot in range(rank, rows):
            if a[pivot][col]:
                break
        else:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[col]
        if pv < 0:
            top = a[rank] = [-y for y in top]
            pv = -pv
            flip = -flip
        unit = pv == 1 == prev
        for i in range(rank + 1, rows):
            row = a[i]
            f = row[col]
            # Bareiss: every new entry is a minor up to sign, so the
            # division is exact.
            if f and unit:
                if f == 1:
                    a[i] = list(map(sub, row, top))
                elif f == -1:
                    a[i] = list(map(add, row, top))
                else:
                    a[i] = [x - f * y for x, y in zip(row, top)]
            elif f:
                a[i] = [(x * pv - f * y) // prev for x, y in zip(row, top)]
            elif pv != prev:
                a[i] = [x * pv // prev for x in row]
        prev = pv
        pivot_cols.append(col)
        rank += 1
    return pivot_cols, flip * prev, sign


def _back_substitute(a: list[list[int]], pivot_cols: list[int], vec: list[int]) -> None:
    """Fill the pivot entries of ``vec`` in place, last pivot first, so that
    each echelon row ``a[r]`` of ``_bareiss`` pairs to zero with ``vec``.

    The other entries of ``vec`` are given; the pivot entries must start at
    0.  Each division is exact when the filled entries are integers, as
    they are when the given ones are ``d`` times a rational solution's.
    Row ``r`` is zero before its pivot and ``vec`` is still zero at it, so
    the pairing of the whole row is the sum over the later columns.
    """
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        row = a[r]
        vec[c] = -sum(map(mul, row, vec)) // row[c]


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by forward fraction-free
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
    _require_ints(a)
    pivot_cols, d, sign = _bareiss(a, m)
    return sign * d if len(pivot_cols) == m else 0


def _require_ints(rows: Sequence[Sequence[int]]) -> None:
    """Raise ``TypeError`` unless every entry of ``rows`` is an ``int``."""
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise TypeError(f"entries must be int, got {type(x).__name__}")


def solve_unique(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Solve a square nonsingular integer system exactly; raise on a
    singular one.

    Each of the m rows holds m coefficients and then its right-hand side.
    Returns ``(numerators, d)``: the solution is ``numerators[i] / d``, with
    ``d`` the determinant up to sign.  The numerators are back-substituted
    from the last row up, as X_i = (d b_i - sum_{j>i} U_ij X_j) / U_ii on the
    echelon form U.

    >>> solve_unique([[2, 0, 1], [0, 4, 1]])
    ([4, 2], 8)
    """
    m = len(rows)
    if any(len(row) != m + 1 for row in rows):
        raise ValueError("matrix must be square, with one rhs entry per row")
    _require_ints(rows)
    a = list(rows)
    pivot_cols, d, _ = _bareiss(a, m)
    if len(pivot_cols) != m:
        raise ValueError("singular matrix")
    # A X = d b is the augmented system's null vector with last entry -d.
    vec = [0] * m + [-d]
    _back_substitute(a, pivot_cols, vec)
    return vec[:m], d


def nullspace_normal(rows: Sequence[Sequence[int]]) -> list[int]:
    """A primitive integer spanning vector of the one-dimensional null space
    of the integer ``rows`` (rows = constraints), first nonzero entry
    positive.  Raises if the null space does not have dimension exactly one.

    >>> nullspace_normal([[1, 0, 1], [0, 2, 2]])
    [1, 1, -1]
    """
    if not rows:
        raise ValueError("need at least one row")
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise ValueError(f"every row must have {cols} entries, as the first does")
    _require_ints(rows)
    a = list(rows)
    pivot_cols, d, _ = _bareiss(a, cols)
    free = [c for c in range(cols) if c not in pivot_cols]
    if len(free) != 1:
        raise ValueError(f"null space has dimension {len(free)}, expected 1")
    vec = [0] * cols
    vec[free[0]] = d
    _back_substitute(a, pivot_cols, vec)
    # The entry d at the free column is nonzero, so the gcd is too.
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return [x // g for x in vec]
