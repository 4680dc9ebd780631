"""Enumerative invariants of the bipermutahedral fan, by independent routes.

The fan's f-vector is computed three ways: a closed inclusion-exclusion
formula, brute-force multigraph enumeration, and a double exponential
generating function.  The biEulerian polynomial B_n(x) is computed three
ways as well: as the descent histogram of bipermutations, as the h-vector
of the fan's f-vector, and as the numerator of the rational generating
function sum_k C(k+2,2)^n x^k.  Each route is an independent implementation
so the cross-method equalities are meaningful checks.  The face-multigraph
bijection behind the formula (``combinatorics.enumerate_bisequences`` and
the two multigraph maps) is a further leg: ``check --suite invariants``
counts the bisequences by number of parts against ``f_vector_formula`` and
round-trips each one through its multigraph.  The polytope's f-vector is
the fan's reversed, headed by 1 for the empty face, as ``fvector --object
polytope`` prints it.

All arithmetic is exact: Python big integers and fractions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import add, mul
from typing import Sequence

from .combinatorics import (
    Bipermutation,
    _is_descent,
    descents,
    doubled_word,
    enumerate_bipermutations,
)
from .geometry import vertex_of_bipermutation
from .polynomials import IntPolynomial

__all__ = [
    "LengthMismatch",
    "TruncationResidue",
    "NonGenericSweep",
    "TruncatedBiseries",
    "multigraph_count",
    "f_vector_formula",
    "f_vector_bruteforce",
    "f_generating_check",
    "h_from_f",
    "bieulerian_by_descents",
    "bieulerian_by_ehrhart",
    "SweepReport",
    "sweep_orientation_check",
    "sweep_neighbors",
]


class LengthMismatch(ValueError):
    """An f-vector's length disagrees with the declared dimension."""


class TruncationResidue(ArithmeticError):
    """A series coefficient that must vanish did not."""


class NonGenericSweep(ArithmeticError):
    """The sweep functional failed to separate two adjacent vertices."""


def multigraph_count(d: int, n: int) -> int:
    """Multigraphs on d labeled vertices with edges labeled 1..n, no loops
    and no isolated vertices, by inclusion-exclusion on the covered set.

    >>> multigraph_count(3, 2), multigraph_count(2, 3)
    (6, 1)
    """
    return _covered_count(d, [comb(i, 2) ** n for i in range(d + 1)])


def _covered_count(d: int, powers: Sequence[int]) -> int:
    """:func:`multigraph_count` given ``powers[i] = comb(i, 2) ** n``."""
    return sum((-1) ** (d - i) * comb(d, i) * powers[i] for i in range(d + 1))


def f_vector_formula(n: int) -> list[int]:
    """The fan's f-vector: entry d - 2 counts cones of dimension d - 2 in
    the quotient, for d = 2..2n; cones with d - 1 parts correspond to the
    multigraphs counted by :func:`multigraph_count`.

    >>> f_vector_formula(2)
    [1, 6, 6]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    powers = [comb(i, 2) ** n for i in range(2 * n + 1)]
    return [_covered_count(d, powers) for d in range(2, 2 * n + 1)]


def f_vector_bruteforce(n: int) -> list[int]:
    """The same vector by direct enumeration of edge assignments.

    Count assignments of the n labeled edges to vertex pairs of [d] whose
    union covers [d], via a memoized scan over (edges left, covered set).
    Independent of the inclusion-exclusion route.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def count(d: int) -> int:
        pairs = [
            (1 << (a - 1)) | (1 << (b - 1))
            for a in range(1, d + 1)
            for b in range(a + 1, d + 1)
        ]
        full = (1 << d) - 1

        @cache
        def go(edges_left: int, covered: int) -> int:
            if edges_left == 0:
                return 1 if covered == full else 0
            return sum(go(edges_left - 1, covered | p) for p in pairs)

        return go(n, 0)

    return [count(d) for d in range(2, 2 * n + 1)]


@dataclass(frozen=True)
class TruncatedBiseries:
    """Scaled coefficients d! * n! * [x^d y^n] of a double series.

    counts[d][n] must be a nonnegative integer for the series arising here.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for row in self.counts:
            for value in row:
                if value < 0:
                    raise ValueError("biseries counts must be nonnegative")

    def __getitem__(self, key: tuple[int, int]) -> int:
        d, n = key
        return self.counts[d][n]


def _cone_count_biseries(max_d: int, max_n: int) -> TruncatedBiseries:
    """Expand F(x, e^y) / e^x where F(a, b) = sum_d a^d b^C(d,2) / d!.

    F(x, e^y) has coefficient C(d,2)^j / (d! j!) at x^d y^j; dividing by
    e^x convolves with (-1)^i / i! along the x direction.
    """
    inner = [
        [Fraction(comb(d, 2) ** j, factorial(d) * factorial(j)) for j in range(max_n + 1)]
        for d in range(max_d + 1)
    ]
    table = []
    for d in range(max_d + 1):
        row = []
        for j in range(max_n + 1):
            value = sum(
                (
                    Fraction((-1) ** i, factorial(i)) * inner[d - i][j]
                    for i in range(d + 1)
                ),
                Fraction(0),
            )
            scaled = value * factorial(d) * factorial(j)
            if scaled.denominator != 1:
                raise TruncationResidue(
                    f"coefficient ({d},{j}) of the cone-count series "
                    f"is not an integer: {scaled}"
                )
            row.append(int(scaled))
        table.append(tuple(row))
    return TruncatedBiseries(tuple(table))


def f_generating_check(max_n: int, max_d: int) -> bool:
    """Verify that d! n! [x^d y^n] (F(x, e^y)/e^x) counts the fan's cones.

    The reference values are the multigraph counts, so together with
    :func:`f_vector_formula` this closes a three-way loop.

    >>> f_generating_check(4, 8)
    True
    """
    series = _cone_count_biseries(max_d, max_n)
    return all(
        series[d, j] == multigraph_count(d, j)
        for d in range(max_d + 1)
        for j in range(max_n + 1)
    )


def h_from_f(f: Sequence[int], d: int) -> IntPolynomial:
    """Change of basis from an f-vector to its h-polynomial.

    Defined by sum_i h_i x^(d-i) = sum_i f_i (x-1)^(d-i); the input lists
    f_0..f_d and the output is h_0 + h_1 x + ... as an integer polynomial.

    >>> h_from_f([1, 6, 6], 2).coefficients
    (1, 4, 1)
    """
    if len(f) != d + 1:
        raise LengthMismatch(
            f"an f-vector for dimension {d} needs {d + 1} entries, got {len(f)}"
        )
    c = [0] * (d + 1)
    for i, fi in enumerate(f):
        for j in range(d - i + 1):
            c[j] += fi * comb(d - i, j) * (-1) ** (d - i - j)
    ascending = list(reversed(c))
    while len(ascending) > 1 and ascending[-1] == 0:
        ascending.pop()
    return IntPolynomial(tuple(ascending))


@cache
def bieulerian_by_descents(n: int) -> IntPolynomial:
    """B_n(x) as the descent histogram over all bipermutations.

    A transfer matrix (Stanley, *EC1* 4.7) per once-letter k, building no
    word: a state is the slots left per letter (base 3, letter e at digit
    e - 1) and the last letter with its bar flag (0 before the first), and
    holds the descent histogram of its prefixes.  A second copy of a letter
    other than k is barred; each step adds the descent rule's value.

    >>> bieulerian_by_descents(2).coefficients
    (1, 4, 1)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    histogram = zero = (0,) * (2 * n - 1)
    for k in range(1, n + 1):
        states = {(3**n - 1 - 3 ** (k - 1), 0, False): [1, *zero[1:]]}
        for _ in range(2 * n - 1):
            grown: dict[tuple[int, int, bool], list[int]] = {}
            for (left, a, abar), counts in states.items():
                for b in range(1, n + 1):
                    slots = left // 3 ** (b - 1) % 3
                    if slots:
                        bbar = slots == 1 and b != k
                        descent = a and _is_descent(a, abar, b, bbar, k)
                        # Add this histogram, moved up one if the step descends.
                        row = grown.setdefault((left - 3 ** (b - 1), b, bbar), [*zero])
                        row[descent:] = map(add, row[descent:], counts)
            states = grown
        histogram = tuple(map(sum, zip(histogram, *states.values())))
    return IntPolynomial(histogram)


def bieulerian_by_ehrhart(n: int) -> IntPolynomial:
    """B_n(x) as the numerator of sum_k C(k+2,2)^n x^k over (1-x)^(2n+1).

    The k-th dilate of the product of n triangles has C(k+2,2)^n lattice
    points, so the numerator's coefficient of x^m is the integer
    sum_j (-1)^j C(2n+1, j) C(m-j+2, 2)^n over j = 0..min(m, 2n+1).  The
    count is polynomial in k of degree 2n, so the numerator could a priori
    have degree up to 2n; the coefficients of x^(2n-1) through x^(2n+3) are
    all computed and must vanish, leaving degree 2n - 2.

    >>> bieulerian_by_ehrhart(1).coefficients
    (1,)
    >>> bieulerian_by_ehrhart(2).coefficients
    (1, 4, 1)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    counts = [comb(k + 2, 2) ** n for k in range(2 * n + 4)]
    signed = [(-1) ** j * comb(2 * n + 1, j) for j in range(2 * n + 2)]
    coefficients = [
        sum(c * counts[m - j] for j, c in enumerate(signed[: m + 1]))
        for m in range(2 * n + 4)
    ]
    for m in range(2 * n - 1, 2 * n + 4):
        if coefficients[m]:
            raise TruncationResidue(
                f"coefficient of x^{m} is {coefficients[m]}, expected 0"
            )
    return IntPolynomial(tuple(coefficients[: 2 * n - 1]))


def sweep_neighbors(bp: Bipermutation) -> list[tuple[int, ...]]:
    """The words of the 2n - 2 neighbors of a vertex, one per adjacent
    position.

    Distinct adjacent letters swap in place.  An adjacent equal pair i|i
    collapses to a single i while the once-letter k doubles to k|k, the
    exchange walking the edge between those two vertices.

    >>> sweep_neighbors(Bipermutation((1, 1, 2)))
    [(1, 2, 2), (1, 2, 1)]
    """
    letters = bp.letters
    out = []
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if a != b:
            out.append(letters[:p] + (b, a) + letters[p + 2 :])
        else:
            rest = letters[: p + 1] + letters[p + 2 :]
            out.append(tuple(e for e, _ in doubled_word(rest, (bp.k,))))
    return out


@dataclass(frozen=True)
class SweepReport:
    n: int
    passed: bool
    histogram: tuple[int, ...]
    edge_incidences: int
    mismatches: tuple[str, ...]


def sweep_orientation_check(n: int) -> SweepReport:
    """Orient the graph of the polytope by a sweep and compare to descents.

    The sweep functional pairs a vertex (x, y) with weights z_i = (4n)^(i+2)
    on x and w_i = i on y, one weight row dotted with the vertex row.  Every
    edge points toward its endpoint of smaller value; the indegree of each
    vertex must equal the descent count of its bipermutation, so the
    indegree histogram reproduces B_n(x).

    The weights realize z_n >> ... >> z_1 >> w_n > ... > w_1 > 0: vertex
    coordinates are bounded by 2n - 1 + |s| < 2n + 2n^2, so the y-part of
    any difference is at most n * 2 * (2n + 2n^2) < (4n)^3 <= min z-gap,
    and ties are impossible unless the z-parts cancel exactly.  The
    NonGenericSweep guard still verifies every comparison at runtime.

    Each chamber's vertex and sweep value are computed once, into a table
    keyed by its word; a neighbor's word reads its value from the table,
    and a word missing from it raises ``AssertionError``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    weights = [(4 * n) ** (i + 2) for i in range(1, n + 1)] + list(range(1, n + 1))

    # Each chamber's value, computed once, in enumeration order.
    chambers = list(enumerate_bipermutations(n))
    value_of = {
        bp.letters: sum(map(mul, weights, vertex_of_bipermutation(bp)))
        for bp in chambers
    }
    histogram = [0] * (2 * n - 1)
    incidences = 0
    mismatches: list[str] = []
    for bp in chambers:
        value = value_of[bp.letters]
        indegree = 0
        for word in sweep_neighbors(bp):
            other = value_of.get(word)
            if other is None:
                neighbor = "|".join(map(str, word))
                raise AssertionError(f"neighbor {neighbor} of {bp} is not a chamber")
            if other == value:
                neighbor = "|".join(map(str, word))
                raise NonGenericSweep(
                    f"sweep functional ties {bp} with its neighbor {neighbor}"
                )
            indegree += other > value
            incidences += 1
        histogram[indegree] += 1
        if indegree != descents(bp) and len(mismatches) < 5:
            mismatches.append(f"{bp}: indegree {indegree} != {descents(bp)}")
    return SweepReport(
        n=n,
        passed=not mismatches,
        histogram=tuple(histogram),
        edge_incidences=incidences,
        mismatches=tuple(mismatches),
    )
