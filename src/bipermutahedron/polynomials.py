"""Exact univariate polynomial arithmetic and root-location certificates.

Polynomials are represented by tuples of coefficients in ascending order of
degree, ``p = (p[0], p[1], ...)`` meaning ``p[0] + p[1] x + ...``; entries
are ints or ``Fraction``s and the zero polynomial is the empty tuple.  The
public ``IntPolynomial`` wrapper is what the invariant computations hand
out: integer coefficients, trimmed, with a few convenience queries attached
(palindromy, log-concavity, unimodality, a Sturm real-rootedness check).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Sequence

Coeffs = tuple[Fraction, ...]


def poly_trim(p: Sequence[int | Fraction]) -> Coeffs:
    coeffs = [Fraction(c) for c in p]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_scale(p: Sequence[Fraction], a: int | Fraction) -> Coeffs:
    return poly_trim([Fraction(a) * c for c in p])


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p: Sequence[int | Fraction], x: int | Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Sequence[Fraction]) -> Coeffs:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_divmod(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder of exact polynomial division."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and any(c != 0 for c in rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic greatest common divisor, by the Euclidean algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(a, Fraction(1) / a[-1])
    return a


def sturm_chain(p: Coeffs) -> list[Coeffs]:
    chain = [poly_trim(p), poly_derivative(p)]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_scale(r, -1))
    return [c for c in chain if c]


def _sign_variations(values: Iterable[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_real_roots(p: Coeffs) -> int:
    """Number of distinct real roots of a nonzero squarefree-or-not
    polynomial, via sign variations of its Sturm chain at -oo and +oo.
    """
    q = poly_trim(p)
    if not q:
        raise ValueError("zero polynomial")
    if len(q) == 1:
        return 0
    chain = sturm_chain(q)
    at_minus = [c[-1] * (-1) ** (len(c) - 1) for c in chain]
    at_plus = [c[-1] for c in chain]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


Verdict = Literal["real-rooted", "not-real-rooted"]


@dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial, coefficients ascending by degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(c, int) for c in self.coefficients):
            raise TypeError(f"coefficients must be ints: {self.coefficients}")
        if self.coefficients and self.coefficients[-1] == 0:
            raise ValueError("coefficients must be trimmed")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int | Fraction) -> Fraction:
        return poly_eval(self.coefficients, x)

    def is_palindromic(self) -> bool:
        return self.coefficients == tuple(reversed(self.coefficients))

    def is_log_concave(self) -> bool:
        """Term-by-term log-concavity: b_i^2 >= b_{i-1} b_{i+1} for all
        internal indices.

        >>> IntPolynomial((1, 4, 1)).is_log_concave()
        True
        >>> IntPolynomial((1, 1, 2)).is_log_concave()
        False
        """
        c = self.coefficients
        return all(c[i] ** 2 >= c[i - 1] * c[i + 1] for i in range(1, len(c) - 1))

    def is_unimodal(self) -> bool:
        c = self.coefficients
        peak = 0
        while peak + 1 < len(c) and c[peak] <= c[peak + 1]:
            peak += 1
        return all(c[i] >= c[i + 1] for i in range(peak, len(c) - 1))


def real_root_check(p: IntPolynomial) -> Verdict:
    """Decide whether all complex roots of ``p`` are real.

    The polynomial is divided by gcd(p, p') to make it squarefree, and a
    Sturm-sequence count of distinct real roots is compared against the
    squarefree degree.  Sturm sequences decide every nonzero input.

    >>> real_root_check(IntPolynomial((1, 4, 1)))
    'real-rooted'
    >>> real_root_check(IntPolynomial((1, 0, 1)))
    'not-real-rooted'
    """
    coeffs = poly_trim(p.coefficients)
    if not coeffs:
        raise ValueError("the zero polynomial has no root-location verdict")
    if len(coeffs) == 1:
        return "real-rooted"
    g = poly_gcd(coeffs, poly_derivative(coeffs))
    squarefree, rem = poly_divmod(coeffs, g)
    if rem:
        raise AssertionError("the gcd with the derivative must divide the polynomial")
    count = count_distinct_real_roots(squarefree)
    return "real-rooted" if count == len(squarefree) - 1 else "not-real-rooted"
