"""Integer univariate polynomials and a Sturm real-rootedness certificate.

Polynomials are tuples of ``int`` coefficients in ascending order of
degree, ``p = (p[0], p[1], ...)`` meaning ``p[0] + p[1] x + ...``; the zero
polynomial is the empty tuple.  As in the elimination kernel of ``linalg``,
every step stays on integers and no ``Fraction`` is built.

``sturm_chain`` is a primitive pseudo-remainder sequence (Collins):
multiplying the entries of a Sturm sequence by positive integers keeps
every sign, so it is a Sturm sequence of p, and its last entry is
gcd(p, p') up to a constant (Basu–Pollack–Roy, *Algorithms in Real
Algebraic Geometry*, ch. 8).  The public ``IntPolynomial`` wrapper is what
the invariant computations hand out: integer coefficients, trimmed, with
palindromy, log-concavity and unimodality queries attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Literal, Sequence

from .linalg import _require_ints

__all__ = [
    "IntPolynomial",
    "real_root_check",
    "count_distinct_real_roots",
    "sturm_chain",
    "poly_mul",
]


def _trim(p: Sequence[int]) -> tuple[int, ...]:
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _negated_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Minus the remainder of ``a`` by ``b``, times a power of |lc(b)|,
    divided by its content: each step scales by |lc(b)|, never by lc(b),
    so the factor stays positive."""
    r = list(a)
    k = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    for top in range(len(r) - 1, k - 1, -1):
        f = r.pop() * sign
        if f:
            shift = top - k
            r = [x * scale for x in r]
            for i in range(k):
                r[shift + i] -= f * b[i]
    rem = _trim(r)
    g = gcd(*rem)  # 0 for an empty remainder, which then stays empty
    return tuple(-x // g for x in rem)


def sturm_chain(p: Sequence[int]) -> list[tuple[int, ...]]:
    """A Sturm sequence of the nonzero integer polynomial ``p``: p, p', and
    then primitive negated pseudo-remainders until the next one vanishes.

    >>> sturm_chain((-2, 0, 1))
    [(-2, 0, 1), (0, 2), (1,)]
    """
    _require_ints([p])
    q = _trim(p)
    if not q:
        raise ValueError("the zero polynomial has no Sturm chain")
    chain = [q]
    nxt = _trim([i * c for i, c in enumerate(q)][1:])
    while nxt:
        chain.append(nxt)
        nxt = _negated_remainder(chain[-2], chain[-1])
    return chain


def _sign_variations(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _real_root_count(chain: list[tuple[int, ...]]) -> int:
    """Sign variations of the chain's leading coefficients at -oo minus
    those at +oo; no entry of the chain is zero."""
    at_plus = [c[-1] > 0 for c in chain]
    at_minus = [s == (len(c) % 2 == 1) for c, s in zip(chain, at_plus)]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def count_distinct_real_roots(p: Sequence[int]) -> int:
    """Number of distinct real roots of a nonzero integer polynomial,
    squarefree or not.

    >>> count_distinct_real_roots((-6, 11, -6, 1))
    3
    """
    return _real_root_count(sturm_chain(p))


Verdict = Literal["real-rooted", "not-real-rooted"]


@dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial, coefficients ascending by degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_ints([self.coefficients])
        if self.coefficients and self.coefficients[-1] == 0:
            raise ValueError("coefficients must be trimmed")

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

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

    One Sturm chain counts the distinct real roots, and its last entry,
    gcd(p, p') up to a constant, leaves deg p minus its degree distinct
    complex roots.  Sturm sequences decide every nonzero input.

    >>> real_root_check(IntPolynomial((1, 4, 1)))
    'real-rooted'
    >>> real_root_check(IntPolynomial((1, 0, 1)))
    'not-real-rooted'
    """
    chain = sturm_chain(p.coefficients)
    distinct = len(chain[0]) - len(chain[-1])
    return "real-rooted" if _real_root_count(chain) == distinct else "not-real-rooted"
