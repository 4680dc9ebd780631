"""Exact polynomial arithmetic, Sturm counting, and shape predicates."""

from fractions import Fraction

import pytest

from bipermutahedron.polynomials import (
    IntPolynomial,
    count_distinct_real_roots,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_trim,
    real_root_check,
    sturm_chain,
)

F = Fraction


def test_poly_mul_and_eval():
    # (1 + x)(1 - x) = 1 - x^2
    assert poly_mul([F(1), F(1)], [F(1), F(-1)]) == (F(1), F(0), F(-1))
    assert poly_eval([1, 0, -1], 3) == -8


def test_poly_divmod_euclidean():
    # x^2 - 1 = (x - 1)(x + 1) + 0
    q, r = poly_divmod((F(-1), F(0), F(1)), (F(-1), F(1)))
    assert q == (F(1), F(1))
    assert r == ()


def test_poly_gcd_monic():
    # gcd((x-1)^2 (x+2), (x-1)(x+3)) is monic x - 1
    a = poly_mul(poly_mul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
    b = poly_mul([F(-1), F(1)], [F(3), F(1)])
    assert poly_gcd(a, b) == (F(-1), F(1))


def test_poly_trim():
    assert poly_trim([1, 2, 0, 0]) == (F(1), F(2))
    assert poly_trim([0, 0]) == ()


def test_sturm_chain_endpoints():
    chain = sturm_chain((F(-2), F(0), F(1)))  # x^2 - 2
    assert chain[0] == (F(-2), F(0), F(1))
    assert len(chain) >= 2


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((F(-2), F(0), F(1)), 2),  # x^2 - 2
        ((F(1), F(0), F(1)), 0),  # x^2 + 1
        ((F(0), F(1)), 1),  # x
        ((F(-6), F(11), F(-6), F(1)), 3),  # (x-1)(x-2)(x-3)
    ],
)
def test_count_distinct_real_roots(coeffs, expected):
    assert count_distinct_real_roots(coeffs) == expected


def test_int_polynomial_requires_trimmed_integers():
    with pytest.raises(ValueError):
        IntPolynomial((1, 2, 0))
    with pytest.raises(TypeError):
        IntPolynomial((F(1), F(1, 2)))


def test_int_polynomial_evaluate_and_degree():
    p = IntPolynomial((1, 4, 1))
    assert p.degree == 2
    assert p.evaluate(1) == 6
    assert p.evaluate(-1) == -2


def test_palindromic_logconcave_unimodal():
    p = IntPolynomial((1, 4, 1))
    assert p.is_palindromic()
    assert p.is_log_concave()
    assert p.is_unimodal()
    q = IntPolynomial((1, 1, 5))
    assert not q.is_palindromic()
    assert not q.is_log_concave()
    assert q.is_unimodal()  # weakly increasing counts as unimodal
    r = IntPolynomial((1, 0, 2, 0, 1))
    assert not r.is_unimodal()


def test_real_root_check_verdicts():
    assert real_root_check(IntPolynomial((1, 4, 1))) == "real-rooted"
    assert real_root_check(IntPolynomial((1, 0, 1))) == "not-real-rooted"
    # repeated roots: squarefree reduction keeps the verdict honest
    assert real_root_check(IntPolynomial((1, 2, 1))) == "real-rooted"
    assert real_root_check(IntPolynomial((4,))) == "real-rooted"
