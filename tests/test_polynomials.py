"""Integer polynomial arithmetic, Sturm counting, and shape predicates."""

import random
from fractions import Fraction

import pytest

from bipermutahedron.invariants import bieulerian_by_ehrhart
from bipermutahedron.polynomials import (
    IntPolynomial,
    count_distinct_real_roots,
    poly_mul,
    real_root_check,
    sturm_chain,
)

F = Fraction


def test_poly_mul_and_eval():
    # (1 + x)(1 - x) = 1 - x^2
    assert poly_mul([1, 1], [1, -1]) == (1, 0, -1)
    value = IntPolynomial((1, 0, -1)).evaluate(3)
    assert value == -8
    assert type(value) is int


def test_sturm_chain_ends_in_the_repeated_factor():
    # (x-1)^2 (x+2) = x^3 - 3x + 2; gcd with its derivative is x - 1.
    p = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])
    last = sturm_chain(p)[-1]
    assert len(last) == 2
    assert last[1] > 0
    assert last[0] == -last[1]


def test_sturm_chain_endpoints():
    chain = sturm_chain((-2, 0, 1))  # x^2 - 2
    assert chain[0] == (-2, 0, 1)
    assert len(chain) >= 2
    assert all(type(c) is int for entry in chain for c in entry)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((-2, 0, 1), 2),  # x^2 - 2
        ((1, 0, 1), 0),  # x^2 + 1
        ((0, 1), 1),  # x
        ((-6, 11, -6, 1), 3),  # (x-1)(x-2)(x-3)
    ],
)
def test_count_distinct_real_roots(coeffs, expected):
    assert count_distinct_real_roots(coeffs) == expected


def test_int_polynomial_requires_trimmed_integers():
    with pytest.raises(ValueError):
        IntPolynomial((1, 2, 0))
    with pytest.raises(TypeError):
        IntPolynomial((F(1), F(1, 2)))
    # The same rule as sturm_chain's, so real_root_check takes every
    # IntPolynomial.
    with pytest.raises(TypeError):
        IntPolynomial((True, 2, 1))


def test_int_polynomial_evaluate_and_degree():
    p = IntPolynomial((1, 4, 1))
    assert len(p.coefficients) - 1 == 2
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
    # repeated roots: the chain's last entry keeps the verdict honest
    assert real_root_check(IntPolynomial((1, 2, 1))) == "real-rooted"
    assert real_root_check(IntPolynomial((4,))) == "real-rooted"


def test_products_of_linear_factors_known_answers():
    # prod (x - r) with r in -3..3, repeats allowed, is real-rooted with one
    # real root per distinct r; times x^2 + x + 1 it is not real-rooted.
    rng = random.Random(2020)
    for _ in range(300):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        p = (rng.choice([1, -1, 2, -3]),)
        for r in roots:
            p = poly_mul(p, (-r, 1))
        assert real_root_check(IntPolynomial(p)) == "real-rooted", roots
        assert count_distinct_real_roots(p) == len(set(roots)), roots
        q = poly_mul(p, (1, 1, 1))
        assert real_root_check(IntPolynomial(q)) == "not-real-rooted", roots
        assert count_distinct_real_roots(q) == len(set(roots)), roots


def test_bieulerian_real_rooted_through_n_20():
    # The Ehrhart route's B_n for n = 1..20: real-rooted, log-concave and
    # unimodal, as the paper proves for every n.
    for n in range(1, 21):
        poly = bieulerian_by_ehrhart(n)
        assert real_root_check(poly) == "real-rooted", n
        assert poly.is_log_concave(), n
        assert poly.is_unimodal(), n
