"""Face numbers, biEulerian polynomials, and the sweep orientation."""

import ast
import inspect
import re
from collections import Counter

import pytest

from bipermutahedron import invariants
from bipermutahedron.combinatorics import (
    Bipermutation,
    bipermutation_count,
    descents,
    enumerate_bipermutations,
    parse_bipermutation,
)
from bipermutahedron.invariants import (
    LengthMismatch,
    NonGenericSweep,
    TruncatedBiseries,
    TruncationResidue,
    bieulerian_by_descents,
    bieulerian_by_ehrhart,
    f_generating_check,
    f_vector_bruteforce,
    f_vector_formula,
    h_from_f,
    multigraph_count,
    sweep_neighbors,
    sweep_orientation_check,
)
from bipermutahedron.polynomials import IntPolynomial, real_root_check

# Frozen fan f-vectors (dimensions 0..2n-2 in the quotient).
FAN_F = {
    2: [1, 6, 6],
    3: [1, 24, 114, 180, 90],
    4: [1, 78, 978, 4320, 8460, 7560, 2520],
}

BIEULERIAN = {
    1: (1,),
    2: (1, 4, 1),
    3: (1, 20, 48, 20, 1),
    4: (1, 72, 603, 1168, 603, 72, 1),
}


def test_multigraph_count_small_values():
    # d = 2: a single doubled edge class; all n edges on one vertex pair
    assert multigraph_count(2, 1) == 1
    assert multigraph_count(3, 2) == 6
    assert multigraph_count(4, 2) == 6
    # covering [3] with one edge is impossible
    assert multigraph_count(3, 1) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_f_vector_frozen(n):
    assert f_vector_formula(n) == FAN_F[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f_vector_formula_matches_bruteforce(n):
    assert f_vector_formula(n) == f_vector_bruteforce(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chamber_count_equals_bipermutations(n):
    assert f_vector_formula(n)[-1] == bipermutation_count(n)


def test_generating_function_reproduces_f_vectors():
    assert f_generating_check(4, 8)


def test_truncated_biseries_rejects_negative_counts():
    with pytest.raises(ValueError):
        TruncatedBiseries(((1, 0), (0, -1)))


def test_h_from_f_simplex():
    # triangle: f = (1, 3, 3), h = 1 + x + x^2
    assert h_from_f([1, 3, 3], 2).coefficients == (1, 1, 1)


def test_h_from_f_length_mismatch():
    with pytest.raises(LengthMismatch):
        h_from_f([1, 3, 3], 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bieulerian_three_routes_agree(n):
    by_descents = bieulerian_by_descents(n)
    by_h = h_from_f(f_vector_formula(n), 2 * n - 2)
    by_ehrhart = bieulerian_by_ehrhart(n)
    assert by_descents.coefficients == BIEULERIAN[n]
    assert by_h == by_descents
    assert by_ehrhart == by_descents



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_pass_histogram_counts_descents_per_word(n):
    histogram = Counter(descents(bp) for bp in enumerate_bipermutations(n))
    expected = tuple(histogram[d] for d in range(2 * n - 1))
    assert bieulerian_by_descents(n).coefficients == expected

def test_bieulerian_n5_cross_route_only():
    # too large to freeze by hand; the three routes are the oracle
    a = bieulerian_by_descents(5)
    b = h_from_f(f_vector_formula(5), 8)
    c = bieulerian_by_ehrhart(5)
    assert a == b == c
    assert a.evaluate(1) == bipermutation_count(5)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_descent_route_matches_ehrhart_up_to_its_bound(n):
    # 7,484,400 words at n = 6 and 81,729,648,000 at n = 8: past the
    # per-word check, the Ehrhart route and the Sturm certificate hold it.
    poly = bieulerian_by_descents(n)
    assert poly == bieulerian_by_ehrhart(n)
    assert real_root_check(poly) == "real-rooted"


@pytest.mark.parametrize("n", [4, 5])
def test_descent_route_steps_fewer_times_than_there_are_words(monkeypatch, n):
    # One descent-rule call per step between states (1,224 at n = 4, 7,560
    # at n = 5), fewer than the words; at n = 3 the 156 steps outnumber the
    # 90 words.
    real = invariants._is_descent
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants, "_is_descent", counted)
    poly = bieulerian_by_descents.__wrapped__(n)
    assert poly == bieulerian_by_ehrhart(n)
    assert 0 < len(calls) < bipermutation_count(n)


def test_descent_route_defines_no_walk():
    # The route is one loop over states: no nested function, so no recursion.
    route = ast.parse(inspect.getsource(bieulerian_by_descents.__wrapped__)).body[0]
    functions = (ast.FunctionDef, ast.Lambda)
    assert [node for node in ast.walk(route) if isinstance(node, functions)] == [route]


def test_ehrhart_and_h_from_f_agree_through_n12():
    for n in range(1, 31):
        assert bieulerian_by_ehrhart(n) == h_from_f(f_vector_formula(n), 2 * n - 2)


def test_ehrhart_at_the_cli_bound():
    # n = 200 is the largest n that bieulerian --method ehrhart accepts.
    poly = bieulerian_by_ehrhart(200)
    assert len(poly.coefficients) - 1 == 398
    assert poly.is_palindromic()
    assert poly.evaluate(1) == bipermutation_count(200)


@pytest.mark.parametrize(
    ("a", "message"),
    [
        # C(4,2)^2 = 36 becomes 49 in the 2nd dilate, which moves every
        # coefficient from x^2 on: the first guard coefficient is -5 * 13.
        (4, "coefficient of x^3 is -65, expected 0"),
        # C(9,2)^2 = 1296 becomes 1369 in the 7th dilate, past the degree:
        # only the last guard coefficient reads it.
        (9, "coefficient of x^7 is 73, expected 0"),
    ],
    ids=["first-guard", "last-guard"],
)
def test_ehrhart_guard_catches_a_wrong_lattice_point_count(monkeypatch, a, message):
    # One lattice point more in one dilate of the product of two triangles.
    real = invariants.comb
    monkeypatch.setattr(invariants, "comb", lambda p, q: real(p, q) + ((p, q) == (a, 2)))
    with pytest.raises(TruncationResidue, match=f"^{re.escape(message)}$"):
        bieulerian_by_ehrhart(2)


@pytest.mark.parametrize("n", range(1, 7))
def test_bieulerian_evaluations_and_shape(n):
    poly = bieulerian_by_ehrhart(n)
    assert len(poly.coefficients) - 1 == max(2 * n - 2, 0)
    assert poly.evaluate(1) == bipermutation_count(n)
    assert poly.is_palindromic()
    assert poly.is_log_concave()
    assert poly.is_unimodal()
    assert real_root_check(poly) == "real-rooted"


def test_sweep_neighbors_structure():
    bp = parse_bipermutation("1|2|1")
    neighbors = set(sweep_neighbors(bp))
    # swap the two distinct adjacent pairs; no equal adjacent pair exists
    assert neighbors == {(2, 1, 1), (1, 1, 2)}
    neighbors = sweep_neighbors(parse_bipermutation("1|1|2"))
    # collapsing 1|1 doubles the single letter 2 in place
    assert sorted(neighbors) == [(1, 2, 1), (1, 2, 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_orientation_matches_descents(n):
    report = sweep_orientation_check(n)
    assert report.passed, report.mismatches
    assert tuple(report.histogram) == BIEULERIAN[n]
    assert report.edge_incidences == (2 * n - 2) * bipermutation_count(n)


def test_sweep_builds_each_vertex_once(monkeypatch):
    built = Counter()
    real = invariants.vertex_of_bipermutation

    def counted(bp):
        built[bp.letters] += 1
        return real(bp)

    monkeypatch.setattr(invariants, "vertex_of_bipermutation", counted)
    assert sweep_orientation_check(4).passed
    assert sum(built.values()) == len(built) == bipermutation_count(4) == 2520


def test_sweep_tie_raises_non_generic(monkeypatch):
    # One chamber given its neighbor's vertex: the two values tie.
    bp = parse_bipermutation("1|2|1")
    neighbor = Bipermutation(sweep_neighbors(bp)[0])
    real = invariants.vertex_of_bipermutation
    monkeypatch.setattr(
        invariants, "vertex_of_bipermutation", lambda b: real(neighbor if b == bp else b)
    )
    message = "sweep functional ties 1|2|1 with its neighbor 2|1|1"
    with pytest.raises(NonGenericSweep, match=f"^{re.escape(message)}$"):
        sweep_orientation_check(2)


def test_sweep_neighbor_outside_the_chambers_raises(monkeypatch):
    real = invariants.enumerate_bipermutations
    monkeypatch.setattr(invariants, "enumerate_bipermutations", lambda n: list(real(n))[1:])
    message = "neighbor 1|1|2 of 1|2|1 is not a chamber"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        sweep_orientation_check(2)
