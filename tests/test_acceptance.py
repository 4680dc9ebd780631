"""Ten end-to-end acceptance checks, one verdict line printed per criterion.

Each test exercises a headline capability across its full advertised range
and enforces a wall-clock budget.  Run with ``pytest -v`` to see the verdict
lines in the live output.
"""

import time
from fractions import Fraction

import pytest

from bipermutahedron.combinatorics import bipermutation_count, enumerate_bipermutations
from bipermutahedron.deformation import (
    enumerate_walls,
    generic_wallcross_oracle,
    minkowski_quotient,
    named_support,
    same_inequality,
    wall_inequality,
    wall_value_table,
)
from bipermutahedron.geometry import hyperplane_face_counts, symmetry_checks
from bipermutahedron.invariants import (
    bieulerian_by_descents,
    bieulerian_by_ehrhart,
    f_generating_check,
    f_vector_bruteforce,
    f_vector_formula,
    h_from_f,
    polytope_f_vector,
    sweep_orientation_check,
)
from bipermutahedron.polynomials import real_root_check
from bipermutahedron.triangulation import (
    cover_check,
    face_to_face_check,
    unimodularity_check,
)

POLYTOPE_F = {
    2: [1, 6, 6, 1],
    3: [1, 90, 180, 114, 24, 1],
    4: [1, 2520, 7560, 8460, 4320, 978, 78, 1],
}

BIEULERIAN = {
    1: (1,),
    2: (1, 4, 1),
    3: (1, 20, 48, 20, 1),
    4: (1, 72, 603, 1168, 603, 72, 1),
}

SEED = 20260814


@pytest.fixture(scope="module")
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(number: int, label: str, limit: float, elapsed: float, ok: bool):
        line = "criterion {:2d} {} ({:6.2f}s of {:3.0f}s) {}".format(
            number, "PASS" if ok else "FAIL", elapsed, limit, label
        )
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return emit


def timed(verdict, number: int, label: str, limit: float, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        verdict(number, label, limit, time.monotonic() - start, ok=False)
        raise
    elapsed = time.monotonic() - start
    verdict(number, label, limit, elapsed, ok=elapsed < limit)
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, budget {limit}s"


def test_criterion_01_f_vectors(verdict):
    def body():
        for n, expected in POLYTOPE_F.items():
            assert polytope_f_vector(n) == expected
        for n in range(1, 5):
            assert f_vector_formula(n) == f_vector_bruteforce(n)

    timed(verdict, 1, "f-vectors frozen, formula equals brute force", 1.0, body)


def test_criterion_02_bieulerian_routes(verdict):
    def body():
        for n in range(1, 6):
            by_descents = bieulerian_by_descents(n)
            by_h = h_from_f(f_vector_formula(n), 2 * n - 2)
            by_ehrhart = bieulerian_by_ehrhart(n)
            assert by_descents == by_h == by_ehrhart
            if n in BIEULERIAN:
                assert by_descents.coefficients == BIEULERIAN[n]

    timed(verdict, 2, "three routes to B_n agree up to n=5", 30.0, body)


def test_criterion_03_sweep(verdict):
    def body():
        for n in range(1, 5):
            report = sweep_orientation_check(n)
            assert report.passed
            assert tuple(report.histogram) == bieulerian_by_descents(n).coefficients

    timed(verdict, 3, "sweep indegrees reproduce descent counts up to n=4", 60.0, body)


def test_criterion_04_generating_function(verdict):
    def body():
        assert f_generating_check(max_n=4, max_d=8)

    timed(verdict, 4, "exponential series matches face counts d<=8 n<=4", 5.0, body)


def test_criterion_05_triangulation(verdict):
    def body():
        for n in range(1, 5):
            assert unimodularity_check(n)
            count = sum(1 for _ in enumerate_bipermutations(n))
            assert count == bipermutation_count(n)
        for n in range(2, 5):
            report = cover_check(n, samples=10_000, seed=SEED + n)
            assert report.passed and report.located == 10_000
        for n, samples in ((2, 20), (3, 3)):
            assert face_to_face_check(n, samples=samples, seed=SEED).passed

    timed(verdict, 5, "unimodular triangulation covers and is face-to-face", 300.0, body)


def test_criterion_06_hstar_guards(verdict):
    def body():
        for n in range(1, 7):
            poly = bieulerian_by_ehrhart(n)
            assert poly.degree == max(2 * n - 2, 0)
            assert poly.evaluate(1) == bipermutation_count(n)

    timed(verdict, 6, "series guards vanish and B_n(1) counts chambers n<=6", 5.0, body)


def test_criterion_07_real_rootedness(verdict):
    def body():
        for n in range(1, 7):
            poly = bieulerian_by_ehrhart(n)
            assert real_root_check(poly) == "real-rooted"
            assert poly.is_log_concave()
            assert poly.is_unimodal()

    timed(verdict, 7, "B_n real-rooted, log-concave, unimodal n<=6", 5.0, body)


def test_criterion_08_wall_inequalities(verdict):
    def body():
        for n in range(2, 5):
            for wall in enumerate_walls(n):
                assert same_inequality(
                    wall_inequality(wall), generic_wallcross_oracle(wall)
                )
        for n in range(2, 5):
            biperm = wall_value_table(named_support("biperm", n), n)
            harmonic = wall_value_table(named_support("harmonic", n), n)
            expected_cases = {"iii"} if n == 2 else {"i", "ii", "iii"}
            for case, value in (("i", 2), ("ii", 2), ("iii", 4)):
                observed = set(biperm.kind_a_values(case))
                assert observed == ({value} if case in expected_cases else set())
            assert biperm.kind_b_min() == n >= n
            for case, value in (("i", 1), ("ii", 0), ("iii", 1)):
                observed = set(harmonic.kind_a_values(case))
                assert observed == ({value} if case in expected_cases else set())
            assert set(harmonic.kind_b.keys()) == {Fraction(1)}

    timed(verdict, 8, "closed-form inequalities equal the oracle n<=4", 120.0, body)


def test_criterion_09_minkowski_quotient(verdict):
    def body():
        for n in range(2, 5):
            result = minkowski_quotient(
                named_support("biperm", n), named_support("harmonic", n), n
            )
            assert result.status == "ok"
            assert result.value == 2

    timed(verdict, 9, "Minkowski quotient is exactly 2 for n=2,3,4", 120.0, body)


def test_criterion_10_symmetries(verdict):
    def body():
        for n in (3, 4):
            assert hyperplane_face_counts(n).passed
        for n in range(2, 5):
            report = symmetry_checks(n)
            assert report.rays_relabel_invariant
            assert report.rays_swap_invariant
            assert report.vertices_relabel_equivariant
            assert report.vertices_swap_reverse
        witness_report = symmetry_checks(3)
        assert not witness_report.negation_is_automorphism
        assert witness_report.negation_witness == "12|13"

    timed(verdict, 10, "hyperplane counts and symmetry action verified", 60.0, body)
