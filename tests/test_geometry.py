"""Vertices, facets, rays, support functions, and symmetries."""

from fractions import Fraction

import pytest

from bipermutahedron import geometry
from bipermutahedron.combinatorics import (
    all_bisubsets,
    bisubset,
    enumerate_bipermutations,
    parse_bipermutation,
)
from bipermutahedron.geometry import (
    LatticePoint,
    SupportFunction,
    SymmetryReport,
    biperm_support,
    biperm_support_function,
    canonical_ray,
    facet_check,
    facets_json,
    harmonic_support,
    harmonic_support_function,
    hyperplane_face_counts,
    pairing,
    ray_vector,
    symmetry_checks,
    vertex_of_bipermutation,
    vertices_json,
)


def test_vertex_worked_example():
    v = vertex_of_bipermutation(parse_bipermutation("2|3|4|2|4|1|1"))
    assert v.top == (5, -7, 3, -1)
    assert v.bottom == (-7, -1, 11, -3)
    assert sum(v.top) == 0 and sum(v.bottom) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertices_are_distinct_with_zero_row_sums(n):
    seen = set()
    for bp in enumerate_bipermutations(n):
        v = vertex_of_bipermutation(bp)
        assert sum(v.top) == 0 and sum(v.bottom) == 0
        seen.add((v.top, v.bottom))
    assert len(seen) == sum(1 for _ in enumerate_bipermutations(n))


def test_ray_vector_and_pairing():
    bs = bisubset({1, 3}, {2, 3}, 3)
    assert ray_vector(bs) == [1, 0, 1, 0, 1, 1]
    assert pairing(bs, (5, 0, 2), (0, 3, 1)) == 5 + 2 + 3 + 1


def test_canonical_ray_quotients_lineality():
    # shifting a row by a constant or scaling positively must not matter
    base = canonical_ray((1, 0, 1), (0, 1, 1))
    assert base == canonical_ray((3, 2, 3), (5, 6, 6))
    assert base == canonical_ray((2, 0, 2), (0, 2, 2))


def test_biperm_support_values():
    assert biperm_support(bisubset({2, 3, 4, 7}, {1, 2, 4, 5, 6, 7}, 7)) == -45
    assert biperm_support(bisubset({1}, {2}, 2)) == -4
    assert biperm_support(bisubset({1}, {1, 2}, 2)) == -3


def test_harmonic_support_values():
    assert harmonic_support(bisubset({1}, {2}, 2)) == Fraction(-1)
    # degenerate-adjacent sanity: f(n) + f(0) + 1 = 0 by the translation
    n = 4
    h = harmonic_support_function(n)
    full = bisubset(range(1, n + 1), {1}, n)
    single = bisubset({1}, range(1, n + 1), n)
    assert h[full] == h[single]  # |S|,|T| swap symmetry


def test_support_function_requires_exact_cover():
    values = {bs: Fraction(0) for bs in all_bisubsets(2)}
    missing = dict(values)
    missing.pop(next(iter(missing)))
    with pytest.raises(ValueError):
        SupportFunction(2, missing)
    SupportFunction(2, values)  # complete table is accepted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_facet_check(n):
    report = facet_check(n)
    assert report.passed, report.counterexample
    assert report.vertices == [1, 6, 90][n - 1]
    assert report.facets == 3**n - 3


def test_facet_check_vertex_and_facet_json_schema():
    data = vertices_json(2)
    assert data["n"] == 2 and len(data["vertices"]) == 6
    entry = data["vertices"][0]
    assert set(entry) == {"biperm", "top", "bottom"}
    assert entry == {"biperm": "1|1|2", "top": [-3, 3], "bottom": [1, -1]}
    fdata = facets_json(2)
    assert len(fdata["facets"]) == 6
    # right-hand sides are decimal strings, set members plain integers
    assert fdata["facets"][0] == {"S": [1, 2], "T": [1], "rhs": "-3"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetry_relabel_and_swap(n):
    report = symmetry_checks(n)
    assert report.rays_relabel_invariant
    assert report.rays_swap_invariant
    assert report.vertices_relabel_equivariant
    assert report.vertices_swap_reverse


def test_negation_symmetry_breaks_at_n3():
    assert symmetry_checks(2).negation_is_automorphism
    report = symmetry_checks(3)
    assert not report.negation_is_automorphism
    assert report.negation_witness == "12|13"


def test_symmetry_report_at_n4():
    assert symmetry_checks(4) == SymmetryReport(
        n=4,
        rays_relabel_invariant=True,
        rays_swap_invariant=True,
        vertices_relabel_equivariant=True,
        vertices_swap_reverse=True,
        negation_is_automorphism=False,
        negation_witness="123|124",
    )


def test_symmetry_checks_catch_a_misplaced_vertex(monkeypatch):
    # Two coordinates of one vertex swapped: the relabelled vertex no longer
    # matches the vertex of the relabelled word.
    real = vertex_of_bipermutation
    target = next(enumerate_bipermutations(3))

    def misplaced(bp):
        v = real(bp)
        if bp != target:
            return v
        top = (v.top[1], v.top[0], *v.top[2:])
        assert top != v.top
        return LatticePoint(top, v.bottom)

    monkeypatch.setattr(geometry, "vertex_of_bipermutation", misplaced)
    report = symmetry_checks(3)
    assert not report.vertices_relabel_equivariant
    assert report.rays_relabel_invariant


HYPERPLANE_TABLES = {
    2: ({1: 2, 2: 2, 3: 2, 4: 0}, {1: 1, 2: 1, 3: 1, 4: 0}),
    3: ({1: 12, 2: 20, 3: 20, 4: 4}, {1: 3, 2: 3, 3: 3, 4: 6}),
}


@pytest.mark.parametrize("n", [2, 3])
def test_hyperplane_face_counts(n):
    report = hyperplane_face_counts(n)
    per, hyperplanes = HYPERPLANE_TABLES[n]
    assert report.passed
    assert report.per_hyperplane == per
    assert report.hyperplanes_of_type == hyperplanes
    assert report.dual_route_agrees
    assert report.totals_identity
    total_walls = sum(
        report.per_hyperplane[t] * hyperplanes[t] for t in (1, 2, 3, 4)
    )
    assert total_walls == {2: 6, 3: 180}[n]


def test_biperm_support_function_matches_vertex_minima():
    # the support value must be the minimum of the pairing over vertices
    n = 3
    h = biperm_support_function(n)
    vertices = [
        vertex_of_bipermutation(bp) for bp in enumerate_bipermutations(n)
    ]
    for bs in all_bisubsets(n):
        assert h[bs] == min(pairing(bs, v.top, v.bottom) for v in vertices)
