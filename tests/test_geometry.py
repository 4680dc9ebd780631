"""Vertices, facets, rays, support functions, and symmetries."""

from fractions import Fraction

import pytest

from bipermutahedron import deformation, geometry
from bipermutahedron.combinatorics import (
    all_bisubsets,
    bisubset,
    enumerate_bipermutations,
    parse_bipermutation,
)
from bipermutahedron.geometry import (
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
    ray_vector,
    symmetry_checks,
    vertex_of_bipermutation,
    vertices_json,
)


def test_vertex_worked_example():
    v = vertex_of_bipermutation(parse_bipermutation("2|3|4|2|4|1|1"))
    assert v == (5, -7, 3, -1, -7, -1, 11, -3)
    assert sum(v[:4]) == 0 and sum(v[4:]) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertices_are_distinct_with_zero_row_sums(n):
    seen = set()
    for bp in enumerate_bipermutations(n):
        v = vertex_of_bipermutation(bp)
        assert len(v) == 2 * n
        assert sum(v[:n]) == 0 and sum(v[n:]) == 0
        seen.add(v)
    assert len(seen) == sum(1 for _ in enumerate_bipermutations(n))


def test_vertex_guard_unbarred_copy_first(monkeypatch):
    # A barred word whose first letter is barred before its unbarred copy.
    real = geometry.doubled_word

    def bar_first(letters, doubled):
        (e, _), *rest = real(letters, doubled)
        return ((e, True), *rest)

    monkeypatch.setattr(geometry, "doubled_word", bar_first)
    with pytest.raises(AssertionError, match="unbarred copy must come first"):
        vertex_of_bipermutation(parse_bipermutation("2|3|4|2|4|1|1"))


def test_vertex_guard_zero_row_sums(monkeypatch):
    # The last letter read once more: its value moves up by 2 and the bottom
    # row no longer sums to zero.
    real = geometry.doubled_word

    def shift_last(letters, doubled):
        word = real(letters, doubled)
        return word + word[-1:]

    monkeypatch.setattr(geometry, "doubled_word", shift_last)
    with pytest.raises(AssertionError, match="must sum to zero in each row"):
        vertex_of_bipermutation(parse_bipermutation("2|3|4|2|4|1|1"))


def pairing(bs, point):
    """(e_S + f_T) on a point: its dot product with the bisubset's ray row."""
    return sum(a * b for a, b in zip(ray_vector(bs), point))


def test_ray_vector_and_pairing():
    bs = bisubset({1, 3}, {2, 3}, 3)
    assert ray_vector(bs) == [1, 0, 1, 0, 1, 1]
    assert pairing(bs, (5, 0, 2, 0, 3, 1)) == 5 + 2 + 3 + 1


def test_canonical_ray_quotients_lineality():
    # shifting a row by a constant or scaling positively must not matter
    base = canonical_ray((1, 0, 1, 0, 1, 1))
    assert base == canonical_ray((3, 2, 3, 5, 6, 6))
    assert base == canonical_ray((2, 0, 2, 0, 2, 2))


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


def test_support_function_keeps_a_read_only_copy_of_its_table():
    values = {bs: Fraction(k, 3) for k, bs in enumerate(all_bisubsets(3))}
    h = SupportFunction(3, values)
    bs = all_bisubsets(3)[5]
    with pytest.raises(TypeError):
        h.values[bs] = "x"
    with pytest.raises(TypeError):
        del h.values[bs]
    values[bs] = Fraction(-7)
    del values[all_bisubsets(3)[0]]
    assert h[bs] == Fraction(5, 3)
    assert len(h.values) == 24
    assert geometry.biperm_support_function(3) != h
    assert deformation.is_nef(h, 3).passed is False


@pytest.mark.parametrize("bad", [0.5, "1", True, None], ids=repr)
def test_support_values_must_be_ints_or_fractions(bad):
    values = {bs: 1 for bs in all_bisubsets(2)}
    SupportFunction(2, values)  # int values are accepted
    values[all_bisubsets(2)[3]] = bad
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        SupportFunction(2, values)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_facet_check(n):
    report = facet_check(n)
    assert report.passed, report.counterexample
    assert report.vertices == [1, 6, 90, 2520][n - 1]
    assert report.facets == 3**n - 3
    assert report.comparisons == report.vertices * report.facets


def test_facet_check_stops_at_the_first_failing_comparison(monkeypatch):
    # Raise the right-hand side of 12|2 by one: it is a split of 1|2|2, the
    # third vertex and the first whose split it is, so that vertex no longer
    # attains it.
    target = bisubset({1, 2}, {2}, 2)

    def raised(bs):
        return biperm_support(bs) + (bs == target)

    monkeypatch.setattr(geometry, "biperm_support", raised)
    report = facet_check(2)
    order = all_bisubsets(2)
    assert not report.passed
    assert report.counterexample == "vertex 1|2|2, facet 12|2: -3 vs -2"
    assert report.comparisons == 2 * len(order) + order.index(target) + 1


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
        swapped = (v[1], v[0], *v[2:])
        assert swapped != v
        return swapped

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
        assert h[bs] == min(pairing(bs, v) for v in vertices)
