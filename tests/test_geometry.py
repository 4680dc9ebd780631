"""Vertices, facets, rays, support functions, and symmetries."""

import dataclasses
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
    canonical_ray,
    classify_wall_normal,
    facet_check,
    harmonic_support,
    hyperplane_face_counts,
    ray_vector,
    symmetry_checks,
    vertex_of_bipermutation,
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
    h = deformation.named_support("harmonic", n)
    full = bisubset(range(1, n + 1), {1}, n)
    single = bisubset({1}, range(1, n + 1), n)
    assert h[full] == h[single]  # |S|,|T| swap symmetry


def harmonic_by_f(bs):
    """The harmonic support as f(|S|) + f(|T|) + 1, f(x) = x((x - n)/2 - 1/n)."""
    n = bs.n

    def f(x):
        return x * (Fraction(x - n, 2) - Fraction(1, n))

    return f(len(bs.left)) + f(len(bs.right)) + 1


@pytest.mark.parametrize("n", range(2, 9))
def test_harmonic_support_is_the_sum_of_fractions(n):
    for bs in all_bisubsets(n):
        value = harmonic_support(bs)
        assert type(value) is Fraction
        assert value == harmonic_by_f(bs)


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
    assert type(h.row) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.row = (0,) * 24
    values[bs] = Fraction(-7)
    del values[all_bisubsets(3)[0]]
    assert h[bs] == Fraction(5, 3)
    assert len(h.row) == 24
    assert deformation.named_support("biperm", 3) != h
    assert deformation.is_nef(h).passed is False


@pytest.mark.parametrize("n", [0, -1, -2])
def test_a_support_refuses_a_ground_set_below_one(n):
    message = f"^ground set size must be positive, got {n}$"
    with pytest.raises(ValueError, match=message):
        SupportFunction(n, {})
    with pytest.raises(ValueError, match=message):
        deformation.named_support("biperm", n)


def test_a_support_is_hashable_and_equals_the_support_of_its_values():
    biperm = deformation.named_support("biperm", 3)
    from_ints = SupportFunction(3, {bs: biperm_support(bs) for bs in all_bisubsets(3)})
    assert type(biperm_support(all_bisubsets(3)[0])) is int
    assert biperm == from_ints
    assert hash(biperm) == hash(from_ints)
    assert len({biperm, from_ints, deformation.named_support("harmonic", 3)}) == 2


def test_equal_values_in_any_exact_form_give_one_support():
    halves = {bs: Fraction(-6, 2) for bs in all_bisubsets(2)}
    ints = dict.fromkeys(all_bisubsets(2), -3)
    assert SupportFunction(2, halves) == SupportFunction(2, ints)
    assert SupportFunction(2, halves).row == (-3,) * 6
    assert SupportFunction(2, halves).scale == 1


@pytest.mark.parametrize("bad", [0.1, True, "1", None], ids=repr)
def test_combine_refuses_a_coefficient_that_is_not_exact(bad):
    biperm = deformation.named_support("biperm", 2)
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        SupportFunction.combine([(bad, biperm)])
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        SupportFunction.combine([(1, biperm), (bad, biperm)])
    tenth = SupportFunction.combine([(Fraction(1, 10), biperm), (2, biperm)])
    assert all(tenth[bs] == Fraction(21, 10) * biperm[bs] for bs in all_bisubsets(2))


@pytest.mark.parametrize("bad", [0.5, "1", True, None], ids=repr)
def test_support_values_must_be_ints_or_fractions(bad):
    values = {bs: 1 for bs in all_bisubsets(2)}
    SupportFunction(2, values)  # int values are accepted
    values[all_bisubsets(2)[3]] = bad
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        SupportFunction(2, values)


def test_support_type_error_names_its_bisubset_at_n_10():
    # Past n = 9 the elements of a part are comma-joined.
    values = dict.fromkeys(all_bisubsets(10), 0)
    values[bisubset({10}, range(1, 11), 10)] = 0.5
    with pytest.raises(TypeError) as excinfo:
        SupportFunction(10, values)
    assert str(excinfo.value) == (
        "support value at 10|1,2,3,4,5,6,7,8,9,10 must be an int or a Fraction, "
        "got 0.5"
    )


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


def test_classify_wall_normal_reads_n_off_the_row():
    assert classify_wall_normal((1, -1, 0, 0)) == (2, (1, 2))
    assert classify_wall_normal((0, 0, 0, 1, 0, -1)) == (3, (1, 3))
    with pytest.raises(ValueError, match="^a wall normal has 2n entries, got 5$"):
        classify_wall_normal((1, -1, 0, 0, 0))


@pytest.mark.parametrize(
    "normal",
    [
        pytest.param((2, -2, 0, 0), id="entry-above-one"),
        pytest.param((1, 1, -1, -1), id="sign-pattern-of-no-type"),
    ],
)
def test_classify_wall_normal_refuses_a_normal_of_no_type(normal):
    with pytest.raises(ValueError) as excinfo:
        classify_wall_normal(normal)
    assert str(excinfo.value) == f"unrecognized wall normal {normal}"


def test_hyperplane_face_counts_refuses_n1():
    with pytest.raises(ValueError, match="^hyperplane classification needs n >= 2$"):
        hyperplane_face_counts(1)


def test_biperm_support_function_matches_vertex_minima():
    # the support value must be the minimum of the pairing over vertices
    n = 3
    h = deformation.named_support("biperm", n)
    vertices = [
        vertex_of_bipermutation(bp) for bp in enumerate_bipermutations(n)
    ]
    for bs in all_bisubsets(n):
        assert h[bs] == min(pairing(bs, v) for v in vertices)
