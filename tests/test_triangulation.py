"""The unimodular triangulation of the product of n triangles."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from bipermutahedron.combinatorics import (
    Bisequence,
    _covering_pairs,
    _elements,
    _split_table,
    bipermutation_count,
    bisubsets_of,
    enumerate_bipermutations,
    parse_bipermutation,
)
from bipermutahedron import triangulation
from bipermutahedron.invariants import bieulerian_by_ehrhart, h_from_f
from bipermutahedron.linalg import det_int, solve_unique
from bipermutahedron.triangulation import (
    TieOnBoundary,
    _barycentric,
    _draw_weights,
    _rebuild,
    _vertex_pairs,
    cover_check,
    cover_locate,
    face_to_face_check,
    hstar_consistency,
    pi1_lattice_check,
    random_delta_point,
    triangulation_f_vector,
    triangulation_f_vector_direct,
    unimodularity_check,
)

F = Fraction


def _simplex_vertices(bp):
    """The pairs (S, T) of the vertices of T_B: the cone points (empty,E),
    (E,empty), (E,E), then the splits of B."""
    ground = frozenset(range(1, bp.n + 1))
    empty = frozenset()
    cone = [(empty, ground), (ground, empty), (ground, ground)]
    return cone + [(bs.left, bs.right) for bs in bisubsets_of(bp)]


def _coefficients(located):
    """The barycentric coefficients of a located point, cone points first,
    in the order of ``_simplex_vertices``."""
    return [located.a, located.b, located.c] + [lam for _, lam in located.lambdas]


def _vertex_table(left, right, n):
    """Rows are the indicators of E - S, E - T and S intersect T."""
    cols = range(1, n + 1)
    return (
        [int(i not in left) for i in cols],
        [int(i not in right) for i in cols],
        [int(i in left and i in right) for i in cols],
    )


def _vertex_pi1(left, right, n):
    """pi1 v_(S,T) = e_S + f_T."""
    cols = range(1, n + 1)
    return [int(i in left) for i in cols] + [int(i in right) for i in cols]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_vertices_count(n):
    # The simplices use every vertex of Delta^n and nothing else: the cone
    # points and the splits of all bipermutations are the 3^n pairs (S, T)
    # with S union T = E.
    used = set()
    for bp in enumerate_bipermutations(n):
        used.update(_simplex_vertices(bp))
    assert len(used) == 3**n
    assert used == {
        (frozenset(_elements(left)), frozenset(_elements(right)))
        for left, right in _covering_pairs(n)
    }


def test_cone_point_projections():
    # The cone points sit at coefficient positions 0, 1 and 2 of every
    # simplex, with pi1 v_(empty,E) = f_E, pi1 v_(E,empty) = e_E and
    # pi1 v_(E,E) = e_E + f_E.
    n = 3
    bp = parse_bipermutation("1|3|2|1|3")
    projections = [(0, 0, 0, 1, 1, 1), (1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
    for position, projection in enumerate(projections):
        unit = [int(j == position) for j in range(2 * n + 1)]
        assert _rebuild(n, bisubsets_of(bp), unit) == list(projection)
        assert _barycentric(bp, projection, 1) == unit


def test_simplex_vertices():
    bp = parse_bipermutation("1|3|2|1|3")
    vertices = _vertex_pairs(bp.n, bisubsets_of(bp))
    assert len(vertices) == 7
    assert vertices == _simplex_vertices(bp)
    labels = [(sorted(left), sorted(right)) for left, right in vertices]
    assert labels == [
        ([], [1, 2, 3]),
        ([1, 2, 3], []),
        ([1, 2, 3], [1, 2, 3]),
        ([1], [1, 2, 3]),
        ([1, 3], [1, 2, 3]),
        ([1, 2, 3], [1, 3]),
        ([1, 2, 3], [3]),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi1_identifies_lattices(n):
    assert pi1_lattice_check(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi1_sends_each_vertex_table_to_its_ray_row(n):
    for masks in _covering_pairs(n):
        left, right = map(_elements, masks)
        u, v, _w = _vertex_table(left, right, n)
        assert triangulation._pi1(u, v, 1) == _vertex_pi1(left, right, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi1_lattice_check_applies_pi1(monkeypatch, n):
    # The check maps its directions through _pi1: a projection that reads v
    # as u collapses the lattice, while a unimodular shear v -> v + u keeps
    # it, since the check certifies the lattice map and not the formula.
    real = triangulation._pi1
    monkeypatch.setattr(triangulation, "_pi1", lambda u, v, one: real(u, u, one))
    assert not pi1_lattice_check(n)
    sheared = lambda u, v, one: real(u, [a + b for a, b in zip(v, u)], one)
    monkeypatch.setattr(triangulation, "_pi1", sheared)
    assert pi1_lattice_check(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unimodularity(n):
    assert unimodularity_check(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplex_count_is_normalized_volume(n):
    count = sum(1 for _ in enumerate_bipermutations(n))
    assert count == bipermutation_count(n)
    # unimodular simplices of equal volume must fill (2n)!/2^n copies
    # of the unit simplex volume, the normalized volume of Delta^n


def test_cover_locate_reconstructs_the_point():
    rng = random.Random(5)
    n = 3
    for _ in range(25):
        p = random_delta_point(n, rng)
        try:
            located = cover_locate(p)
        except TieOnBoundary:
            continue
        tables = [
            _vertex_table(left, right, n)
            for left, right in _simplex_vertices(located.bipermutation)
        ]
        coeffs = _coefficients(located)
        assert len(coeffs) == len(tables) == 2 * n + 1
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)
        for row in range(3):
            for col in range(n):
                value = sum(c * t[row][col] for c, t in zip(coeffs, tables))
                assert value == p[row][col]


def test_cover_locate_rejects_the_barycenter():
    third = F(1, 3)
    p = ((third, third), (third, third), (third, third))
    with pytest.raises(TieOnBoundary):
        cover_locate(p)


def test_cover_locate_validates_input():
    with pytest.raises(ValueError):
        cover_locate(((F(1), F(0)), (F(1), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError):
        cover_locate(((F(2), F(0)), (F(-1), F(0)), (F(0), F(1))))


def test_cover_locate_names_an_entry_that_is_no_int_or_fraction():
    # A float has no denominator to scale by.
    with pytest.raises(TypeError, match="^entries must be int or Fraction, got float$"):
        cover_locate(((0.25, 0.5), (0.25, 0.25), (0.5, 0.25)))
    with pytest.raises(TypeError, match="^entries must be int or Fraction, got str$"):
        cover_locate(((F(1, 4), "1/2"), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 4))))


def test_random_delta_point_distribution():
    rng = random.Random(11)
    p = random_delta_point(4, rng)
    for column in zip(*p):
        assert sum(column) == 1
        assert all(x >= 0 for x in column)
        assert all(x.denominator in (1, 97) for x in column)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cover_check(n):
    report = cover_check(n, 150, seed=3)
    assert report.passed, report.failures
    assert report.located == 150


@pytest.mark.parametrize("n", [1, 2])
def test_face_to_face(n):
    report = face_to_face_check(n, 8, seed=3)
    assert report.passed, report.failures


def test_shared_vertex_histogram_n2():
    splits = [set(bisubsets_of(bp)) for bp in enumerate_bipermutations(2)]
    histogram = Counter(3 + len(a & b) for a, b in combinations(splits, 2))
    # every pair shares the three cone points; chamber neighbors share
    # exactly one more vertex (the common wall's split)
    assert dict(histogram) == {3: 9, 4: 6}


TRIANGULATION_F = {
    2: [1, 9, 27, 37, 24, 6],
    3: [1, 27, 189, 595, 996, 924, 450, 90],
}


@pytest.mark.parametrize("n", [2, 3])
def test_triangulation_f_vector(n):
    assert triangulation_f_vector(n) == TRIANGULATION_F[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triangulation_f_vector_direct_agrees(n):
    assert triangulation_f_vector(n) == triangulation_f_vector_direct(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hstar_consistency(n):
    assert hstar_consistency(n)


def test_hstar_equals_bieulerian_explicitly():
    n = 3
    h = h_from_f(triangulation_f_vector(n), 2 * n + 1)
    assert h == bieulerian_by_ehrhart(n)


def _reference_barycentric(projections, point, weight):
    """Coefficient numerators over ``weight`` by a linear solve of the
    affine frame at the apex v_(E,E), in the vertex order of
    ``_simplex_vertices``; ``projections`` are the vertices under pi1.
    The right-hand side is scaled by ``weight``, so the solution is the
    numerators themselves."""
    apex = projections[2]
    others = projections[:2] + projections[3:]
    rows = [
        [v[i] - a for v in others] + [x - weight * a]
        for i, (x, a) in enumerate(zip(point, apex))
    ]
    numerators, d = solve_unique(rows)
    assert all(x % d == 0 for x in numerators)
    mu = [x // d for x in numerators]
    return [mu[0], mu[1], weight - sum(mu)] + mu[2:]


def _closed_form_cases():
    rng = random.Random(17)
    for n in (1, 2, 3):
        yield from enumerate_bipermutations(n)
    yield from rng.sample(list(enumerate_bipermutations(4)), 200)


def test_closed_form_barycentric_matches_linear_solve():
    rng = random.Random(29)
    for bp in _closed_form_cases():
        projections = [
            _vertex_pi1(left, right, bp.n) for left, right in _simplex_vertices(bp)
        ]
        size = len(projections)
        for weight in (1, rng.randint(2, 500), rng.randint(2, 2**61)):
            # inside: nonnegative coefficients summing to the weight
            cuts = sorted(rng.randint(0, weight) for _ in range(size - 1))
            inside = [b - a for a, b in zip([0, *cuts], [*cuts, weight])]
            point = [0] * (2 * bp.n)
            for coeff, vertex in zip(inside, projections):
                point = [p + coeff * x for p, x in zip(point, vertex)]
            bound = 3 * weight + 5
            outside = [rng.randint(-bound, bound) for _ in range(2 * bp.n)]
            for target in (point, outside):
                coeffs = _barycentric(bp, target, weight)
                assert coeffs == _reference_barycentric(projections, target, weight)
                assert _rebuild(bp.n, bisubsets_of(bp), coeffs) == target
            assert _barycentric(bp, point, weight) == inside


def _shift_one_lambda(original, position=3):
    def shifted(bp, point, weight):
        coeffs = original(bp, point, weight)
        coeffs[position] += 1
        return coeffs

    return shifted


# The failures of face_to_face_check(2, 8, seed=3) when one coefficient of
# every target simplex is off by one: a split's (position 3) or the cone
# point v_(empty,E)'s (position 0).  Each names the vertex it fails at.
SHIFTED_FACE_TO_FACE_FAILURES = {
    3: (
        "1|1|2 cap 1|2|1: shared-support point got 9/97 != 17/194 at v({1},{1,2})",
        "1|1|2 cap 1|2|1: shared-support point got 31/75 != 61/150 at v({1},{1,2})",
        "1|2|1 cap 1|1|2: shared-support point got 62/263 != 61/263 at v({1},{1,2})",
        "1|2|1 cap 1|1|2: shared-support point got 12/29 != 95/232 at v({1},{1,2})",
        "1|1|2 cap 1|2|2: shared-support point got 3/7 != 5/12 at v({1},{2})",
        "1|1|2 cap 1|2|2: shared-support point got 75/274 != 37/137 at v({1},{2})",
    ),
    0: (
        "1|1|2 cap 1|2|1: shared-support point got 16/97 != 31/194 at v({},{1,2})",
        "1|1|2 cap 1|2|1: shared-support point got 1/15 != 3/50 at v({},{1,2})",
        "1|2|1 cap 1|1|2: shared-support point got 62/263 != 61/263 at v({},{1,2})",
        "1|2|1 cap 1|1|2: shared-support point got 21/232 != 5/58 at v({},{1,2})",
        "1|1|2 cap 1|2|2: shared-support point got 1/12 != 1/14 at v({},{1,2})",
        "1|1|2 cap 1|2|2: shared-support point got 28/137 != 55/274 at v({},{1,2})",
    ),
}


def test_face_to_face_reports_a_wrong_coefficient(monkeypatch):
    for position, failures in SHIFTED_FACE_TO_FACE_FAILURES.items():
        monkeypatch.setattr(
            triangulation, "_barycentric", _shift_one_lambda(_barycentric, position)
        )
        report = face_to_face_check(2, 8, seed=3)
        assert (report.pairs, report.points, report.passed) == (15, 12, False)
        assert report.failures == failures


# The failures of face_to_face_check(3, 4, seed=7) when the coefficient of
# every target simplex's first split is off by one.  The fifth failure ends
# the check after 10 points.
SHIFTED_FACE_TO_FACE_FAILURES_N3 = (
    "1|1|2|2|3 cap 1|1|2|3|2: shared-support point got 85/214 != 42/107 at v({1},{1,2,3})",
    "1|1|2|3|2 cap 1|1|2|2|3: shared-support point got 55/167 != 54/167 at v({1},{1,2,3})",
    "1|1|2|2|3 cap 1|1|2|3|3: shared-support point got 9/394 != 4/197 at v({1},{1,2,3})",
    "1|1|2|3|3 cap 1|1|2|2|3: shared-support point got 17/273 != 16/273 at v({1},{1,2,3})",
    "1|1|2|2|3 cap 1|1|3|2|2: shared-support point got 24/83 != 71/249 at v({1},{1,2,3})",
)


def _counted(original, calls, name):
    def counted(*args):
        calls[name] += 1
        return original(*args)

    return counted


def test_face_to_face_reports_a_wrong_coefficient_at_n3(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(
        triangulation,
        "_barycentric",
        _shift_one_lambda(_counted(_barycentric, calls, "barycentric")),
    )
    monkeypatch.setattr(triangulation, "_rebuild", _counted(_rebuild, calls, "rebuild"))
    report = face_to_face_check(3, 4, seed=7)
    assert (report.pairs, report.points, report.passed) == (4005, 10, False)
    assert report.failures == SHIFTED_FACE_TO_FACE_FAILURES_N3
    # Every point counted is a point rebuilt and located: none is skipped.
    assert calls == {"barycentric": report.points, "rebuild": report.points}


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 20261020])
def test_draw_weights_are_the_draws_of_randint(seed):
    # The recorded reports were drawn by rng.randint(1, 97); the helper must
    # give the same values and leave the generator in the same state.
    drawn, reference = random.Random(seed), random.Random(seed)
    for count in (0, 1, 7, 10_000):
        weights = _draw_weights(drawn, count)
        assert weights == [reference.randint(1, 97) for _ in range(count)]
        assert drawn.getstate() == reference.getstate()


# (pairs, points, passed, failures) of face_to_face_check(n, samples, seed).
FACE_TO_FACE_REPORTS = {
    (1, 8, 7): (0, 0, True, ()),
    (1, 8, 11): (0, 0, True, ()),
    (2, 8, 7): (15, 120, True, ()),
    (2, 8, 11): (15, 120, True, ()),
    (3, 4, 7): (4005, 16020, True, ()),
    (3, 4, 11): (4005, 16020, True, ()),
}


@pytest.mark.parametrize("args", sorted(FACE_TO_FACE_REPORTS))
def test_face_to_face_reports_match_the_recorded_ones(args):
    report = face_to_face_check(*args)
    got = (report.pairs, report.points, report.passed, report.failures)
    assert got == FACE_TO_FACE_REPORTS[args]


def test_cover_locate_certifies_by_reconstruction(monkeypatch):
    u, v = (F(1, 5), F(1, 2)), (F(1, 3), F(1, 7))
    p = (u, v, tuple(1 - x - y for x, y in zip(u, v)))
    cover_locate(p)  # a generic point: no tie, no negative coefficient
    monkeypatch.setattr(
        triangulation, "_barycentric", _shift_one_lambda(_barycentric)
    )
    with pytest.raises(ArithmeticError, match="do not rebuild") as excinfo:
        cover_locate(p)
    assert excinfo.type is ArithmeticError


P61 = 2**61 - 1


def _digest_column(rng, den):
    x, y = sorted((rng.randint(0, den), rng.randint(0, den)))
    return F(x, den), F(y - x, den), F(den - y, den)


def _digest_tables():
    """630 seeded points at n = 3, 4, 5 with denominators 97, 2^61 - 1 or
    a mix of both across columns, then every vertex table of Delta^1 and
    Delta^2 in plain ints."""
    rng = random.Random(20261018)
    for n in (3, 4, 5):
        for dens in ((97,), (P61,), (97, P61)):
            for _ in range(70):
                columns = [_digest_column(rng, rng.choice(dens)) for _ in range(n)]
                yield tuple(zip(*columns))
    for n in (1, 2):
        for left, right in _covering_pairs(n):
            left, right = _elements(left), _elements(right)
            columns = [
                (int(i not in left), int(i not in right), int(i in left and i in right))
                for i in range(1, n + 1)
            ]
            yield tuple(zip(*columns))


# sha256 of one line per table: the LocatedPoint's repr, or the exception's
# class and message.  579 tables are located and 63 tie on a boundary.
LOCATE_DIGEST = "26c4b29c2f55e10b455a5e944933478c5a3540174caca48455a2e7bea0c328fe"


def test_cover_locate_answers_match_the_recorded_digest():
    digest = hashlib.sha256()
    outcomes = Counter()
    for p in _digest_tables():
        try:
            line = repr(cover_locate(p))
            outcomes["located"] += 1
        except (ValueError, ArithmeticError) as exc:
            line = f"{type(exc).__name__}: {exc}"
            outcomes[type(exc).__name__] += 1
        digest.update(line.encode() + b"\n")
    assert outcomes == {"located": 579, "TieOnBoundary": 63}
    assert digest.hexdigest() == LOCATE_DIGEST


SUM_MESSAGE = "columns of a point of Delta^n must sum to 1"
SIGN_MESSAGE = "points of Delta^n have nonnegative entries"


@pytest.mark.parametrize(
    "table, message",
    [
        # a negative entry in column 1 comes before a bad sum in column 2
        (((F(2), F(1, 2)), (F(-1), F(1, 2)), (F(0), F(1, 2))), SIGN_MESSAGE),
        # a bad sum in column 1 comes before a negative entry in column 2
        (((F(1), F(2)), (F(1), F(-1)), (F(0), F(0))), SUM_MESSAGE),
        # within a column the sum is checked first
        (((F(3),), (F(-1),), (F(-2),)), SUM_MESSAGE),
        (((F(3),), (F(-1),), (F(-1),)), SIGN_MESSAGE),
        (((2, 0), (-1, 1), (0, 0)), SIGN_MESSAGE),
        (((1, 0), (1, 1), (0, 0)), SUM_MESSAGE),
        (((1, 0), (0, 0), (0, 0)), SUM_MESSAGE),
        (((F(1, 3), F(1, 2)), (F(1, 3), F(1, 2)), (F(1, 2), F(0))), SUM_MESSAGE),
    ],
)
def test_cover_locate_rejects_malformed_tables(table, message):
    with pytest.raises(ValueError) as excinfo:
        cover_locate(table)
    assert excinfo.type is ValueError
    assert str(excinfo.value) == message


def test_cover_locate_of_plain_int_tables():
    located = cover_locate(((0,), (0,), (1,)))
    assert located.bipermutation == parse_bipermutation("1")
    assert _coefficients(located) == [0, 0, 1]
    with pytest.raises(TieOnBoundary, match=r"reads as 2\|1, not a bipermutation"):
        cover_locate(((1, 0), (0, 1), (0, 0)))


def test_cover_locate_names_a_tie_at_every_n():
    # Every column (1/3, 1/3, 1/3): all ten elements lie on the line.
    third = (F(1, 3),) * 10
    with pytest.raises(
        TieOnBoundary,
        match=r"reads as 1,2,3,4,5,6,7,8,9,10, not a bipermutation",
    ):
        cover_locate((third, third, third))


def test_split_table_stays_small_at_n_12():
    # Entries over 2^61 - 1 make a tie on a wall all but impossible.
    rng = random.Random(12)
    den = 2**61 - 1
    cuts = [sorted((rng.randint(0, den), rng.randint(0, den))) for _ in range(12)]
    point = tuple(
        tuple(F(value, den) for value in row)
        for row in zip(*((x, y - x, den - y) for x, y in cuts))
    )
    # Count the entries locating adds rather than clearing the cache, which
    # would orphan the split-table objects ``all_bisubsets`` already handed
    # out to other tests.
    before = len(_split_table(12))
    located = cover_locate(point)
    assert len(located.lambdas) == 22
    assert len(_split_table(12)) - before <= 22


def difference_vector_matrix(bp):
    """The rows -e_E, -f_E and, for each split j of the word (S its first j
    letters, T the rest), e_S + f_T - e_E - f_E."""
    n, letters = bp.n, bp.letters
    ground = range(1, n + 1)
    return [[-1] * n + [0] * n, [0] * n + [-1] * n] + [
        [int(i in letters[:j]) - 1 for i in ground]
        + [int(i in letters[j:]) - 1 for i in ground]
        for j in range(1, len(letters))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unimodularity_check_determinants_are_the_difference_vectors(n, monkeypatch):
    matrices = []

    def recording_det(matrix):
        matrices.append(matrix)
        return det_int(matrix)

    monkeypatch.setattr(triangulation, "det_int", recording_det)
    assert unimodularity_check(n)
    bps = list(enumerate_bipermutations(n))
    assert len(matrices) == len(bps)
    for bp, matrix in zip(bps, matrices):
        assert det_int(matrix) == det_int(difference_vector_matrix(bp))


def test_unimodularity_check_fails_on_a_repeated_split(monkeypatch):
    def repeat_first(bp):
        splits = bisubsets_of(bp)
        return (splits[0],) + splits[:-1]

    monkeypatch.setattr(triangulation, "bisubsets_of", repeat_first)
    assert unimodularity_check(2) is False


def test_cover_locate_reports_a_negative_coefficient(monkeypatch):
    u, v = (F(1, 5), F(1, 2)), (F(1, 3), F(1, 7))
    p = (u, v, tuple(1 - x - y for x, y in zip(u, v)))
    assert cover_locate(p).bipermutation == parse_bipermutation("1|1|2")
    # Read the point into a neighbouring chamber: its coefficients there
    # still rebuild pi1(p), but one is negative.
    monkeypatch.setattr(
        triangulation,
        "bisequence_of_configuration",
        lambda z, w: Bisequence((frozenset({1}), frozenset({2}), frozenset({1})), 2),
    )
    with pytest.raises(triangulation.NegativeCoefficient) as excinfo:
        cover_locate(p)
    assert str(excinfo.value) == (
        "point in the chamber of 1|2|1 has barycentric coefficient -4/21 < 0; "
        "the simplices would not cover Delta^n"
    )


SHAPE_MESSAGE = "a point of Delta^n is a table of three rows of one length n >= 1"


@pytest.mark.parametrize(
    "table",
    [
        # rows of lengths 2, 3 and 1; the columns that zip keeps sum to 1
        ((F(1, 5), F(2, 7)), (F(1, 3), F(3, 7), F(7, 15)), (F(2, 7),)),
        # rows of lengths 3, 1 and 2, which re-slice into an empty third row
        ((F(1, 2), F(0), F(1)), (F(1, 2),), (F(0), F(1))),
        # the shape is checked before any entry is read
        (("x",), ("y", "z"), ()),
        ((), (), ()),
        ((F(1),), (F(0),)),
        ((F(1),), (F(0),), (F(0),), (F(0),)),
        (),
    ],
)
def test_cover_locate_refuses_a_table_that_is_not_three_by_n(table):
    with pytest.raises(ValueError) as excinfo:
        cover_locate(table)
    assert excinfo.type is ValueError
    assert str(excinfo.value) == SHAPE_MESSAGE


def test_cover_check_stops_at_five_negative_coefficients(monkeypatch):
    calls = []

    def negative(p):
        calls.append(p)
        raise triangulation.NegativeCoefficient(f"negative at call {len(calls)}")

    monkeypatch.setattr(triangulation, "cover_locate", negative)
    report = cover_check(2, 100, seed=3)
    assert (report.passed, report.located, report.resampled) == (False, 0, 0)
    assert report.failures == tuple(f"negative at call {k}" for k in range(1, 6))
    assert len(calls) == 5


def test_face_to_face_reports_an_interior_point_in_another_simplex(monkeypatch):
    # Coefficients made non-negative leave the shared-support samples, whose
    # coefficients are already non-negative, as they were, and put every
    # interior sample inside its target simplex.
    def non_negative(bp, point, weight):
        return [abs(x) for x in _barycentric(bp, point, weight)]

    monkeypatch.setattr(triangulation, "_barycentric", non_negative)
    report = face_to_face_check(2, 4, seed=3)
    assert not report.passed
    assert len(report.failures) == 5
    assert all(
        failure.startswith("interior point of ") and " also lies in " in failure
        for failure in report.failures
    )


def test_hstar_consistency_fails_when_the_direct_count_differs(monkeypatch):
    def off_by_one(n):
        counts = triangulation_f_vector_direct(n)
        counts[-1] += 1
        return counts

    monkeypatch.setattr(triangulation, "triangulation_f_vector_direct", off_by_one)
    assert hstar_consistency(2) is False
