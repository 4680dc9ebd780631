"""Exact linear algebra over the integers.  Rational test systems are
brought onto integer rows with ``_scaled_integers``, one row at a time."""

import random
from fractions import Fraction
from hashlib import sha256
from itertools import permutations
from math import gcd, prod

import pytest

from bipermutahedron import deformation, geometry, triangulation
from bipermutahedron.linalg import (
    _bareiss,
    _scaled_integers,
    det_int,
    nullspace_normal,
    solve_unique,
)

BIG_PRIME = 2**61 - 1
DENOMINATORS = (1, 2, 3, 97, BIG_PRIME)


def test_det_small_cases():
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_permutation_signs():
    # swapping two rows flips the sign
    m = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert det_int(m) == -1


def test_det_big_integers_exact():
    # Bareiss must stay exact far beyond 64 bits
    k = 10**12
    m = [[k, 1], [1, k]]
    assert det_int(m) == k * k - 1


def test_solve_unique_recovers_solution():
    numerators, d = solve_unique([[2, 1, 5], [1, 3, 10]])
    assert [Fraction(x, d) for x in numerators] == [1, 3]


def test_solve_unique_rejects_singular():
    with pytest.raises(ValueError, match="singular matrix"):
        solve_unique([[1, 2, 1], [2, 4, 1]])


def test_nullspace_normal_primitive_and_oriented():
    # row space of rank 2 in dimension 3: normal is the cross product
    normal = nullspace_normal([[1, 0, 1], [0, 1, 1]])
    assert normal == [1, 1, -1]
    # scaling the rows must not change the primitive normal
    assert nullspace_normal([[2, 0, 2], [0, 5, 5]]) == normal


def test_nullspace_normal_requires_corank_one():
    with pytest.raises(ValueError, match="null space has dimension 2, expected 1"):
        nullspace_normal([[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ValueError, match="null space has dimension 0, expected 1"):
        nullspace_normal([[1, 0], [0, BIG_PRIME]])


def test_shape_errors_are_value_errors():
    with pytest.raises(ValueError, match="square"):
        det_int([[1, 2]])
    # Every row of solve_unique holds m coefficients and its rhs.
    with pytest.raises(ValueError, match="square"):
        solve_unique([[1, 2, 3]])
    with pytest.raises(ValueError, match="square"):
        solve_unique([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        solve_unique([[1, 0, 1], [0, 1]])
    # nullspace_normal needs at least one row, all of one length.
    with pytest.raises(ValueError, match="at least one row"):
        nullspace_normal([])
    with pytest.raises(ValueError, match="every row must have 3 entries"):
        nullspace_normal([[1, 0, 0], [0, 1]])


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), Fraction(1), 1.0, "1", True], ids=repr
)
def test_non_int_entries_are_type_errors(bad):
    # The kernel's floor divisions are exact only on integers: on the rows
    # [[1/2, 1, 0], [0, 1, 1]] it would report a null space of dimension 2,
    # where the true dimension is 1.
    with pytest.raises(TypeError, match="entries must be int"):
        nullspace_normal([[bad, 1, 0], [0, 1, 1]])
    with pytest.raises(TypeError, match="entries must be int"):
        nullspace_normal([[1, 1, 0], [0, 1, bad]])
    with pytest.raises(TypeError, match="entries must be int"):
        solve_unique([[bad, 0, 1], [0, 1, 1]])
    with pytest.raises(TypeError, match="entries must be int"):
        solve_unique([[1, 0, 1], [0, 1, bad]])
    with pytest.raises(TypeError, match=f"entries must be int, got {type(bad).__name__}$"):
        det_int([[1, 0], [0, bad]])


@pytest.mark.parametrize(
    "matrix",
    [
        [[Fraction(1, 2), 1], [1, 3]],
        [[1.5, 1], [1, 3]],
        [[True, 1], [1, 3]],
        [[1, 1], [1, Fraction(3)]],
    ],
    ids=repr,
)
def test_det_int_rejects_non_int_entries(matrix):
    # Unchecked, these came back as 0 (the determinant is 1/2) and as 3.0
    # (it is 3.5).
    with pytest.raises(TypeError, match="entries must be int"):
        det_int(matrix)


def test_type_error_names_the_first_offender_in_row_order():
    with pytest.raises(TypeError, match="got float$"):
        det_int([[1, 1.5], [Fraction(1, 2), 1]])
    with pytest.raises(TypeError, match="got Fraction$"):
        det_int([[1, 1], [Fraction(1, 2), 1.5]])


# Seeded random systems with known answers.  Nonsingular matrices are built
# as P * U * L: P a permutation (so leading entries are often zero and rows
# must be swapped), U upper triangular with a nonzero diagonal, L unit lower
# triangular.  Their determinant is sign(P) * prod(diag U) and does not
# depend on how a solver eliminates.


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _perm_sign(perm):
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


def _leibniz_det(a):
    m = len(a)
    return sum(
        _perm_sign(perm) * prod(a[i][perm[i]] for i in range(m))
        for perm in permutations(range(m))
    )


def _small(rng):
    return rng.choice((0, 0, 1, -1, 2, -3, rng.randint(-9, 9)))


def _nonsingular(rng, m, dense):
    """An integer matrix with its determinant known by construction."""
    perm = list(range(m))
    rng.shuffle(perm)
    diag = [rng.choice((1, -1, 2, -3, 5)) for _ in range(m)]
    upper = [
        [diag[i] if i == j else (_small(rng) if j > i else 0) for j in range(m)]
        for i in range(m)
    ]
    lower = [
        [1 if i == j else (_small(rng) if dense and j < i else 0) for j in range(m)]
        for i in range(m)
    ]
    matrix = [_mat_mul(upper, lower)[perm[i]] for i in range(m)]
    return matrix, _perm_sign(perm) * prod(diag)


def _scale_rows(rng, matrix):
    """Each row times a random nonzero rational, some with huge denominators."""
    scales = [
        Fraction(rng.choice((1, -1, 3, 7)), rng.choice(DENOMINATORS)) for _ in matrix
    ]
    return [[x * s for x in row] for row, s in zip(matrix, scales)]


def _make_singular(rng, matrix):
    """Replace one row by a rational combination of the others."""
    m = len(matrix)
    k = rng.randrange(m)
    coeffs = [Fraction(_small(rng), rng.choice(DENOMINATORS)) for _ in range(m)]
    coeffs[k] = 0
    matrix = [list(row) for row in matrix]
    matrix[k] = [sum(c * row[j] for c, row in zip(coeffs, matrix)) for j in range(m)]
    return matrix


def _integer_rows(matrix):
    """Each rational row scaled to integers over the lcm of its
    denominators, which changes neither the null space nor whether the
    determinant vanishes."""
    return [_scaled_integers(row)[0] for row in matrix]


def test_det_int_matches_leibniz_expansion():
    rng = random.Random(2024)
    for m in range(1, 6):
        for _ in range(40):
            a = [[_small(rng) for _ in range(m)] for _ in range(m)]
            if rng.random() < 0.5:
                a[0][0] = 0
            if m > 1 and rng.random() < 0.3:
                a[rng.randrange(m)] = list(a[rng.randrange(m)])
            assert det_int(a) == _leibniz_det(a)
    assert det_int([[0, 0], [0, 0]]) == 0
    assert det_int([[0, 3], [2, 0]]) == -6


def test_det_int_of_constructed_matrices():
    rng = random.Random(7)
    for m in range(1, 9):
        for dense in (False, True):
            for _ in range(10):
                a, det = _nonsingular(rng, m, dense)
                assert det_int(a) == det
                big = [[x * BIG_PRIME for x in row] for row in a]
                assert det_int(big) == det * BIG_PRIME**m
                if m > 1:
                    a[rng.randrange(m)] = [0] * m
                    assert det_int(a) == 0


def _gauss_jordan(rows, ncols):
    """Reference kernel: fraction-free Gauss-Jordan elimination (Bareiss),
    clearing above each pivot as well as below.  Returns the reduced rows
    (each d times the reduced row echelon form), the pivot columns, d and
    the sign of the row swaps."""
    a, pivots, prev, sign = [list(row) for row in rows], [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p], sign = a[p], a[r], -sign
        top, pv = a[r], a[r][col]
        for i in range(len(a)):
            if i != r:
                a[i] = [(x * pv - a[i][col] * y) // prev for x, y in zip(a[i], top)]
        prev = pv
        pivots.append(col)
    return a, pivots, prev, sign


def _reference_det(matrix):
    _, pivots, d, sign = _gauss_jordan(matrix, len(matrix))
    return sign * d if len(pivots) == len(matrix) else 0


def _reference_solve(rows):
    """(numerators, d) read off the Gauss-Jordan form, or None if singular."""
    m = len(rows)
    a, pivots, d, _ = _gauss_jordan(rows, m)
    return ([row[m] for row in a], d) if len(pivots) == m else None


def _reference_normal(rows):
    """The primitive normal read off the Gauss-Jordan form, or None unless
    the null space is a line."""
    cols = len(rows[0])
    a, pivots, d, _ = _gauss_jordan(rows, cols)
    free = [c for c in range(cols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [0] * cols
    vec[free[0]] = d
    for r, c in enumerate(pivots):
        vec[c] = -a[r][free[0]]
    g = gcd(*vec) * (1 if next(x for x in vec if x) > 0 else -1)
    return [x // g for x in vec]


def _assert_kernel_matches_reference(square=None, solve=None, null=None):
    if square is not None:
        assert det_int(square) == _reference_det(square)
    if solve is not None:
        want = _reference_solve(solve)
        if want is None:
            with pytest.raises(ValueError, match="singular matrix"):
                solve_unique(solve)
        else:
            assert solve_unique(solve) == want
    if null is not None:
        want = _reference_normal(null)
        if want is None:
            with pytest.raises(ValueError, match="null space has dimension"):
                nullspace_normal(null)
        else:
            assert nullspace_normal(null) == want


def test_kernel_matches_gauss_jordan_reference():
    # det_int, solve_unique and nullspace_normal back-substitute on the
    # forward echelon form; the integers must be the Gauss-Jordan ones.
    rng = random.Random(31)
    solves = normals = 0
    for m in range(1, 9):
        for trial in range(16):
            a, det = _nonsingular(rng, m, dense=trial % 2 == 1)
            if trial % 4 == 1:
                a = _scale_rows(rng, a)
            elif trial % 4 == 2 and m > 1:
                a = _make_singular(rng, _scale_rows(rng, a))
            elif trial % 4 == 3:
                a = [[_small(rng) for _ in range(m)] for _ in range(m)]
            ints = _integer_rows(a)
            augmented = [[*row, _small(rng)] for row in ints]
            _assert_kernel_matches_reference(square=ints, solve=augmented, null=augmented)
            if trial % 4 == 0:
                assert det_int(ints) == det
            if trial % 4 == 2 and m > 1:
                assert det_int(ints) == 0
            solves += _reference_solve(augmented) is not None
            normals += _reference_normal(augmented) is not None
    # Both outcomes of each job are exercised.
    assert 0 < solves < 128 and 0 < normals < 128


def test_kernel_matches_gauss_jordan_on_route_systems(monkeypatch):
    # Every system the oracle and the hyperplane classification build at
    # n = 3, replayed through the kernel and the reference.
    solves, normals = [], []

    def record(sink, real):
        def recorded(rows):
            sink.append([list(row) for row in rows])
            return real(rows)

        return recorded

    monkeypatch.setattr(deformation, "solve_unique", record(solves, solve_unique))
    monkeypatch.setattr(geometry, "nullspace_normal", record(normals, nullspace_normal))
    for wall in deformation.enumerate_walls(3):
        deformation.generic_wallcross_oracle(wall)
    geometry.hyperplane_face_counts(3)
    assert len(solves) == len(normals) == 180
    for rows in solves:
        _assert_kernel_matches_reference(square=[row[:-1] for row in rows], solve=rows)
    for rows in normals:
        _assert_kernel_matches_reference(null=rows)


# Matrices with every leading minor nonzero, so no row is swapped and the
# pivot of step k is the leading minor of order k up to sign.  Each takes a
# branch of the kernel: a negative pivot is negated, a pivot of 1 after a
# pivot of 1 is a unit step, and a pivot unequal to the one before rescales
# the rows with a zero below it.
PIVOT_CASES = {
    "negative first pivot": ([[-2, 1, 3], [4, 1, -1], [1, 5, 2]], [-2, -6, 34]),
    "unit steps after negations": (
        [[-1, 2, 1, 3], [-2, 3, 3, 4], [1, -5, 1, -8], [-1, 4, -3, 8]],
        [-1, 1, -1, 1],
    ),
    "non-unit pivots over zero rows": (
        [[2, 1, 0, 1], [0, 3, 1, 0], [0, 0, 5, 1], [0, 1, 1, 7]],
        [2, 6, 30, 206],
    ),
    "negative non-unit pivot": ([[2, 1, 3], [4, -1, 1], [1, 2, 2]], [2, -6, 12]),
    "unit pivot after a non-unit one": ([[2, 1, 0], [1, 1, 1], [0, 1, 3]], [2, 1, 1]),
}


def _leading_minors(matrix):
    return [_leibniz_det([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)]


@pytest.mark.parametrize("case", PIVOT_CASES)
def test_pivots_are_made_positive_and_d_keeps_its_sign(case):
    matrix, minors = PIVOT_CASES[case]
    assert _leading_minors(matrix) == minors
    m = len(matrix)
    a = [list(row) for row in matrix]
    pivot_cols, d, sign = _bareiss(a, m)
    assert (pivot_cols, d, sign) == (list(range(m)), minors[-1], 1)
    assert [a[r][r] for r in range(m)] == [abs(x) for x in minors]
    assert all(a[r][:r] == [0] * r for r in range(m))
    assert det_int(matrix) == minors[-1]
    # The same rows with a right-hand side, and all negated: the leading
    # minors change only in sign, so the pivots are the same.
    for sense in (1, -1):
        rows = [[sense * x for x in (*row, k - 2)] for k, row in enumerate(matrix)]
        square = [row[:m] for row in rows]
        _assert_kernel_matches_reference(square=square, solve=rows, null=rows)


def test_unimodularity_determinants_match_the_reference(monkeypatch):
    # Every matrix unimodularity_check(3) eliminates: one per bipermutation.
    matrices = []

    def recording_det(matrix):
        matrices.append([list(row) for row in matrix])
        return det_int(matrix)

    monkeypatch.setattr(triangulation, "det_int", recording_det)
    assert triangulation.unimodularity_check(3)
    assert len(matrices) == 90
    for matrix in matrices:
        assert det_int(matrix) == _reference_det(matrix) in (1, -1)


# One case per way the kernel rewrites a row below a pivot, each as
# (matrix, the second row after the first column's step).  The first pivot
# of the unit cases is 1 after the initial 1, so their rows take unit steps,
# and so do their second steps: multipliers +1 and -1 are the rows' plain
# difference and sum, and 2 the product without a division.  A pivot of 2
# takes the general step where the entry below is nonzero and rescales the
# row where it is zero.
BRANCH_CASES = {
    "unit step, multiplier +1": ([[1, 2, 3], [1, 3, 5], [0, 1, 4]], [0, 1, 2]),
    "unit step, multiplier -1": ([[1, 2, 3], [-1, -1, -1], [0, -1, 4]], [0, 1, 2]),
    "unit step, multiplier 2": ([[1, 2, 3], [2, 5, 4], [0, 2, 1]], [0, 1, -2]),
    "general step": ([[2, 1, 1], [3, 2, 1], [1, 0, 4]], [0, 1, -1]),
    "rescale": ([[2, 1, 1], [0, 3, 1], [0, 1, 2]], [0, 6, 2]),
}


@pytest.mark.parametrize("case", BRANCH_CASES)
def test_each_row_step_matches_the_reference(case):
    matrix, stepped = BRANCH_CASES[case]
    a = [list(row) for row in matrix]
    assert _bareiss(a, 1) == ([0], matrix[0][0], 1)
    assert a[1] == stepped
    for sense in (1, -1):
        rows = [[sense * x for x in (*row, k + 1)] for k, row in enumerate(matrix)]
        square = [row[:-1] for row in rows]
        _assert_kernel_matches_reference(square=square, solve=rows, null=rows)
        _assert_kernel_matches_reference(null=square[:-1])


# The sha256 of repr((solves, normals, dets)): the kernel's answers on every
# system the n = 4 oracle, wall normals and unimodularity check build, in
# the order they build them, as recorded from the kernel at commit 6db49f4,
# before its unit steps took the map branches.
N4_ROUTE_ANSWERS = "ba06259465a88b0ca6e6cb2b4dea5d516849413132e589b9202aa5391311698b"


def test_n4_route_systems_replay_to_the_recorded_integers(monkeypatch):
    answers = ([], [], [])

    def answering(sink, real):
        def answered(rows):
            sink.append(real(rows))
            return sink[-1]

        return answered

    monkeypatch.setattr(deformation, "solve_unique", answering(answers[0], solve_unique))
    monkeypatch.setattr(geometry, "nullspace_normal", answering(answers[1], nullspace_normal))
    monkeypatch.setattr(triangulation, "det_int", answering(answers[2], det_int))
    for wall in deformation.enumerate_walls(4):
        deformation.generic_wallcross_oracle(wall)
    assert geometry.hyperplane_face_counts(4).passed
    assert triangulation.unimodularity_check(4)
    assert [len(sink) for sink in answers] == [7560, 7560, 2520]
    assert sha256(repr(answers).encode()).hexdigest() == N4_ROUTE_ANSWERS


def _augmented(a, b):
    """The rational system a x = b as integer rows with the rhs last."""
    return [_scaled_integers([*row, c])[0] for row, c in zip(a, b)]


def test_solve_unique_by_substitution():
    rng = random.Random(11)
    for m in range(1, 9):
        for trial in range(12):
            a, _ = _nonsingular(rng, m, dense=trial % 2 == 1)
            if trial % 3:
                a = _scale_rows(rng, a)
            b = [Fraction(_small(rng), rng.choice(DENOMINATORS)) for _ in range(m)]
            numerators, d = solve_unique(_augmented(a, b))
            assert all(type(x) is int for x in [*numerators, d])
            assert _mat_vec(a, [Fraction(x, d) for x in numerators]) == b
            if m > 1:
                with pytest.raises(ValueError, match="singular matrix"):
                    solve_unique(_augmented(_make_singular(rng, a), b))
    with pytest.raises(ValueError, match="singular matrix"):
        solve_unique([[0, 1]])


def test_integer_solve_agrees_with_solve_unique():
    # The integer answer (numerators, d) is the rational one by Cramer's
    # rule, numerators[i] / d = det(A_i) / det(A), and d is det(A) up to
    # sign, on the seeded systems of test_solve_unique_by_substitution.
    rng = random.Random(11)
    for m in range(1, 9):
        for trial in range(12):
            a, _ = _nonsingular(rng, m, dense=trial % 2 == 1)
            if trial % 3:
                a = _scale_rows(rng, a)
            b = [Fraction(_small(rng), rng.choice(DENOMINATORS)) for _ in range(m)]
            rows = _augmented(a, b)
            numerators, d = solve_unique(rows)
            det_a = det_int([row[:m] for row in rows])
            assert abs(d) == abs(det_a)
            for i in range(m):
                a_i = [[*row[:i], row[m], *row[i + 1 : m]] for row in rows]
                assert numerators[i] * det_a == det_int(a_i) * d


def _with_null_vector(rng, v):
    """Rows spanning the orthogonal complement of the nonzero integer vector
    ``v``, mixed, rescaled and padded with redundant rows."""
    c = len(v)
    j = next(i for i, x in enumerate(v) if x)
    basis = []
    for k in range(c):
        if k != j:
            row = [0] * c
            row[k] = v[j]
            row[j] = -v[k]
            basis.append(row)
    if basis:
        mix, _ = _nonsingular(rng, len(basis), dense=True)
        basis = _scale_rows(rng, _mat_mul(mix, basis))
    rows = basis + [[0] * c]
    for _ in range(rng.randint(0, 2)):
        coeffs = [Fraction(_small(rng), rng.choice(DENOMINATORS)) for _ in rows]
        rows.append([sum(f * row[i] for f, row in zip(coeffs, rows)) for i in range(c)])
    rng.shuffle(rows)
    return rows


def _check_normal(matrix, normal, v):
    assert _mat_vec(matrix, normal) == [0] * len(matrix)
    assert gcd(*normal) == 1
    assert next(x for x in normal if x) > 0
    # normal and v span the same line: every 2x2 minor vanishes
    c = len(v)
    assert all(normal[i] * v[k] == normal[k] * v[i] for i in range(c) for k in range(c))


def test_nullspace_normal_of_constructed_matrices():
    rng = random.Random(13)
    for c in range(1, 9):
        for _ in range(12):
            v = [_small(rng) for _ in range(c)]
            if not any(v):
                v[rng.randrange(c)] = rng.choice((1, -1, 4))
            matrix = _with_null_vector(rng, v)
            _check_normal(matrix, nullspace_normal(_integer_rows(matrix)), v)


def test_nullspace_normal_free_column_not_last():
    # the last column is forced to be a pivot column
    v = [2, -3, 1, 0]
    matrix = _with_null_vector(random.Random(17), v)
    normal = nullspace_normal(_integer_rows(matrix))
    assert normal == [2, -3, 1, 0]
    _check_normal(matrix, normal, v)
    assert nullspace_normal([[1, 1, 0], [0, 0, 5]]) == [1, -1, 0]


def test_integer_entries_leave_their_rows_alone():
    rows = [(2, 1, 5), (1, 3, 10)]
    assert solve_unique(rows) == ([5, 15], 5)
    assert rows == [(2, 1, 5), (1, 3, 10)]
    rows = [(1, 0, 1), (0, 2, 2)]
    assert nullspace_normal(rows) == [1, 1, -1]
    assert rows == [(1, 0, 1), (0, 2, 2)]
