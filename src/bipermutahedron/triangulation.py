"""The bipermutahedral triangulation of a product of n triangles.

The polytope here, written Delta^n, is the n-fold product of the standard
triangle, realized in 3 x n tables with nonnegative entries and unit column
sums.  Its 3^n vertices v_(S,T) are indexed by pairs of sets with
S union T = E: the table rows are the indicators of E - S, E - T, and
S intersect T.

Each bipermutation B selects a (2n)-simplex T_B spanned by the three cone
points v_(empty,E), v_(E,empty), v_(E,E) and the 2n - 2 vertices v_(S,T)
for the prefix/suffix bisubsets S|T of B.  These simplices form a
unimodular triangulation; the checks in this module certify unimodularity,
the covering property (by exact location of random rational points), the
face-to-face property (by locating points of one simplex in another), and
the resulting h-polynomial identity with the biEulerian polynomial.

A simplex is held as the splits of its bipermutation, ``bisubsets_of(B)``.
The cone points are shared by every simplex and stay implicit: a point of
T_B is a coefficient list in the vertex order (empty,E), (E,empty), (E,E),
then the splits of B, so the cone points sit at positions 0, 1 and 2.

The affine projection pi1 sends a table (u, v, w) to (1 - u, 1 - v),
mapping v_(S,T) to e_S + f_T and the three cone points into the span of
e_E and f_E; pi1 restricts to a bijection on the affine hull of Delta^n.
``_pi1`` is its one implementation: ``cover_locate`` projects with it, and
``pi1_lattice_check`` certifies it on the lattice of that hull.
Points are located in these 2n coordinates, where barycentric coordinates
in T_B have an integer closed form (see ``_barycentric``).  A location is
certified by ``_rebuild``, which sums each coefficient over its vertex's
sets and so shares no step with the closed form it checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import (
    Bipermutation,
    Bisubset,
    bisequence_of_configuration,
    bisubsets_of,
    doubled_word,
    enumerate_bipermutations,
)
from .geometry import _lineality_rows, _ray_rows
from .invariants import bieulerian_by_ehrhart, f_vector_formula, h_from_f
from .linalg import _scaled_integers, det_int
from .polynomials import poly_mul

Table = tuple[tuple[Fraction, ...], ...]

# The prime denominator of the entries of random_delta_point.
_SAMPLE_DENOMINATOR = 97


class TieOnBoundary(ArithmeticError):
    """A sample point lies on a wall of the fan; location is ambiguous."""


class NegativeCoefficient(ArithmeticError):
    """A located point received a negative barycentric coefficient,
    contradicting the covering property of the triangulation."""


def _pi1(u: Sequence[int], v: Sequence[int], one: int) -> list[int]:
    """pi1 of the table rows u and v, with ``one`` standing for 1: the row
    (one - u, one - v) of 2n ints.  ``one = 0`` gives its linear part."""
    return [one - x for x in u] + [one - x for x in v]


def pi1_lattice_check(n: int) -> bool:
    """pi1 maps the direction lattice of Delta^n's affine hull onto the
    2n-dimensional integer lattice with determinant +-1.

    The affine hull consists of tables with unit column sums; its direction
    lattice has basis (per column i) u_i - w_i and v_i - w_i, the
    differences of the vertex tables of v_(E - i, E) and of v_(E, E - i)
    from that of v_(E, E).  Each direction is mapped through the linear
    part of ``_pi1``, so the determinant certifies the projection that
    ``cover_locate`` uses.
    """
    ground = range(1, n + 1)

    def vertex_table(s: set[int], t: set[int]) -> list[list[int]]:
        return [
            [int(e not in s) for e in ground],
            [int(e not in t) for e in ground],
            [int(e in s and e in t) for e in ground],
        ]

    full = set(ground)
    base = vertex_table(full, full)
    images = []
    for i in ground:
        for s, t in ((full - {i}, full), (full, full - {i})):
            du, dv, _dw = (
                [a - b for a, b in zip(row, base_row)]
                for row, base_row in zip(vertex_table(s, t), base)
            )
            images.append(_pi1(du, dv, 0))
    return det_int(images) in (1, -1)


def unimodularity_check(n: int) -> bool:
    """Every simplex T_B is unimodular after projection by pi1.

    The 2n difference vectors from v_(E,E) to the other vertices are
    -e_E, -f_E, and e_S + f_T - e_E - f_E per bisubset; the integer
    determinant must be +-1 for every bipermutation.  Each split's
    difference vector is its ray row e_S + f_T plus the two cone rows -e_E
    and -f_E, so the matrix with the ray rows (``geometry._ray_rows``) in
    their place differs from it by an exact row operation and has the same
    determinant.  Negating the two cone rows into the lineality rows e_E
    and f_E (``geometry._lineality_rows``) leaves it unchanged again; that
    matrix is the one computed.

    >>> unimodularity_check(2)
    True
    """
    ray_rows, lineality_rows = _ray_rows(n), _lineality_rows(n)
    for bp in enumerate_bipermutations(n):
        matrix = lineality_rows + [ray_rows[bs] for bs in bisubsets_of(bp)]
        if det_int(matrix) not in (1, -1):
            return False
    return True


@dataclass(frozen=True)
class LocatedPoint:
    """A point of Delta^n written in the barycentric basis of its simplex."""

    bipermutation: Bipermutation
    a: Fraction
    b: Fraction
    c: Fraction
    lambdas: tuple[tuple[Bisubset, Fraction], ...]


def cover_locate(p: Table) -> LocatedPoint:
    """Locate a rational point of Delta^n in the triangulation.

    The table is checked to be 3 x n with n >= 1, then checked and projected
    on integer numerators over the lcm of its denominators.  Reads the
    candidate bipermutation off the configuration pi1(p) and writes pi1(p)
    in the barycentric basis of its simplex in closed form (see
    ``_barycentric``).  The answer is certified by rebuilding pi1(p) from
    the coefficients and the splits of the bipermutation in integers (see
    ``_rebuild``).

    Raises TieOnBoundary when the configuration reading is coarser than a
    bipermutation (the caller re-samples), and NegativeCoefficient if any
    barycentric coordinate is negative, which would disprove covering.
    """
    n = len(p[0]) if len(p) == 3 else 0
    if not n or len(p[1]) != n or len(p[2]) != n:
        raise ValueError("a point of Delta^n is a table of three rows of one length n >= 1")
    cells, den = _scaled_integers([x for row in p for x in row])
    u, v, w = (cells[r * n : (r + 1) * n] for r in range(3))
    for column in zip(u, v, w):
        if sum(column) != den:
            raise ValueError("columns of a point of Delta^n must sum to 1")
        if min(column) < 0:
            raise ValueError("points of Delta^n have nonnegative entries")
    # Once every column sums to 1, the denominators of w divide the lcm of
    # those of u and v, so den is the lcm of the denominators of pi1(p).
    numerators = _pi1(u, v, den)
    reading = bisequence_of_configuration(numerators[:n], numerators[n:])
    if len(reading.parts) != 2 * n - 1:
        raise TieOnBoundary(f"configuration reads as {reading}, not a bipermutation")
    bp = Bipermutation(tuple(next(iter(part)) for part in reading.parts))
    splits = bisubsets_of(bp)
    coeffs = _barycentric(bp, numerators, den)
    if _rebuild(n, splits, coeffs) != numerators:
        raise ArithmeticError(
            f"barycentric coefficients in the simplex of {bp} do not "
            f"rebuild pi1 of the point, {numerators} over {den}"
        )
    for x in coeffs:
        if x < 0:
            raise NegativeCoefficient(
                f"point in the chamber of {bp} has barycentric coefficient "
                f"{Fraction(x, den)} < 0; the simplices would not cover Delta^n"
            )
    a, b, c, *lams = (Fraction(x, den) for x in coeffs)
    return LocatedPoint(bp, a, b, c, tuple(zip(splits, lams)))


def _barycentric(bp: Bipermutation, point: Sequence[int], weight: int) -> list[int]:
    """Coefficient numerators over ``weight`` of the point (z, w) / weight
    in T_B, in the vertex order (empty,E), (E,empty), (E,E), then the
    splits of B: [a, b, c, lambda_1, ...].

    With 0-based word positions, z_i = b + c + sum(lambda_j, j > first(i))
    and w_i = a + c + sum(lambda_j, j <= last(i)).  The first, the last
    and the single letter k give Lambda = sum(lambda_j), b + c and a + c;
    each position t gives the tail sum sigma_t = sum(lambda_j, j > t), and
    lambda_j = sigma_(j-1) - sigma_j.
    """
    n = bp.n
    letters = bp.letters
    z, w = point[:n], point[n:]
    k = bp.k
    z_head, w_tail = z[letters[0] - 1], w[letters[-1] - 1]
    total = z_head + w_tail - z[k - 1] - w[k - 1]
    b_plus_c = z_head - total
    a_plus_c = w_tail - total
    c = a_plus_c + b_plus_c + total - weight
    tails = [
        total + a_plus_c - w[e - 1] if barred else z[e - 1] - b_plus_c
        for e, barred in doubled_word(letters, ())
    ]
    return [a_plus_c - c, b_plus_c - c, c] + [
        tails[j - 1] - tails[j] for j in range(1, len(letters))
    ]


def _rebuild(
    n: int, splits: Sequence[Bisubset], coeffs: Sequence[int]
) -> list[int]:
    """pi1 of sum(coeff * vertex) over T_B, given the splits of B and the
    coefficients [a, b, c, lambda_1, ...] in the vertex order (empty,E),
    (E,empty), (E,E), then the splits of B.

    The cone points v_(empty,E), v_(E,empty) and v_(E,E) put b + c on each
    z coordinate and a + c on each w coordinate; lambda_j adds to z_i for
    i in S_j and to w_i for i in T_j (pi1 v_(S,T) = e_S + f_T).
    """
    a, b, c, *lams = coeffs
    point = [b + c] * n + [a + c] * n
    for bs, lam in zip(splits, lams):
        if lam:
            for i in bs.left:
                point[i - 1] += lam
            for i in bs.right:
                point[n + i - 1] += lam
    return point


def _vertex_pairs(
    n: int, splits: Sequence[Bisubset]
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The pairs (S, T) of the vertices v_(S,T) of T_B in coefficient order:
    (empty,E), (E,empty), (E,E), then the splits of B."""
    ground = frozenset(range(1, n + 1))
    empty: frozenset[int] = frozenset()
    return [(empty, ground), (ground, empty), (ground, ground)] + [
        (bs.left, bs.right) for bs in splits
    ]


def random_delta_point(n: int, rng: random.Random) -> Table:
    """A random rational point of Delta^n with bounded denominators.

    Each column picks two cut points of {0.._SAMPLE_DENOMINATOR}, giving
    entries with the fixed prime denominator, so points of one sample share
    a small common denominator.
    """
    denominator = _SAMPLE_DENOMINATOR
    rows: list[list[Fraction]] = [[], [], []]
    for _ in range(n):
        x, y = sorted((rng.randint(0, denominator), rng.randint(0, denominator)))
        rows[0].append(Fraction(x, denominator))
        rows[1].append(Fraction(y - x, denominator))
        rows[2].append(Fraction(denominator - y, denominator))
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class CoverReport:
    n: int
    passed: bool
    located: int
    resampled: int
    failures: tuple[str, ...]


def cover_check(n: int, samples: int, seed: int) -> CoverReport:
    """Locate seeded random points; every generic point must land inside
    some simplex with nonnegative coefficients."""
    rng = random.Random(seed)
    located = 0
    resampled = 0
    failures: list[str] = []
    while located < samples and len(failures) < 5:
        p = random_delta_point(n, rng)
        try:
            cover_locate(p)
        except TieOnBoundary:
            resampled += 1
            continue
        except NegativeCoefficient as exc:
            failures.append(str(exc))
            continue
        located += 1
    return CoverReport(
        n=n,
        passed=not failures,
        located=located,
        resampled=resampled,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class FaceToFaceReport:
    n: int
    passed: bool
    pairs: int
    points: int
    failures: tuple[str, ...]


def _draw_weights(rng: random.Random, count: int) -> list[int]:
    """``count`` weights ``rng.randint(1, 97)``, the same values drawn from the
    same random stream: like CPython's ``randint``, each weight takes 7
    random bits and draws again while they read 97 or more."""
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(7)
        while r >= 97:
            r = getrandbits(7)
        out.append(r + 1)
    return out


def face_to_face_check(n: int, samples: int, seed: int) -> FaceToFaceReport:
    """Sampled certification that simplices intersect along common faces.

    For each unordered pair of simplices and each direction, two kinds of
    random rational points (integer weights over their sum) are drawn from
    the source simplex:

    * supported on the shared vertices: the point must lie in the target
      simplex with the identical coefficients (barycentric coordinates in
      a simplex are unique), so the intersection contains the common hull;
    * supported on all vertices (relative interior): the point must not
      lie in the target simplex, so intersections reach no deeper than the
      common hull.

    Together the two directions pin the intersection to exactly the convex
    hull of the shared vertices at every sampled point.

    Each weight is ``rng.randint(1, 97)`` (drawn by ``_draw_weights``).  The
    shared vertices' coefficient positions in the source and in the target
    simplex are found once per ordered pair; each shared-support sample
    places its weights at both and compares whole coefficient lists.
    """
    rng = random.Random(seed)
    bps = list(enumerate_bipermutations(n))
    splits = [bisubsets_of(bp) for bp in bps]
    positions = [{bs: 3 + j for j, bs in enumerate(s)} for s in splits]
    size = 2 * n + 1
    per_mode = max(1, samples // 4)
    failures: list[str] = []
    points = 0

    def placed(indices: list[int], raw: list[int]) -> list[int]:
        out = [0] * size
        for idx, value in zip(indices, raw):
            out[idx] = value
        return out

    for i1, i2 in itertools.combinations(range(len(bps)), 2):
        for src, dst in ((i1, i2), (i2, i1)):
            source, target = bps[src], bps[dst]
            # The cone points are shared by every simplex, and never equal
            # a split vertex: a split has S and T nonempty with S != T.
            shared_idx, carried_to = [0, 1, 2], [0, 1, 2]
            for bs, pos in positions[src].items():
                if bs in positions[dst]:
                    shared_idx.append(pos)
                    carried_to.append(positions[dst][bs])
            for _ in range(per_mode):
                # Shared-support sample: must live in both simplices.
                raw = _draw_weights(rng, len(shared_idx))
                total = sum(raw)
                point = _rebuild(n, splits[src], placed(shared_idx, raw))
                mus = _barycentric(target, point, total)
                expected = placed(carried_to, raw)
                if mus != expected:
                    pos = next(
                        pos for pos, (mu, want) in enumerate(zip(mus, expected))
                        if mu != want
                    )
                    mu, want = mus[pos], expected[pos]
                    vertex = ",".join(
                        "{" + ",".join(map(str, sorted(part))) + "}"
                        for part in _vertex_pairs(n, splits[dst])[pos]
                    )
                    failures.append(
                        f"{source} cap {target}: "
                        f"shared-support point got {Fraction(mu, total)} "
                        f"!= {Fraction(want, total)} at v({vertex})"
                    )
                points += 1
                # Interior sample: must stay out of every other simplex.
                coeffs = _draw_weights(rng, size)
                point = _rebuild(n, splits[src], coeffs)
                mus = _barycentric(target, point, sum(coeffs))
                if min(mus) >= 0:
                    failures.append(
                        f"interior point of {source} also lies in {target}"
                    )
                points += 1
            if len(failures) >= 5:
                break
        if len(failures) >= 5:
            break
    return FaceToFaceReport(
        n=n,
        passed=not failures,
        pairs=len(bps) * (len(bps) - 1) // 2,
        points=points,
        failures=tuple(failures),
    )


def triangulation_f_vector(n: int) -> list[int]:
    """Face counts of the triangulation as a simplicial complex.

    Combinatorially the complex is a triple cone over the fan's face
    structure, so its f-polynomial is (x+1)^3 times the fan's; entry j
    counts faces with j vertices (entry 0 is the empty face).
    """
    return list(poly_mul(f_vector_formula(n), (1, 3, 3, 1)))


def triangulation_f_vector_direct(n: int) -> list[int]:
    """The same counts by brute-force enumeration of simplex subsets.

    Every face of the triangulation is a subset of some maximal simplex's
    vertex set; deduplicate across simplices.  Exponential in n; intended
    for n <= 3.
    """
    faces: set[frozenset[tuple[frozenset[int], frozenset[int]]]] = set()
    for bp in enumerate_bipermutations(n):
        vertices = _vertex_pairs(n, bisubsets_of(bp))
        for size in range(len(vertices) + 1):
            for subset in itertools.combinations(vertices, size):
                faces.add(frozenset(subset))
    out = [0] * (2 * n + 2)
    for face in faces:
        out[len(face)] += 1
    return out


def hstar_consistency(n: int) -> bool:
    """The h-polynomial of the triangulation equals B_n(x).

    Since every simplex is unimodular, the h*-polynomial of Delta^n equals
    the h-polynomial of the triangulation's complex; coning (three times)
    preserves h, and the lattice-point count of Delta^n is C(k+2,2)^n, so
    both sides are computable independently.  For n <= 3 the triple-cone
    f-vector is additionally verified against direct subset enumeration.

    >>> hstar_consistency(2)
    True
    """
    f_triangulation = triangulation_f_vector(n)
    if n <= 3 and triangulation_f_vector_direct(n) != f_triangulation:
        return False
    h = h_from_f(f_triangulation, 2 * n + 1)
    return h == bieulerian_by_ehrhart(n)
