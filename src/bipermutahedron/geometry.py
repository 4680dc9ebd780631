"""Vertices, rays, chambers, facets, and symmetries of the bipermutahedron.

Points of the ambient space are tables with a *top* row (the x or z
coordinates) and a *bottom* row (the y or w coordinates), each of length n.
The bipermutahedron lives in the subspace where both rows sum to zero; its
normal fan lives in the quotient of the dual space by the span of the two
all-ones rows.  Support functions here use the *min* convention: a support
function h cuts out the polytope { u : (e_S + f_T)(u) >= h(S|T) for all
bisubsets S|T }, where (e_S + f_T)(u) sums the top row over S and the
bottom row over T.

The support function of the bipermutahedron itself is

    h(S|T) = -(|S| + |S - T|) * (|T| + |T - S|),

and the vertex selected by a chamber's bipermutation is built from its
barred word: position t gets the value 2t - (2n - 1), x_i is the value of
i and y_i minus the value of i-bar, and the row sum s of the x entries is
subtracted from both coordinates of the single letter k.

Every point and every ray of the table space is one row of 2n ints: the x
(top) entries, then the y (bottom) entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .combinatorics import (
    Bipermutation,
    Bisequence,
    Bisubset,
    _bisubset_index,
    _bisubset_order,
    _kind_a_parts,
    all_bisubsets,
    bisubsets_of,
    doubled_word,
    enumerate_bipermutations,
    enumerate_wall_bisequences,
    splits_of,
)
from .linalg import nullspace_normal

Row = tuple[int, ...]


def ray_vector(bs: Bisubset) -> list[int]:
    """The ray e_S + f_T of the normal fan attached to a bisubset, as one row
    of 2n ints: the top entries, then the bottom ones.

    >>> from bipermutahedron.combinatorics import bisubset
    >>> ray_vector(bisubset({1, 3}, {2, 3}, 3))
    [1, 0, 1, 0, 1, 1]
    """
    ground = range(1, bs.n + 1)
    return [int(i in bs.left) for i in ground] + [int(i in bs.right) for i in ground]


@cache
def _ray_rows(n: int) -> dict[Bisubset, tuple[int, ...]]:
    """Each bisubset's :func:`ray_vector` row as a tuple, built once per n
    (do not mutate)."""
    return {bs: tuple(ray_vector(bs)) for bs in _bisubset_order(n)}


def _lineality_rows(n: int) -> list[list[int]]:
    """The rows e_E and f_E spanning the fan's lineality space."""
    return [[1] * n + [0] * n, [0] * n + [1] * n]


def canonical_ray(row: Sequence[int]) -> Row:
    """Canonical representative of a ray modulo the two lineality directions
    and positive scaling: shift each half of the row so its minimum is zero,
    then divide by the gcd of all entries.  Suitable for exact ray-set
    membership tests.
    """
    n = len(row) // 2
    low_top, low_bottom = min(row[:n]), min(row[n:])
    shifted = [a - low_top for a in row[:n]] + [a - low_bottom for a in row[n:]]
    g = gcd(*shifted)
    return tuple(a // g for a in shifted) if g else tuple(shifted)


def vertex_of_bipermutation(bp: Bipermutation) -> Row:
    """The vertex of the bipermutahedron selected by a chamber, as one row
    of 2n ints: the x entries, then the y entries.

    >>> vertex_of_bipermutation(Bipermutation((2, 3, 4, 2, 4, 1, 1)))
    (5, -7, 3, -1, -7, -1, 11, -3)
    """
    n = bp.n
    row = [0] * (2 * n)
    for t, (e, barred) in enumerate(doubled_word(bp.letters, (bp.k,))):
        value = 2 * t - (2 * n - 1)
        if not barred:
            row[e - 1] = value
        elif row[e - 1]:  # the odd values are never zero
            row[n + e - 1] = -value
        else:
            raise AssertionError("unbarred copy must come first")
    s = sum(row[:n])
    row[bp.k - 1] -= s
    row[n + bp.k - 1] -= s
    if sum(row[:n]) or sum(row[n:]):
        raise AssertionError("vertex coordinates must sum to zero in each row")
    return tuple(row)


def biperm_support(bs: Bisubset) -> int:
    """Support value of the bipermutahedron at a bisubset (min convention).

    >>> from bipermutahedron.combinatorics import bisubset
    >>> biperm_support(bisubset({2, 3, 4, 7}, {1, 2, 4, 5, 6, 7}, 7))
    -45
    """
    r = len(bs.left) + len(bs.left - bs.right)
    t = len(bs.right) + len(bs.right - bs.left)
    return -r * t


def harmonic_support(bs: Bisubset) -> Fraction:
    """Support value of the translated harmonic polytope at a bisubset.

    With f(x) = x((x - n)/2 - 1/n) this is f(|S|) + f(|T|) + 1; the
    translation is chosen so that f(n) = -1, making the value vanish on the
    two degenerate splits empty|E and E|empty.

    >>> from bipermutahedron.combinatorics import bisubset
    >>> harmonic_support(bisubset({1}, {2}, 2))
    Fraction(-1, 1)
    """
    n = bs.n

    def f(x: int) -> Fraction:
        return x * (Fraction(x - n, 2) - Fraction(1, n))

    return f(len(bs.left)) + f(len(bs.right)) + 1


@dataclass(frozen=True)
class SupportFunction:
    """A support function: one exact rational value per bisubset.

    ``values`` becomes a read-only copy of the table passed in, so neither
    the caller nor a reader can change a validated support.
    """

    n: int
    values: Mapping[Bisubset, int | Fraction]

    def __post_init__(self) -> None:
        values = dict(self.values)
        expected = _bisubset_index(self.n).keys()
        if values.keys() != expected:
            missing = len(expected - values.keys())
            extra = len(values.keys() - expected)
            raise ValueError(
                f"support table must cover all bisubsets exactly once "
                f"({missing} missing, {extra} unknown)"
            )
        for bs, value in values.items():
            if type(value) is bool or not isinstance(value, (int, Fraction)):
                raise TypeError(
                    f"support value at {bs} must be an int or a Fraction, "
                    f"got {value!r}"
                )
        object.__setattr__(self, "values", MappingProxyType(values))

    def __getitem__(self, bs: Bisubset) -> int | Fraction:
        return self.values[bs]

    @staticmethod
    def from_callable(
        n: int, fn: Callable[[Bisubset], int | Fraction]
    ) -> "SupportFunction":
        return SupportFunction(n, {bs: Fraction(fn(bs)) for bs in _bisubset_order(n)})

    @staticmethod
    def combine(
        terms: Sequence[tuple[int | Fraction, "SupportFunction"]]
    ) -> "SupportFunction":
        """An exact linear combination sum(coeff * h)."""
        if not terms:
            raise ValueError("need at least one term")
        n = terms[0][1].n
        if any(h.n != n for _, h in terms):
            raise ValueError("support functions of different n")
        return SupportFunction(
            n,
            {
                bs: sum((Fraction(c) * h[bs] for c, h in terms), Fraction(0))
                for bs in _bisubset_order(n)
            },
        )


def biperm_support_function(n: int) -> SupportFunction:
    return SupportFunction.from_callable(n, biperm_support)


def harmonic_support_function(n: int) -> SupportFunction:
    return SupportFunction.from_callable(n, harmonic_support)


@dataclass(frozen=True)
class FacetReport:
    n: int
    passed: bool
    vertices: int
    facets: int
    comparisons: int
    counterexample: str | None


def _subset_sums(values: Sequence[int]) -> list[int]:
    """The sum of ``values`` over each subset of its positions, at the
    index of the subset's mask (bit i for position i)."""
    sums = [0]
    for x in values:
        sums += [total + x for total in sums]
    return sums


def facet_check(n: int) -> FacetReport:
    """Exhaustively verify the inequality description of the bipermutahedron.

    For every vertex v and every bisubset S|T:  (e_S + f_T)(v) >= h(S|T),
    with equality exactly when S|T is a prefix/suffix split of the vertex's
    bipermutation.  In particular the support value is attained, so each
    bisubset really supports a facet.

    Per vertex the sums X[S] of the top entries over S and Y[T] of the
    bottom ones over T are tabulated over all subsets once, so each
    comparison is X[S] + Y[T] against the facet's right-hand side.
    """
    facets = [
        (
            bs,
            sum(1 << (i - 1) for i in bs.left),
            sum(1 << (i - 1) for i in bs.right),
            biperm_support(bs),
        )
        for bs in all_bisubsets(n)
    ]
    comparisons = 0
    counterexample = None
    vertex_count = 0
    for bp in enumerate_bipermutations(n):
        vertex_count += 1
        v = vertex_of_bipermutation(bp)
        x, y = _subset_sums(v[:n]), _subset_sums(v[n:])
        splits = set(bisubsets_of(bp))
        for bs, left, right, rhs in facets:
            comparisons += 1
            value = x[left] + y[right]
            tight = bs in splits
            if value < rhs or (value == rhs) != tight:
                counterexample = f"vertex {bp}, facet {bs}: {value} vs {rhs}"
                break
        if counterexample:
            break
    return FacetReport(
        n=n,
        passed=counterexample is None,
        vertices=vertex_count,
        facets=len(facets),
        comparisons=comparisons,
        counterexample=counterexample,
    )


def vertices_json(n: int) -> dict:
    """JSON-ready vertex dump: one entry per bipermutation, in order."""
    entries = []
    for bp in enumerate_bipermutations(n):
        v = vertex_of_bipermutation(bp)
        entries.append({"biperm": str(bp), "top": list(v[:n]), "bottom": list(v[n:])})
    return {"n": n, "vertices": entries}


def facets_json(n: int) -> dict:
    """JSON-ready facet dump: S, T, and the exact right-hand side."""
    entries = []
    for bs in all_bisubsets(n):
        entries.append(
            {
                "S": sorted(bs.left),
                "T": sorted(bs.right),
                "rhs": str(biperm_support(bs)),
            }
        )
    return {"n": n, "facets": entries}


def _relabeller(perm: Sequence[int]) -> Callable[[Row], Row]:
    """The relabelling i -> perm[i-1] of the ground set acting on a row of
    2n entries (the top entries, then the bottom ones): entry i of each
    half moves to position perm[i-1] of that half."""
    n = len(perm)
    source = [0] * n
    for i, image in enumerate(perm):
        source[image - 1] = i
    return itemgetter(*source, *(n + i for i in source))


@dataclass(frozen=True)
class SymmetryReport:
    n: int
    rays_relabel_invariant: bool
    rays_swap_invariant: bool
    vertices_relabel_equivariant: bool
    vertices_swap_reverse: bool
    negation_is_automorphism: bool
    negation_witness: str | None


def symmetry_checks(n: int) -> SymmetryReport:
    """Verify the symmetries of the fan and the one map that is not one.

    Relabelings of the ground set and the top/bottom swap permute the rays
    and the vertices (the swap acts on chambers as word reversal).  Negation
    is an automorphism only for n = 2: for n >= 3 any bisubset with
    S intersect T nonempty and S, T proper gives a ray whose negative is
    not a ray.

    Rays and vertices are compared as rows of 2n ints under one relabelling
    rule, ``_relabeller``.  Each vertex is built once and keyed by its word;
    a relabelling maps the word letter by letter, and the vertex of the
    image word must be the relabelled vertex.

    Only the generators of S_n are applied: the transposition (1 2) and the
    n-cycle (1 2 ... n), which coincide at n = 2, and there are none at
    n = 1.  A ray set that the generators map into itself is fixed by all
    of S_n, and equivariance under two relabellings gives it under their
    composite, so the verdicts are those of all n! relabellings.
    """
    row_of = _ray_rows(n)
    rays = {canonical_ray(row) for row in row_of.values()}
    # Each generator as the image of every letter (index 0 unused) and as
    # its action on rows.
    generators = ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)) if n > 1 else ()
    relabellings = [((0, *perm), _relabeller(perm)) for perm in generators]

    rays_relabel = all(
        canonical_ray(image) in rays
        for _, relabel in relabellings
        for image in map(relabel, row_of.values())
    )
    rays_swap = all(canonical_ray(row[n:] + row[:n]) in rays for row in row_of.values())

    vertex_of = {
        bp.letters: vertex_of_bipermutation(bp) for bp in enumerate_bipermutations(n)
    }
    vertices_relabel = all(
        vertex_of.get(tuple(map(letter_image.__getitem__, word))) == relabel(v)
        for letter_image, relabel in relabellings
        for word, v in vertex_of.items()
    )
    vertex_set = set(vertex_of.values())
    vertices_swap = all(
        v[n:] + v[:n] == vertex_of.get(word[::-1]) for word, v in vertex_of.items()
    ) and {v[n:] + v[:n] for v in vertex_set} == vertex_set

    off_fan = [
        bs
        for bs, row in row_of.items()
        if canonical_ray([-a for a in row]) not in rays
    ]
    witness = next(
        (
            str(bs)
            for bs in off_fan
            if bs.left & bs.right and len(bs.left) < n and len(bs.right) < n
        ),
        None,
    )
    return SymmetryReport(
        n=n,
        rays_relabel_invariant=rays_relabel,
        rays_swap_invariant=rays_swap,
        vertices_relabel_equivariant=vertices_relabel,
        vertices_swap_reverse=vertices_swap,
        negation_is_automorphism=not off_fan,
        negation_witness=witness,
    )


HYPERPLANE_TYPES = (1, 2, 3, 4)


def _wall_normal(splits: Iterable[Bisubset], n: int) -> tuple[int, ...]:
    table = _ray_rows(n)
    return tuple(nullspace_normal([table[bs] for bs in splits] + _lineality_rows(n)))


def classify_wall_normal(normal: Sequence[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Classify a primitive wall normal into one of the four hyperplane types.

    Returns (type, signature) where the signature pins down the hyperplane:
    type 1 -> (i, j) for z_i + w_i = z_j + w_j;  type 2 -> (i, j) for
    z_i = z_j;  type 3 -> (i, j) for w_i = w_j;  type 4 -> (i, j, k) for
    z_i - z_k = w_k - w_j.  Indices inside the signature are sorted for
    types 1-3 and ordered (i, j, k) for type 4.
    """
    top = normal[:n]
    bottom = normal[n:]
    tp = [i + 1 for i in range(n) if top[i] > 0]
    tm = [i + 1 for i in range(n) if top[i] < 0]
    bp_ = [i + 1 for i in range(n) if bottom[i] > 0]
    bm = [i + 1 for i in range(n) if bottom[i] < 0]
    if any(abs(x) > 1 for x in normal):
        raise ValueError(f"unrecognized wall normal {normal}")
    if len(tp) == 1 and len(tm) == 1 and not bp_ and not bm:
        return 2, tuple(sorted((tp[0], tm[0])))
    if not tp and not tm and len(bp_) == 1 and len(bm) == 1:
        return 3, tuple(sorted((bp_[0], bm[0])))
    if len(tp) == len(tm) == len(bp_) == len(bm) == 1:
        if tp == bp_ and tm == bm:
            return 1, tuple(sorted((tp[0], tm[0])))
        if tm == bm:
            return 4, (tp[0], bp_[0], tm[0])
        if tp == bp_:
            # Same hyperplane written with the opposite sign.
            return 4, (tm[0], bm[0], tp[0])
    raise ValueError(f"unrecognized wall normal {normal}")


def structural_wall_type(seq: Bisequence) -> tuple[int, tuple[int, ...]]:
    """Classify a wall by part shapes alone, with no linear algebra.

    Kind B (all singleton parts): the two once-elements i < j give type 1,
    the hyperplane z_i + w_i = z_j + w_j.  Kind A (one pair part): bar
    second occurrences along the part order and let k be the once-element.
    The wall equation identifies the chain quantities of the two letters
    sharing the pair part: both unbarred gives z_a = z_b (type 2), both
    barred gives w_a = w_b (type 3), and a unbarred with b barred gives
    z_a - z_k = w_k - w_b (type 4, signature (a, b, k)).  If k itself lies
    in the pair its own quantity is zero, so its partner's bar status picks
    type 2 or type 3 with signature (partner, k).
    """
    if all(len(part) == 1 for part in seq.parts):
        singles = tuple(sorted(seq.single_elements()))
        if len(singles) != 2:
            raise AssertionError("kind B wall needs exactly two once-elements")
        return 1, singles
    # A pair element is barred when it occurred before the pair part, in S.
    _, a, b, s, _, k = _kind_a_parts(seq)
    if k in (a, b):
        partner = a + b - k
        return (3 if partner in s else 2), tuple(sorted((partner, k)))
    if a not in s and b not in s:
        return 2, (a, b)
    if a in s and b in s:
        return 3, (a, b)
    unbarred, barred = (a, b) if b in s else (b, a)
    return 4, (unbarred, barred, k)


@dataclass(frozen=True)
class HyperplaneCountReport:
    """Wall counts per hyperplane type, with the closed forms to match."""

    n: int
    total_walls: int
    per_hyperplane: dict[int, int]
    closed_forms: dict[int, int]
    hyperplanes_of_type: dict[int, int]
    uniform_within_type: bool
    dual_route_agrees: bool
    totals_identity: bool

    @property
    def passed(self) -> bool:
        return (
            self.uniform_within_type
            and self.dual_route_agrees
            and self.totals_identity
            and self.per_hyperplane == self.closed_forms
        )


def hyperplane_face_counts(n: int) -> HyperplaneCountReport:
    """Count the walls lying on each hyperplane, two independent ways.

    Every wall of the fan spans one of four hyperplane types:
    1. z_i + w_i = z_j + w_j,  2. z_i = z_j,  3. w_i = w_j,
    4. z_i - z_k = w_k - w_j (i, j, k distinct).
    Each wall is classified both structurally (from its part shapes) and by
    computing a primitive normal to its linear span; the routes must agree.
    The per-hyperplane counts are compared against closed forms:
    (2n-2)!/2^(n-2) for type 1, (2n-1)!/(3 * 2^(n-2)) for types 2 and 3,
    and (2n-2)!/(6 * 2^(n-3)) for type 4, and summing count * number of
    hyperplanes over the types must give back the total number of walls.
    """
    if n < 2:
        raise ValueError("hyperplane classification needs n >= 2")
    tally: Counter[tuple[int, tuple[int, ...]]] = Counter()
    agrees = True
    total = 0
    for seq in enumerate_wall_bisequences(n):
        total += 1
        label = structural_wall_type(seq)
        if classify_wall_normal(_wall_normal(splits_of(seq), n), n) != label:
            agrees = False
        tally[label] += 1
    counts_by_type: dict[int, set[int]] = {t: set() for t in HYPERPLANE_TYPES}
    for (t, _sig), count in tally.items():
        counts_by_type[t].add(count)
    uniform = all(len(v) <= 1 for v in counts_by_type.values())
    per_hyperplane = {
        t: (max(v) if v else 0) for t, v in counts_by_type.items()
    }
    closed = {
        1: factorial(2 * n - 2) // 2 ** (n - 2),
        2: factorial(2 * n - 1) // (3 * 2 ** (n - 2)),
        3: factorial(2 * n - 1) // (3 * 2 ** (n - 2)),
        4: factorial(2 * n - 2) * 2 ** 3 // (6 * 2 ** n) if n >= 3 else 0,
    }
    hyperplanes = {
        1: comb(n, 2),
        2: comb(n, 2),
        3: comb(n, 2),
        4: n * (n - 1) * (n - 2),
    }
    totals = sum(hyperplanes[t] * per_hyperplane[t] for t in HYPERPLANE_TYPES)
    return HyperplaneCountReport(
        n=n,
        total_walls=total,
        per_hyperplane=per_hyperplane,
        closed_forms=closed,
        hyperplanes_of_type=hyperplanes,
        uniform_within_type=uniform,
        dual_route_agrees=agrees,
        totals_identity=totals == total,
    )
