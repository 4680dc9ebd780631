"""Walls of the fan, wall-crossing inequalities, nef cone, and quotients.

A support function h (min convention, one exact rational per bisubset)
describes a polytope whose normal fan coarsens the bipermutahedral fan
exactly when h satisfies one linear inequality per wall.  Each wall, a
codimension-1 cone indexed by a bisequence with 2n - 2 parts, separates
two chambers; the unique linear dependence among the wall's rays and the
two extra chamber rays r, r' induces the inequality

    I(h) = sum(c_m h(w_m)) - h(r) - c' h(r')  >=  0,

with the wall-ray coefficients c_m of either sign and c' > 0.  Nef means
I(h) >= 0 on every wall, ample means strict, and the Minkowski quotient
P/Q is the largest lambda with P - lambda Q still nef.

Walls come in two kinds with closed-form inequalities.  Kind A (one part
of size two): with prefix set S, pair {i, j}, suffix set T,

    h(S|ijT) + h(Sij|T) - h(Si|Tj) - h(Sj|Ti) >= 0,

dropping a term when its first set is empty or second set is empty (those
splits project to lineality, where every support vanishes).  Kind B (all
parts singletons, once-elements i and j): double i and j in place, bar
second occurrences, and split the resulting word of length 2n at every
switch between unbarred and barred letters; splits switching unbarred to
barred count negatively (they include r and r'), the others positively.
Both forms are validated against the generic dependence oracle, which
solves the dependence from scratch on the integer ray rows e_S + f_T and
returns integer coefficients.  A WallInequality holds positive int
coefficients, and two inequalities are the same when their primitive
integer forms are equal.

Many walls share one inequality (614 distinct ones among the 7,560 walls
at n = 4, 5,570 among the 453,600 at n = 5), and every closed-form
coefficient is 1.  The queries (is_nef, is_ample, minkowski_quotient,
wall_value_table) therefore read a per-n table of the distinct
inequalities, each with its first wall in enumerate_walls order and its
wall count, and evaluate each as an integer sum over the support scaled by
the lcm of its denominators.  The table is generated from the
combinatorics, never by visiting walls:

* kind A from region maps: for a pair i < j, every other element lies in S
  only, T only or both, and i, j each lie in the pair only, also in S or
  also in T, at most one in the pair only; the once-element's place (the
  pair, S only or T only) makes one row, since every once-element on one
  side has as many walls and the largest the least wall;
* kind B from chains of runs U_1 B_1 ... U_r B_r of first and second
  occurrences in the doubled word, with the once-elements pinned to two
  runs, the pins folded in as the chain grows.

Both rules also give each entry's first wall and wall count in closed form
(see _kind_a_entries and _kind_b_entries).  One rule builds a kind-A row
(_kind_a_row), for the table and the size classes below alike, and one
merges rows (_merged: the least first wall with its terms, the summed
wall count).  Kind A entries come first, and the kind-B ones are
generated only when a query reads past them.  Entries keep the order of
their first walls, so witnesses are the first walls that violate or
attain, exactly as in a wall-by-wall scan.  The walk over every
wall stays as the checked route: inequality_table_check, which
``check --suite deformation`` runs, walks once, comparing each wall's
inequality with the oracle's and the walked table with the generated one.

A support that reads S|T only through its size pair (|S - T|, |T - S|),
as the bipermutahedron's, the harmonic polytope's and every aB + bH do,
has one value on all the entries of one case whose terms have the same
size pairs.  Such a size class is held as its first entry with the wall
count of the whole class (40 classes at n = 4, 88 at n = 5, 203 at n = 6).
The classes are generated in closed form, with no table behind them: kind
A from the region counts and the sides of the pair, kind B from the size
sequences of the chains of runs, each with its least wall and its wall
count as a sum of products of factorials (see _kind_a_classes and
_kind_b_classes).  The queries decide by one pass over a support's values
whether it is of this kind; if every support they take is, they walk the
classes, and otherwise the table.  Either way each step is a table entry
evaluated on the same scaled row, and both routes give the same witnesses,
values and counters.  The table stays the reference route, and the walk's
entries merged by size the reference for the classes, which
inequality_table_check compares with them.  The table is generated up to
n = 6 (91,322 entries for its 37,422,000 walls); past it the queries
refuse any other support before generating an entry, and answer the
symmetric ones through the classes.
"""

from __future__ import annotations

import re
import sys
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, product
from math import comb, factorial, gcd
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, Literal

from .combinatorics import (
    Bipermutation,
    BisequenceError,
    Bisubset,
    KindMismatch,
    Wall,
    _bisequence_keys,
    _bisubset_index,
    _elements,
    _mask,
    _split_table,
    _word_keys,
    all_bisubsets,
    bisubset,
    enumerate_wall_bisequences,
    parse_bisequence,
)
from .geometry import (
    SupportFunction,
    _lineality_rows,
    _ray_rows,
    biperm_support,
    harmonic_support,
)
from .linalg import solve_unique

__all__ = [
    "KindMismatch",
    "DependenceNotUnique",
    "Wall",
    "enumerate_walls",
    "wall_refinements",
    "WallInequality",
    "supermodular_inequality",
    "updown_inequality",
    "wall_inequality",
    "WallTree",
    "wall_tree",
    "updown_value_by_segments",
    "generic_wallcross_oracle",
    "same_inequality",
    "inequality_table_check",
    "NefVerdict",
    "is_nef",
    "is_ample",
    "kind_a_case",
    "WallValueTable",
    "wall_value_table",
    "QuotientResult",
    "minkowski_quotient",
    "parse_support_csv",
    "format_support_csv",
    "named_support",
]


class DependenceNotUnique(ArithmeticError):
    """The rays around a wall admit no one-dimensional dependence space;
    the fan would fail to be simplicial there."""


def enumerate_walls(n: int) -> Iterator[Wall]:
    """All walls, kind A first, each kind in lexicographic order.

    >>> [str(w) for w in enumerate_walls(2)]
    ['A:1|12', 'A:12|1', 'A:12|2', 'A:2|12', 'B:1|2', 'B:2|1']
    """
    yield from enumerate_wall_bisequences(n)


def wall_refinements(wall: Wall) -> tuple[Bipermutation, Bipermutation]:
    """The two chambers adjacent to a wall.

    Kind A refines the pair part {i, j} into i|j or j|i; kind B doubles
    the once-element i or the once-element j in place, read off the wall's
    one decode ``kind_b_word``: doubling i is that word with the second
    copy of j removed.

    >>> [str(b) for b in wall_refinements(next(enumerate_walls(2)))]
    ['1|1|2', '1|2|1']
    """
    if wall.kind == "A":
        pos, i, j, *_ = wall.kind_a_parts
        head = tuple(next(iter(p)) for p in wall.parts[:pos])
        tail = tuple(next(iter(p)) for p in wall.parts[pos + 1 :])
        return (
            Bipermutation(head + (i, j) + tail),
            Bipermutation(head + (j, i) + tail),
        )
    i, j = sorted(wall.single_elements())
    word = wall.kind_b_word
    return tuple(
        Bipermutation(tuple(e for e, barred in word if e != other or not barred))
        for other in (j, i)
    )


@dataclass(frozen=True)
class WallInequality:
    """I(h) = sum of plus terms minus sum of minus terms, each coefficient a
    positive int."""

    plus: tuple[tuple[Bisubset, int], ...]
    minus: tuple[tuple[Bisubset, int], ...]

    def __post_init__(self) -> None:
        for _, coeff in self.plus + self.minus:
            if coeff <= 0:
                raise ValueError("inequality coefficients must be positive")
            if not isinstance(coeff, int):
                raise TypeError(f"inequality coefficients must be ints: {coeff!r}")

    def evaluate(self, h: SupportFunction) -> Fraction:
        """I(h), one int sum on h's row over its scale (0 with no terms)."""
        terms = self.plus + self.minus
        if terms:
            h.require_n(terms[0][0].n)
        index, row = _bisubset_index(h.n), h.row
        total = sum(c * row[index[bs]] for bs, c in self.plus) - sum(
            c * row[index[bs]] for bs, c in self.minus
        )
        return Fraction(total, h.scale)


def _primitive_form(ineq: WallInequality) -> dict[Bisubset, int]:
    """The signed coefficients of an inequality, merged across plus and
    minus, zeros dropped, divided by their gcd."""
    merged: dict[Bisubset, int] = {}
    for bs, c in ineq.plus:
        merged[bs] = merged.get(bs, 0) + c
    for bs, c in ineq.minus:
        merged[bs] = merged.get(bs, 0) - c
    g = gcd(*merged.values())
    return {bs: c // g for bs, c in merged.items() if c}


def same_inequality(a: WallInequality, b: WallInequality) -> bool:
    """Equality of inequalities up to a positive scalar."""
    return _primitive_form(a) == _primitive_form(b)


def _term(left: int, right: int, n: int) -> Bisubset | None:
    """The bisubset of the masks of S and T, or None on lineality."""
    if not left or not right or left == right:
        return None
    return _split_table(n)[left, right]


def supermodular_inequality(wall: Wall) -> WallInequality:
    """The closed-form inequality of a kind-A wall.

    >>> ineq = supermodular_inequality(Wall(parse_bisequence("12|1", 2).parts, 2))
    >>> sorted(str(bs) for bs, _ in ineq.minus)
    ['1|12', '2|1']
    >>> [str(bs) for bs, _ in ineq.plus]
    ['12|1']
    """
    n = wall.n
    _, i, j, s, t, _ = wall.kind_a_parts
    bit_i, bit_j = 1 << i, 1 << j
    plus = [_term(s, bit_i | bit_j | t, n), _term(s | bit_i | bit_j, t, n)]
    minus = [_term(s | bit_i, t | bit_j, n), _term(s | bit_j, t | bit_i, n)]
    return WallInequality(
        tuple((bs, 1) for bs in plus if bs is not None),
        tuple((bs, 1) for bs in minus if bs is not None),
    )


def _switches(wall: Wall) -> list[tuple[int, bool]]:
    """The switch positions m of a kind-B wall's doubled word, where the bar
    flag changes between letters m and m + 1, each tagged True when the
    switch goes unbarred to barred (the negative side)."""
    flags = [barred for _, barred in wall.kind_b_word]
    return [(m, flags[m]) for m in range(1, len(flags)) if flags[m - 1] != flags[m]]


def updown_inequality(wall: Wall) -> WallInequality:
    """The closed-form inequality of a kind-B wall.

    Splits at barred-to-unbarred switches enter positively, splits at
    unbarred-to-barred switches (among them the two chamber rays, inside
    the doubled pairs i|i and j|j) enter negatively.  The associated tree
    invariants are re-validated on every call.

    >>> ineq = updown_inequality(Wall(parse_bisequence("1|2", 2).parts, 2))
    >>> [str(bs) for bs, _ in ineq.plus], [str(bs) for bs, _ in ineq.minus]
    (['1|2'], ['1|12', '12|2'])
    """
    tree = wall_tree(wall)
    splits = [(tree.edges[m - 1], up) for m, up in _switches(wall)]
    plus = tuple((bs, 1) for bs, up in splits if not up)
    minus = tuple((bs, 1) for bs, up in splits if up)
    if len(minus) != len(plus) + 1:
        raise AssertionError("switches must alternate, ends up")
    if tree.spine != tuple(bs for bs, _ in splits):
        raise AssertionError(
            "the tree spine must consist of the switch splits in order"
        )
    return WallInequality(plus, minus)


def wall_inequality(wall: Wall) -> WallInequality:
    """Closed-form inequality of either kind."""
    if wall.kind == "A":
        return supermodular_inequality(wall)
    return updown_inequality(wall)


@dataclass(frozen=True)
class WallTree:
    """The bipartite graph of a kind-B wall's splits.

    Vertices are the distinct prefix sets (top) and suffix sets (bottom)
    of the doubled word; each of the 2n - 1 splits is an edge, the split
    table's ``Bisubset`` joining ``edge[0]`` to ``edge[1]``.  The graph is
    a tree on 2n vertices, and the path between the two full-set vertices
    (the spine) consists exactly of the switch splits; its alternating ray
    sum is e_E + f_E, which vanishes in the quotient.
    """

    n: int
    top: tuple[frozenset[int], ...]
    bottom: tuple[frozenset[int], ...]
    edges: tuple[Bisubset, ...]
    spine: tuple[Bisubset, ...]


def wall_tree(wall: Wall) -> WallTree:
    """Build the tree of a kind-B wall and verify its invariants."""
    n = wall.n
    ground = frozenset(range(1, n + 1))
    keys = _word_keys([e for e, _ in wall.kind_b_word])
    edges = tuple(map(_split_table(n).__getitem__, keys))
    top = tuple(dict.fromkeys(edge.left for edge in edges))
    bottom = tuple(dict.fromkeys(edge.right for edge in edges))
    if len(top) != n or len(bottom) != n or len(set(edges)) != 2 * n - 1:
        raise AssertionError("wall tree must have 2n vertices and 2n-1 edges")

    # Breadth-first from the top vertex E.  via[0] and via[1] map each top
    # and each bottom vertex reached to the edge that reached it.
    incident: tuple[dict, dict] = ({}, {})
    for edge in edges:
        incident[0].setdefault(edge[0], []).append(edge)
        incident[1].setdefault(edge[1], []).append(edge)
    via: tuple[dict, dict] = ({ground: None}, {})
    frontier = deque([(0, ground)])
    while frontier:
        side, vertex = frontier.popleft()
        for edge in incident[side][vertex]:
            if edge[1 - side] not in via[1 - side]:
                via[1 - side][edge[1 - side]] = edge
                frontier.append((1 - side, edge[1 - side]))
    # Connected with 2n vertices and 2n-1 distinct edges == tree.
    if len(via[0]) + len(via[1]) != 2 * n:
        raise AssertionError("wall tree must be connected")

    # The spine, read back from the bottom vertex E to the root, runs in
    # word order.
    spine = []
    side, edge = 1, via[1][ground]
    while edge is not None:
        spine.append(edge)
        side = 1 - side
        edge = via[side][edge[side]]

    rays = _ray_rows(n)
    vec = [0] * (2 * n)
    sign = -1  # the spine starts and ends with unbarred-to-barred switches
    for bs in spine:
        vec = [x + sign * r for x, r in zip(vec, rays[bs])]
        sign = -sign
    if vec != [-1] * (2 * n):
        raise AssertionError(
            "alternating spine sum must equal -(e_E + f_E), got " + str(vec)
        )
    return WallTree(
        n=n,
        top=top,
        bottom=bottom,
        edges=edges,
        spine=tuple(spine),
    )


def updown_value_by_segments(wall: Wall) -> int:
    """I at the bipermutahedron's support, by word positions alone.

    A split of the doubled word after m letters evaluates the support to
    -m(2n - m), so the up-down value is the alternating sum of m(2n - m)
    over the switch positions, starting and ending positive.  This path
    never touches the support table.
    """
    n = wall.n
    total = 0
    sign = 1
    for m, _ in _switches(wall):
        total += sign * m * (2 * n - m)
        sign = -sign
    return total


def generic_wallcross_oracle(wall: Wall) -> WallInequality:
    """The wall inequality derived from scratch by linear algebra.

    Finds the two adjacent chambers, their two extra rays r and r', and
    the wall's own rays w_m; solves the 2n x 2n integer system
    c' r' + sum(x_m w_m) + a e_E + b f_E = -r, whose columns are the ray
    rows of :func:`geometry.ray_vector` and the lineality rows, so that
    r + c' r' = sum(c_m w_m) modulo lineality with c_m = -x_m; and checks
    c' > 0.  The solution is scaled to integers over its least common
    denominator: r gets that denominator, c' and every c_m their
    numerators.  No combinatorial case analysis enters, so this is an
    independent oracle for the closed-form inequalities.
    """
    n = wall.n
    split_of = _split_table(n)
    wall_keys = _bisequence_keys(wall)
    wall_rays = tuple(map(split_of.__getitem__, wall_keys))
    # A split is its key in the split table, so the chambers' extra rays
    # are found by comparing keys.
    known = set(wall_keys)
    extras = [
        [key for key in _word_keys(chamber.letters) if key not in known]
        for chamber in wall_refinements(wall)
    ]
    if any(len(extra) != 1 for extra in extras):
        raise DependenceNotUnique(
            f"chambers of {wall} do not add exactly one ray each"
        )
    (r_key,), (rp_key,) = extras
    r, rp = split_of[r_key], split_of[rp_key]
    table = _ray_rows(n)
    columns = [table[rp], *(table[w] for w in wall_rays), *_lineality_rows(n)]
    columns.append([-x for x in table[r]])
    try:
        numerators, d = solve_unique(list(zip(*columns)))
    except ValueError as exc:
        raise DependenceNotUnique(f"dependence at {wall} is not unique") from exc
    # The solution is numerators / d.  Dividing d and the numerators by
    # their gcd, signed like d, puts it over its least common denominator.
    head = numerators[: 1 + len(wall_rays)]
    g = gcd(d, *head) if d > 0 else -gcd(d, *head)
    den = d // g
    cp, *xs = [x // g for x in head]
    if cp <= 0:
        raise DependenceNotUnique(
            f"chamber-ray coefficient at {wall} must be positive, got "
            f"{Fraction(cp, den)}"
        )
    plus = tuple((w, -x) for w, x in zip(wall_rays, xs) if x < 0)
    minus = ((r, den), (rp, cp)) + tuple((w, x) for w, x in zip(wall_rays, xs) if x > 0)
    return WallInequality(plus, minus)


@dataclass(frozen=True, slots=True)
class _TableEntry:
    """One distinct wall inequality I(h) = sum h[plus] - sum h[minus].

    ``plus`` and ``minus`` index into ``all_bisubsets(n)``; ``parts`` holds
    the sorted parts of the first wall, in :func:`enumerate_walls` order,
    with this inequality and kind-A case (None for kind B), and ``walls``
    counts the walls that share both.  A size class is its first entry with
    ``walls`` summed over the class (see :func:`_size_classes`).
    """

    parts: tuple[tuple[int, ...], ...]
    case: str | None
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    walls: int

    @property
    def wall(self) -> Wall:
        n = len(self.parts) // 2 + 1
        return Wall(tuple(map(frozenset, self.parts)), n)

    def value(self, v: tuple[int, ...]) -> int:
        """L * I(h), for a support's ``row`` v over its ``scale`` L."""
        return sum(map(v.__getitem__, self.plus)) - sum(map(v.__getitem__, self.minus))


@cache
def _singles(n: int) -> tuple[tuple[int], ...]:
    """One shared tuple (e,) per element 0..n, the singleton parts of the
    tables' first walls: the tables hold thousands of them."""
    return tuple((e,) for e in range(n + 1))


def _kind_a_places(a: int, b: int) -> Iterator[tuple[str, tuple[str, str], str, int]]:
    """(case, sides of i and j, place of o, choices of o) for a pair whose
    region map puts a elements in S only and b in T only.

    i and j each lie in the pair only (P), also in S or also in T, at most
    one in the pair only.  The once-element o is that one (case iii), or
    else one of the a S-only or the b T-only elements (case i when i and j
    are on the same side, ii otherwise).
    """
    for sides in product("PST", repeat=2):
        if "P" in sides:
            if sides != ("P", "P"):
                yield "iii", sides, "P", 1
        else:
            case = "i" if sides[0] == sides[1] else "ii"
            if a:
                yield case, sides, "S", a
            if b:
                yield case, sides, "T", b


def _kind_a_row(
    n: int,
    case: str,
    pair: tuple[int, int],
    s_side: list[int],
    t_side: list[int],
    twice_s: list[int],
    twice_t: list[int],
    multiplicity: int,
) -> _TableEntry:
    """One row of a kind-A generator: the region map with S = ``s_side``,
    T = ``t_side``, the pair i < j and the elements of ``twice_s`` and
    ``twice_t`` doubled, its walls counted ``multiplicity`` times (once per
    choice of the once-element, and for a size class once per region map
    of these counts).

    The prefix holds the doubled elements of S twice and the rest of S
    once, in any order, and the suffix likewise from T: the least wall is
    the sorted prefix, ij, the sorted suffix, and there are |pre|!/2^d *
    |suf|!/2^d' walls, d and d' counting the doubled elements.  The terms
    are h(S|ijT), h(Sij|T) (plus) and h(Si|Tj), h(Sj|Ti) (minus), each
    dropped when a side is empty or the sides are equal (lineality); a set
    is its split table key, bit e for element e, and a term is its
    bisubset's position in ``all_bisubsets(n)``.
    """
    index, table, single = _bisubset_index(n), _split_table(n), _singles(n)
    head, tail = sorted(s_side + twice_s), sorted(t_side + twice_t)
    i, j = pair
    s, t, bit_i, bit_j = _mask(s_side), _mask(t_side), 1 << i, 1 << j
    plus: list[int] = []
    minus: list[int] = []
    for terms, left, right in (
        (plus, s, bit_i | bit_j | t),
        (plus, s | bit_i | bit_j, t),
        (minus, s | bit_i, t | bit_j),
        (minus, s | bit_j, t | bit_i),
    ):
        if left and right and left != right:
            terms.append(index[table[left, right]])
    walls = multiplicity * (factorial(len(head)) >> len(twice_s))
    walls *= factorial(len(tail)) >> len(twice_t)
    parts = (*map(single.__getitem__, head), pair, *map(single.__getitem__, tail))
    return _TableEntry(parts, case, tuple(plus), tuple(minus), walls)


def _merged(
    rows: Iterable[_TableEntry], key: Callable[[_TableEntry], Hashable]
) -> tuple[_TableEntry, ...]:
    """The rows merged by ``key``, in order of first wall: each entry keeps
    the least first wall of its rows with that row's case and terms, and
    sums their wall counts."""
    found: dict[Hashable, list] = {}
    for row in rows:
        seen = found.setdefault(key(row), [row, 0])
        if row.parts < seen[0].parts:
            seen[0] = row
        seen[1] += row.walls
    entries = [
        _TableEntry(first.parts, first.case, first.plus, first.minus, walls)
        for first, walls in found.values()
    ]
    entries.sort(key=attrgetter("parts"))
    return tuple(entries)


@cache
def _kind_a_entries(n: int) -> tuple[_TableEntry, ...]:
    """The distinct kind-A inequalities, generated from region maps.

    For a pair i < j, every other element lies in S only, T only or both,
    and i and j each lie in the pair only, also in S or also in T (see
    :func:`_kind_a_places`).  The S-only and T-only elements occur twice,
    except the once-element o, and the "both" elements and the members of
    i, j in S or T once.  The walls do not depend on which S-only (or
    T-only) element is o, and the largest gives the least wall, so each
    region map is one row per place of o (:func:`_kind_a_row`), counted
    once per choice of o.  Rows whose inequalities agree, degenerate terms
    dropped, are merged.
    """
    rows = []
    for i, j in combinations(range(1, n + 1), 2):
        others = [e for e in range(1, n + 1) if e != i and e != j]
        for regions in product("STB", repeat=n - 2):
            s_only = [e for e, r in zip(others, regions) if r == "S"]
            t_only = [e for e, r in zip(others, regions) if r == "T"]
            both = [e for e, r in zip(others, regions) if r == "B"]
            for case, sides, place, choices in _kind_a_places(len(s_only), len(t_only)):
                pair_s = [e for e, side in zip((i, j), sides) if side == "S"]
                pair_t = [e for e, side in zip((i, j), sides) if side == "T"]
                twice_s = s_only[:-1] if place == "S" else s_only
                twice_t = t_only[:-1] if place == "T" else t_only
                s_side, t_side = s_only + both + pair_s, both + pair_t + t_only
                rows.append(
                    _kind_a_row(n, case, (i, j), s_side, t_side, twice_s, twice_t, choices)
                )
    return _merged(rows, attrgetter("case", "plus", "minus"))


@cache
def _kind_b_run(u: int, b: int) -> tuple:
    """(letters unpinned, least letters pinned or None, walls unpinned,
    walls pinned summed over the pins) of one run U_k B_k, given as masks."""
    ulist, blist = _elements(u), _elements(b)
    pins = u & b
    # Pin p = max(U_k & B_k): pinning a smaller q puts a larger letter where q stood.
    p = pins.bit_length() - 1
    return (
        ulist + blist,
        tuple(e for e in ulist if e != p) + (p,) + tuple(e for e in blist if e != p)
        if pins
        else None,
        factorial(len(ulist)) * factorial(len(blist)),
        pins.bit_count() * factorial(len(ulist) - 1) * factorial(len(blist) - 1),
    )


@cache
def _kind_b_entries(n: int) -> tuple[_TableEntry, ...]:
    """The distinct kind-B inequalities, generated from chains of runs.

    The doubled word of a kind-B wall is a sequence of runs U_1 B_1 ...
    U_r B_r of first and second occurrences.  The U_k partition E, each
    B_k lies in C_k - D_{k-1} (C_k = U_1 + ... + U_k, D_k = B_1 + ... +
    B_k), and C_r = D_r = E.  The minus splits are (C_k | E - D_{k-1}) for
    k = 1..r and the plus splits (C_k | E - D_k) for k < r, so the chain
    is the inequality.  The once-elements i, j are pinned to two runs k,
    each last in U_k and first in B_k, so in U_k & B_k; a run's other
    letters take any order.  So a wall needs r >= 2, that is U_1 != E, and
    every such chain has one: B_1 lies in U_1 and U_r in B_r, so the first
    and last runs take a pin.  The first wall is the least over the pin
    choices of the runs read U_k - p ascending, p, B_k - p ascending, and
    the walls number, summed over pin choices, the product over runs of
    (|U_k| - pinned)! (|B_k| - pinned)!.

    Both are folded in as the chain grows: each run extends the least
    letters and the summed walls with none, one and two runs pinned so
    far.  Words with the same number of pins have the same length, so the
    least prefix stays least.  The word (n + 1,), above every word of
    letters, stands with 0 walls for a pin count no chain has yet; a run
    without a pin only extends each state, so it never pins such a word.
    """
    index, table, single = _bisubset_index(n), _split_table(n), _singles(n)
    full = table.full
    entries: list[_TableEntry] = []
    plus: list[int] = []
    minus: list[int] = []

    def extend(seen: int, done: int, words: tuple, walls: tuple) -> None:
        """Append every run (U, B) to a chain with C = seen, D = done, whose
        least letters and summed walls with none, one and two runs pinned
        are ``words`` and ``walls``."""
        (none, one, two), (walls_none, walls_one, walls_two) = words, walls
        fresh = full & ~seen
        u = fresh
        while u:
            c = seen | u
            # A first run holding all of E would be the only run.
            if c != full or done:
                minus.append(index[table[c, full & ~done]])
                pending = c & ~done
                b = pending
                while b:
                    d = done | b
                    free, pinned, free_walls, pinned_walls = _kind_b_run(u, b)
                    if d == full:
                        # B_r holds U_r, so the last run takes a pin.
                        parts = tuple(map(single.__getitem__, min(two + free, one + pinned)))
                        count = walls_two * free_walls + walls_one * pinned_walls
                        entries.append(_TableEntry(parts, None, tuple(plus), tuple(minus), count))
                    elif c != full:
                        plus.append(index[table[c, full & ~d]])
                        if pinned is None:
                            grown = none + free, one + free, two + free
                            counts = (
                                walls_none * free_walls,
                                walls_one * free_walls,
                                walls_two * free_walls,
                            )
                        else:
                            grown = (
                                none + free,
                                min(one + free, none + pinned),
                                min(two + free, one + pinned),
                            )
                            counts = (
                                walls_none * free_walls,
                                walls_one * free_walls + walls_none * pinned_walls,
                                walls_two * free_walls + walls_one * pinned_walls,
                            )
                        extend(c, d, grown, counts)
                        plus.pop()
                    b = (b - 1) & pending
                minus.pop()
            u = (u - 1) & fresh

    extend(0, 0, ((), (n + 1,), (n + 1,)), (1, 0, 0))
    entries.sort(key=attrgetter("parts"))
    return tuple(entries)


def _inequality_table(n: int) -> Iterator[_TableEntry]:
    """The distinct wall inequalities at n, in order of their first wall.

    Kind A comes first, as in :func:`enumerate_walls`; the kind-B entries
    are generated only when a query reads past the kind-A ones.
    """
    yield from _kind_a_entries(n)
    yield from _kind_b_entries(n)


@cache
def _size_pair_ids(n: int) -> tuple[int, ...]:
    """Each bisubset's size pair (|S - T|, |T - S|) as the id
    |S - T| * n + |T - S|, in all_bisubsets(n) order.

    S and T cover {1..n}, so the pair also fixes |S| and |T|."""
    return tuple(
        len(bs.left - bs.right) * n + len(bs.right - bs.left)
        for bs in all_bisubsets(n)
    )


@cache
def _size_key(n: int) -> Callable[[_TableEntry], tuple]:
    """The size class key of an entry at n: its case and the multisets of
    its plus and of its minus terms' size pairs.

    A multiset is keyed as one int, the sum of a digit 1 << (width * id)
    per term, id its term's size-pair id; no side has 2n terms, so digits
    never carry.  At a support that reads S|T only through its size pair,
    the entries of one class share their value.
    """
    width = (2 * n).bit_length()
    digit = tuple(1 << width * k for k in _size_pair_ids(n))

    def key(entry: _TableEntry) -> tuple:
        plus, minus = entry.plus, entry.minus
        return entry.case, sum(map(digit.__getitem__, plus)), sum(map(digit.__getitem__, minus))

    return key


@cache
def _kind_a_classes(n: int) -> tuple[_TableEntry, ...]:
    """The kind-A size classes in closed form, in order of first wall.

    A region map of :func:`_kind_a_entries` with the place of its
    once-element o is, up to relabelling, fixed by the region counts a =
    |S only|, b = |T only| and c = |both| = n - 2 - a - b, the sides of i
    and j and o's place (the pair, S only or T only), and these fix the
    size pairs of the terms.  There are C(n, 2) (n - 2)!/(a! b! c!) such
    region maps, and o takes 1, a or b elements.  The least wall gives
    labels in increasing order to the doubled S-only elements (the prefix
    reads 1, 1, 2, 2, ...), the S-side pair members (the pair part follows
    the prefix), the "both" elements (they are in the suffix too), an
    S-only o, the other pair members T side first, the doubled T-only
    elements and a T-only o.  Each combination is one
    :func:`_kind_a_row` on these labels, and rows with one
    :func:`_size_key` merge.
    """
    labels = [*range(1, n + 1)]
    rows = []
    for a in range(n - 1):
        for b in range(n - 1 - a):
            c = n - 2 - a - b
            maps = comb(n, 2) * factorial(n - 2)
            maps //= factorial(a) * factorial(b) * factorial(c)
            for case, sides, place, choices in _kind_a_places(a, b):
                in_s, in_t = sides.count("S"), sides.count("T")
                once_s, once_t = place == "S", place == "T"
                sizes = (a - once_s, in_s, c, once_s, in_t, 2 - in_s - in_t, b - once_t, once_t)
                cuts = [*accumulate(sizes, initial=0)]
                twice_s, pair_s, both, o_s, pair_t, pair_p, twice_t, o_t = map(
                    labels.__getitem__, map(slice, cuts, cuts[1:])
                )
                s_side, t_side = twice_s + pair_s + both + o_s, both + pair_t + twice_t + o_t
                pair = (*pair_s, *pair_t, *pair_p)
                rows.append(
                    _kind_a_row(n, case, pair, s_side, t_side, twice_s, twice_t, maps * choices)
                )
    return _merged(rows, _size_key(n))


@cache
def _kind_b_classes(n: int) -> tuple[_TableEntry, ...]:
    """The kind-B size classes in closed form, in order of first wall.

    The terms of a chain of runs (see :func:`_kind_b_entries`) have the
    size pairs (|D_{k-1}|, n - |C_k|) (minus) and (|D_k|, n - |C_k|)
    (plus), so a class is one size sequence (|C_k|, |D_k|), k = 1..r:
    both sizes rise strictly to n, |D_k| <= |C_k|, and |C_k| < n before
    the last run, so r >= 2.  With m_k = |C_k| - |D_{k-1}| elements open
    to B_k and p_k = |C_k| - |D_k| left pending, the U_k can be chosen in
    n!/prod |U_k|! ways and each B_k in C(m_k, |B_k|).  Summing a run's
    factor over its B_k, the pinned one |U_k & B_k| (|U_k| - 1)! (|B_k| -
    1)! by Vandermonde's identity, the chains' wall counts sum to n! times,
    over the pairs of pinned runs, the product of (m_k - 1)!/p_k! at a
    pinned run and m_k!/p_k! at any other.

    The least wall takes U_k to be the next |U_k| labels and B_k the least
    labels open to it, and it pins the last two runs, each at max(U_k),
    which B_{r-1} then holds: a run's least letters are U_k ascending, and
    pinning an earlier run would put the next run's first letter, larger
    than every open label, where an unpinned run reads an open one.  Its
    terms are read off the chain, minus (C_k | E - D_{k-1}) and plus (C_k |
    E - D_k).
    """
    index, table, single = _bisubset_index(n), _split_table(n), _singles(n)
    full = table.full
    entries: list[_TableEntry] = []

    def emit(sizes: list[tuple[int, int]]) -> None:
        r = len(sizes)
        # The summed products with none, one and two runs pinned so far.
        none, one, two = 1, 0, 0
        letters: list[int] = []
        plus: list[int] = []
        minus: list[int] = []
        pending: list[int] = []
        c_last = d_last = done = 0
        for k, (c, d) in enumerate(sizes, 1):
            free = factorial(c - d_last) // factorial(c - d)
            pinned = factorial(c - d_last - 1) // factorial(c - d)
            none, one, two = none * free, one * free + none * pinned, two * free + one * pinned
            u = list(range(c_last + 1, c + 1))
            opened = pending + u
            # The last two runs are pinned at max(U_k) = c, the last open label.
            pin = k >= r - 1
            cut = d - d_last - pin
            letters += u + opened[:cut]
            pending = opened[cut : len(opened) - pin]
            minus.append(index[table[(2 << c) - 2, full & ~done]])
            done |= _mask(opened[:cut]) | (1 << c if pin else 0)
            if k < r:
                plus.append(index[table[(2 << c) - 2, full & ~done]])
            c_last, d_last = c, d
        parts = tuple(map(single.__getitem__, letters))
        entries.append(_TableEntry(parts, None, tuple(plus), tuple(minus), factorial(n) * two))

    def extend(sizes: list[tuple[int, int]], c: int, d: int) -> None:
        """Emit every size sequence that continues ``sizes``, which ends at
        (c, d)."""
        for c_next in range(c + 1, n):
            for d_next in range(d + 1, c_next + 1):
                sizes.append((c_next, d_next))
                extend(sizes, c_next, d_next)
                sizes.pop()
        if sizes:
            emit(sizes + [(n, n)])

    extend([], 0, 0)
    entries.sort(key=lambda entry: entry.parts)
    return tuple(entries)


def _size_classes(n: int) -> Iterator[_TableEntry]:
    """The size classes of the wall inequalities at n, in order of first
    entry, generated in closed form with no table behind them.

    The case is part of the key, kind B's being None, so no class holds
    entries of both kinds; the kind-B classes are generated only when a
    query reads past the kind-A ones.  The walk's entries merged by size
    (:func:`inequality_table_check`) are the reference route.
    """
    yield from _kind_a_classes(n)
    yield from _kind_b_classes(n)


def inequality_table_check(n: int) -> Iterator[str]:
    """The checked route, one walk over every wall: the failure messages.

    Each wall's :func:`wall_inequality` (for kind B also :func:`wall_tree`)
    must have every coefficient 1 and equal the oracle's, and on kind B
    have :func:`updown_value_by_segments` as its value at the
    bipermutahedron; after the first of these comparisons fails, neither
    runs again.  The distinct (case, plus, minus), in order of first wall
    with their wall counts, must equal the generated table, and the
    closed-form size classes these entries merged per kind by
    :func:`_size_key`.
    """
    index = _bisubset_index(n)
    biperm = named_support("biperm", n)
    first: dict[tuple, Wall] = {}
    walls: Counter = Counter()
    compare = True
    for wall in enumerate_walls(n):
        ineq = wall_inequality(wall)
        if any(c != 1 for _, c in ineq.plus + ineq.minus):
            raise AssertionError(f"closed-form coefficients at {wall} must be 1")
        if compare:
            if not same_inequality(ineq, generic_wallcross_oracle(wall)):
                yield f"closed-form inequality differs from the oracle at {wall}"
                compare = False
            elif wall.kind == "B" and updown_value_by_segments(wall) != ineq.evaluate(biperm):
                yield f"segment value differs from the closed form at {wall}"
                compare = False
        key = (
            kind_a_case(wall) if wall.kind == "A" else None,
            tuple(index[bs] for bs, _ in ineq.plus),
            tuple(index[bs] for bs, _ in ineq.minus),
        )
        first.setdefault(key, wall)
        walls[key] += 1
    walked = [
        _TableEntry(
            tuple(tuple(sorted(part)) for part in wall.parts),
            *key,
            walls[key],
        )
        for key, wall in first.items()
    ]
    if list(_inequality_table(n)) != walked:
        yield "the generated wall inequalities differ from the wall walk"
    size = _size_key(n)
    grouped = _merged([e for e in walked if e.case is not None], size)
    grouped += _merged([e for e in walked if e.case is None], size)
    if _kind_a_classes(n) + _kind_b_classes(n) != grouped:
        yield "the closed-form size classes differ from the table's"


def _symmetric(v: tuple[int, ...], n: int) -> bool:
    """Whether a scaled support is constant on size pairs.

    Then a query walks the size classes: all entries of a class share
    their value, so the first class to fail, to attain a minimum (ties kept
    by a strict <) or to give a new value holds the first entry that does,
    and witnesses and the order of the value counters are the table's.
    """
    ids = _size_pair_ids(n)
    return len(set(zip(ids, v))) == len(set(ids))


def _walk(*supports: SupportFunction) -> Iterator[_TableEntry]:
    """The entries the queries walk: size classes if every support is
    constant on size pairs, and else the table, which is refused past
    n = 6 before any entry is generated.  The supports must share one n."""
    n = supports[0].n
    for h in supports:
        h.require_n(n)
    if all(_symmetric(h.row, n) for h in supports):
        return _size_classes(n)
    if n > 6:
        raise ValueError(
            f"n = {n} has more walls than the 37422000 at n = 6, the largest n whose "
            "wall inequalities can be generated; past it only supports constant on "
            "size pairs (|S - T|, |T - S|) are answered"
        )
    return _inequality_table(n)


@dataclass(frozen=True)
class NefVerdict:
    passed: bool
    witness_wall: Wall | None
    witness_value: Fraction | None

    def __bool__(self) -> bool:
        return self.passed


def _cone_check(h: SupportFunction, strict: bool) -> NefVerdict:
    v = h.row
    for step in _walk(h):
        value = step.value(v)
        if value < 0 or (strict and value == 0):
            return NefVerdict(False, step.wall, Fraction(value, h.scale))
    return NefVerdict(True, None, None)


def is_nef(h: SupportFunction) -> NefVerdict:
    """Weak wall-crossing inequalities: I(h) >= 0 on every wall."""
    return _cone_check(h, strict=False)


def is_ample(h: SupportFunction) -> NefVerdict:
    """Strict wall-crossing inequalities: I(h) > 0 on every wall."""
    return _cone_check(h, strict=True)


def kind_a_case(wall: Wall) -> str:
    """Case of a kind-A wall by where the pair elements reappear.

    "i": both reappear on the same side of the pair part; "ii": they
    reappear on opposite sides; "iii": one of them is the once-element
    and does not reappear at all.
    """
    _, i, j, s, _, once = wall.kind_a_parts
    if once in (i, j):
        return "iii"
    return "i" if (s >> i & 1) == (s >> j & 1) else "ii"


@dataclass(frozen=True)
class WallValueTable:
    """Exact I values tabulated by wall kind and kind-A case."""

    n: int
    kind_a: dict[str, Counter]
    kind_b: Counter

    def kind_a_values(self, case: str) -> set[Fraction]:
        if case not in self.kind_a:
            cases = ", ".join(map(repr, self.kind_a))
            raise ValueError(f"no kind-A case {case!r}: the cases are {cases}")
        return set(self.kind_a[case])

    def kind_b_min(self) -> Fraction:
        if not self.kind_b:
            raise ValueError(f"there are no kind-B walls at n = {self.n}")
        return min(self.kind_b)


def wall_value_table(h: SupportFunction) -> WallValueTable:
    """Evaluate I(h) on every wall, grouped by kind and case."""
    v, scale = h.row, h.scale
    # The scaled values are counted as ints, and each distinct one is
    # divided by the scale once, in the order the values first occur.
    counts: dict[str | None, Counter] = {case: Counter() for case in ("i", "ii", "iii", None)}
    for step in _walk(h):
        counts[step.case][step.value(v)] += step.walls
    kind_a = {
        case: Counter({Fraction(value, scale): walls for value, walls in counter.items()})
        for case, counter in counts.items()
    }
    kind_b = kind_a.pop(None)
    return WallValueTable(n=h.n, kind_a=kind_a, kind_b=kind_b)


@dataclass(frozen=True)
class QuotientResult:
    """Outcome of a Minkowski quotient computation.

    status "ok" carries the exact positive quotient; "not-summand" means
    some wall has I(Q) > 0 but I(P) = 0, forcing the quotient to 0; and
    "unbounded" means no wall constrains the scale of Q at all.
    """

    status: Literal["ok", "not-summand", "unbounded"]
    value: Fraction | None
    witness: str | None


def minkowski_quotient(p: SupportFunction, q: SupportFunction) -> QuotientResult:
    """The largest lambda such that lambda * Q is a Minkowski summand of P.

    P - lambda Q stays nef exactly while lambda <= I(P)/I(Q) on every wall
    with I(Q) > 0, so the quotient is the minimum of those ratios.  P must
    be nef, and P and Q supports for one n.
    """
    pv, qv = p.row, q.row
    # The ratio at an entry is (ip / p.scale) / (iq / q.scale); the scales are
    # common to all entries, so ip / iq is compared by cross-multiplication.
    best: tuple[int, int] | None = None
    witness: _TableEntry | None = None
    for step in _walk(p, q):
        ip, iq = step.value(pv), step.value(qv)
        if ip < 0:
            raise ValueError(
                f"P is not nef: wall inequality at {step.wall} evaluates to "
                f"{Fraction(ip, p.scale)}"
            )
        if iq > 0 and (best is None or ip * best[1] < best[0] * iq):
            best, witness = (ip, iq), step
    if best is None:
        return QuotientResult("unbounded", None, None)
    if best[0] == 0:
        return QuotientResult("not-summand", Fraction(0), str(witness.wall))
    return QuotientResult(
        "ok", Fraction(best[0] * q.scale, best[1] * p.scale), str(witness.wall)
    )


# The built-in support functions by CLI-facing name, each its value rule at
# one bisubset.
_NAMED_SUPPORTS = {
    "biperm": biperm_support,
    "harmonic": harmonic_support,
}


@cache
def named_support(name: str, n: int) -> SupportFunction:
    """The built-in support functions, by CLI-facing name: the one builder
    of each, which builds each once; a support is immutable, so callers
    share it."""
    if name not in _NAMED_SUPPORTS:
        raise ValueError(f"unknown support function {name!r}")
    order = all_bisubsets(n)
    return SupportFunction(n, dict(zip(order, map(_NAMED_SUPPORTS[name], order))))


def format_support_csv(h: SupportFunction) -> str:
    """Serialize as lines "S;T;value" with comma-joined sets, each line
    ending in a newline; the empty table (n = 1) is the empty string."""
    lines = []
    for bs, value in zip(all_bisubsets(h.n), h.row):
        left = ",".join(str(e) for e in sorted(bs.left))
        right = ",".join(str(e) for e in sorted(bs.right))
        lines.append(f"{left};{right};{Fraction(value, h.scale)}\n")
    return "".join(lines)


# A value in exponent form as ``Fraction`` reads it: signed mantissa, exponent.
_EXPONENT_FORM = re.compile(
    r"\s*([-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?)"
    r"[eE]([-+]?\d+(?:_\d+)*)\s*"
)


@cache
def _digit_bound(limit: int) -> int:
    """The least integer with more than ``limit`` digits."""
    return 10**limit


# The interpreter's default digit limit, which bounds exponent forms where
# no limit is set (before Python 3.10.7 the attribute is missing).
_DEFAULT_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)


def _support_value(text: str) -> Fraction:
    """``Fraction(text)``, but refused when its numerator or denominator has
    more digits than ``sys.get_int_max_str_digits()``, so that every value
    read can be printed.  A value in exponent form past the limit is refused
    before its power of ten is built; where the interpreter sets no limit
    (before Python 3.10.7, or with the limit set to 0) the exponent form
    keeps to the default limit, and plain digits are read as they stand.
    A zero denominator is refused by name."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    match = _EXPONENT_FORM.fullmatch(text) if "e" in text.lower() else None
    if match is None:
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"the value {text.strip()!r} has a zero denominator") from None
    else:
        mantissa, exponent = Fraction(match[1]), int(match[2])
        if not mantissa:
            return mantissa
        # The numerator (e > 0) or the denominator (e < 0) is at least
        # 10**|e| over the mantissa's other part, which is below 2**bits.
        bits = mantissa.numerator.bit_length() + mantissa.denominator.bit_length()
        guard = limit or _DEFAULT_DIGITS
        if abs(exponent) >= guard + bits:
            raise _too_many_digits(guard)
        value = mantissa * Fraction(10) ** exponent
    if limit and max(abs(value.numerator), value.denominator) >= _digit_bound(limit):
        raise _too_many_digits(limit)
    return value


def _too_many_digits(limit: int) -> ValueError:
    return ValueError(
        f"the value's numerator or denominator exceeds the limit "
        f"({limit} digits) for integer string conversion"
    )


def _side(text: str) -> frozenset[int]:
    """The set of elements a side field such as ``"1,2,3"`` lists."""
    return frozenset({int(x) for x in text.split(",") if x})


def parse_support_csv(text: str, n: int) -> SupportFunction:
    """Parse the CSV format; every bisubset must appear exactly once.

    Each distinct side text and each distinct value text is read once per
    call, in two dicts, since ``"3"`` is {3} as a side and 3 as a value;
    a text that fails to read is not kept, so every line is checked alike.
    """
    known, order = _bisubset_index(n), all_bisubsets(n)
    sides: dict[str, frozenset[int]] = {}
    numbers: dict[str, Fraction] = {}
    values: dict[Bisubset, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(";")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'S;T;value', got {raw!r}")
        s, t, v = fields
        try:
            left = sides.get(s)
            if left is None:
                left = sides[s] = _side(s)
            right = sides.get(t)
            if right is None:
                right = sides[t] = _side(t)
            value = numbers.get(v)
            if value is None:
                value = numbers[v] = _support_value(v)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        # A Bisubset equals and hashes as the plain tuple (S, T, n).
        k = known.get((left, right, n))
        if k is not None:
            bs = order[k]
        else:
            try:
                bs = bisubset(left, right, n)
            except BisequenceError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
        if bs in values:
            raise ValueError(f"line {lineno}: duplicate bisubset {bs}")
        values[bs] = value
    return SupportFunction(n, values)
