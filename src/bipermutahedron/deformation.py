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
Both forms are validated against the generic dependence oracle.

Many walls share one inequality (614 distinct ones among the 7,560 walls
at n = 4), and every closed-form coefficient is 1.  The queries (is_nef,
is_ample, minkowski_quotient, wall_value_table) therefore read a per-n
table of the distinct inequalities, kept for the process and collected by
one walk over the walls that advances only as far as the queries read,
and evaluate each as an integer sum over the support scaled by the lcm of
its denominators.  The table keeps the order of first walls, so
witnesses are the first walls that violate or attain, exactly as in a
wall-by-wall scan.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterator, Literal

from .combinatorics import (
    Bipermutation,
    Bisequence,
    Bisubset,
    all_bisubsets,
    bisubset,
    doubled_word,
    enumerate_wall_bisequences,
    parse_bisequence,
    splits_of,
    wall_kind,
)
from .geometry import (
    SupportFunction,
    biperm_support_function,
    harmonic_support_function,
    ray_vector,
)
from .linalg import solve_unique

__all__ = [
    "KindMismatch",
    "DependenceNotUnique",
    "Wall",
    "enumerate_walls",
    "wall_count",
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


class KindMismatch(ValueError):
    """A kind-A construction was fed a kind-B wall, or vice versa."""


class DependenceNotUnique(ArithmeticError):
    """The rays around a wall admit no one-dimensional dependence space;
    the fan would fail to be simplicial there."""


@dataclass(frozen=True)
class Wall:
    """A codimension-1 cone of the fan, indexed by its bisequence."""

    bisequence: Bisequence
    kind: Literal["A", "B"]

    def __post_init__(self) -> None:
        seq = self.bisequence
        n = seq.n
        if len(seq.parts) != 2 * n - 2:
            raise ValueError(f"a wall bisequence needs {2 * n - 2} parts")
        sizes = sorted(len(p) for p in seq.parts)
        letters = sum(sizes)
        if self.kind == "A":
            if sizes != [1] * (2 * n - 3) + [2] or letters != 2 * n - 1:
                raise KindMismatch("kind A needs one pair part among singletons")
        elif self.kind == "B":
            if sizes != [1] * (2 * n - 2) or len(seq.single_elements()) != 2:
                raise KindMismatch(
                    "kind B needs all singleton parts and two once-elements"
                )
        else:
            raise KindMismatch(f"unknown wall kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.bisequence.n

    def __str__(self) -> str:
        return f"{self.kind}:{self.bisequence}"


def enumerate_walls(n: int) -> Iterator[Wall]:
    """All walls, kind A first, each kind in lexicographic order.

    >>> [str(w) for w in enumerate_walls(2)]
    ['A:1|12', 'A:12|1', 'A:12|2', 'A:2|12', 'B:1|2', 'B:2|1']
    """
    for seq in enumerate_wall_bisequences(n):
        yield Wall(seq, wall_kind(seq))


def wall_count(n: int) -> int:
    """Number of walls; must match the fan's f-vector at dimension 2n - 3."""
    return sum(1 for _ in enumerate_wall_bisequences(n))


def _pair_position(seq: Bisequence) -> int:
    for idx, part in enumerate(seq.parts):
        if len(part) == 2:
            return idx
    raise KindMismatch("no pair part found")


def wall_refinements(wall: Wall) -> tuple[Bipermutation, Bipermutation]:
    """The two chambers adjacent to a wall.

    Kind A refines the pair part {i, j} into i|j or j|i; kind B doubles
    the once-element i or the once-element j in place.

    >>> [str(b) for b in wall_refinements(next(enumerate_walls(2)))]
    ['1|1|2', '1|2|1']
    """
    seq = wall.bisequence
    if wall.kind == "A":
        pos = _pair_position(seq)
        i, j = sorted(seq.parts[pos])
        head = tuple(next(iter(p)) for p in seq.parts[:pos])
        tail = tuple(next(iter(p)) for p in seq.parts[pos + 1 :])
        return (
            Bipermutation(head + (i, j) + tail),
            Bipermutation(head + (j, i) + tail),
        )
    i, j = sorted(seq.single_elements())
    letters = tuple(next(iter(p)) for p in seq.parts)
    out = []
    for double in (i, j):
        word: list[int] = []
        for e in letters:
            word.append(e)
            if e == double:
                word.append(e)
        out.append(Bipermutation(tuple(word)))
    return out[0], out[1]


@dataclass(frozen=True)
class WallInequality:
    """I(h) = sum of plus terms minus sum of minus terms, all exact."""

    plus: tuple[tuple[Bisubset, Fraction], ...]
    minus: tuple[tuple[Bisubset, Fraction], ...]

    def __post_init__(self) -> None:
        for _, coeff in self.plus + self.minus:
            if coeff <= 0:
                raise ValueError("inequality coefficients must be positive")

    def evaluate(self, h: SupportFunction) -> Fraction:
        return sum((c * h[bs] for bs, c in self.plus), Fraction(0)) - sum(
            (c * h[bs] for bs, c in self.minus), Fraction(0)
        )

    def as_dict(self) -> dict[Bisubset, Fraction]:
        out: dict[Bisubset, Fraction] = {}
        for bs, c in self.plus:
            out[bs] = out.get(bs, Fraction(0)) + c
        for bs, c in self.minus:
            out[bs] = out.get(bs, Fraction(0)) - c
        return {bs: c for bs, c in out.items() if c}


def same_inequality(a: WallInequality, b: WallInequality) -> bool:
    """Equality of inequalities up to a positive scalar."""
    da, db = a.as_dict(), b.as_dict()
    if set(da) != set(db):
        return False
    if not da:
        return True
    key = min(da, key=lambda bs: (sorted(bs.left), sorted(bs.right)))
    sa, sb = da[key], db[key]
    if (sa > 0) != (sb > 0):
        return False
    return all(da[bs] * sb == db[bs] * sa for bs in da)


def _term(left: frozenset[int], right: frozenset[int], n: int) -> Bisubset | None:
    """A bisubset term, or None when it degenerates to lineality."""
    if not left or not right or left == right:
        return None
    return Bisubset(left, right, n)


def supermodular_inequality(wall: Wall) -> WallInequality:
    """The closed-form inequality of a kind-A wall.

    >>> ineq = supermodular_inequality(Wall(parse_bisequence("12|1", 2), "A"))
    >>> sorted(str(bs) for bs, _ in ineq.minus)
    ['1|12', '2|1']
    >>> [str(bs) for bs, _ in ineq.plus]
    ['12|1']
    """
    if wall.kind != "A":
        raise KindMismatch("supermodular inequalities belong to kind A walls")
    seq = wall.bisequence
    n = seq.n
    pos = _pair_position(seq)
    i, j = sorted(seq.parts[pos])
    s: frozenset[int] = frozenset().union(*seq.parts[:pos]) if pos else frozenset()
    t: frozenset[int] = (
        frozenset().union(*seq.parts[pos + 1 :])
        if pos + 1 < len(seq.parts)
        else frozenset()
    )
    ij = frozenset((i, j))
    plus = [_term(s, ij | t, n), _term(s | ij, t, n)]
    minus = [_term(s | {i}, t | {j}, n), _term(s | {j}, t | {i}, n)]
    one = Fraction(1)
    return WallInequality(
        tuple((bs, one) for bs in plus if bs is not None),
        tuple((bs, one) for bs in minus if bs is not None),
    )


def _barred_splits(wall: Wall) -> tuple[list[tuple[Bisubset, bool]], list[int]]:
    """Splits of the doubled word at the switch positions.

    Returns (switch splits, switch positions); each split is tagged True
    when the switch goes unbarred to barred (the negative side).
    """
    seq = wall.bisequence
    n = seq.n
    i, j = sorted(seq.single_elements())
    letters = tuple(next(iter(p)) for p in seq.parts)
    word = doubled_word(letters, {i, j})
    statuses = [barred for _, barred in word]
    splits: list[tuple[Bisubset, bool]] = []
    positions: list[int] = []
    for m in range(1, 2 * n):
        if statuses[m - 1] != statuses[m]:
            left = frozenset(e for e, _ in word[:m])
            right = frozenset(e for e, _ in word[m:])
            splits.append((Bisubset(left, right, n), statuses[m]))
            positions.append(m)
    return splits, positions


def updown_inequality(wall: Wall) -> WallInequality:
    """The closed-form inequality of a kind-B wall.

    Splits at barred-to-unbarred switches enter positively, splits at
    unbarred-to-barred switches (among them the two chamber rays, inside
    the doubled pairs i|i and j|j) enter negatively.  The associated tree
    invariants are re-validated on every call.

    >>> ineq = updown_inequality(Wall(parse_bisequence("1|2", 2), "B"))
    >>> [str(bs) for bs, _ in ineq.plus], [str(bs) for bs, _ in ineq.minus]
    (['1|2'], ['1|12', '12|2'])
    """
    if wall.kind != "B":
        raise KindMismatch("up-down inequalities belong to kind B walls")
    tree = wall_tree(wall)
    splits, _ = _barred_splits(wall)
    one = Fraction(1)
    plus = tuple((bs, one) for bs, up in splits if not up)
    minus = tuple((bs, one) for bs, up in splits if up)
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
    of the doubled word; each of the 2n - 1 splits is an edge.  The graph
    is a tree on 2n vertices, and the path between the two full-set
    vertices (the spine) consists exactly of the switch splits; its
    alternating ray sum is e_E + f_E, which vanishes in the quotient.
    """

    n: int
    top: tuple[frozenset[int], ...]
    bottom: tuple[frozenset[int], ...]
    edges: tuple[tuple[frozenset[int], frozenset[int]], ...]
    spine: tuple[Bisubset, ...]


def wall_tree(wall: Wall) -> WallTree:
    """Build the tree of a kind-B wall and verify its invariants."""
    if wall.kind != "B":
        raise KindMismatch("wall trees belong to kind B walls")
    seq = wall.bisequence
    n = seq.n
    i, j = sorted(seq.single_elements())
    letters = tuple(next(iter(p)) for p in seq.parts)
    word = doubled_word(letters, {i, j})
    ground = frozenset(range(1, n + 1))
    edges = []
    for m in range(1, 2 * n):
        left = frozenset(e for e, _ in word[:m])
        right = frozenset(e for e, _ in word[m:])
        edges.append((left, right))
    top = tuple(dict.fromkeys(left for left, _ in edges))
    bottom = tuple(dict.fromkeys(right for _, right in edges))
    if len(top) != n or len(bottom) != n or len(set(edges)) != 2 * n - 1:
        raise AssertionError("wall tree must have 2n vertices and 2n-1 edges")

    adjacency: dict[tuple[str, frozenset[int]], list] = {}
    for left, right in edges:
        adjacency.setdefault(("top", left), []).append(("bottom", right))
        adjacency.setdefault(("bottom", right), []).append(("top", left))
    # Connected with 2n vertices and 2n-1 distinct edges == tree.
    start = ("top", ground)
    seen = {start}
    frontier = deque([start])
    parent: dict = {start: None}
    while frontier:
        node = frontier.popleft()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = node
                frontier.append(nxt)
    if len(seen) != 2 * n:
        raise AssertionError("wall tree must be connected")

    node = ("bottom", ground)
    path_nodes = [node]
    while parent[node] is not None:
        node = parent[node]
        path_nodes.append(node)
    # path_nodes runs from bottom-E to the root top-E, matching word order.
    spine = []
    for a, b in zip(path_nodes, path_nodes[1:]):
        topside = a if a[0] == "top" else b
        bottomside = b if b[0] == "bottom" else a
        spine.append(Bisubset(topside[1], bottomside[1], n))

    vec = [0] * (2 * n)
    sign = -1  # the spine starts and ends with unbarred-to-barred switches
    for bs in spine:
        for e in bs.left:
            vec[e - 1] += sign
        for e in bs.right:
            vec[n + e - 1] += sign
        sign = -sign
    if vec != [-1] * (2 * n):
        raise AssertionError(
            "alternating spine sum must equal -(e_E + f_E), got " + str(vec)
        )
    return WallTree(
        n=n,
        top=top,
        bottom=bottom,
        edges=tuple(edges),
        spine=tuple(spine),
    )


def updown_value_by_segments(wall: Wall) -> int:
    """I at the bipermutahedron's support, by word positions alone.

    A split of the doubled word after m letters evaluates the support to
    -m(2n - m), so the up-down value is the alternating sum of m(2n - m)
    over the switch positions, starting and ending positive.  This path
    never touches the support table.
    """
    if wall.kind != "B":
        raise KindMismatch("segment evaluation belongs to kind B walls")
    n = wall.n
    _, positions = _barred_splits(wall)
    total = 0
    sign = 1
    for m in positions:
        total += sign * m * (2 * n - m)
        sign = -sign
    return total


def generic_wallcross_oracle(wall: Wall) -> WallInequality:
    """The wall inequality derived from scratch by linear algebra.

    Finds the two adjacent chambers, their two extra rays r and r', and
    the wall's own rays; solves the unique dependence
    r + c' r' = sum(c_m w_m) modulo the lineality span of e_E and f_E,
    and checks c' > 0.  No combinatorial case analysis enters, so this is
    an independent oracle for the closed-form inequalities.
    """
    n = wall.n
    wall_rays = list(splits_of(wall.bisequence))
    chamber1, chamber2 = wall_refinements(wall)
    wall_set = set(wall_rays)
    extra1 = [bs for bs in splits_of(chamber1.to_bisequence()) if bs not in wall_set]
    extra2 = [bs for bs in splits_of(chamber2.to_bisequence()) if bs not in wall_set]
    if len(extra1) != 1 or len(extra2) != 1:
        raise DependenceNotUnique(
            f"chambers of {wall} do not add exactly one ray each"
        )
    r, rp = extra1[0], extra2[0]
    rays = [ray_vector(rp)] + [-ray_vector(w) for w in wall_rays]
    columns = [[*v.top, *v.bottom] for v in rays]
    columns.append([1] * n + [0] * n)
    columns.append([0] * n + [1] * n)
    matrix = [[col[row] for col in columns] for row in range(2 * n)]
    target = -ray_vector(r)
    rhs = [*target.top, *target.bottom]
    try:
        solution = solve_unique(matrix, rhs)
    except ValueError as exc:
        raise DependenceNotUnique(f"dependence at {wall} is not unique") from exc
    cp = solution[0]
    coeffs = solution[1 : 1 + len(wall_rays)]
    if cp <= 0:
        raise DependenceNotUnique(
            f"chamber-ray coefficient at {wall} must be positive, got {cp}"
        )
    plus = tuple((w, c) for w, c in zip(wall_rays, coeffs) if c > 0)
    minus = tuple(
        [(r, Fraction(1)), (rp, cp)]
        + [(w, -c) for w, c in zip(wall_rays, coeffs) if c < 0]
    )
    return WallInequality(plus, minus)


@dataclass
class _TableEntry:
    """One distinct wall inequality I(h) = sum h[plus] - sum h[minus].

    ``plus`` and ``minus`` index into ``all_bisubsets(n)``; ``wall`` is the
    first wall, in :func:`enumerate_walls` order, with this inequality and
    kind-A case, and ``walls`` counts the walls walked so far that share
    both.
    """

    wall: Wall
    case: str | None
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    walls: int = 1

    def value(self, v: list[int]) -> int:
        """L * I(h), for v, L = _scaled_support(h, n)."""
        return sum([v[k] for k in self.plus]) - sum([v[k] for k in self.minus])


class _InequalityTable:
    """The distinct wall inequalities at n, in order of their first wall.

    They are collected by one walk over :func:`enumerate_walls` through
    :func:`wall_inequality`, so each closed-form and wall-tree check runs on
    every wall once per process.  The walk advances only as far as a query
    reads: a query that stops at a witness walks no further than a
    wall-by-wall scan would, and the next query resumes it.  Since entries
    keep the order of their first walls, the first entry meeting a condition
    carries the first wall meeting it.
    """

    def __init__(self, n: int) -> None:
        self._index = {bs: k for k, bs in enumerate(all_bisubsets(n))}
        self._walk = enumerate_walls(n)
        self._position: dict[tuple, int] = {}
        self.entries: list[_TableEntry] = []

    def __iter__(self) -> Iterator[_TableEntry]:
        k = 0
        while k < len(self.entries) or self._advance():
            yield self.entries[k]
            k += 1

    def complete(self) -> list[_TableEntry]:
        """All entries, with their final wall counts."""
        for _ in self:
            pass
        return self.entries

    def _advance(self) -> bool:
        """Walk to the next wall with a new inequality; False at the end."""
        try:
            for wall in self._walk:
                ineq = wall_inequality(wall)
                if any(c != 1 for _, c in ineq.plus + ineq.minus):
                    raise AssertionError(
                        f"closed-form coefficients at {wall} must be 1"
                    )
                key = (
                    wall.kind,
                    kind_a_case(wall) if wall.kind == "A" else None,
                    tuple(self._index[bs] for bs, _ in ineq.plus),
                    tuple(self._index[bs] for bs, _ in ineq.minus),
                )
                k = self._position.get(key)
                if k is None:
                    self._position[key] = len(self.entries)
                    self.entries.append(_TableEntry(wall, *key[1:]))
                    return True
                self.entries[k].walls += 1
        except BaseException:
            # The wall in hand was taken from the walk but not recorded; a
            # table missing it must not answer later queries.
            _inequality_table.cache_clear()
            raise
        return False


@cache
def _inequality_table(n: int) -> _InequalityTable:
    return _InequalityTable(n)


def _scaled_support(h: SupportFunction, n: int) -> tuple[list[int], int]:
    """h's values in all_bisubsets(n) order as integers over L, and L, the
    lcm of their denominators."""
    if h.n != n:
        raise ValueError(f"support function is for n = {h.n}, expected n = {n}")
    support = [h[bs] for bs in all_bisubsets(n)]
    scale = lcm(*(value.denominator for value in support))
    return [value.numerator * (scale // value.denominator) for value in support], scale


@dataclass(frozen=True)
class NefVerdict:
    passed: bool
    witness_wall: Wall | None
    witness_value: Fraction | None

    def __bool__(self) -> bool:
        return self.passed


def _cone_check(h: SupportFunction, n: int, strict: bool) -> NefVerdict:
    v, scale = _scaled_support(h, n)
    for entry in _inequality_table(n):
        value = entry.value(v)
        if value < 0 or (strict and value == 0):
            return NefVerdict(False, entry.wall, Fraction(value, scale))
    return NefVerdict(True, None, None)


def is_nef(h: SupportFunction, n: int) -> NefVerdict:
    """Weak wall-crossing inequalities: I(h) >= 0 on every wall."""
    return _cone_check(h, n, strict=False)


def is_ample(h: SupportFunction, n: int) -> NefVerdict:
    """Strict wall-crossing inequalities: I(h) > 0 on every wall."""
    return _cone_check(h, n, strict=True)


def kind_a_case(wall: Wall) -> str:
    """Case of a kind-A wall by where the pair elements reappear.

    "i": both reappear on the same side of the pair part; "ii": they
    reappear on opposite sides; "iii": one of them is the once-element
    and does not reappear at all.
    """
    if wall.kind != "A":
        raise KindMismatch("cases classify kind A walls")
    seq = wall.bisequence
    pos = _pair_position(seq)
    pair = seq.parts[pos]
    if seq.single_elements() & pair:
        return "iii"
    before: frozenset[int] = (
        frozenset().union(*seq.parts[:pos]) if pos else frozenset()
    )
    sides = [e in before for e in pair]
    return "i" if sides[0] == sides[1] else "ii"


@dataclass(frozen=True)
class WallValueTable:
    """Exact I values tabulated by wall kind and kind-A case."""

    n: int
    kind_a: dict[str, Counter]
    kind_b: Counter

    def kind_a_values(self, case: str) -> set[Fraction]:
        return set(self.kind_a[case])

    def kind_b_min(self) -> Fraction:
        return min(self.kind_b)


def wall_value_table(h: SupportFunction, n: int) -> WallValueTable:
    """Evaluate I(h) on every wall, grouped by kind and case."""
    kind_a: dict[str, Counter] = {"i": Counter(), "ii": Counter(), "iii": Counter()}
    kind_b: Counter = Counter()
    v, scale = _scaled_support(h, n)
    for entry in _inequality_table(n).complete():
        counter = kind_b if entry.case is None else kind_a[entry.case]
        counter[Fraction(entry.value(v), scale)] += entry.walls
    return WallValueTable(n=n, kind_a=kind_a, kind_b=kind_b)


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


def minkowski_quotient(
    p: SupportFunction, q: SupportFunction, n: int
) -> QuotientResult:
    """The largest lambda such that lambda * Q is a Minkowski summand of P.

    P - lambda Q stays nef exactly while lambda <= I(P)/I(Q) on every wall
    with I(Q) > 0, so the quotient is the minimum of those ratios.  P must
    be nef.
    """
    pv, p_scale = _scaled_support(p, n)
    qv, q_scale = _scaled_support(q, n)
    # The ratio at an entry is (ip / p_scale) / (iq / q_scale); the scales are
    # common to all entries, so ip / iq is compared by cross-multiplication.
    best: tuple[int, int] | None = None
    witness: Wall | None = None
    for entry in _inequality_table(n):
        ip, iq = entry.value(pv), entry.value(qv)
        if ip < 0:
            raise ValueError(
                f"P is not nef: wall inequality at {entry.wall} evaluates to "
                f"{Fraction(ip, p_scale)}"
            )
        if iq > 0 and (best is None or ip * best[1] < best[0] * iq):
            best, witness = (ip, iq), entry.wall
    if best is None:
        return QuotientResult("unbounded", None, None)
    if best[0] == 0:
        return QuotientResult("not-summand", Fraction(0), str(witness))
    return QuotientResult(
        "ok", Fraction(best[0] * q_scale, best[1] * p_scale), str(witness)
    )


def named_support(name: str, n: int) -> SupportFunction:
    """The two built-in support functions, by CLI-facing name."""
    if name == "biperm":
        return biperm_support_function(n)
    if name == "harmonic":
        return harmonic_support_function(n)
    raise ValueError(f"unknown support function {name!r}")


def format_support_csv(h: SupportFunction) -> str:
    """Serialize as lines "S;T;value" with comma-joined sets."""
    lines = []
    for bs in all_bisubsets(h.n):
        left = ",".join(str(e) for e in sorted(bs.left))
        right = ",".join(str(e) for e in sorted(bs.right))
        lines.append(f"{left};{right};{h[bs]}")
    return "\n".join(lines) + "\n"


def parse_support_csv(text: str, n: int) -> SupportFunction:
    """Parse the CSV format; every bisubset must appear exactly once."""
    values: dict[Bisubset, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(";")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'S;T;value', got {raw!r}")
        try:
            left = {int(x) for x in fields[0].split(",") if x}
            right = {int(x) for x in fields[1].split(",") if x}
            value = Fraction(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        bs = bisubset(left, right, n)
        if bs in values:
            raise ValueError(f"line {lineno}: duplicate bisubset {bs}")
        values[bs] = value
    return SupportFunction(n, values)
