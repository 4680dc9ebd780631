"""Bipermutations, bisequences, and the statistics they carry.

A *bisequence* on the ground set E = {1, ..., n} is an ordered tuple of
nonempty subsets of E (its *parts*) such that

1. every element of E lies in at least one part,
2. no element lies in more than two parts, and
3. at least one element lies in exactly one part.

A bisequence with exactly two parts is a *bisubset*, written ``S|T``; there
are exactly ``3**n - 3`` of them.  A bisequence all of whose parts are
singletons is a *bipermutation*: a word of length ``2n - 1`` over E in
which one letter (called ``k``) occurs once and every other letter occurs
twice.  There are ``(2n)!/2**n`` bipermutations of E.

The *barred word* of a bipermutation marks each letter's second occurrence
with a bar and treats the single letter k as an adjacent pair "k kbar",
giving a word of length 2n.  Mapping its letters, in order, to the odd
integers -(2n-1), -(2n-3), ..., 2n-1 yields the *signed word*: the exact
integer data from which the corresponding vertex of the bipermutahedron is
built (see :mod:`bipermutahedron.geometry`).

The *descent* statistic on bipermutations refines the Eulerian descent
statistic on permutations.  For adjacent letters i|j, with bars taken from
the barred word and with k adopting the barred/unbarred status of the
letter it is compared against, i|j is a descent when

* both are unbarred and i > j,
* both are barred and i < j,
* i is unbarred, j is barred, and i > k,
* i is barred, j is unbarred, and j < k.

Every bipermutation has ``2n - 2`` adjacent pairs, so descents + ascents is
constant; the descent generating polynomial is palindromic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterable, Iterator, Sequence


class BisequenceError(ValueError):
    """A tuple of sets failed one of the bisequence axioms."""


class EmptyPart(BisequenceError):
    """Some part is empty (or contains elements outside 1..n)."""


class ElementMissing(BisequenceError):
    """Some element of the ground set appears in no part."""


class ElementTriple(BisequenceError):
    """Some element appears in three or more parts."""


class NoSingleOccurrence(BisequenceError):
    """Every element appears twice, so axiom 3 fails."""


@dataclass(frozen=True)
class Bisequence:
    """An ordered tuple of parts satisfying the bisequence axioms.

    Build through :func:`validate_bisequence` (or :func:`parse_bisequence`);
    the constructor itself does not re-check the axioms.
    """

    parts: tuple[frozenset[int], ...]
    n: int

    def __str__(self) -> str:
        return format_bisequence(self)

    def multiplicity(self, element: int) -> int:
        return sum(1 for part in self.parts if element in part)

    def single_elements(self) -> frozenset[int]:
        """The elements appearing in exactly one part."""
        return frozenset(
            e for e in range(1, self.n + 1) if self.multiplicity(e) == 1
        )


@dataclass(frozen=True)
class Bisubset:
    """A two-part bisequence S|T: S and T nonempty, S != T, S union T = E."""

    left: frozenset[int]
    right: frozenset[int]
    n: int

    def __str__(self) -> str:
        return format_bisequence(self.to_bisequence())

    def to_bisequence(self) -> Bisequence:
        return Bisequence((self.left, self.right), self.n)


def validate_bisequence(parts: Sequence[Iterable[int]], n: int) -> Bisequence:
    """Check the bisequence axioms and return the validated value.

    >>> str(validate_bisequence([{2, 3}, {1, 2, 4}, {4}], 4))
    '23|124|4'
    >>> validate_bisequence([{1}, set(), {2}], 2)
    Traceback (most recent call last):
        ...
    bipermutahedron.combinatorics.EmptyPart: part 2 is empty
    """
    if n < 1:
        raise ValueError(f"ground set size must be positive, got {n}")
    if not parts:
        raise EmptyPart("a bisequence needs at least one part")
    frozen = tuple(frozenset(part) for part in parts)
    ground = range(1, n + 1)
    for idx, part in enumerate(frozen, start=1):
        if not part:
            raise EmptyPart(f"part {idx} is empty")
        if not part <= set(ground):
            raise EmptyPart(f"part {idx} is not a subset of 1..{n}: {sorted(part)}")
    counts = {e: sum(1 for part in frozen if e in part) for e in ground}
    for e in ground:
        if counts[e] == 0:
            raise ElementMissing(f"element {e} appears in no part")
        if counts[e] > 2:
            raise ElementTriple(f"element {e} appears in {counts[e]} parts")
    if all(counts[e] == 2 for e in ground):
        raise NoSingleOccurrence("every element appears twice")
    return Bisequence(frozen, n)


def bisubset(left: Iterable[int], right: Iterable[int], n: int) -> Bisubset:
    """Validate and build the bisubset S|T."""
    seq = validate_bisequence([left, right], n)
    if seq.parts[0] == seq.parts[1]:
        raise BisequenceError("the two parts of a bisubset must differ")
    return Bisubset(seq.parts[0], seq.parts[1], n)


def all_bisubsets(n: int) -> list[Bisubset]:
    """All 3**n - 3 bisubsets of {1..n}, in a fixed lexicographic order.

    Each element independently sits in S only, T only, or both; the two
    assignments putting every element in S (T = empty set) or every element
    in both (S = T) are excluded.

    >>> len(all_bisubsets(2)), len(all_bisubsets(3))
    (6, 24)
    """
    return list(_bisubset_order(n))


def _covering_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All 3**n pairs (S, T) with S union T = {1..n}, in lexicographic order
    of the codes 0 (in both), 1 (S only), 2 (T only) of the elements 1..n."""
    for codes in itertools.product((0, 1, 2), repeat=n):
        left = frozenset(i + 1 for i, c in enumerate(codes) if c in (0, 1))
        right = frozenset(i + 1 for i, c in enumerate(codes) if c in (0, 2))
        yield left, right


@cache
def _bisubset_order(n: int) -> tuple[Bisubset, ...]:
    """The tuple behind :func:`all_bisubsets`, built once per n."""
    return tuple(
        Bisubset(left, right, n)
        for left, right in _covering_pairs(n)
        if left and right and left != right
    )


@cache
def _bisubset_index(n: int) -> dict[Bisubset, int]:
    """Each bisubset's position in :func:`all_bisubsets` order (do not mutate)."""
    return {bs: k for k, bs in enumerate(_bisubset_order(n))}


def format_bisequence(seq: Bisequence) -> str:
    """Render parts as ascending digit strings joined by "|" (n <= 9)."""
    if seq.n > 9:
        raise ValueError("text encoding is single-digit and needs n <= 9")
    return "|".join("".join(str(e) for e in sorted(part)) for part in seq.parts)


def parse_bisequence(text: str, n: int) -> Bisequence:
    """Inverse of :func:`format_bisequence`.

    >>> parse_bisequence("23|124|4", 4).parts[0] == frozenset({2, 3})
    True
    """
    if n > 9:
        raise ValueError("text encoding is single-digit and needs n <= 9")
    parts = []
    for chunk in text.strip().split("|"):
        if not chunk or not chunk.isdecimal():
            raise BisequenceError(f"malformed part {chunk!r} in {text!r}")
        elements = [int(ch) for ch in chunk]
        if len(set(elements)) != len(elements):
            raise BisequenceError(f"repeated element inside part {chunk!r}")
        if sorted(elements) != elements:
            raise BisequenceError(f"part {chunk!r} must list elements ascending")
        parts.append(set(elements))
    return validate_bisequence(parts, n)


@dataclass(frozen=True)
class Bipermutation:
    """A word of length 2n-1 over {1..n} with one single and n-1 double letters.

    ``k``, the unique letter occurring once, is set at validation; the
    constructor, repr, equality and hash go by ``letters`` alone.
    """

    letters: tuple[int, ...]
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        letters = self.letters
        if len(letters) % 2 != 1:
            raise BisequenceError(f"word length {len(letters)} is not odd")
        n = (len(letters) + 1) // 2
        counts = [0] * (n + 1)
        for e in letters:
            if not 1 <= e <= n:
                raise EmptyPart(f"letter {e} outside 1..{n}")
            counts[e] += 1
            if counts[e] > 2:
                raise ElementTriple(f"letter {e} occurs more than twice")
        # Length 2n-1 with all multiplicities <= 2 forces exactly one single
        # letter, so no further checks are needed.
        object.__setattr__(self, "k", counts.index(1))

    @property
    def n(self) -> int:
        return (len(self.letters) + 1) // 2

    def __str__(self) -> str:
        return "|".join(str(e) for e in self.letters)

    def to_bisequence(self) -> Bisequence:
        return Bisequence(tuple(frozenset((e,)) for e in self.letters), self.n)


def parse_bipermutation(text: str, n: int | None = None) -> Bipermutation:
    """Parse "2|3|4|2|4|1|1" into a bipermutation."""
    try:
        letters = tuple(int(chunk) for chunk in text.strip().split("|"))
    except ValueError:
        raise BisequenceError(f"malformed bipermutation {text!r}") from None
    bp = Bipermutation(letters)
    if n is not None and bp.n != n:
        raise BisequenceError(f"expected ground set 1..{n}, word has n={bp.n}")
    return bp


def enumerate_bipermutation_words(n: int) -> Iterator[tuple[int, ...]]:
    """All bipermutation words of {1..n} in lexicographic order.

    Depth-first search over words of length 2n-1 with letter multiplicity
    at most two; the length constraint forces exactly one single letter, so
    every word produced is a bipermutation.  ``n = 0`` yields nothing.
    """
    if n <= 0:
        return
    length = 2 * n - 1
    word = [0] * length
    counts = [0] * (n + 1)

    def fill(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == length:
            yield tuple(word)
            return
        for e in range(1, n + 1):
            if counts[e] < 2:
                counts[e] += 1
                word[pos] = e
                yield from fill(pos + 1)
                counts[e] -= 1

    yield from fill(0)


def enumerate_bipermutations(n: int) -> Iterator[Bipermutation]:
    """All bipermutations of {1..n} in lexicographic order of their words."""
    for word in enumerate_bipermutation_words(n):
        yield Bipermutation(word)


def bipermutation_count(n: int) -> int:
    """The closed-form count (2n)!/2**n of bipermutations of {1..n}.

    >>> [bipermutation_count(n) for n in range(1, 5)]
    [1, 6, 90, 2520]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return factorial(2 * n) // 2**n


def count_bipermutations_recursively(n: int) -> int:
    """Count bipermutations without the closed form (2n)!/2**n.

    State: c1 elements with one slot left, c2 with two slots left.  Placing
    a letter either consumes an element's last slot or turns a fresh element
    into a once-used one; a complete word leaves exactly one unused slot.
    """
    if n <= 0:
        return 0

    @cache
    def g(c1: int, c2: int) -> int:
        if c1 + 2 * c2 == 1:
            return 1 if (c1, c2) == (1, 0) else 0
        total = 0
        if c1:
            total += c1 * g(c1 - 1, c2)
        if c2:
            total += c2 * g(c1 + 1, c2 - 1)
        return total

    return g(0, n)


def expanded_word(bp: Bipermutation) -> tuple[tuple[int, bool], ...]:
    """The barred word of length 2n: pairs (letter, barred).

    Second occurrences are barred; the single letter k is replaced by the
    adjacent pair (k, unbarred), (k, barred).

    >>> expanded_word(Bipermutation((2, 3, 4, 2, 4, 1, 1)))[:3]
    ((2, False), (3, False), (3, True))
    """
    return doubled_word(bp.letters, {bp.k})


def doubled_word(
    letters: Sequence[int], doubled: Iterable[int]
) -> tuple[tuple[int, bool], ...]:
    """Bar second occurrences, expanding each letter in ``doubled`` to an
    adjacent unbarred/barred pair in place."""
    doubled = set(doubled)
    seen: set[int] = set()
    out: list[tuple[int, bool]] = []
    for e in letters:
        if e in doubled:
            out.append((e, False))
            out.append((e, True))
        else:
            out.append((e, e in seen))
            seen.add(e)
    return tuple(out)


def _is_descent(a: int, abar: bool, b: int, bbar: bool, k: int) -> bool:
    """Whether the adjacent letters ``a`` then ``b`` of a barred word, with
    bar flags ``abar`` and ``bbar`` and once-letter ``k``, form a descent.

    The once-letter takes its neighbour's bar flag.  Two unbarred letters
    descend when they decrease, two barred ones when they increase; an
    unbarred letter before a barred one descends when it exceeds ``k``, and
    a barred one before an unbarred one when the latter is below ``k``.

    >>> _is_descent(3, False, 1, False, 2), _is_descent(3, True, 1, True, 2)
    (True, False)
    >>> _is_descent(1, True, 3, False, 2), _is_descent(1, True, 2, False, 2)
    (False, True)
    """
    if a == k:
        abar = bbar
    elif b == k:
        bbar = abar
    if not abar and not bbar:
        return a > b
    if abar and bbar:
        return a < b
    if not abar:
        return a > k
    return b < k


def descents(bp: Bipermutation) -> int:
    """The number of descents of a bipermutation.

    >>> descents(parse_bipermutation("5|4|2|3|1|4|1|2|5"))
    5
    >>> descents(parse_bipermutation("1|2|1"))
    0
    """
    k = bp.k
    word = doubled_word(bp.letters, ())
    return sum(
        _is_descent(a, abar, b, bbar, k)
        for (a, abar), (b, bbar) in zip(word, word[1:])
    )


def reverse(bp: Bipermutation) -> Bipermutation:
    """The bipermutation read backwards.

    >>> str(reverse(parse_bipermutation("2|3|2|1|3")))
    '3|1|2|3|2'
    """
    return Bipermutation(tuple(reversed(bp.letters)))


@dataclass(frozen=True)
class SignedWord:
    """The signed word of a bipermutation.

    The 2n letters of the barred word are sent, in order, to the odd
    integers -(2n-1), -(2n-3), ..., 2n-1.  ``unbarred[e]`` / ``barred[e]``
    store the values assigned to the unbarred / barred copy of element e
    (1-indexed; index 0 unused); ``s`` is the common row sum
    sum(unbarred) = -sum(barred).
    """

    unbarred: tuple[int, ...]
    barred: tuple[int, ...]
    s: int
    k: int

    @property
    def n(self) -> int:
        return len(self.unbarred) - 1

    def position(self, element: int, is_barred: bool) -> int:
        return (self.barred if is_barred else self.unbarred)[element]


def signed_word(bp: Bipermutation) -> SignedWord:
    """Assign odd integers to the barred word and record the row sum s.

    >>> w = signed_word(parse_bipermutation("2|3|4|2|4|1|1"))
    >>> w.position(2, False), w.position(3, False), w.s
    (-7, -5, -8)
    """
    n = bp.n
    unbarred = [0] * (n + 1)
    barred = [0] * (n + 1)
    for t, (e, is_barred) in enumerate(expanded_word(bp)):
        value = -(2 * n - 1) + 2 * t
        if is_barred:
            barred[e] = value
        else:
            unbarred[e] = value
    s = sum(unbarred)
    if s != -sum(barred):
        raise AssertionError("row sums of the signed word must agree")
    for e in range(1, n + 1):
        if unbarred[e] >= barred[e]:
            raise AssertionError("unbarred copy must come first")
    return SignedWord(tuple(unbarred), tuple(barred), s, bp.k)


def bisubsets_of(bp: Bipermutation) -> tuple[Bisubset, ...]:
    """The 2n-2 prefix/suffix bisubsets of a bipermutation, in word order.

    Split j takes S = set of the first j letters, T = set of the rest.

    >>> [str(b) for b in bisubsets_of(parse_bipermutation("1|3|2|1|3"))]
    ['1|123', '13|123', '123|13', '123|3']
    """
    letters = bp.letters
    out = []
    for j in range(1, len(letters)):
        left = frozenset(letters[:j])
        right = frozenset(letters[j:])
        out.append(Bisubset(left, right, bp.n))
    return tuple(out)


def splits_of(seq: Bisequence) -> tuple[Bisubset, ...]:
    """The prefix/suffix bisubsets of a bisequence, one per gap between parts.

    Split j merges the first j parts into S and the rest into T.

    >>> [str(b) for b in splits_of(parse_bisequence("2|13|1|3", 3))]
    ['2|13', '123|13', '123|3']
    """
    lefts = list(itertools.accumulate(seq.parts[:-1], frozenset.union))
    rights = list(itertools.accumulate(reversed(seq.parts[1:]), frozenset.union))[::-1]
    if any(left == right for left, right in zip(lefts, rights)):
        raise AssertionError("a split of a bisequence cannot repeat a part set")
    return tuple(Bisubset(left, right, seq.n) for left, right in zip(lefts, rights))


def wall_kind(seq: Bisequence) -> str:
    """Kind of a wall bisequence: "A" if it has a two-element part, else "B"."""
    return "A" if any(len(part) == 2 for part in seq.parts) else "B"


def enumerate_wall_bisequences(n: int) -> Iterator[Bisequence]:
    """The bisequences indexing walls (codimension-1 cones) of the fan.

    A wall bisequence has 2n - 2 parts and comes in two kinds.  Kind A has
    one part of size two and 2n - 3 singletons, so 2n - 1 letters and one
    once-element.  Kind B has all parts singletons, so 2n - 2 letters and
    two once-elements.  Kind A streams first, each kind in lexicographic
    order of its tuple of (sorted) parts.

    >>> [str(s) for s in enumerate_wall_bisequences(2)]
    ['1|12', '12|1', '12|2', '2|12', '1|2', '2|1']
    """
    if n < 2:
        return
    yield from _wall_search(n, want_pair=True)
    yield from _wall_search(n, want_pair=False)


def _wall_search(n: int, want_pair: bool) -> Iterator[Bisequence]:
    num_parts = 2 * n - 2
    counts = [0] * (n + 1)
    parts: list[frozenset[int]] = []

    def search(pair_used: bool, missing: int) -> Iterator[Bisequence]:
        slots = num_parts - len(parts)
        if slots == 0:
            if missing == 0 and pair_used == want_pair:
                yield Bisequence(tuple(parts), n)
            return
        # Each remaining slot introduces at most one new element, plus one
        # more if the pair part is still pending.
        if missing > slots + (1 if want_pair and not pair_used else 0):
            return
        for a in range(1, n + 1):
            if counts[a] == 2:
                continue
            counts[a] += 1
            parts.append(frozenset((a,)))
            yield from search(pair_used, missing - (counts[a] == 1))
            parts.pop()
            counts[a] -= 1
            if want_pair and not pair_used:
                for b in range(a + 1, n + 1):
                    if counts[b] == 2:
                        continue
                    counts[a] += 1
                    counts[b] += 1
                    parts.append(frozenset((a, b)))
                    drop = (counts[a] == 1) + (counts[b] == 1)
                    yield from search(True, missing - drop)
                    parts.pop()
                    counts[a] -= 1
                    counts[b] -= 1

    yield from search(False, n)


def enumerate_bisequences(n: int) -> Iterator[Bisequence]:
    """All bisequences of {1..n}.

    Exhaustive depth-first search over part tuples; intended for small n
    (the total count grows like the face count of the bipermutahedron).
    """
    ground = list(range(1, n + 1))
    nonempty_subsets = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in itertools.combinations(ground, size)
    ]
    parts: list[frozenset[int]] = []
    counts = {e: 0 for e in ground}

    def emit_ok() -> bool:
        return all(counts[e] >= 1 for e in ground) and any(
            counts[e] == 1 for e in ground
        )

    def search() -> Iterator[Bisequence]:
        if parts and emit_ok():
            yield Bisequence(tuple(parts), n)
        if len(parts) >= 2 * n - 1:
            return
        for part in nonempty_subsets:
            if any(counts[e] >= 2 for e in part):
                continue
            for e in part:
                counts[e] += 1
            parts.append(part)
            yield from search()
            parts.pop()
            for e in part:
                counts[e] -= 1

    yield from search()


@dataclass(frozen=True)
class Multigraph:
    """A loop-free multigraph on vertices 1..d with edges labeled 1..n.

    ``edges[e-1]`` is the (sorted) vertex pair of the edge labeled e.
    """

    d: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if not (1 <= a < b <= self.d):
                raise ValueError(f"edge ({a}, {b}) is not a sorted pair in 1..{self.d}")

    def has_isolated_vertex(self) -> bool:
        touched = {v for edge in self.edges for v in edge}
        return len(touched) < self.d


def bisequence_to_multigraph(seq: Bisequence) -> Multigraph:
    """The multigraph encoding of a bisequence with d-1 parts.

    Append a final part holding the elements that appear only once; element
    e then sits in exactly two parts, and becomes the edge labeled e joining
    those two part indices.

    >>> m = bisequence_to_multigraph(parse_bisequence("1|14|35|35|2", 5))
    >>> m.d, m.edges
    (6, ((1, 2), (5, 6), (3, 4), (2, 6), (3, 4)))
    """
    parts = seq.parts + (seq.single_elements(),)
    d = len(parts)
    edges = []
    for e in range(1, seq.n + 1):
        where = tuple(i + 1 for i, part in enumerate(parts) if e in part)
        if len(where) != 2:
            raise AssertionError(f"element {e} must appear in exactly two parts")
        edges.append(where)
    return Multigraph(d, tuple(edges))


def multigraph_to_bisequence(graph: Multigraph) -> Bisequence:
    """Inverse of :func:`bisequence_to_multigraph`.

    Part i (for i < d) collects the labels of the edges touching vertex i;
    vertex d carries the would-be final part and is dropped.  Graphs with
    loops are rejected by the ``Multigraph`` constructor; isolated vertices
    surface as empty or missing parts.
    """
    n = len(graph.edges)
    if graph.has_isolated_vertex():
        raise ElementMissing("multigraph has an isolated vertex")
    parts = []
    for v in range(1, graph.d):
        part = {e + 1 for e, (a, b) in enumerate(graph.edges) if v in (a, b)}
        if not part:
            raise EmptyPart(f"vertex {v} is isolated")
        parts.append(part)
    return validate_bisequence(parts, n)


def bisequence_of_configuration(
    z: Sequence[int | Fraction], w: Sequence[int | Fraction]
) -> Bisequence:
    """Read off the bisequence of a point configuration.

    Point i is (z_i, w_i).  Let c = min_i (z_i + w_i), the height of the
    lowest slope -1 line touching the configuration.  Each point projects
    onto that line vertically (key z_i) and horizontally (key c - w_i); a
    point on the line contributes a single label.  Group equal keys and
    read the groups by decreasing key.

    >>> str(bisequence_of_configuration((0, 1), (0, 0)))
    '2|12'
    """
    if len(z) != len(w) or not z:
        raise ValueError("need one (z, w) pair per element")
    c = min(a + b for a, b in zip(z, w))
    keys: dict[int | Fraction, set[int]] = {}
    for i, (zi, wi) in enumerate(zip(z, w), start=1):
        keys.setdefault(zi, set()).add(i)
        if zi + wi != c:
            keys.setdefault(c - wi, set()).add(i)
    # Every element lies in one or two parts, and the element with the least
    # z_i + w_i lies on the line, so in one part: the axioms hold as built.
    parts = tuple(frozenset(keys[key]) for key in sorted(keys, reverse=True))
    return Bisequence(parts, len(z))
