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

The bisequences are the faces of the bipermutahedral fan: one with p parts
is a (p - 1)-dimensional cone modulo lineality.  One search, ``_faces``,
produces the bisequences with a given number of parts and of letters.  The
chambers (:func:`enumerate_bipermutations`) are the faces with 2n - 1
parts, the walls (:func:`enumerate_wall_bisequences`, each a :class:`Wall`
of kind A or B) those with 2n - 2, and :func:`enumerate_bisequences` runs
through all of them by number of parts, then of letters, then
lexicographically.

The *barred word* of a bipermutation marks each letter's second occurrence
with a bar and treats the single letter k as an adjacent pair "k kbar",
giving a word of length 2n (:func:`doubled_word`).  The vertex of the
bipermutahedron is built from it by sending its letters, in order, to the
odd integers -(2n-1), -(2n-3), ..., 2n-1 (see
:mod:`bipermutahedron.geometry`).

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
from functools import cache, cached_property, reduce
from math import factorial
from operator import or_
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence


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
    the constructor itself does not re-check the axioms.  Two bisequences
    are equal when their parts and n are, whatever their class, so a
    ``Wall`` equals the plain ``Bisequence`` of its parts.
    """

    parts: tuple[frozenset[int], ...]
    n: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bisequence):
            return NotImplemented
        return self.parts == other.parts and self.n == other.n

    def __str__(self) -> str:
        return format_bisequence(self)

    def single_elements(self) -> frozenset[int]:
        """The elements appearing in exactly one part, in one pass."""
        seen, twice = set(), set()
        for part in self.parts:
            twice |= seen & part
            seen |= part
        return frozenset(seen - twice)


class Bisubset(NamedTuple):
    """A two-part bisequence S|T: S and T nonempty, S != T, S union T = E.

    A named tuple, so equality and hashing run in C: it equals and hashes
    as the plain tuple ``(left, right, n)``.
    """

    left: frozenset[int]
    right: frozenset[int]
    n: int

    def __str__(self) -> str:
        return format_bisequence(Bisequence((self.left, self.right), self.n))


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
    """Validate S|T and return the split table's bisubset.

    >>> bisubset({1}, {2}, 2) is all_bisubsets(2)[3]
    True
    """
    seq = validate_bisequence([left, right], n)
    return _split_table(n)[_mask(seq.parts[0]), _mask(seq.parts[1])]


@cache
def all_bisubsets(n: int) -> tuple[Bisubset, ...]:
    """All 3**n - 3 bisubsets of {1..n}, in a fixed lexicographic order: the
    split table's objects, built once per n.

    Each element independently sits in S only, T only, or both; the two
    assignments putting every element in S (T = empty set) or every element
    in both (S = T) are excluded.  An n below 1 is refused.

    >>> len(all_bisubsets(2)), len(all_bisubsets(3))
    (6, 24)
    """
    if n < 1:
        raise ValueError(f"ground set size must be positive, got {n}")
    table = _split_table(n)
    return tuple(
        table[left, right]
        for left, right in _covering_pairs(n)
        if left and right and left != right
    )


def _mask(elements: Iterable[int]) -> int:
    """The bitmask of a set of elements, with bit e for element e."""
    return sum(map((1).__lshift__, elements))


def _elements(mask: int) -> tuple[int, ...]:
    """The ascending elements of a bitmask, inverse to :func:`_mask`."""
    return tuple(e for e in range(1, mask.bit_length()) if mask >> e & 1)


def _covering_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The masks of the 3**n pairs (S, T) with S union T = {1..n}, ordered
    lexicographically by the codes 0 (both), 1 (S only), 2 (T only) of 1..n."""
    # The masks of S and of T for the codes of 1..e - 1, in order, each
    # extended by the three codes of e.
    lefts, rights = [0], [0]
    for e in range(1, n + 1):
        bit = 1 << e
        lefts = [m + x for m in lefts for x in (bit, bit, 0)]
        rights = [m + x for m in rights for x in (bit, 0, bit)]
    return zip(lefts, rights)


@cache
def _bisubset_index(n: int) -> dict[Bisubset, int]:
    """Each bisubset's position in :func:`all_bisubsets` order (do not mutate)."""
    return {bs: k for k, bs in enumerate(all_bisubsets(n))}


def format_bisequence(seq: Bisequence) -> str:
    """Render parts as ascending element lists joined by "|": digits run
    together up to n = 9, as :func:`parse_bisequence` reads them, and
    comma-joined above.

    >>> format_bisequence(Bisequence((frozenset({10}), frozenset({1, 10})), 10))
    '10|1,10'
    """
    sep = "" if seq.n <= 9 else ","
    return "|".join(sep.join(map(str, sorted(part))) for part in seq.parts)


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
        if not isinstance(letters, tuple):
            raise TypeError(f"letters must be a tuple, got {type(letters).__name__}")
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


def _faces(n: int, parts: int, letters: int) -> Iterator[tuple[frozenset[int], ...]]:
    """The part tuples of every bisequence of {1..n} with ``parts`` parts
    holding ``letters`` letters in all, in lexicographic order of their
    tuples of sorted parts.

    Depth-first search over the parts of at most ``letters - parts + 1``
    elements, in lexicographic order, keeping the elements placed at least
    once (``seen``) and those placed twice (``twice``) as bitmasks.  A part
    fits when it holds no element placed twice, leaves a letter for each
    later part, and leaves a letter for each element not yet placed; the
    last part takes the letters that are left.  So each tuple covers 1..n
    and places no element three times, and with fewer than 2n letters it
    places some element once: every tuple is a bisequence.  Yields nothing
    when ``parts <= 0`` or ``letters >= 2n``.
    """
    if parts <= 0 or letters >= 2 * n:
        return
    candidates = [
        (_mask(part), frozenset(part), len(part))
        for part in sorted(
            part
            for size in range(1, letters - parts + 2)
            for part in itertools.combinations(range(1, n + 1), size)
        )
    ]
    chosen: list[frozenset[int]] = []

    def search(
        seen: int, twice: int, slots: int, left: int
    ) -> Iterator[tuple[frozenset[int], ...]]:
        widest = left - slots + 1
        # Letters not owed to an element yet to be placed: the most a part
        # may spend on elements placed before.
        spare = left - n + seen.bit_count()
        for mask, part, size in candidates:
            if mask & twice or size > widest or (mask & seen).bit_count() > spare:
                continue
            chosen.append(part)
            if slots > 1:
                yield from search(
                    seen | mask, twice | (seen & mask), slots - 1, left - size
                )
            elif size == left:
                yield tuple(chosen)
            chosen.pop()

    yield from search(0, 0, parts, letters)


def enumerate_bipermutations(n: int) -> Iterator[Bipermutation]:
    """All bipermutations of {1..n} in lexicographic order of their words:
    the faces with 2n - 1 parts, all singletons."""
    for parts in _faces(n, 2 * n - 1, 2 * n - 1):
        # From a list, so the word is allocated at its length (a tuple
        # built from an iterator is allocated larger and shrunk).
        yield Bipermutation(tuple([e for (e,) in parts]))


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


def doubled_word(
    letters: Sequence[int], doubled: Iterable[int]
) -> tuple[tuple[int, bool], ...]:
    """Bar second occurrences, expanding each letter in ``doubled`` to an
    adjacent unbarred/barred pair in place.

    With ``doubled = (bp.k,)`` this is the barred word of length 2n.

    >>> doubled_word((2, 3, 4, 2, 4, 1, 1), (3,))[:3]
    ((2, False), (3, False), (3, True))
    """
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


class _MaskMemo(dict):
    """The bitmask of each part set met so far, filled on lookup by
    :func:`_mask`."""

    def __missing__(self, part: frozenset[int]) -> int:
        mask = self[part] = _mask(part)
        return mask


class _SplitTable(dict):
    """The bisubsets of {1..n} met so far, keyed by the bitmasks (bit e for
    element e) of S and of T; a pair not met before is built on lookup, from
    one shared part set per mask, and a pair that is no bisubset of {1..n}
    raises ``ValueError`` and is not stored.  ``masks`` maps a part set back
    to its mask."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.full = (1 << n + 1) - 2
        self.parts: dict[int, frozenset[int]] = {}
        self.masks = _MaskMemo()

    def __missing__(self, key: tuple[int, int]) -> Bisubset:
        left, right = key
        # S | T == full also rules out bit 0 and any bit above n.
        if not (left and right and left != right and left | right == self.full):
            raise ValueError(
                f"masks S={left:#b}, T={right:#b} name no bisubset of 1..{self.n}"
            )
        parts = self.parts
        for mask in key:
            if mask not in parts:
                parts[mask] = frozenset(_elements(mask))
        bs = self[key] = Bisubset(parts[left], parts[right], self.n)
        return bs


@cache
def _split_table(n: int) -> _SplitTable:
    """The one split table of {1..n}: every ``Bisubset`` the package hands
    out for a split, a wall term or a tree edge is shared through it."""
    return _SplitTable(n)


def _split_keys(masks: Sequence[int]) -> list[tuple[int, int]]:
    """The (S, T) mask pairs of the splits of a sequence of part masks:
    split j joins the first j parts into S and the rest into T, by one
    running OR from each end."""
    rights = list(itertools.accumulate(reversed(masks[1:]), or_))
    rights.reverse()
    return list(zip(itertools.accumulate(masks[:-1], or_), rights))


def _word_keys(letters: Sequence[int]) -> list[tuple[int, int]]:
    """The split keys of a word: each letter e is a part, of mask 1 << e."""
    return _split_keys(tuple(map((1).__lshift__, letters)))


def _bisequence_keys(seq: Bisequence) -> list[tuple[int, int]]:
    """The split keys of a bisequence, each part's mask read off the split
    table's memo."""
    keys = _split_keys(list(map(_split_table(seq.n).masks.__getitem__, seq.parts)))
    if any(left == right for left, right in keys):
        raise AssertionError("a split of a bisequence cannot repeat a part set")
    return keys


def bisubsets_of(bp: Bipermutation) -> tuple[Bisubset, ...]:
    """The 2n-2 prefix/suffix bisubsets of a bipermutation, in word order.

    Split j takes S = set of the first j letters, T = set of the rest.

    >>> [str(b) for b in bisubsets_of(parse_bipermutation("1|3|2|1|3"))]
    ['1|123', '13|123', '123|13', '123|3']
    """
    return tuple(map(_split_table(bp.n).__getitem__, _word_keys(bp.letters)))


def splits_of(seq: Bisequence) -> tuple[Bisubset, ...]:
    """The prefix/suffix bisubsets of a bisequence, one per gap between parts.

    Split j merges the first j parts into S and the rest into T.

    >>> [str(b) for b in splits_of(parse_bisequence("2|13|1|3", 3))]
    ['2|13', '123|13', '123|3']
    """
    return tuple(map(_split_table(seq.n).__getitem__, _bisequence_keys(seq)))


def _kind_a_parts(seq: Bisequence) -> tuple[int, int, int, int, int, int]:
    """A kind-A wall's pair position, its pair i < j, the masks of the
    prefix set S and the suffix set T around the pair, and its
    once-element.

    Every other element occurs twice, so the once-element is n(n + 1) minus
    the sum of the letters.
    """
    parts = seq.parts
    pos = next(pos for pos, part in enumerate(parts) if len(part) == 2)
    i, j = sorted(parts[pos])
    masks = _split_table(seq.n).masks
    s = reduce(or_, map(masks.__getitem__, parts[:pos]), 0)
    t = reduce(or_, map(masks.__getitem__, parts[pos + 1 :]), 0)
    once = seq.n * (seq.n + 1) - sum(map(sum, parts))
    return pos, i, j, s, t, once


class KindMismatch(ValueError):
    """A wall of neither kind, or a construction fed the other kind."""


@dataclass(frozen=True, eq=False)
class Wall(Bisequence):
    """A codimension-1 cone of the fan: a bisequence with 2n - 2 parts.

    ``kind`` is read off the parts at validation: "A" for one pair part
    among singletons, "B" for all singletons with two once-elements.
    ``kind_a_parts`` or ``kind_b_word``, the decode of its kind, is built on
    first use and kept, so each wall is decoded at most once; each refuses
    a wall of the other kind.  Like a ``Bisequence``, the constructor does
    not re-check the bisequence axioms, but it refuses parts that are not a
    tuple of frozensets, which would not hash.
    """

    kind: Literal["A", "B"] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, parts = self.n, self.parts
        if not isinstance(parts, tuple):
            raise TypeError(f"parts must be a tuple, got {type(parts).__name__}")
        sizes = [len(part) for part in parts if type(part) is frozenset]
        if len(sizes) != len(parts):
            bad = next(part for part in parts if type(part) is not frozenset)
            raise TypeError(f"parts must be frozensets, got {type(bad).__name__}")
        if len(sizes) != 2 * n - 2:
            raise ValueError(f"a wall bisequence needs {2 * n - 2} parts")
        singletons = sizes.count(1)
        if singletons == 2 * n - 3 and 2 in sizes:
            kind = "A"
        elif singletons == 2 * n - 2 and len(self.single_elements()) == 2:
            kind = "B"
        else:
            raise KindMismatch("a wall bisequence of neither kind A nor kind B")
        object.__setattr__(self, "kind", kind)

    def __str__(self) -> str:
        return f"{self.kind}:{format_bisequence(self)}"

    @cached_property
    def kind_a_parts(self) -> tuple[int, int, int, int, int, int]:
        """A kind-A wall's decode (see :func:`_kind_a_parts`)."""
        if self.kind != "A":
            raise KindMismatch("pair parts belong to kind A walls")
        return _kind_a_parts(self)

    @cached_property
    def kind_b_word(self) -> tuple[tuple[int, bool], ...]:
        """A kind-B wall's doubled word, both once-elements doubled."""
        if self.kind != "B":
            raise KindMismatch("doubled words belong to kind B walls")
        letters = tuple(next(iter(part)) for part in self.parts)
        return doubled_word(letters, self.single_elements())


def enumerate_wall_bisequences(n: int) -> Iterator[Wall]:
    """The walls (codimension-1 cones) of the fan: the faces with 2n - 2
    parts.

    They come in two kinds.  Kind A has one part of size two and 2n - 3
    singletons, so 2n - 1 letters and one once-element.  Kind B has all
    parts singletons, so 2n - 2 letters and two once-elements.  Kind A
    streams first, each kind in lexicographic order of its tuple of (sorted)
    parts.

    >>> [str(w) for w in enumerate_wall_bisequences(2)]
    ['A:1|12', 'A:12|1', 'A:12|2', 'A:2|12', 'B:1|2', 'B:2|1']
    """
    for letters in (2 * n - 1, 2 * n - 2):
        for parts in _faces(n, 2 * n - 2, letters):
            yield Wall(parts, n)


def enumerate_bisequences(n: int) -> Iterator[Bisequence]:
    """All bisequences of {1..n}, the faces of the fan: by number of parts,
    then by number of letters, then in lexicographic order of the tuple of
    (sorted) parts.

    The only caller, the bijection leg of ``check --suite invariants``
    (``cli._bijection_failures``), counts them by number of parts, so it
    does not depend on the order.  There are as many as the fan has faces
    (2,244,361 at n = 5), so this is for small n.
    """
    # A face covers 1..n with at least one letter per part and fewer than
    # 2n letters.
    for parts in range(1, 2 * n):
        for letters in range(max(parts, n), 2 * n):
            for seq in _faces(n, parts, letters):
                yield Bisequence(seq, n)


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
    loops are rejected by the ``Multigraph`` constructor, and a graph with
    an isolated vertex, the last one included, raises ``ElementMissing``.
    """
    if graph.has_isolated_vertex():
        raise ElementMissing("multigraph has an isolated vertex")
    parts = [
        {e + 1 for e, (a, b) in enumerate(graph.edges) if v in (a, b)}
        for v in range(1, graph.d)
    ]
    return validate_bisequence(parts, len(graph.edges))


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
