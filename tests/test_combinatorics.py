"""Bipermutations, bisequences, descents, and their enumeration."""

import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from bipermutahedron.combinatorics import (
    Bipermutation,
    Bisequence,
    BisequenceError,
    Bisubset,
    ElementMissing,
    ElementTriple,
    EmptyPart,
    Multigraph,
    NoSingleOccurrence,
    bipermutation_count,
    bisequence_of_configuration,
    bisequence_to_multigraph,
    bisubsets_of,
    count_bipermutations_recursively,
    descents,
    doubled_word,
    enumerate_bipermutations,
    enumerate_bisequences,
    enumerate_wall_bisequences,
    format_bisequence,
    multigraph_to_bisequence,
    parse_bipermutation,
    parse_bisequence,
    splits_of,
    _bisubset_order,
    _covering_pairs,
    Wall,
    _elements,
    _mask,
    _split_table,
    validate_bisequence,
)
from bipermutahedron.invariants import f_vector_formula

# Frozen: (2n)!/2^n for n = 1..6.
COUNTS = [1, 6, 90, 2520, 113400, 7484400]

# Frozen descent histograms, computed by direct enumeration.
HISTOGRAMS = {
    1: [1],
    2: [1, 4, 1],
    3: [1, 20, 48, 20, 1],
    4: [1, 72, 603, 1168, 603, 72, 1],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_count(n):
    assert sum(1 for _ in enumerate_bipermutations(n)) == COUNTS[n - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_recursive_count_matches_closed_form(n):
    assert count_bipermutations_recursively(n) == bipermutation_count(n)
    assert bipermutation_count(n) == COUNTS[n - 1]


def test_enumeration_is_lexicographic_and_duplicate_free():
    words = [bp.letters for bp in enumerate_bipermutations(3)]
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    # Against brute force: the distinct orderings of each multiset with one
    # letter k once and every other letter twice, sorted.
    for n in range(1, 5):
        brute = set()
        for k in range(1, n + 1):
            multiset = [e for e in range(1, n + 1) for _ in range(1 + (e != k))]
            brute.update(itertools.permutations(multiset))
        assert [bp.letters for bp in enumerate_bipermutations(n)] == sorted(brute)


def validated_part_tuples(n, length):
    """Every tuple of ``length`` nonempty subsets of 1..n that passes
    ``validate_bisequence``, from the full product."""
    subsets = [
        part
        for size in range(1, n + 1)
        for part in itertools.combinations(range(1, n + 1), size)
    ]
    for parts in itertools.product(subsets, repeat=length):
        try:
            yield validate_bisequence(parts, n)
        except BisequenceError:
            continue


def sorted_parts(seq):
    return tuple(tuple(sorted(part)) for part in seq.parts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_histogram(n):
    histogram = Counter(descents(bp) for bp in enumerate_bipermutations(n))
    assert [histogram[d] for d in range(2 * n - 1)] == HISTOGRAMS[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unique_descent_free_bipermutation_is_the_palindrome(n):
    descent_free = [
        bp for bp in enumerate_bipermutations(n) if descents(bp) == 0
    ]
    ladder = tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))
    assert descent_free == [Bipermutation(ladder)]


def test_reversal_does_not_complement_descents():
    # 1|2|1 is its own reversal with 0 descents, but 2n-2 - 0 = 2.
    witness = parse_bipermutation("1|2|1")
    assert Bipermutation(witness.letters[::-1]) == witness
    assert descents(witness) == 0
    failures = sum(
        1
        for bp in enumerate_bipermutations(3)
        if descents(Bipermutation(bp.letters[::-1])) != 4 - descents(bp)
    )
    assert failures == 50


def test_descent_case_table():
    bp = parse_bipermutation("1|1|2|2|3")
    word = doubled_word(bp.letters, (bp.k,))
    assert word == (
        (1, False),
        (1, True),
        (2, False),
        (2, True),
        (3, False),
        (3, True),
    )
    # descents of 1|1|2|2|3 (k = 3): the barred-to-unbarred pair 1bar|2
    # with 2 < k, and the pair 2bar|3 where k adopts the bar and 2 < 3.
    assert descents(parse_bipermutation("1|1|2|2|3")) == 2
    # the unbarred pair 2|1 with 2 > 1 is a descent
    assert descents(parse_bipermutation("2|1|1|2|3")) == 3


def test_descents_of_a_longer_word():
    assert descents(parse_bipermutation("5|4|2|3|1|4|1|2|5", 5)) == 5


def test_expanded_word_structure():
    bp = parse_bipermutation("2|3|4|2|4|1|1")
    word = doubled_word(bp.letters, (bp.k,))
    assert len(word) == 8
    assert word[2] == (3, True)  # k = 3 doubles in place
    assert sum(1 for _, barred in word if barred) == 4


def test_parse_format_round_trip():
    text = "23|124|4"
    assert format_bisequence(parse_bisequence(text, 4)) == text
    assert str(parse_bipermutation("1|2|1")) == "1|2|1"


def test_bisequence_axioms_raise():
    with pytest.raises(EmptyPart):
        validate_bisequence([{1}, set(), {2}], 2)
    with pytest.raises(ElementMissing):
        validate_bisequence([{1}, {1}], 2)
    with pytest.raises(ElementTriple):
        validate_bisequence([{1}, {1}, {1, 2}], 2)
    with pytest.raises(NoSingleOccurrence):
        validate_bisequence([{1}, {2}, {1}, {2}], 2)
    with pytest.raises(BisequenceError):
        parse_bipermutation("1|x|1")
    with pytest.raises(BisequenceError):
        parse_bipermutation("1|2|1", n=3)


def test_bisubsets_of_word():
    splits = [str(b) for b in bisubsets_of(parse_bipermutation("1|3|2|1|3"))]
    assert splits == ["1|123", "13|123", "123|13", "123|3"]


def test_splits_of_general_bisequence():
    seq = parse_bisequence("2|13|1|3", 3)
    assert [str(b) for b in splits_of(seq)] == ["2|13", "123|13", "123|3"]


def brute_force_splits(seq):
    """Split j unions the first j parts into S and the rest into T, from scratch."""
    return tuple(
        Bisubset(
            frozenset().union(*seq.parts[:j]), frozenset().union(*seq.parts[j:]), seq.n
        )
        for j in range(1, len(seq.parts))
    )


def word_bisequence(bp):
    """A word read as the bisequence of its letters, one part each."""
    return Bisequence(tuple(frozenset((e,)) for e in bp.letters), bp.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_splits_of_matches_brute_force_unions(n):
    walls = list(enumerate_wall_bisequences(n))
    words = [word_bisequence(bp) for bp in enumerate_bipermutations(n)]
    for seq in walls + words:
        assert splits_of(seq) == brute_force_splits(seq)


def slice_splits(bp):
    """Split j of a word: the set of its first j letters and of the rest."""
    letters = bp.letters
    return tuple(
        Bisubset(frozenset(letters[:j]), frozenset(letters[j:]), bp.n)
        for j in range(1, len(letters))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bisubsets_of_matches_slices_and_shares_splits(n):
    for bp in enumerate_bipermutations(n):
        splits = bisubsets_of(bp)
        assert splits == slice_splits(bp)
        # The same split of a chamber read as a bisequence is the same object.
        assert all(map(operator.is_, splits, splits_of(word_bisequence(bp))))


def test_bisubset_is_the_tuple_of_its_fields():
    left, right = frozenset({1}), frozenset({1, 2})
    bs = Bisubset(left, right, 2)
    assert hash(bs) == hash((left, right, 2))
    assert bs == (left, right, 2) and tuple(bs) == (left, right, 2)
    assert repr(bs) == "Bisubset(left=frozenset({1}), right=frozenset({1, 2}), n=2)"
    assert str(bs) == "1|12"


def covering_pairs_by_product(n):
    """The 3**n pairs (S, T), each built from its codes from scratch."""
    return tuple(
        (
            frozenset(i + 1 for i, c in enumerate(codes) if c in (0, 1)),
            frozenset(i + 1 for i, c in enumerate(codes) if c in (0, 2)),
        )
        for codes in itertools.product((0, 1, 2), repeat=n)
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_covering_pairs_match_the_product_of_codes(n):
    pairs = covering_pairs_by_product(n)
    decoded = tuple(
        (frozenset(_elements(left)), frozenset(_elements(right)))
        for left, right in _covering_pairs(n)
    )
    assert decoded == pairs
    assert _bisubset_order(n) == tuple(
        Bisubset(left, right, n) for left, right in pairs if left and right and left != right
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_bisubset_order_hands_out_the_split_tables_objects(n):
    keys = [(s, t) for s, t in _covering_pairs(n) if s and t and s != t]
    order = _bisubset_order(n)
    assert len(order) == len(keys) == 3**n - 3
    assert all(bs is _split_table(n)[key] for bs, key in zip(order, keys))


# Mask pairs of n = 3 (bit e for element e, so {1, 2, 3} is 0b1110) that
# name no bisubset.
MALFORMED_KEYS = {
    "empty S": (0, 0b1110),
    "empty T": (0b1110, 0),
    "S = T": (0b1110, 0b1110),
    "bit 0 set": (0b0111, 0b1100),
    "a bit above n": (0b10110, 0b1100),
    "S and T miss 3": (0b0110, 0b0100),
}


@pytest.mark.parametrize("case", MALFORMED_KEYS)
def test_split_table_refuses_a_malformed_key(case):
    left, right = MALFORMED_KEYS[case]
    table = _split_table(3)
    size = len(table)
    with pytest.raises(ValueError, match=f"S={left:#b}, T={right:#b} name no bisubset of 1..3"):
        table[left, right]
    assert len(_split_table(3)) == size


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_table_refuses_bit_e_minus_1_masks(n):
    # Masks with bit e - 1 for element e cover 1..n in bits 0..n - 1, so
    # every such pair raises at the lookup and none is stored.
    table = _split_table(n)
    size = len(table)
    for bs in _bisubset_order(n):
        with pytest.raises(ValueError, match="name no bisubset"):
            table[_mask(bs.left) >> 1, _mask(bs.right) >> 1]
    assert len(table) == size


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_table_shares_one_part_set_per_mask(n):
    # Every split whose S (or T) has a given mask holds the same set object.
    by_mask = {}
    for bs in _bisubset_order(n):
        for part in (bs.left, bs.right):
            assert by_mask.setdefault(_mask(part), part) is part
    assert len(by_mask) == 2**n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_mask_sets_bit_e_for_element_e(n):
    for size in range(n + 1):
        for elements in itertools.combinations(range(1, n + 1), size):
            mask = _mask(elements)
            assert mask == sum(2**e for e in elements) and not mask & 1
            assert _elements(mask) == elements


def test_splits_of_refuses_a_repeated_part_set():
    parts = tuple(frozenset({e}) for e in (1, 2, 1, 2))
    with pytest.raises(AssertionError, match="cannot repeat a part set"):
        splits_of(Bisequence(parts, 2))


# Digits, separators and look-alikes: superscripts and Arabic-Indic digits
# (which str.isdigit accepts), underscores, signs, commas and points (which
# int() accepts or rejects on its own terms).
PARSER_FUZZ_ALPHABET = "0123456789||||   ²³¹٠١٢٣_+-,."


def test_parsers_raise_only_bisequence_error():
    rng = random.Random(8)
    parsed = Counter()
    for _ in range(20_000):
        length = rng.randint(0, 12)
        text = "".join(rng.choice(PARSER_FUZZ_ALPHABET) for _ in range(length))
        n = rng.randint(1, 9)
        calls = {
            "bisequence": lambda: parse_bisequence(text, n),
            "bipermutation": lambda: parse_bipermutation(text),
            "bipermutation-n": lambda: parse_bipermutation(text, n),
        }
        for name, call in calls.items():
            try:
                call()
            except BisequenceError:
                continue
            parsed[name] += 1
    assert set(parsed) == {"bisequence", "bipermutation", "bipermutation-n"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multigraph_round_trip(n):
    for seq in enumerate_bisequences(n):
        graph = bisequence_to_multigraph(seq)
        assert multigraph_to_bisequence(graph) == seq


def test_bisequences_are_every_validated_part_tuple():
    for n in range(1, 4):
        faces = list(enumerate_bisequences(n))
        assert len(set(faces)) == len(faces)
        brute = {
            seq
            for length in range(1, 2 * n)
            for seq in validated_part_tuples(n, length)
        }
        assert set(faces) == brute
    for n in range(1, 5):
        by_parts = Counter(len(seq.parts) for seq in enumerate_bisequences(n))
        assert [by_parts[p] for p in range(1, 2 * n)] == f_vector_formula(n)


@pytest.mark.parametrize(
    "edges",
    [((1, 3), (1, 3)), ((1, 2), (1, 2))],
    ids=["inner-vertex", "last-vertex"],
)
def test_isolated_vertex_raises_element_missing(edges):
    with pytest.raises(ElementMissing, match="isolated vertex"):
        multigraph_to_bisequence(Multigraph(3, edges))


def test_configuration_reading():
    assert str(bisequence_of_configuration((0, 1), (0, 0))) == "2|12"
    # points 1 and 2 lie on the lowest slope -1 line, point 3 above it
    assert str(bisequence_of_configuration((0, 5, 2), (0, -5, -1))) == "2|3|3|1"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_configuration_reading_satisfies_the_axioms(n):
    # Small coordinates make ties between keys and points on the line common.
    rng = random.Random(40 + n)
    for _ in range(200):
        if rng.random() < 0.5:
            z = [rng.randint(-3, 3) for _ in range(n)]
            w = [rng.randint(-3, 3) for _ in range(n)]
        else:
            z = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            w = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        reading = bisequence_of_configuration(z, w)
        assert reading == validate_bisequence(reading.parts, n)


def test_wall_enumeration_counts_and_order():
    walls = list(enumerate_wall_bisequences(2))
    assert [format_bisequence(w) for w in walls] == [
        "1|12", "12|1", "12|2", "2|12", "1|2", "2|1"
    ]
    kinds = [w.kind for w in enumerate_wall_bisequences(3)]
    assert kinds == sorted(kinds)  # kind A streams strictly before kind B
    assert Counter(kinds) == Counter({"A": 144, "B": 36})
    # Against brute force: the validated tuples of 2n - 2 nonempty subsets
    # (7**4 = 2,401 of them at n = 3), kind A (a part of size two) first,
    # then by sorted parts.
    for n in range(1, 4):
        brute = sorted(
            validated_part_tuples(n, 2 * n - 2),
            key=lambda seq: (all(len(p) == 1 for p in seq.parts), sorted_parts(seq)),
        )
        assert list(enumerate_wall_bisequences(n)) == brute


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kind_a_parts_decode_the_pair_its_sides_and_the_once_element(n):
    decoded = 0
    for seq in enumerate_wall_bisequences(n):
        if all(len(part) == 1 for part in seq.parts):
            continue
        pos, i, j, s, t, once = seq.kind_a_parts
        assert seq.parts[pos] == {i, j} and i < j
        assert frozenset(_elements(s)) == frozenset().union(*seq.parts[:pos])
        assert frozenset(_elements(t)) == frozenset().union(*seq.parts[pos + 1 :])
        assert seq.single_elements() == {once}
        decoded += 1
    assert decoded == {2: 4, 3: 144, 4: 6480}[n]


def test_wall_bisequences_have_2n_minus_2_parts():
    for seq in enumerate_wall_bisequences(3):
        assert len(seq.parts) == 4
        sizes = sorted(len(p) for p in seq.parts)
        assert sizes in ([1, 1, 1, 1], [1, 1, 1, 2])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stored_once_letter(n):
    for bp in enumerate_bipermutations(n):
        (once,) = [e for e, count in Counter(bp.letters).items() if count == 1]
        assert bp.k == once


def test_once_letter_stays_out_of_repr_equality_and_hash():
    a = Bipermutation((2, 1, 3, 1, 2))
    b = Bipermutation((2, 1, 3, 1, 2))
    assert a.k == b.k == 3
    assert repr(a) == "Bipermutation(letters=(2, 1, 3, 1, 2))"
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(TypeError):
        Bipermutation((2, 1, 3, 1, 2), k=3)


@pytest.mark.parametrize(
    "letters", [[1, 2, 2], "122", range(3)], ids=["list", "str", "range"]
)
def test_a_bipermutation_refuses_letters_that_are_not_a_tuple(letters):
    # A list would be kept as is, and the bipermutation could not be hashed.
    name = type(letters).__name__
    with pytest.raises(TypeError, match=f"^letters must be a tuple, got {name}$"):
        Bipermutation(letters)


@pytest.mark.parametrize(
    "parts, name",
    [
        (([1, 2], [1]), "list"),
        ((frozenset({1, 2}), {1}), "set"),
        ((frozenset({1}), (1, 2)), "tuple"),
    ],
)
def test_a_wall_refuses_parts_that_are_not_frozensets(parts, name):
    # A list or set part would be kept as is, and the wall could not be hashed.
    with pytest.raises(TypeError, match=f"^parts must be frozensets, got {name}$"):
        Wall(parts, 2)


def test_a_wall_refuses_parts_that_are_not_a_tuple():
    with pytest.raises(TypeError, match="^parts must be a tuple, got list$"):
        Wall([frozenset({1, 2}), frozenset({1})], 2)


@pytest.mark.parametrize("n", [2, 3])
def test_a_wall_equals_the_bisequence_of_its_parts(n):
    walls = list(enumerate_wall_bisequences(n))
    plain = [validate_bisequence(w.parts, n) for w in walls]
    for wall, seq in zip(walls, plain):
        assert type(seq) is Bisequence
        assert wall == seq and seq == wall
        assert not (wall != seq or seq != wall)
        assert hash(wall) == hash(seq)
    assert set(walls) == set(plain)
    # Parts or n that differ still tell them apart.
    first, second = walls[0], plain[1]
    assert first != second and second != first
    assert first != Bisequence(first.parts, n + 1)
    assert first != first.parts
