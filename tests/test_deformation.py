"""Tests for wall enumeration, wall-crossing inequalities, and cone membership."""

import dataclasses
import hashlib
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from bipermutahedron import deformation
from bipermutahedron.combinatorics import (
    _elements,
    _mask,
    _split_table,
    Bisequence,
    ElementMissing,
    EmptyPart,
    NoSingleOccurrence,
    all_bisubsets,
    bisubset,
    bisubsets_of,
    enumerate_bipermutations,
    parse_bisequence,
    splits_of,
)
from bipermutahedron.geometry import SupportFunction
from bipermutahedron.invariants import f_vector_formula, multigraph_count
from bipermutahedron.deformation import (
    _inequality_table,
    DependenceNotUnique,
    KindMismatch,
    Wall,
    WallInequality,
    enumerate_walls,
    format_support_csv,
    generic_wallcross_oracle,
    is_ample,
    is_nef,
    kind_a_case,
    minkowski_quotient,
    named_support,
    parse_support_csv,
    same_inequality,
    supermodular_inequality,
    updown_inequality,
    updown_value_by_segments,
    wall_inequality,
    wall_refinements,
    wall_tree,
    wall_value_table,
)

WALL_COUNTS = {2: 6, 3: 180, 4: 7560}


def wall_from(word: str, n: int) -> Wall:
    return Wall(parse_bisequence(word, n))


def terms(pairs) -> list[str]:
    return [str(b) for b, _ in pairs]


class TestWallValidation:
    def test_kind_a_accepts_pair_among_singletons(self):
        wall = wall_from("12|1", 2)
        assert wall.kind == "A"
        assert str(wall) == "A:12|1"

    def test_kind_b_accepts_all_singletons(self):
        wall = wall_from("1|2", 2)
        assert wall.kind == "B"
        assert str(wall) == "B:1|2"

    def test_wrong_part_count_rejected(self):
        with pytest.raises(ValueError, match="2 parts"):
            wall_from("1|2|2", 2)

    @pytest.mark.parametrize(
        "parts",
        [
            pytest.param(({1, 2}, {1, 2}), id="two-pair-parts"),
            pytest.param(({1}, {1}), id="singletons-no-once-element"),
            pytest.param(({1, 2, 3}, {1}, {2}, {3}), id="triple-part"),
        ],
    )
    def test_neither_kind_rejected(self, parts):
        # Unvalidated bisequences: a validated one with 2n - 2 parts is
        # always of one of the two kinds.
        seq = Bisequence(tuple(map(frozenset, parts)), len(parts) // 2 + 1)
        with pytest.raises(KindMismatch, match="kind A"):
            Wall(seq)

    def test_each_decode_refuses_the_other_kind(self):
        # Both cached decodes raise KindMismatch on a wall of the other kind.
        with pytest.raises(KindMismatch, match="kind A"):
            wall_from("1|1|2|3", 3).kind_a_parts
        with pytest.raises(KindMismatch, match="kind B"):
            wall_from("12|1|2|3", 3).kind_b_word


class TestEnumeration:
    def test_order_at_n2(self):
        assert [str(w) for w in enumerate_walls(2)] == [
            "A:1|12",
            "A:12|1",
            "A:12|2",
            "A:2|12",
            "B:1|2",
            "B:2|1",
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_match_codimension_one_cones(self, n):
        walls = list(enumerate_walls(n))
        assert len(walls) == WALL_COUNTS[n]
        assert f_vector_formula(n)[2 * n - 3] == WALL_COUNTS[n]
        assert len(set(map(str, walls))) == len(walls)

    def test_kind_split_at_n3(self):
        kinds = [w.kind for w in enumerate_walls(3)]
        assert kinds.count("A") == 144
        assert kinds.count("B") == 36


class TestRefinements:
    def test_kind_a_splits_the_pair(self):
        wall = wall_from("1|12", 2)
        assert [str(b) for b in wall_refinements(wall)] == ["1|1|2", "1|2|1"]

    def test_kind_b_doubles_each_once_element(self):
        wall = wall_from("1|2", 2)
        assert [str(b) for b in wall_refinements(wall)] == ["1|1|2", "1|2|2"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_refinements_are_distinct_chambers(self, n):
        for wall in enumerate_walls(n):
            left, right = wall_refinements(wall)
            assert str(left) != str(right)


class TestClosedFormInequalities:
    def test_supermodular_drops_degenerate_terms(self):
        ineq = supermodular_inequality(wall_from("12|1", 2))
        assert terms(ineq.plus) == ["12|1"]
        assert terms(ineq.minus) == ["1|12", "2|1"]

    def test_updown_small_case(self):
        ineq = updown_inequality(wall_from("1|2", 2))
        assert terms(ineq.plus) == ["1|2"]
        assert terms(ineq.minus) == ["1|12", "12|2"]

    def test_updown_has_one_more_minus_term(self):
        for wall in enumerate_walls(3):
            if wall.kind != "B":
                continue
            ineq = updown_inequality(wall)
            assert len(ineq.minus) == len(ineq.plus) + 1

    def test_supermodular_worked_example(self):
        wall = wall_from("7|2|3|4|2|14|5|1|5|6|6|7", 7)
        ineq = wall_inequality(wall)
        assert terms(ineq.plus) == ["2347|14567", "12347|1567"]
        assert terms(ineq.minus) == ["12347|14567", "2347|1567"]
        assert all(c == 1 for _, c in ineq.plus + ineq.minus)

    def test_updown_worked_example(self):
        wall = wall_from("7|2|3|4|2|4|5|1|5|6|6|7", 7)
        ineq = wall_inequality(wall)
        assert terms(ineq.plus) == ["237|124567", "2347|1567", "123457|67"]
        assert terms(ineq.minus) == [
            "237|1234567",
            "2347|124567",
            "123457|1567",
            "1234567|67",
        ]

    def test_worked_example_values(self):
        biperm = named_support("biperm", 7)
        harmonic = named_support("harmonic", 7)
        super_ineq = wall_inequality(wall_from("7|2|3|4|2|14|5|1|5|6|6|7", 7))
        updown_ineq = wall_inequality(wall_from("7|2|3|4|2|4|5|1|5|6|6|7", 7))
        assert super_ineq.evaluate(biperm) == 2
        assert super_ineq.evaluate(harmonic) == 0
        assert updown_ineq.evaluate(biperm) == 25
        assert updown_ineq.evaluate(harmonic) == 1

    def test_positive_coefficients_enforced(self):
        bad = ((bisubset({1}, {1, 2}, 2), Fraction(0)),)
        with pytest.raises(ValueError, match="positive"):
            WallInequality(plus=bad, minus=())

    def test_int_coefficients_enforced(self):
        bad = ((bisubset({1}, {1, 2}, 2), Fraction(1)),)
        with pytest.raises(TypeError, match="ints"):
            WallInequality(plus=(), minus=bad)


class TestWallTree:
    def test_worked_example_tree(self):
        tree = wall_tree(wall_from("7|2|3|4|2|4|5|1|5|6|6|7", 7))
        assert [frozenset(s) for s in tree.top] == [
            frozenset(map(int, label))
            for label in ("7", "27", "237", "2347", "23457", "123457", "1234567")
        ]
        assert [frozenset(s) for s in tree.bottom] == [
            frozenset(map(int, label))
            for label in ("1234567", "124567", "14567", "1567", "567", "67", "7")
        ]
        assert [str(b) for b in tree.spine] == [
            "237|1234567",
            "237|124567",
            "2347|124567",
            "2347|1567",
            "123457|1567",
            "123457|67",
            "1234567|67",
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tree_shape(self, n):
        for wall in enumerate_walls(n):
            if wall.kind != "B":
                continue
            tree = wall_tree(wall)
            assert len(tree.top) == n
            assert len(tree.bottom) == n
            assert len(tree.edges) == 2 * n - 1
            spine_labels = [str(b) for b in tree.spine]
            ineq = updown_inequality(wall)
            assert set(spine_labels) == {str(b) for b, _ in ineq.plus + ineq.minus}

    def test_updown_inequality_checks_the_spine(self, monkeypatch):
        real_tree = deformation.wall_tree

        def reversed_spine(wall):
            tree = real_tree(wall)
            return dataclasses.replace(tree, spine=tree.spine[::-1])

        monkeypatch.setattr(deformation, "wall_tree", reversed_spine)
        with pytest.raises(AssertionError, match="spine must consist of the switch"):
            updown_inequality(wall_from("7|2|3|4|2|4|5|1|5|6|6|7", 7))


class TestSegmentEvaluation:
    def test_small_case_value(self):
        assert updown_value_by_segments(wall_from("1|2", 2)) == 2

    def test_worked_example_value(self):
        assert updown_value_by_segments(wall_from("7|2|3|4|2|4|5|1|5|6|6|7", 7)) == 25

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_term_sum(self, n):
        biperm = named_support("biperm", n)
        for wall in enumerate_walls(n):
            if wall.kind != "B":
                continue
            assert updown_value_by_segments(wall) == wall_inequality(wall).evaluate(biperm)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_forms_match_dependence_solver(self, n):
        for wall in enumerate_walls(n):
            assert same_inequality(wall_inequality(wall), generic_wallcross_oracle(wall))

    def test_same_inequality_ignores_positive_scale(self):
        ineq = wall_inequality(wall_from("12|1", 2))
        scaled = WallInequality(
            plus=tuple((b, 3 * c) for b, c in ineq.plus),
            minus=tuple((b, 3 * c) for b, c in ineq.minus),
        )
        assert same_inequality(ineq, scaled)

    def test_same_inequality_detects_sign_flip(self):
        ineq = wall_inequality(wall_from("12|1", 2))
        flipped = WallInequality(plus=ineq.minus, minus=ineq.plus)
        assert not same_inequality(ineq, flipped)

    def test_same_inequality_compares_primitive_forms(self):
        ineq = wall_inequality(wall_from("12|1", 2))

        def times(k):
            return WallInequality(
                plus=tuple((b, k * c) for b, c in ineq.plus),
                minus=tuple((b, k * c) for b, c in ineq.minus),
            )

        assert same_inequality(times(2), times(3))
        # A term on both sides counts once, with the difference of its
        # coefficients.
        (bs, _), *_ = ineq.plus
        merged = WallInequality(
            plus=((bs, 3),) + ineq.plus[1:], minus=ineq.minus + ((bs, 2),)
        )
        assert same_inequality(ineq, merged)
        empty = WallInequality((), ())
        assert same_inequality(empty, empty)
        assert not same_inequality(empty, ineq)
        assert not same_inequality(ineq, empty)

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_coefficients_are_int_ones(self, n):
        for wall in enumerate_walls(n):
            oracle = generic_wallcross_oracle(wall)
            coefficients = [c for _, c in oracle.plus + oracle.minus]
            assert all(type(c) is int and c == 1 for c in coefficients), wall

    def test_oracle_refuses_a_repeated_chamber(self, monkeypatch):
        wall = wall_from("12|1", 2)
        chamber, _ = wall_refinements(wall)
        monkeypatch.setattr(deformation, "wall_refinements", lambda w: (chamber, chamber))
        with pytest.raises(DependenceNotUnique, match="must be positive, got -1"):
            generic_wallcross_oracle(wall)

    def test_oracle_refuses_a_chamber_off_the_wall(self, monkeypatch):
        wall = wall_from("1|12|2|3", 3)
        chamber, _ = wall_refinements(wall)
        other = next(
            bp for bp in enumerate_bipermutations(3) if bp not in wall_refinements(wall)
        )
        monkeypatch.setattr(deformation, "wall_refinements", lambda w: (chamber, other))
        with pytest.raises(DependenceNotUnique, match="exactly one ray"):
            generic_wallcross_oracle(wall)


    def test_oracle_refuses_a_singular_system(self, monkeypatch):
        # Giving both chamber rays the row of a wall ray makes two columns
        # of the system equal.
        wall = wall_from("1|12|2|3", 3)
        wall_rays = splits_of(wall.bisequence)
        table = dict(deformation._ray_rows(3))
        for chamber in wall_refinements(wall):
            for bs in set(bisubsets_of(chamber)) - set(wall_rays):
                table[bs] = table[wall_rays[0]]
        monkeypatch.setattr(deformation, "_ray_rows", lambda n: table)
        with pytest.raises(DependenceNotUnique, match="dependence at .* is not unique"):
            generic_wallcross_oracle(wall)

    # sha256 of the oracle's repr on every wall, one line per wall in
    # enumerate_walls order.
    ORACLE_DIGESTS = {
        2: "1c201162754a81ca0d23f56cc9ca5cccbf1f388a026410edb6f63a8fb00b2264",
        3: "b6eabb0662f968c9d81c362f4c2cccf8b1dfb18c83bbba59593170f4ede26a6b",
    }

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_reprs_are_pinned(self, n):
        text = "\n".join(repr(generic_wallcross_oracle(w)) for w in enumerate_walls(n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.ORACLE_DIGESTS[n]


class TestCaseClassification:
    def test_once_element_inside_pair(self):
        assert kind_a_case(wall_from("1|13|2|2", 3)) == "iii"

    def test_pair_elements_reappear_same_side(self):
        assert kind_a_case(wall_from("3|12|1|2", 3)) == "i"

    def test_pair_elements_reappear_opposite_sides(self):
        assert kind_a_case(wall_from("1|12|2|3", 3)) == "ii"

    def test_n2_only_has_case_iii(self):
        cases = {kind_a_case(w) for w in enumerate_walls(2) if w.kind == "A"}
        assert cases == {"iii"}


EXPECTED_BIPERM_CASES = {"i": {2}, "ii": {2}, "iii": {4}}
EXPECTED_HARMONIC_CASES = {"i": {1}, "ii": {0}, "iii": {1}}


class TestConeMembership:
    @pytest.mark.parametrize("n", [2, 3])
    def test_biperm_wall_values_by_case(self, n):
        from bipermutahedron.deformation import wall_value_table

        table = wall_value_table(named_support("biperm", n))
        for case in ("i", "ii", "iii"):
            values = set(table.kind_a_values(case))
            if n == 2 and case != "iii":
                assert values == set()
            else:
                assert values == EXPECTED_BIPERM_CASES[case]
        assert table.kind_b_min() == n

    @pytest.mark.parametrize("n", [2, 3])
    def test_harmonic_wall_values_by_case(self, n):
        from bipermutahedron.deformation import wall_value_table

        table = wall_value_table(named_support("harmonic", n))
        for case in ("i", "ii", "iii"):
            values = set(table.kind_a_values(case))
            if n == 2 and case != "iii":
                assert values == set()
            else:
                assert values == EXPECTED_HARMONIC_CASES[case]
        assert set(table.kind_b.keys()) == {Fraction(1)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_biperm_is_ample(self, n):
        verdict = is_ample(named_support("biperm", n))
        assert verdict
        assert verdict.witness_wall is None

    def test_harmonic_is_ample_only_at_n2(self):
        assert is_ample(named_support("harmonic", 2))
        verdict = is_ample(named_support("harmonic", 3))
        assert not verdict
        assert str(verdict.witness_wall) == "A:1|12|2|3"
        assert verdict.witness_value == 0

    def test_harmonic_is_nef_at_n3(self):
        assert is_nef(named_support("harmonic", 3))

    def test_negated_biperm_is_not_nef(self):
        negated = SupportFunction.combine([(-1, named_support("biperm", 2))])
        verdict = is_nef(negated)
        assert not verdict
        assert verdict.witness_value < 0


class TestMinkowskiQuotient:
    @pytest.mark.parametrize("n", [2, 3])
    def test_biperm_over_harmonic_is_two(self, n):
        result = minkowski_quotient(named_support("biperm", n), named_support("harmonic", n))
        assert result.status == "ok"
        assert result.value == 2

    def test_self_quotient_is_one(self):
        biperm = named_support("biperm", 3)
        result = minkowski_quotient(biperm, biperm)
        assert result.status == "ok"
        assert result.value == 1

    def test_harmonic_over_biperm_at_n2(self):
        result = minkowski_quotient(named_support("harmonic", 2), named_support("biperm", 2))
        assert result.status == "ok"
        assert result.value == Fraction(1, 4)
        assert str(result.witness) == "A:1|12"

    def test_harmonic_over_biperm_at_n3_is_not_a_summand(self):
        result = minkowski_quotient(named_support("harmonic", 3), named_support("biperm", 3))
        assert result.status == "not-summand"
        assert result.value == 0
        assert str(result.witness) == "A:1|12|2|3"

    def test_quotient_by_a_point_is_unbounded(self):
        zero = SupportFunction.combine([(0, named_support("biperm", 2))])
        result = minkowski_quotient(named_support("biperm", 2), zero)
        assert result.status == "unbounded"

    def test_numerator_must_be_nef(self):
        negated = SupportFunction.combine([(-1, named_support("biperm", 3))])
        with pytest.raises(ValueError, match="not nef"):
            minkowski_quotient(negated, named_support("harmonic", 3))


class TestSupportCsv:
    def test_round_trip(self):
        harmonic = named_support("harmonic", 3)
        text = format_support_csv(harmonic)
        assert text.splitlines()[0] == "1,2,3;1,2;-5/3"
        assert len(text.splitlines()) == 24
        parsed = parse_support_csv(text, 3)
        assert parsed == harmonic

    def test_empty_table_at_n1(self):
        # n = 1 has no bisubsets: no lines at all, not one blank line.
        h = named_support("biperm", 1)
        assert format_support_csv(h) == ""
        assert parse_support_csv(format_support_csv(h), 1) == h

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n" + format_support_csv(named_support("biperm", 2))
        assert parse_support_csv(text, 2) == named_support("biperm", 2)

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_support_csv("1;2", 2)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            parse_support_csv("1,2;1;not-a-number", 2)

    def test_duplicate_line_rejected(self):
        text = format_support_csv(named_support("biperm", 2))
        first = text.splitlines()[0]
        with pytest.raises(ValueError, match="duplicate"):
            parse_support_csv(text + "\n" + first, 2)

    def test_duplicate_line_is_named_at_n_10(self):
        line = "10;1,2,3,4,5,6,7,8,9,10;0\n"
        with pytest.raises(ValueError) as excinfo:
            parse_support_csv(line + line, 10)
        assert str(excinfo.value) == (
            "line 2: duplicate bisubset 10|1,2,3,4,5,6,7,8,9,10"
        )

    def test_incomplete_table_rejected(self):
        text = "\n".join(format_support_csv(named_support("biperm", 2)).splitlines()[:-1])
        with pytest.raises(ValueError):
            parse_support_csv(text, 2)

    def test_out_of_range_element_rejected(self):
        with pytest.raises(ValueError):
            parse_support_csv("1,5;2;0", 3)

    @pytest.mark.parametrize(
        ("line", "n", "error", "message"),
        [
            (";1,2;0", 2, EmptyPart, "part 1 is empty"),
            ("1,5;2;0", 3, EmptyPart, "part 1 is not a subset of 1..3: [1, 5]"),
            ("1;1;0", 2, ElementMissing, "element 2 appears in no part"),
            ("1,2;1,2;0", 2, NoSingleOccurrence, "every element appears twice"),
        ],
        ids=["empty-part", "out-of-range", "missing-element", "every-element-twice"],
    )
    def test_bisubset_errors_name_their_line(self, line, n, error, message):
        text = format_support_csv(named_support("biperm", n)).splitlines()
        text.insert(2, line)
        with pytest.raises(error) as excinfo:
            parse_support_csv("\n".join(text), n)
        assert isinstance(excinfo.value, ValueError)
        assert str(excinfo.value) == f"line 3: {message}"

    @staticmethod
    def first_value_read(value):
        """The value line 1 of the n = 2 bipermutahedron's file is read as,
        once its value is replaced by ``value``."""
        lines = format_support_csv(named_support("biperm", 2)).splitlines()
        head, _, _ = lines[0].rpartition(";")
        text = "\n".join([f"{head};{value}", *lines[1:]])
        return parse_support_csv(text, 2)[bisubset({1, 2}, {1}, 2)]

    @pytest.mark.parametrize(
        "value",
        [
            "1e100", "-2.5E-3", " +1.e5 ", ".5e+2", "1_0e1_0", "-0e5", "1.5e-4299",
            "2e-4300", "1_2.3_4e-5", "1e5e5", "1.5.e5", "1e", "e5", "1/2e5", "1 e5",
            "1e 5", "1e5_", "_1e5", "1__0e5", "++1e5",
        ],
    )
    def test_exponent_values_read_as_fraction_reads_them(self, value):
        try:
            expected = Fraction(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                self.first_value_read(value)
            assert str(excinfo.value) == f"line 1: {exc}"
        else:
            assert self.first_value_read(value) == expected

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="needs an interpreter with a limit on int conversion",
    )
    def test_plain_values_keep_to_the_digit_limit(self):
        # Each run of digits stays under the limit, which Fraction checks;
        # the numerator they join into reaches it, and then passes it.
        half = sys.get_int_max_str_digits() // 2
        at_limit = "9" * (sys.get_int_max_str_digits() - half) + "." + "9" * half
        assert self.first_value_read(at_limit) == Fraction(at_limit)
        with pytest.raises(ValueError) as excinfo:
            self.first_value_read(at_limit + "9")
        assert str(excinfo.value).startswith(
            "line 1: the value's numerator or denominator exceeds the limit"
        )

    def test_zero_mantissa_builds_no_power_of_ten(self):
        start = time.perf_counter()
        assert self.first_value_read("-0.0e100000000") == 0
        assert time.perf_counter() - start < 1

    def test_no_digit_limit_reads_every_plain_value(self):
        # With no interpreter limit (before Python 3.10.7, or the limit set
        # to 0) a value is read as Fraction reads it.  The limit itself is
        # lifted, since Fraction enforces it too.  Plain digits only: in
        # exponent form, Fraction would build the power of ten first.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert self.first_value_read("9" * 5000) == 10**5000 - 1
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_no_digit_limit_still_bounds_exponent_forms(self, monkeypatch):
        # Where the interpreter sets no limit, an exponent form keeps to the
        # default one, so no value builds a power of ten past it.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        assert self.first_value_read("1e4299") == 10**4299
        with pytest.raises(ValueError) as excinfo:
            self.first_value_read("1e100000")
        assert str(excinfo.value) == (
            "line 1: the value's numerator or denominator exceeds the limit "
            "(4300 digits) for integer string conversion"
        )

    def test_a_side_text_and_a_value_text_are_read_apart(self):
        # "3" is the set {3} in a side field and the number 3 in the value
        # field, on one line.
        lines = format_support_csv(named_support("biperm", 3)).splitlines()
        text = "\n".join("3;1,2,3;3" if x.startswith("3;1,2,3;") else x for x in lines)
        assert parse_support_csv(text, 3)[bisubset({3}, {1, 2, 3}, 3)] == 3

    def test_a_respelled_side_is_still_a_duplicate(self):
        with pytest.raises(ValueError) as excinfo:
            parse_support_csv("1,2;1;0\n2,1;1;0", 2)
        assert str(excinfo.value) == "line 2: duplicate bisubset 12|1"

    def test_a_repeated_bad_value_is_named_at_its_first_line(self):
        lines = format_support_csv(named_support("biperm", 2)).splitlines()
        for i in (1, 4):
            lines[i] = lines[i].rpartition(";")[0] + ";half"
        with pytest.raises(ValueError) as excinfo:
            parse_support_csv("\n".join(lines), 2)
        assert str(excinfo.value) == "line 2: Invalid literal for Fraction: 'half'"

    def test_reordered_and_spaced_fields_read_as_the_canonical_file(self):
        h = named_support("harmonic", 3)
        lines = []
        for line in format_support_csv(h).splitlines():
            s, t, v = (field.split(",") for field in line.split(";"))
            lines.append(f" {', '.join(s[::-1])} ; {' ,'.join(t[::-1])} ; {v[0]} ")
        canonical = parse_support_csv(format_support_csv(h), 3)
        assert parse_support_csv("\n".join(lines), 3) == canonical == h

    def test_each_distinct_text_is_read_once(self, monkeypatch):
        # The harmonic support depends on S|T only through its size pair,
        # so its n = 4 file of 78 lines holds 7 distinct values; its side
        # fields spell the 15 nonempty subsets of {1..4}.
        calls = Counter()
        real_side, real_value = deformation._side, deformation._support_value

        def side(text):
            calls["side"] += 1
            return real_side(text)

        def support_value(text):
            calls["value"] += 1
            return real_value(text)

        monkeypatch.setattr(deformation, "_side", side)
        monkeypatch.setattr(deformation, "_support_value", support_value)
        text = format_support_csv(named_support("harmonic", 4))
        assert parse_support_csv(text, 4) == named_support("harmonic", 4)
        assert len({line.rpartition(";")[2] for line in text.splitlines()}) == 7
        assert calls == {"side": 15, "value": 7}


# ------------------------------------------------------------ compiled table
#
# The queries read a per-n table of distinct inequalities.  The reference
# below is the plain wall walk: every wall's closed-form inequality,
# evaluated in Fractions, in enumerate_walls order.

P61 = 2**61 - 1
TABLE_SIZES = {2: 6, 3: 78, 4: 614}


@cache
def reference_walk(n):
    """[(wall, kind-A case or None, inequality)] for every wall at n."""
    return [
        (wall, kind_a_case(wall) if wall.kind == "A" else None, wall_inequality(wall))
        for wall in enumerate_walls(n)
    ]


def reference_cone_check(values, strict):
    for wall, value in values:
        if value < 0 or (strict and value == 0):
            return False, wall, value
    return True, None, None


def reference_quotient(p_values, q_values):
    best = witness = None
    for (wall, ip), (_, iq) in zip(p_values, q_values):
        if ip < 0:
            raise ValueError(f"P is not nef: wall inequality at {wall} evaluates to {ip}")
        if iq > 0 and (best is None or ip / iq < best):
            best, witness = ip / iq, wall
    if best is None:
        return "unbounded", None, None
    return ("not-summand" if best == 0 else "ok"), best, str(witness)


def reference_value_table(n, values):
    kind_a = {"i": Counter(), "ii": Counter(), "iii": Counter()}
    kind_b = Counter()
    for (_, case, _), (_, value) in zip(reference_walk(n), values):
        (kind_b if case is None else kind_a[case])[value] += 1
    return kind_a, kind_b


def seeded_supports(n, seed):
    """aB + bH with small and 61-bit denominators, plus non-nef supports:
    negated B, and random perturbations of some of the others."""
    rng = random.Random(seed)
    biperm, harmonic = named_support("biperm", n), named_support("harmonic", n)
    out = [
        biperm,
        harmonic,
        SupportFunction.combine([(-1, biperm)]),
        SupportFunction.combine([(0, biperm)]),
    ]
    for k in range(6 if n < 4 else 3):
        den = P61 if k % 2 else rng.randint(1, 12)
        a = Fraction(rng.randint(0, 40), den)
        b = Fraction(rng.randint(0, 40), den)
        h = SupportFunction.combine([(a, biperm), (b, harmonic)])
        out.append(h)
        values = dict(h.values)
        for bs in rng.sample(all_bisubsets(n), 3):
            values[bs] += Fraction(rng.randint(-40, 40), den)
        out.append(SupportFunction(n, values))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_table_holds_the_distinct_inequalities_of_the_walk(n):
    walk = reference_walk(n)
    index = {bs: k for k, bs in enumerate(all_bisubsets(n))}
    keys = [
        (wall.kind, case, tuple(index[b] for b, _ in ineq.plus),
         tuple(index[b] for b, _ in ineq.minus))
        for wall, case, ineq in walk
    ]
    first = {}
    for key, (wall, _, _) in zip(keys, walk):
        first.setdefault(key, wall)
    multiplicity = Counter(keys)
    table = list(_inequality_table(n))
    assert len(table) == TABLE_SIZES[n] == len(first)
    assert [(e.wall.kind, e.case, e.plus, e.minus) for e in table] == list(first)
    assert [e.wall for e in table] == list(first.values())
    assert [e.walls for e in table] == [multiplicity[key] for key in first]
    assert sum(e.walls for e in table) == WALL_COUNTS[n]


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_terms_and_tree_edges_are_the_split_tables_objects(n):
    table = _split_table(n)

    def shared(bs):
        return bs is table[_mask(bs.left), _mask(bs.right)]

    for wall in enumerate_walls(n):
        ineq = wall_inequality(wall)
        assert all(shared(bs) for bs, _ in ineq.plus + ineq.minus)
        if wall.kind == "B":
            tree = wall_tree(wall)
            assert all(map(shared, tree.edges + tree.spine))


def test_the_walk_decodes_each_wall_once(monkeypatch):
    # Each inequality, case, tree, refinement and oracle reads the wall's
    # one decode: the pair parts of a kind-A wall and the doubled word of a
    # kind-B wall, both once-elements doubled.  Every doubled_word call is
    # counted, so the refinements' chambers decode nothing of their own.
    calls = Counter()
    real_parts, real_word = deformation._kind_a_parts, deformation.doubled_word

    def kind_a_parts(seq):
        calls["A"] += 1
        return real_parts(seq)

    def doubled_word(letters, doubled):
        calls["B"] += 1
        return real_word(letters, doubled)

    monkeypatch.setattr(deformation, "_kind_a_parts", kind_a_parts)
    monkeypatch.setattr(deformation, "doubled_word", doubled_word)
    for n, counts in ((3, {"A": 144, "B": 36}), (4, {"A": 6480, "B": 1080})):
        calls.clear()
        assert list(deformation.inequality_table_check(n)) == []
        assert calls == Counter(wall.kind for wall in enumerate_walls(n))
        assert calls == counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_runs_largest_pin_gives_its_least_letters(n):
    # The pinned letters of a run (U, B) are U - p ascending, p, B - p
    # ascending; the generator takes p = max(U & B) for the least of them.
    # The even numbers up to full are the nonempty subsets of {1..n}.
    full = sum(1 << e for e in range(1, n + 1))
    for u, b in product(range(2, full + 1, 2), repeat=2):
        if not u & b:
            continue
        ulist, blist = _elements(u), _elements(b)
        least = min(
            tuple(e for e in ulist if e != p) + (p,) + tuple(e for e in blist if e != p)
            for p in _elements(u & b)
        )
        assert deformation._kind_b_run(u, b)[1] == least


def clear_tables():
    deformation._kind_a_entries.cache_clear()
    deformation._kind_b_entries.cache_clear()
    deformation._group_by_size.cache_clear()


def test_queries_never_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise RuntimeError("walls were walked")

    walkers = ("enumerate_walls", "enumerate_wall_bisequences", "wall_inequality", "wall_tree")
    for name in walkers:
        monkeypatch.setattr(deformation, name, walk)
    clear_tables()
    try:
        verdict = is_ample(named_support("harmonic", 4))
        assert str(verdict.witness_wall) == "A:1|1|2|23|3|4"
        assert verdict.witness_value == 0
        for n in (2, 3, 4):
            biperm, harmonic = named_support("biperm", n), named_support("harmonic", n)
            assert is_nef(biperm) and is_ample(biperm) and is_nef(harmonic)
            assert sum(wall_value_table(harmonic).kind_b.values()) > 0
            assert minkowski_quotient(biperm, harmonic).value == 2
    finally:
        clear_tables()


def test_n5_table_is_generated_without_walking(monkeypatch):
    def walk(*args, **kwargs):
        raise RuntimeError("walls were walked")

    monkeypatch.setattr(deformation, "enumerate_walls", walk)
    monkeypatch.setattr(deformation, "enumerate_wall_bisequences", walk)
    table = list(_inequality_table(5))
    kinds = Counter(e.wall.kind for e in table)
    assert kinds == {"A": 2120, "B": 3450}
    assert sum(e.walls for e in table) == multigraph_count(9, 5) == 453_600
    index = {bs: k for k, bs in enumerate(all_bisubsets(5))}
    for e in table:
        ineq = wall_inequality(e.wall)
        assert e.case == (kind_a_case(e.wall) if e.wall.kind == "A" else None)
        assert tuple(index[b] for b, _ in ineq.plus) == e.plus
        assert tuple(index[b] for b, _ in ineq.minus) == e.minus


@pytest.mark.parametrize("n", [2, 3, 4])
def test_table_queries_match_the_wall_walk(n):
    walk = reference_walk(n)
    supports = seeded_supports(n, seed=n)
    values = [[(wall, ineq.evaluate(h)) for wall, _, ineq in walk] for h in supports]
    harmonic = named_support("harmonic", n)
    harmonic_values = values[1]
    rng = random.Random(100 + n)
    verdicts = Counter()
    for h, h_values in zip(supports, values):
        for strict, query in ((False, is_nef), (True, is_ample)):
            verdict = query(h)
            expected = reference_cone_check(h_values, strict)
            assert (verdict.passed, verdict.witness_wall, verdict.witness_value) == expected
            verdicts[strict, verdict.passed] += 1
        kind_a, kind_b = reference_value_table(n, h_values)
        table = wall_value_table(h)
        assert table.kind_a == kind_a and table.kind_b == kind_b
        assert [list(c.items()) for c in table.kind_a.values()] == [
            list(c.items()) for c in kind_a.values()
        ]
        assert list(table.kind_b.items()) == list(kind_b.items())
        other = rng.randrange(len(supports))
        for q, q_values in ((harmonic, harmonic_values), (supports[other], values[other])):
            try:
                expected = reference_quotient(h_values, q_values)
            except ValueError as exc:
                with pytest.raises(ValueError) as excinfo:
                    minkowski_quotient(h, q)
                assert str(excinfo.value) == str(exc)
                verdicts["not nef"] += 1
                continue
            result = minkowski_quotient(h, q)
            assert (result.status, result.value, result.witness) == expected
            verdicts[result.status] += 1
    # Both verdicts, both kinds of witness and every quotient status occur.
    assert verdicts[False, False] and verdicts[False, True]
    assert verdicts[True, False] and verdicts[True, True]
    assert verdicts["not nef"] and verdicts["ok"] and verdicts["unbounded"]


# ---------------------------------------------------------------- size classes
#
# A support that reads S|T only through (|S - T|, |T - S|) is evaluated once
# per size class.  The table route, forced by making every support look
# asymmetric, is the reference.

CLASS_COUNTS = {2: 3, 3: 16, 4: 40, 5: 88}


def size_pair(bs):
    return len(bs.left - bs.right), len(bs.right - bs.left)


def symmetric_supports(n, seed):
    """biperm, harmonic, an aB + bH grid (a = 0 and negative b among it) and
    seeded supports with one random value per size pair, read back from
    their CSV, with small and with 61-bit denominators."""
    biperm, harmonic = named_support("biperm", n), named_support("harmonic", n)
    out = [biperm, harmonic]
    for a, b in product((0, Fraction(3, 2)), (Fraction(-1, 3), 0, 2)):
        out.append(SupportFunction.combine([(a, biperm), (b, harmonic)]))
    rng = random.Random(seed)
    for den in (12, P61):
        by_pair = {}
        values = {
            bs: by_pair.setdefault(
                size_pair(bs), Fraction(rng.randint(-9 * den, 9 * den), den)
            )
            for bs in all_bisubsets(n)
        }
        out.append(parse_support_csv(format_support_csv(SupportFunction(n, values)), n))
    return out


def outcome(query, *args):
    """A query's result with its repr, or the type and message it raised."""
    try:
        result = query(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return result, repr(result)


def query_outcomes(supports, pairs):
    queries = (is_nef, is_ample, wall_value_table)
    out = [outcome(query, h) for h in supports for query in queries]
    return out + [outcome(minkowski_quotient, p, q) for p, q in pairs]


def by_both_routes(monkeypatch, supports, pairs):
    """query_outcomes by the size classes and by the forced table route."""
    by_classes = query_outcomes(supports, pairs)
    with monkeypatch.context() as patch:
        patch.setattr(deformation, "_symmetric", lambda v, n: False)
        by_table = query_outcomes(supports, pairs)
    return by_classes, by_table


def takes_class_route(h):
    steps, _ = deformation._scaled_walk(h)
    return steps.__name__ == "_size_classes"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_route_matches_the_table_route(monkeypatch, n):
    supports = symmetric_supports(n, seed=40 + n)
    assert all(takes_class_route(h) for h in supports)
    biperm, harmonic, seeded = supports[0], supports[1], supports[-1]
    pairs = [(p, q) for p in supports for q in (harmonic, biperm, seeded)]
    by_classes, by_table = by_both_routes(monkeypatch, supports, pairs)
    assert by_classes == by_table
    statuses = Counter(
        result.status if isinstance(result, deformation.QuotientResult) else result
        for result, _ in by_classes[3 * len(supports):]
    )
    if n == 1:
        assert set(statuses) == {"unbounded"}
    else:
        assert statuses["ok"] and statuses["not-summand"] and statuses[ValueError]
        assert any(
            message.startswith("P is not nef: wall inequality at ")
            for result, message in by_classes if result is ValueError
        )
        verdicts = {
            (r.passed, r.witness_value == 0)
            for r, _ in by_classes
            if isinstance(r, deformation.NefVerdict)
        }
        assert verdicts == {(True, False), (False, True), (False, False)}


def test_class_route_matches_the_table_route_at_n6_on_the_named_supports(monkeypatch):
    n = 6
    biperm, harmonic = named_support("biperm", n), named_support("harmonic", n)
    pairs = [(biperm, harmonic), (harmonic, biperm)]
    by_classes, by_table = by_both_routes(monkeypatch, [biperm, harmonic], pairs)
    assert by_classes == by_table
    assert [result.status for result, _ in by_classes[-2:]] == ["ok", "not-summand"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_value_off_symmetric_takes_the_table_route(monkeypatch, n):
    # The last bisubset's size pair has an earlier bisubset, so a class
    # route that kept the first value it saw per pair would not see the
    # change.
    supports = []
    last = all_bisubsets(n)[-1]
    assert size_pair(last) in {size_pair(bs) for bs in all_bisubsets(n)[:-1]}
    for name in ("biperm", "harmonic"):
        values = dict(named_support(name, n).values)
        values[last] -= 100
        supports.append(SupportFunction(n, values))
    assert not any(takes_class_route(h) for h in supports)
    biperm = named_support("biperm", n)
    pairs = [(biperm, h) for h in supports] + [(h, biperm) for h in supports]
    by_classes, by_table = by_both_routes(monkeypatch, supports, pairs)
    assert by_classes == by_table
    assert not any(result for result, _ in by_classes[:6:3])
    if n <= 3:
        walk = reference_walk(n)
        for h, (verdict, _) in zip(supports, by_classes[::3]):
            values = [(wall, ineq.evaluate(h)) for wall, _, ineq in walk]
            expected = reference_cone_check(values, strict=False)
            assert (verdict.passed, verdict.witness_wall, verdict.witness_value) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_size_classes_partition_the_table(n):
    # Grouped here by size pairs alone: the case in the class key adds no
    # class, and every group is case-pure.
    order = all_bisubsets(n)
    table = list(_inequality_table(n))
    groups = {}
    for k, entry in enumerate(table):
        key = tuple(
            tuple(sorted(size_pair(order[i]) for i in terms))
            for terms in (entry.plus, entry.minus)
        )
        groups.setdefault(key, []).append(k)
    # Each class is its group's first entry, terms and case included, with
    # the group's summed wall count.
    classes = list(deformation._size_classes(n))
    assert len(classes) == len(groups) == CLASS_COUNTS[n]
    assert classes == [
        dataclasses.replace(table[members[0]], walls=sum(table[k].walls for k in members))
        for members in groups.values()
    ]
    for cls, members in zip(classes, groups.values()):
        assert {table[k].case for k in members} == {cls.case}
    assert sum(cls.walls for cls in classes) == f_vector_formula(n)[-2]


def test_entries_of_two_cases_never_share_a_class():
    first = next(_inequality_table(3))
    twin = dataclasses.replace(first, case="i" if first.case != "i" else "ii")
    classes = deformation._group_by_size(lambda n: (first, twin), 3)
    assert classes == (first, twin)


@pytest.mark.parametrize(
    ("p_n", "q_n"), [(3, 4), (4, 3)], ids=["quotient-p", "quotient-q"]
)
def test_support_for_another_n_is_a_value_error(p_n, q_n):
    # A query reads n off its supports, so only two supports can disagree.
    with pytest.raises(ValueError, match=f"n = {q_n}, expected n = {p_n}"):
        minkowski_quotient(named_support("biperm", p_n), named_support("harmonic", q_n))
