"""End-to-end tests for the command line interface."""

import argparse
import dataclasses
import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from bipermutahedron import (
    cli,
    combinatorics,
    deformation,
    geometry,
    invariants,
    polynomials,
    triangulation,
)
from bipermutahedron.cli import main
from bipermutahedron.deformation import (
    QuotientResult,
    WallInequality,
    format_support_csv,
    named_support,
    parse_support_csv,
)
from bipermutahedron.geometry import SupportFunction, biperm_support


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_catching_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonOutput:
    def test_bieulerian_frozen(self, capsys):
        code, out, _ = run_cli(capsys, "bieulerian", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[:2] == ["version", "seed"]
        assert payload["version"] == "0.1.0"
        assert payload["seed"] is None
        assert payload["coeffs"] == ["1", "72", "603", "1168", "603", "72", "1"]

    def test_fvector_polytope_frozen(self, capsys):
        code, out, _ = run_cli(capsys, "fvector", "--n", "4", "--object", "polytope")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == [
            "1",
            "2520",
            "7560",
            "8460",
            "4320",
            "978",
            "78",
            "1",
        ]

    def test_fvector_methods_agree(self, capsys):
        outputs = []
        for method in ("formula", "bruteforce"):
            code, out, _ = run_cli(capsys, "fvector", "--n", "3", "--method", method)
            assert code == 0
            outputs.append(json.loads(out)["coeffs"])
        assert outputs[0] == outputs[1] == ["1", "24", "114", "180", "90"]

    def test_hvector_matches_bieulerian(self, capsys):
        _, h_out, _ = run_cli(capsys, "hvector", "--n", "3")
        _, b_out, _ = run_cli(capsys, "bieulerian", "--n", "3")
        assert json.loads(h_out)["coeffs"] == json.loads(b_out)["coeffs"]

    def test_output_is_deterministic(self, capsys):
        first = run_cli(capsys, "walls", "--n", "3")
        second = run_cli(capsys, "walls", "--n", "3")
        assert first == second

    def test_seed_is_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--n", "2", "--suite", "triangulation", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert payload["passed"] is True
        assert payload["volumes"] == {"2": "6"}


class TestTextAndCsvOutput:
    def test_header_line(self, capsys):
        _, out, _ = run_cli(capsys, "fvector", "--n", "2", "--format", "text")
        lines = out.splitlines()
        assert lines[0] == "# bipermutahedron 0.1.0 seed=none"
        assert lines[1] == "1,6,6"

    def test_quotient_text_value(self, capsys):
        code, out, _ = run_cli(capsys, "quotient", "--n", "3", "--format", "text")
        assert code == 0
        assert out.splitlines()[1] == "2"

    def test_walls_csv_frozen(self, capsys):
        _, out, _ = run_cli(capsys, "walls", "--n", "2", "--format", "csv")
        assert out.splitlines()[1:] == [
            "A 1|12",
            "A 12|1",
            "A 12|2",
            "A 2|12",
            "B 1|2",
            "B 2|1",
        ]

    def test_walls_kind_filter(self, capsys):
        _, out, _ = run_cli(capsys, "walls", "--n", "2", "--format", "csv", "--kind", "B")
        assert out.splitlines()[1:] == ["B 1|2", "B 2|1"]

    def test_vertices_text_frozen_first_line(self, capsys):
        _, out, _ = run_cli(capsys, "vertices", "--n", "2", "--format", "text")
        assert out.splitlines()[1] == "1|1|2 top=-3,3 bottom=1,-1"

    def test_vertices_json_frozen(self, capsys):
        _, out, _ = run_cli(capsys, "vertices", "--n", "2", "--format", "json")
        data = json.loads(out)
        assert data["n"] == 2 and len(data["vertices"]) == 6
        # vertex coordinates are plain integers, top entries then bottom ones
        assert data["vertices"][0] == {"biperm": "1|1|2", "top": [-3, 3], "bottom": [1, -1]}

    def test_facets_csv_frozen(self, capsys):
        _, out, _ = run_cli(capsys, "facets", "--n", "2", "--format", "csv")
        assert out.splitlines()[1:] == [
            "1,2;1;-3",
            "1;1,2;-3",
            "1,2;2;-3",
            "1;2;-4",
            "2;1,2;-3",
            "2;1;-4",
        ]

    def test_facets_json_frozen(self, capsys):
        _, out, _ = run_cli(capsys, "facets", "--n", "2", "--format", "json")
        data = json.loads(out)
        assert data["n"] == 2 and len(data["facets"]) == 6
        # right-hand sides are decimal strings, set members plain integers
        assert data["facets"][0] == {"S": [1, 2], "T": [1], "rhs": "-3"}


class TestCoefficientReports:
    """The full JSON reports, key order included, and the text line of the
    coefficient reports."""

    CASES = [
        (
            ["fvector", "--n", "3"],
            {"n": 3, "object": "fan", "method": "formula"},
            "1,24,114,180,90",
        ),
        (
            ["fvector", "--n", "3", "--object", "polytope", "--method", "bruteforce"],
            {"n": 3, "object": "polytope", "method": "bruteforce"},
            "1,90,180,114,24,1",
        ),
        (["hvector", "--n", "3"], {"n": 3, "method": "formula"}, "1,20,48,20,1"),
        (["bieulerian", "--n", "3"], {"n": 3, "method": "all"}, "1,20,48,20,1"),
        (
            ["bieulerian", "--n", "3", "--method", "descents"],
            {"n": 3, "method": "descents"},
            "1,20,48,20,1",
        ),
    ]
    IDS = [
        "fvector-fan",
        "fvector-polytope-bruteforce",
        "hvector",
        "bieulerian-all",
        "bieulerian-descents",
    ]

    @pytest.mark.parametrize(("argv", "fields", "line"), CASES, ids=IDS)
    def test_json_report(self, capsys, argv, fields, line):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        expected = {"version": "0.1.0", "seed": None, **fields}
        expected["coeffs"] = line.split(",")
        assert list(json.loads(out).items()) == list(expected.items())

    @pytest.mark.parametrize(("argv", "fields", "line"), CASES, ids=IDS)
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_line(self, capsys, argv, fields, line, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == f"# bipermutahedron 0.1.0 seed=none\n{line}\n"

    def test_bieulerian_route_disagreement_is_exit_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._BIEULERIAN_ROUTES, "hfromf", lambda n: polynomials.IntPolynomial((1, 5))
        )
        code, out, err = run_cli(capsys, "bieulerian", "--n", "2", "--method", "all")
        assert (code, out) == (1, "")
        assert err == (
            "route disagreement: the descent, h-from-f, and Ehrhart routes must "
            "all produce the same biEulerian polynomial, got descents=[1, 4, 1]; "
            "hfromf=[1, 5]; ehrhart=[1, 4, 1]\n"
        )


class TestExitCodes:
    def test_ample_failure_is_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "nef-check", "--n", "3", "--support", "harmonic", "--ample"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["witness"] == {"wall": "A:1|12|2|3", "value": "0"}
        assert "A:1|12|2|3" in err

    def test_nef_passes_where_ample_fails(self, capsys):
        code, out, _ = run_cli(capsys, "nef-check", "--n", "3", "--support", "harmonic")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_not_summand_is_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "quotient", "--n", "3", "--p", "harmonic", "--q", "biperm"
        )
        assert code == 1
        assert json.loads(out)["status"] == "not-summand"
        assert "summand" in err

    def test_missing_seed_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "--n", "2", "--suite", "all")
        assert code == 2
        assert "seed" in err

    def test_missing_support_file_is_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "nef-check", "--n", "2", "--support", "/no/such/file.csv"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_support_file_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1;2\n")
        code, _, err = run_cli(capsys, "nef-check", "--n", "2", "--support", str(path))
        assert code == 2
        assert "line 1" in err

    def test_support_file_bisubset_error_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(";1,2;0\n")
        code, out, err = run_cli(capsys, "nef-check", "--n", "2", "--support", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 1: part 1 is empty\n"

    def test_support_file_zero_denominator_names_its_value(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("1,2;1;1/0\n")
        code, out, err = run_cli(capsys, "nef-check", "--n", "2", "--support", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 1: the value '1/0' has a zero denominator\n"

    def test_negative_samples_are_exit_two(self, capsys):
        code, out, err = run_catching_exit(
            capsys, ["check", "--n", "2", "--samples", "-1", "--seed", "1"]
        )
        assert (code, out) == (2, "")
        assert "must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fvector", "--n", "0"],
            ["fvector", "--n", "two"],
            ["fvector", "--n", "2", "--object", "cube"],
            ["fvector", "--n", "2", "--format", "yaml"],
            ["no-such-command", "--n", "2"],
        ],
    )
    def test_argparse_rejections_are_exit_two(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestSupportFiles:
    def test_named_and_file_supports_agree(self, capsys, tmp_path):
        path = tmp_path / "harmonic.csv"
        path.write_text(format_support_csv(named_support("harmonic", 3)))
        code, out, _ = run_cli(
            capsys, "quotient", "--n", "3", "--p", "biperm", "--q", str(path)
        )
        assert code == 0
        assert json.loads(out)["value"] == "2"

    def test_facet_csv_output_round_trips_as_support(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "facets", "--n", "2", "--format", "csv")
        path = tmp_path / "facets.csv"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "nef-check", "--n", "2", "--support", str(path), "--ample"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        ("support", "argv"),
        [
            ("biperm", ["nef-check", "--support"]),
            ("harmonic", ["nef-check", "--ample", "--support"]),
            ("biperm", ["quotient", "--p"]),
            ("harmonic", ["quotient", "--q", "biperm", "--p"]),
            ("bad", ["nef-check", "--support"]),
        ],
        ids=["nef", "ample-fails", "quotient", "not-summand", "malformed"],
    )
    def test_a_leading_byte_order_mark_is_ignored(self, capsys, tmp_path, support, argv):
        # Spreadsheet "CSV UTF-8" exports begin with one.
        if support == "bad":
            text = "1,2,3;1;0\n1,2,3;2;half\n"
        else:
            text = format_support_csv(named_support(support, 3))
        path = tmp_path / "support.csv"
        runs = []
        for mark in ("", "\ufeff"):
            path.write_text(mark + text, encoding="utf-8")
            runs.append(run_cli(capsys, *argv, str(path), "--n", "3"))
        assert runs[0] == runs[1]
        assert runs[0][0] == {"biperm": 0, "harmonic": 1, "bad": 2}[support]

    def test_a_third_named_support_needs_one_table_entry(self, capsys, monkeypatch):
        def doubled_biperm(bs):
            return 2 * biperm_support(bs)

        monkeypatch.setitem(deformation._NAMED_SUPPORTS, "double", doubled_biperm)
        try:
            code, out, _ = run_cli(capsys, "nef-check", "--n", "3", "--support", "double")
            assert code == 0
            assert json.loads(out)["passed"] is True
            code, out, _ = run_cli(capsys, "quotient", "--n", "3", "--p", "double")
            assert code == 0
            assert json.loads(out)["value"] == "4"
        finally:
            # named_support keeps what it built: "double" leaves with its name.
            deformation.named_support.cache_clear()


def write_support_with_value(value):
    """Write support.csv, the n = 2 bipermutahedron's support file with its
    first value replaced, to the working directory."""
    lines = format_support_csv(named_support("biperm", 2)).splitlines()
    head, _, _ = lines[0].rpartition(";")
    Path("support.csv").write_text("\n".join([f"{head};{value}", *lines[1:]]) + "\n")


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the interpreter's default 4300-digit limit on int conversion",
)
class TestSupportValueDigitLimit:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("value", ["1e100000000", "1e4300", "-1e4300", "1e-4300"])
    def test_exponent_past_the_limit_is_refused_at_once(self, capsys, value):
        write_support_with_value(value)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "nef-check", "--n", "2", "--support", "support.csv")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1: the value's numerator or denominator exceeds the "
            "limit (4300 digits) for integer string conversion\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["nef-check", "--n", "2", "--support", "support.csv"],
            ["quotient", "--n", "2", "--p", "biperm", "--q", "support.csv"],
        ],
        ids=["nef-check", "quotient"],
    )
    def test_plain_digits_past_the_limit_are_refused_with_their_line(
        self, capsys, argv
    ):
        # 6,000 digits, though no run of them passes the limit on its own.
        write_support_with_value("1" * 3000 + "." + "1" * 3000)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1: the value's numerator or denominator exceeds the "
            "limit (4300 digits) for integer string conversion\n"
        )

    # Exit code and sha256 of stdout + NUL + stderr of nef-check on the file.
    @pytest.mark.parametrize(
        ("value", "code", "digest"),
        [
            ("1e100", 1, "715bcfb052bc0b6500469791973cd8ee240139a873d8290964247b5e3e258390"),
            ("1e4299", 1, "f10797ca036a49bd5817eca22855b0cdde8203af640cde134ddb648fdffe638b"),
        ],
        ids=["1e100", "1e4299"],
    )
    def test_exponent_within_the_limit_is_read(self, capsys, value, code, digest):
        write_support_with_value(value)
        got, out, err = run_cli(capsys, "nef-check", "--n", "2", "--support", "support.csv")
        assert (got, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()) == (code, digest)


class TestCheckSuites:
    @pytest.mark.parametrize(
        ("suite", "n"),
        [
            pytest.param(suite, n, id=suite if n == 2 else f"{suite}-n{n}")
            for n in (2, 1)
            for suite in ("combinatorics", "invariants", "geometry", "deformation")
        ],
    )
    def test_deterministic_suites_pass(self, capsys, suite, n):
        code, out, _ = run_cli(capsys, "check", "--n", str(n), "--suite", suite)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["failures"] == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_all_suites_with_seed(self, capsys, n):
        code, out, _ = run_cli(
            capsys, "check", "--n", str(n), "--suite", "all", "--seed", "11", "--samples", "50"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_deformation_suite_compares_the_generated_table_with_the_walk(
        self, capsys, monkeypatch
    ):
        generated = deformation._inequality_table

        def one_short(n):
            yield from list(generated(n))[:-1]

        monkeypatch.setattr(deformation, "_inequality_table", one_short)
        code, out, _ = run_cli(
            capsys, "check", "--n", "2", "--suite", "deformation", "--format", "text"
        )
        assert code == 1
        assert "the generated wall inequalities differ from the wall walk" in out

    def test_invariants_suite_counts_the_faces_as_bisequences(self, capsys, monkeypatch):
        enumerate_all = cli.enumerate_bisequences

        def one_short(n):
            yield from list(enumerate_all(n))[:-1]

        monkeypatch.setattr(cli, "enumerate_bisequences", one_short)
        code, out, _ = run_cli(capsys, "check", "--n", "3", "--suite", "invariants")
        assert code == 1
        assert json.loads(out)["failures"] == [
            f"invariants: bisequence counts by number of parts differ from the "
            f"f-vector at n={m}"
            for m in (1, 2, 3)
        ]

    def test_invariants_suite_round_trips_each_face_through_its_multigraph(
        self, capsys, monkeypatch
    ):
        to_multigraph = cli.bisequence_to_multigraph

        def first_two_edges_swapped(seq):
            graph = to_multigraph(seq)
            return combinatorics.Multigraph(graph.d, graph.edges[1::-1] + graph.edges[2:])

        monkeypatch.setattr(cli, "bisequence_to_multigraph", first_two_edges_swapped)
        code, out, _ = run_cli(capsys, "check", "--n", "3", "--suite", "invariants")
        assert code == 1
        assert json.loads(out)["failures"] == [
            f"invariants: a bisequence does not survive the multigraph round trip at n={m}"
            for m in (2, 3)
        ]

    def test_deformation_suite_compares_segment_values_with_the_closed_form(
        self, capsys, monkeypatch
    ):
        by_segments = deformation.updown_value_by_segments
        monkeypatch.setattr(
            deformation, "updown_value_by_segments", lambda wall: by_segments(wall) + 1
        )
        code, out, _ = run_cli(capsys, "check", "--n", "3", "--suite", "deformation")
        assert code == 1
        assert json.loads(out)["failures"] == [
            "deformation: segment value differs from the closed form at B:1|1|2|3"
        ]

    def test_deformation_suite_walks_the_walls_once(self, capsys, monkeypatch):
        calls = Counter()

        def counting(name):
            # Counted under every module that holds the function, as the
            # benchmark's tracer counts it.
            inner = getattr(deformation, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            for module in (cli, deformation):
                if getattr(module, name, None) is inner:
                    monkeypatch.setattr(module, name, wrapper)

        counting("wall_inequality")
        counting("enumerate_walls")
        code, _, _ = run_cli(capsys, "check", "--n", "3", "--suite", "deformation")
        assert code == 0
        assert calls == {"wall_inequality": 180, "enumerate_walls": 1}


def one_short(real):
    return lambda *args: list(real(*args))[:-1]


def failing_report(real):
    return lambda *args: dataclasses.replace(real(*args), passed=False)


def answers(value):
    return lambda real: lambda *args: value


def biperm_table(**changes):
    """wall_value_table, with ``changes`` made to the bipermutahedron's."""

    def stub(real):
        def table(h):
            if h == named_support("biperm", h.n):
                return dataclasses.replace(real(h), **changes)
            return real(h)

        return table

    return stub


def harmonic_kind_b(real):
    def table(h):
        if h == named_support("harmonic", h.n):
            return dataclasses.replace(real(h), kind_b=Counter({Fraction(2): 1}))
        return real(h)

    return table


def reversed_oracle(real):
    def oracle(wall):
        ineq = real(wall)
        return WallInequality(ineq.minus, ineq.plus)

    return oracle


def repeated_first_letter(real):
    # The decode is a cached property: the stub replaces it by a property
    # on the class, which wins over any value cached on an instance.
    def word(wall):
        built = real.func(wall)
        return built[:1] + built[:-1]

    return property(word)


class ForgetfulQueue(deque):
    """A breadth-first queue that drops every vertex appended to it."""

    def append(self, item):
        pass


def shifted_rays(real):
    return lambda n: {bs: (row[0] + 1, *row[1:]) for bs, row in real(n).items()}


def doubled_coefficients(real):
    def inequality(wall):
        ineq = real(wall)
        return WallInequality(
            *(tuple((bs, 2 * c) for bs, c in side) for side in (ineq.plus, ineq.minus))
        )

    return inequality


def one_wall_more_in_the_first_class(real):
    def classes(n):
        first, *rest = real(n)
        return (dataclasses.replace(first, walls=first.walls + 1), *rest)

    return classes


def with_case_ii(value):
    kind_a = {"i": Counter({2: 1}), "ii": Counter({value: 1}), "iii": Counter({4: 1})}
    return biperm_table(kind_a=kind_a)


def wrong_first_label(real):
    """classify_wall_normal with the first wall's type changed, so that only
    the two routes of hyperplane_face_counts disagree."""
    calls = []

    def classify(normal):
        calls.append(normal)
        kind, signature = real(normal)
        return (kind % 4 + 1 if len(calls) == 1 else kind), signature

    return classify


def each_n(message, ns):
    return [message.format(m=m) for m in ns]


# One planted defect per check leg and per guard of the deformation walk:
# (suite, n, owner, attribute, stub made from the real attribute, the exact
# failures reported).
PLANTED_DEFECTS = [
    pytest.param(
        "combinatorics", 2, cli, "enumerate_bipermutations", one_short,
        [
            "combinatorics: bipermutation count at n=1 differs from (2n)!/2^n",
            "combinatorics: descent histogram at n=1 differs from per-word descents",
            "combinatorics: bipermutation count at n=2 differs from (2n)!/2^n",
            "combinatorics: descent histogram at n=2 differs from per-word descents",
        ],
        id="combinatorics-count",
    ),
    pytest.param(
        "combinatorics", 2, cli, "count_bipermutations_recursively", answers(0),
        each_n("combinatorics: recursive count at n={m} differs from (2n)!/2^n", (1, 2)),
        id="combinatorics-recursive",
    ),
    pytest.param(
        "combinatorics", 2, cli, "descents", answers(0),
        ["combinatorics: descent histogram at n=2 differs from per-word descents"],
        id="combinatorics-histogram",
    ),
    pytest.param(
        "combinatorics", 2, cli, "bieulerian_by_descents",
        answers(polynomials.IntPolynomial((1, 2))),
        [
            "combinatorics: descent histogram at n=1 differs from per-word descents",
            "combinatorics: descent histogram at n=1 is not palindromic",
            "combinatorics: descent histogram at n=2 differs from per-word descents",
            "combinatorics: descent histogram at n=2 is not palindromic",
        ],
        id="combinatorics-palindrome",
    ),
    pytest.param(
        "invariants", 2, cli, "f_vector_bruteforce", answers([0]),
        each_n("invariants: f-vector formula and brute force differ at n={m}", (1, 2)),
        id="invariants-fvector",
    ),
    pytest.param(
        "invariants", 2, cli, "bieulerian_by_ehrhart",
        answers(polynomials.IntPolynomial((2,))),
        each_n("invariants: biEulerian routes disagree at n={m}", (1, 2)),
        id="invariants-routes",
    ),
    pytest.param(
        "invariants", 2, cli, "bipermutation_count", answers(0),
        each_n("invariants: B_n(1) differs from (2n)!/2^n at n={m}", (1, 2)),
        id="invariants-value-at-one",
    ),
    pytest.param(
        "invariants", 2, cli, "real_root_check", answers("not real-rooted"),
        each_n("invariants: B_n fails the real-rootedness certificate at n={m}", (1, 2)),
        id="invariants-real-roots",
    ),
    pytest.param(
        "invariants", 2, polynomials.IntPolynomial, "is_unimodal", answers(False),
        each_n("invariants: B_n fails log-concavity/unimodality at n={m}", (1, 2)),
        id="invariants-unimodal",
    ),
    pytest.param(
        "invariants", 2, cli, "sweep_orientation_check", failing_report,
        each_n("invariants: sweep indegrees differ from descents at n={m}", (1, 2)),
        id="invariants-sweep",
    ),
    pytest.param(
        "invariants", 2, cli, "f_generating_check", answers(False),
        ["invariants: generating-function coefficients differ from the f-vector"],
        id="invariants-generating-function",
    ),
    pytest.param(
        "geometry", 3, cli, "facet_check", failing_report,
        each_n("geometry: facet pairing bound fails at n={m}", (1, 2, 3)),
        id="geometry-facets",
    ),
    pytest.param(
        "geometry", 3, cli, "symmetry_checks",
        lambda real: lambda m: dataclasses.replace(real(m), rays_swap_invariant=False),
        each_n("geometry: relabeling/swap symmetry fails at n={m}", (1, 2, 3)),
        id="geometry-symmetry",
    ),
    pytest.param(
        "geometry", 3, cli, "symmetry_checks",
        lambda real: lambda m: dataclasses.replace(real(m), negation_is_automorphism=True),
        ["geometry: negation unexpectedly preserves the fan at n=3"],
        id="geometry-negation",
    ),
    pytest.param(
        "geometry", 3, geometry, "classify_wall_normal", wrong_first_label,
        ["geometry: hyperplane face counts differ from the closed forms"],
        id="geometry-hyperplane-routes",
    ),
    pytest.param(
        "geometry", 3, cli, "hyperplane_face_counts", answers(SimpleNamespace(passed=False)),
        ["geometry: hyperplane face counts differ from the closed forms"],
        id="geometry-hyperplanes",
    ),
    pytest.param(
        "triangulation", 2, cli, "pi1_lattice_check", answers(False),
        ["triangulation: projection does not identify the two sublattices"],
        id="triangulation-lattice",
    ),
    pytest.param(
        "triangulation", 2, cli, "unimodularity_check", answers(False),
        ["triangulation: some simplex has determinant other than +-1"],
        id="triangulation-unimodular",
    ),
    pytest.param(
        "triangulation", 2, cli, "cover_check",
        lambda real: lambda *args: dataclasses.replace(
            real(*args), passed=False, failures=("p1", "p2", "p3", "p4")
        ),
        ["triangulation: a sampled point received a negative barycentric "
         "coefficient: p1; p2; p3"],
        id="triangulation-cover",
    ),
    pytest.param(
        "triangulation", 2, cli, "face_to_face_check", failing_report,
        ["triangulation: two simplices fail to meet along a common face"],
        id="triangulation-face-to-face",
    ),
    pytest.param(
        "triangulation", 2, cli, "hstar_consistency", answers(False),
        ["triangulation: triangulation h-vector differs from the Ehrhart route"],
        id="triangulation-hstar",
    ),
    pytest.param(
        "deformation", 3, deformation, "generic_wallcross_oracle", reversed_oracle,
        ["deformation: closed-form inequality differs from the oracle at A:1|1|2|23"],
        id="deformation-oracle",
    ),
    pytest.param(
        "deformation", 3, cli, "wall_value_table", with_case_ii(3),
        ["deformation: kind-A case ii values for the bipermutahedron differ"],
        id="deformation-kind-a",
    ),
    pytest.param(
        "deformation", 3, cli, "wall_value_table",
        biperm_table(kind_b=Counter({Fraction(2): 1, Fraction(3): 1})),
        ["deformation: a kind-B wall value for the bipermutahedron is below n"],
        id="deformation-kind-b",
    ),
    pytest.param(
        "deformation", 3, cli, "wall_value_table", harmonic_kind_b,
        ["deformation: kind-B values for the harmonic polytope differ from 1"],
        id="deformation-harmonic",
    ),
    pytest.param(
        "deformation", 3, cli, "minkowski_quotient",
        answers(QuotientResult("ok", Fraction(3), "A:1|1|2|23")),
        ["deformation: the Minkowski quotient of the pair differs from 2"],
        id="deformation-quotient",
    ),
    pytest.param(
        "deformation", 3, combinatorics.Wall, "kind_b_word", repeated_first_letter,
        ["deformation: wall tree must have 2n vertices and 2n-1 edges"],
        id="deformation-tree-size",
    ),
    pytest.param(
        "deformation", 3, deformation, "deque", lambda real: ForgetfulQueue,
        ["deformation: wall tree must be connected"],
        id="deformation-tree-connected",
    ),
    pytest.param(
        "deformation", 3, deformation, "_ray_rows", shifted_rays,
        [
            "deformation: closed-form inequality differs from the oracle at A:1|1|2|23",
            "deformation: alternating spine sum must equal -(e_E + f_E), got "
            "[-2, -1, -1, -1, -1, -1]",
        ],
        id="deformation-spine-sum",
    ),
    pytest.param(
        "deformation", 3, deformation, "_switches", one_short,
        ["deformation: switches must alternate, ends up"],
        id="deformation-switches",
    ),
    pytest.param(
        "deformation", 3, deformation, "wall_inequality", doubled_coefficients,
        ["deformation: closed-form coefficients at A:1|1|2|23 must be 1"],
        id="deformation-unit-coefficients",
    ),
    pytest.param(
        "deformation", 3, deformation, "_kind_b_classes", one_wall_more_in_the_first_class,
        ["deformation: the closed-form size classes differ from the table's"],
        id="deformation-size-classes",
    ),
]


@pytest.mark.parametrize(
    ("suite", "n", "owner", "attribute", "stub", "failures"), PLANTED_DEFECTS
)
def test_each_check_leg_reports_its_planted_defect(
    capsys, monkeypatch, suite, n, owner, attribute, stub, failures
):
    monkeypatch.setattr(owner, attribute, stub(getattr(owner, attribute)))
    code, out, err = run_cli(
        capsys, "check", "--n", str(n), "--suite", suite, "--seed", "7"
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["failures"] == failures


def reversed_spine(real):
    def tree(wall):
        built = real(wall)
        return dataclasses.replace(built, spine=built.spine[::-1])

    return tree


class TestSuiteGuards:
    """A guard raised inside a suite is that suite's failure (exit 1), not
    malformed input (exit 2) or a traceback."""

    def test_an_oracle_guard_is_a_deformation_failure(self, capsys, monkeypatch):
        def singular(rows):
            raise ValueError("singular")

        monkeypatch.setattr(deformation, "solve_unique", singular)
        code, out, err = run_cli(capsys, "check", "--n", "3", "--suite", "deformation")
        assert (code, err) == (1, "")
        assert json.loads(out)["failures"] == [
            "deformation: dependence at A:1|1|2|23 is not unique"
        ]

    def test_an_assertion_guard_is_a_deformation_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(deformation, "wall_tree", reversed_spine(deformation.wall_tree))
        code, out, err = run_cli(
            capsys, "check", "--n", "3", "--suite", "deformation", "--format", "text"
        )
        assert (code, err) == (1, "")
        assert out.splitlines()[1:] == [
            "failed",
            "deformation: the tree spine must consist of the switch splits in order",
        ]

    def test_the_later_suites_still_run(self, capsys, monkeypatch):
        def overflow(m):
            raise ArithmeticError("the recursive count overflowed")

        monkeypatch.setattr(cli, "count_bipermutations_recursively", overflow)
        monkeypatch.setattr(deformation, "wall_tree", reversed_spine(deformation.wall_tree))
        code, out, err = run_cli(
            capsys, "check", "--n", "2", "--suite", "all", "--seed", "7"
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["failures"] == [
            "combinatorics: the recursive count overflowed",
            "deformation: the tree spine must consist of the switch splits in order",
        ]
        assert report["volumes"] == {"2": "6"}


# The inequality table's refusal of a support that is not constant on size
# pairs, after the prefix "n = <n> ".
TABLE_TAIL = (
    "has more walls than the 37422000 at n = 6, the largest n whose wall "
    "inequalities can be generated; past it only supports constant on size "
    "pairs (|S - T|, |T - S|) are answered"
)


class TestSymmetricSupportsPastTheTable:
    """Supports constant on size pairs walk the closed-form size classes,
    so the nef queries answer them up to the support bound n = 10."""

    @pytest.mark.parametrize(
        ("n", "witness"),
        [
            ("7", "A:1|1|2|2|3|3|4|4|5|6|56|7"),
            ("10", "A:1|1|2|2|3|3|4|4|5|5|6|6|7|7|8|9|8,9|10"),
        ],
        ids=["n7", "n10"],
    )
    def test_the_quotient_is_two(self, capsys, n, witness):
        code, out, err = run_cli(capsys, "quotient", "--n", n)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["status"], report["value"], report["witness"]) == ("ok", "2", witness)

    def test_the_bipermutahedron_is_ample_at_n10(self, capsys):
        code, out, err = run_cli(capsys, "nef-check", "--n", "10", "--support", "biperm", "--ample")
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_the_harmonic_polytope_is_not_ample_at_n10(self, capsys):
        wall = "A:1|1|2|2|3|3|4|4|5|5|6|6|7|7|8|8,9|9|10"
        code, out, err = run_cli(
            capsys, "nef-check", "--n", "10", "--support", "harmonic", "--ample"
        )
        assert code == 1
        assert json.loads(out)["witness"] == {"wall": wall, "value": "0"}
        assert err.startswith(f"the wall-crossing inequality at wall {wall} evaluates to 0,")

    def test_a_combination_read_from_csv_at_n10(self, capsys, tmp_path):
        # aB + bH has the quotient 2a + b by H, since B's is 2.
        biperm, harmonic = named_support("biperm", 10), named_support("harmonic", 10)
        h = SupportFunction.combine([(3, biperm), (Fraction(1, 2), harmonic)])
        path = tmp_path / "combination.csv"
        path.write_text(format_support_csv(h), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "quotient", "--n", "10", "--p", str(path), "--format", "text"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "13/2"

    def test_a_csv_off_size_pairs_at_n7_is_refused_after_it_is_read(self, capsys, tmp_path):
        h = named_support("biperm", 7)
        values = {bs: h[bs] for bs in combinatorics.all_bisubsets(7)}
        values[combinatorics.all_bisubsets(7)[-1]] -= 1
        path = tmp_path / "off.csv"
        path.write_text(format_support_csv(SupportFunction(7, values)), encoding="utf-8")
        code, out, err = run_cli(capsys, "nef-check", "--n", "7", "--support", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: n = 7 {TABLE_TAIL}\n"


class TestInfeasibleN:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        # A missing guard then fails at once instead of hanging on 37.4M walls
        # or walking the inequalities at n = 11.
        def refuse(*args, **kwargs):
            raise RuntimeError("walls were enumerated")

        monkeypatch.setattr(cli, "enumerate_walls", refuse)
        monkeypatch.setattr(deformation, "enumerate_walls", refuse)
        monkeypatch.setattr(deformation, "enumerate_wall_bisequences", refuse)
        monkeypatch.setattr(combinatorics, "enumerate_wall_bisequences", refuse)
        monkeypatch.setattr(deformation, "_inequality_table", refuse)
        monkeypatch.setattr(deformation, "_size_classes", refuse)

    @pytest.fixture
    def no_support(self, monkeypatch):
        # A missing guard then fails at once instead of building a support
        # of 3**n - 3 values past n = 10.
        def refuse(*args, **kwargs):
            raise RuntimeError("a support was built")

        monkeypatch.setattr(cli, "named_support", refuse)
        monkeypatch.setattr(cli, "parse_support_csv", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["walls", "--n", "6"],
            ["nef-check", "--n", "11", "--support", "biperm"],
            ["quotient", "--n", "11"],
            ["walls", "--n", "6", "--kind", "B", "--format", "text"],
            ["walls", "--n", "100000"],
            ["nef-check", "--n", "11", "--support", "no-such-file.csv", "--ample"],
        ],
    )
    def test_refused_before_any_enumeration(self, capsys, no_enumeration, no_support, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        if argv[0] == "walls":
            tail = (
                "has more walls than the 453600 at n = 5, the largest n whose "
                "walls can be enumerated"
            )
        else:
            tail = (
                "has more facets than the 59046 at n = 10, the largest n whose "
                "support functions are built"
            )
        assert err == f"error: n = {argv[2]} {tail}\n"

    def test_n5_is_not_refused(self, no_enumeration):
        with pytest.raises(RuntimeError, match="enumerated"):
            main(["walls", "--n", "5"])

    @pytest.mark.parametrize("command", ["nef-check", "quotient"])
    def test_n10_supports_are_not_refused(self, no_support, command):
        argv = [command, "--n", "10"] + (["--support", "biperm"] if command == "nef-check" else [])
        with pytest.raises(RuntimeError, match="a support was built"):
            main(argv)

    @pytest.fixture
    def no_bipermutations(self, monkeypatch):
        # A missing guard then fails at once instead of listing 7,484,400
        # vertices at n = 6.
        def refuse(*args, **kwargs):
            raise RuntimeError("bipermutations were enumerated")

        monkeypatch.setattr(cli, "enumerate_bipermutations", refuse)
        monkeypatch.setattr(geometry, "enumerate_bipermutations", refuse)
        monkeypatch.setattr(combinatorics, "enumerate_bipermutations", refuse)

    @pytest.mark.parametrize("n", ["6", "10", "100000"])
    def test_vertices_refused_before_any_enumeration(self, capsys, no_bipermutations, n):
        code, out, err = run_cli(capsys, "vertices", "--n", n, "--format", "text")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: n = {n} has more vertices than the 113400 at n = 5, "
            "the largest n whose vertices can be listed\n"
        )

    def test_n5_vertices_are_not_refused(self, no_bipermutations):
        with pytest.raises(RuntimeError, match="enumerated"):
            main(["vertices", "--n", "5"])

    @pytest.fixture
    def no_bieulerian_route(self, monkeypatch):
        # A missing guard then fails at once instead of running a B_n route
        # past its bound.
        def refuse(*args, **kwargs):
            raise RuntimeError("a B_n route ran")

        for name in ("bieulerian_by_descents", "bieulerian_by_ehrhart", "f_vector_formula"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("n", ["9", "100000"])
    @pytest.mark.parametrize(
        "method",
        [[], ["--method", "all"], ["--method", "descents"]],
        ids=["default", "all", "descents"],
    )
    def test_bieulerian_descents_refused_before_any_route(
        self, capsys, no_bieulerian_route, n, method
    ):
        code, out, err = run_cli(capsys, "bieulerian", "--n", n, *method)
        assert (code, out) == (2, "")
        assert err == (
            f"error: n = {n} is above 8, the largest n whose B_n the descent "
            "route computes; use --method hfromf or --method ehrhart\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "5"],
            ["--n", "5", "--method", "descents"],
            ["--n", "6", "--method", "hfromf"],
            ["--n", "200", "--method", "ehrhart"],
            ["--n", "8"],
            ["--n", "8", "--method", "descents"],
        ],
    )
    def test_bieulerian_routes_not_refused(self, no_bieulerian_route, argv):
        with pytest.raises(RuntimeError, match="route ran"):
            main(["bieulerian", *argv])

    @pytest.mark.parametrize("n", ["201", "100000"])
    def test_bieulerian_ehrhart_refused_before_its_route(
        self, capsys, no_bieulerian_route, n
    ):
        code, out, err = run_cli(capsys, "bieulerian", "--n", n, "--method", "ehrhart")
        assert (code, out) == (2, "")
        assert err == (
            f"error: n = {n} is above 200, the largest n whose B_n the Ehrhart "
            "route computes\n"
        )

    def test_bieulerian_refusal_has_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bipermutahedron.cli", "bieulerian", "--n", "9"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: n = 9 is above 8")
        assert "Traceback" not in proc.stderr

    @pytest.fixture
    def no_suite_enumeration(self, monkeypatch):
        # A missing guard then fails at once instead of walking the 7,484,400
        # words or the 37,422,000 walls at n = 6.
        def refuse(*args, **kwargs):
            raise RuntimeError("a suite enumerated")

        for module in (cli, combinatorics, deformation, geometry, invariants, triangulation):
            for name in dir(module):
                if name.startswith("enumerate_"):
                    monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("n", ["6", "100000"])
    @pytest.mark.parametrize(
        "argv",
        [pytest.param([], id="no-seed"), pytest.param(["--seed", "7"], id="default")]
        + [
            pytest.param(["--suite", suite, "--seed", "7"], id=suite)
            for suite in (*cli.SUITES, "all")
        ],
    )
    def test_check_refused_before_any_suite(
        self, capsys, no_suite_enumeration, n, argv
    ):
        code, out, err = run_cli(capsys, "check", "--n", n, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: n = {n} has more bipermutations than the 113400 at n = 5, "
            "the largest n whose bipermutations and walls the check suites "
            "enumerate\n"
        )

    @pytest.mark.parametrize("suite", [*cli.SUITES, "all"])
    def test_check_n5_is_not_refused(self, no_suite_enumeration, suite):
        with pytest.raises(RuntimeError, match="enumerated"):
            main(["check", "--n", "5", "--suite", suite, "--seed", "7"])

    def test_bieulerian_open_routes_run_at_n6(self, capsys):
        _, hfromf, _ = run_cli(capsys, "bieulerian", "--n", "6", "--method", "hfromf")
        code, ehrhart, _ = run_cli(capsys, "bieulerian", "--n", "6", "--method", "ehrhart")
        assert code == 0
        assert json.loads(hfromf)["coeffs"] == json.loads(ehrhart)["coeffs"]
        assert json.loads(hfromf)["coeffs"][:3] == ["1", "716", "37257"]

    @pytest.fixture
    def no_listing_route(self, monkeypatch):
        # A missing guard then fails at once instead of listing 41 MB of
        # facets at n = 11 or running the brute-force route at n = 8.
        def refuse(*args, **kwargs):
            raise RuntimeError("a listing route ran")

        monkeypatch.setattr(cli, "named_support", refuse)
        monkeypatch.setattr(cli, "f_vector_formula", refuse)
        for name in cli._F_VECTOR_ROUTES:
            monkeypatch.setitem(cli._F_VECTOR_ROUTES, name, refuse)

    FORMULA_TAIL = "the largest n whose f-vector the formula route computes"
    BRUTEFORCE_TAIL = "the largest n whose f-vector the brute-force route computes"
    LISTING_BOUNDS = [
        pytest.param(
            ["facets"], 10,
            "has more facets than the 59046 at n = 10, the largest n whose "
            "facets can be listed",
            id="facets",
        ),
        pytest.param(["fvector"], 200, f"is above 200, {FORMULA_TAIL}", id="fvector"),
        pytest.param(["hvector"], 200, f"is above 200, {FORMULA_TAIL}", id="hvector"),
        pytest.param(
            ["bieulerian", "--method", "hfromf"], 200,
            f"is above 200, {FORMULA_TAIL}", id="bieulerian-hfromf",
        ),
        pytest.param(
            ["fvector", "--method", "bruteforce"], 7,
            f"is above 7, {BRUTEFORCE_TAIL}", id="fvector-bruteforce",
        ),
        pytest.param(
            ["hvector", "--method", "bruteforce"], 7,
            f"is above 7, {BRUTEFORCE_TAIL}", id="hvector-bruteforce",
        ),
    ]

    @pytest.mark.parametrize("beyond", ["bound+1", "100000"])
    @pytest.mark.parametrize(("argv", "bound", "tail"), LISTING_BOUNDS)
    def test_listing_refused_before_its_route(
        self, capsys, no_listing_route, argv, bound, tail, beyond
    ):
        n = str(bound + 1) if beyond == "bound+1" else beyond
        code, out, err = run_cli(capsys, *argv, "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: n = {n} {tail}\n"

    @pytest.mark.parametrize(("argv", "bound", "tail"), LISTING_BOUNDS)
    def test_listing_at_its_bound_reaches_its_route(
        self, no_listing_route, argv, bound, tail
    ):
        with pytest.raises(RuntimeError, match="route ran"):
            main([*argv, "--n", str(bound)])


# Lines a corrupted support file may contain: wrong field counts, non-integer
# elements, empty or equal sides, out-of-range elements, bad and zero-
# denominator values.
MALFORMED_LINES = [
    "",
    "# comment",
    "1;2",
    "1;2;3;4",
    "a;1,2;1",
    "1;1,2;x",
    "1;1,2;1/0",
    ";1,2;0",
    "1;;0",
    "1,2;1,2;0",
    "1,9;1;0",
    "1;1,2;1.5.2",
    "1;1,2;--1",
    "1;1,2;3/-4",
    ";;",
]


def corrupt_support_csv(rng, text):
    """One seeded corruption: a dropped, duplicated, malformed or edited line,
    or a value with a zero denominator."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    op = rng.randrange(5)
    if op == 0:
        del lines[k]
    elif op == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif op == 2:
        lines[k] = rng.choice(MALFORMED_LINES)
    elif op == 3:
        head, _, _ = lines[k].rpartition(";")
        lines[k] = f"{head};{rng.randint(-9, 9)}/0"
    else:
        line = lines[k]
        at = rng.randrange(len(line) + 1)
        lines[k] = line[:at] + rng.choice(";,/-0123456789x ") + line[at + 1 :]
    return "\n".join(lines) + "\n"


def fuzz_cases(seed, count):
    """(n asked, CSV text): a corrupted support file, usually asked for
    the n it was written for and sometimes for a neighbouring n."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3))
        h = SupportFunction.combine(
            [(rng.randint(-2, 3), named_support("biperm", n)),
             (rng.randint(0, 3), named_support("harmonic", n))]
        )
        text = format_support_csv(h)
        for _ in range(rng.randint(0, 2)):
            text = corrupt_support_csv(rng, text)
        yield rng.choice((n, n, n, n - 1, n + 1)), text


class TestSupportFileFuzz:
    def test_parse_support_csv_raises_only_value_error(self):
        outcomes = set()
        for asked, text in fuzz_cases(seed=5, count=400):
            try:
                h = parse_support_csv(text, asked)
            except ValueError:
                outcomes.add("rejected")
                continue
            assert h.n == asked
            outcomes.add("parsed")
        assert outcomes == {"parsed", "rejected"}

    def test_cli_keeps_its_exit_codes(self, capsys, tmp_path):
        path = tmp_path / "support.csv"
        rng = random.Random(6)
        codes = set()
        for asked, text in fuzz_cases(seed=7, count=120):
            path.write_text(text)
            argv = rng.choice(
                (
                    ["nef-check", "--support", str(path)],
                    ["nef-check", "--support", str(path), "--ample"],
                    ["quotient", "--p", str(path)],
                    ["quotient", "--q", str(path)],
                )
            )
            code, out, err = run_cli(capsys, *argv, "--n", str(asked))
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error: ") and out == ""
            else:
                json.loads(out)
            codes.add(code)
        assert codes == {0, 1, 2}


def subcommand_choices():
    """{subcommand: {option: (choices, default)}} for every subcommand the
    parser accepts and every option of it that has choices."""
    parser = cli.build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {
            a.option_strings[0]: (list(a.choices), a.default)
            for a in sub._actions
            if a.option_strings and a.choices
        }
        for name, sub in subparsers.choices.items()
    }


# The (subcommand, --method) keys that accept every n.
UNBOUNDED: set[tuple[str, str | None]] = set()


class TestBoundTable:
    def test_every_accepted_key_is_bounded_or_declared_unbounded(self):
        accepted = {
            (command, method)
            for command, options in subcommand_choices().items()
            for method in options.get("--method", ([None], None))[0]
        }
        assert set(cli._N_BOUNDS).isdisjoint(UNBOUNDED)
        assert set(cli._N_BOUNDS) | UNBOUNDED == accepted

    def test_every_count_in_a_refusal_is_its_closed_form(self):
        assert combinatorics.bipermutation_count(5) == 113400
        assert invariants.f_vector_formula(5)[7] == 453600
        assert invariants.f_vector_formula(6)[9] == 37422000
        assert 3**10 - 3 == 59046
        closed_forms = {
            "vertices": combinatorics.bipermutation_count,
            "bipermutations": combinatorics.bipermutation_count,
            "walls": lambda n: invariants.f_vector_formula(n)[2 * n - 3],
            "facets": lambda n: 3**n - 3,
        }
        for bound, tail in cli._N_BOUNDS.values():
            match = re.fullmatch(r"has more (\w+) than the (\d+) at n = (\d+), .+", tail)
            if match is None:
                assert tail.startswith(f"is above {bound}, ")
                continue
            word, count, at = match.groups()
            assert int(at) == bound
            assert int(count) == closed_forms[word](bound)


class TestCommandFuzz:
    SUPPORTS = list(deformation._NAMED_SUPPORTS)

    def draw(self, rng, command, choices):
        """One argv for ``command`` and the options with choices it drew;
        the rest stay at their defaults.  n is past the bound only for a
        bounded key."""
        options = {
            option: rng.choice(values)
            for option, (values, _) in choices.items()
            if rng.random() < 0.7
        }
        extra = []
        if command == "nef-check":
            extra = ["--support", rng.choice(self.SUPPORTS)] + rng.choice([[], ["--ample"]])
        elif command == "quotient":
            extra = ["--p", rng.choice(self.SUPPORTS), "--q", rng.choice(self.SUPPORTS)]
        elif command == "check":
            extra = ["--samples", "20"] + rng.choice([[], ["--seed", "7"]])
        ns = ["-1", "0", "1", "2", "two"]
        method = choices.get("--method", (None, None))[1]
        bound = cli._N_BOUNDS.get((command, options.get("--method", method)))
        if bound is not None:
            ns += [str(bound[0] + 1), "100000"]
        argv = [command, "--n", rng.choice(ns), *extra]
        for option, value in options.items():
            argv += [option, value]
        return argv, options

    def test_every_subcommand_keeps_its_exit_codes(self, capsys):
        rng = random.Random(15)
        commands = subcommand_choices()
        drawn = set()
        codes = set()
        for _ in range(600):
            command = rng.choice(sorted(commands))
            argv, options = self.draw(rng, command, commands[command])
            drawn |= {(command, option, value) for option, value in options.items()}
            code, out, err = run_catching_exit(capsys, argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if code == 2:
                assert out == "", argv
            codes.add(code)
        assert {0, 2} <= codes
        assert drawn == {
            (command, option, value)
            for command, choices in commands.items()
            for option, (values, _) in choices.items()
            for value in values
        }


# Exit code and sha256 of stdout + NUL + stderr of each command: any change
# to a report, a message or an exit code shows here.
REPORT_DIGESTS = [
    ("fvector --n 4 --object polytope", 0,
     "092d1dc973770ad396506e00a23995e5f78612da6aeb1c672d628331c7ff3eb1"),
    ("fvector --n 3 --method bruteforce --format text", 0,
     "a77cec1a815de9da48ec577f67c9ab8392d537c334d33d6c62c917128943499b"),
    ("hvector --n 4", 0,
     "232a9ecca29867aa0debdd3ff92803d35feb901b5526ddcf3a17a00442715c7c"),
    ("bieulerian --n 4", 0,
     "8375a74d86cf34ac091d301d3e8160a88b1364d1611cd263546852756ed706f2"),
    ("bieulerian --n 50 --method ehrhart", 0,
     "39e3a378ed0fc618082878c683175888f0084ab179205d88f6a7fcba9f5f9365"),
    ("vertices --n 3", 0,
     "fb279cdae47fbe9381b9055256237455346e419b3ecc65bb1b50766e2aa663e2"),
    ("facets --n 3 --format csv", 0,
     "96251fa2c4333e15983b24d0278670a3f9a1fe93ee23f00ee88825d67363f822"),
    ("walls --n 4", 0,
     "7fffbb7f832c30a0e5c9641eacfd4e9544b8404828d05576edbcb444c85f170d"),
    ("nef-check --n 4 --support harmonic --ample", 1,
     "664b19698d91857726b302290f8c0e3746cb243bbb74437b47a05ec33413b0c9"),
    ("nef-check --n 4 --support biperm", 0,
     "58bf6cf34d4bb62fbffb8d8419f5e547549826c46ae19eb3b5981119c37559f9"),
    ("quotient --n 4", 0,
     "a5bbfb44ad782e35644a08b48ecdb0eecb1159767bd41b97c19aa66032d0af2d"),
    ("quotient --n 4 --p harmonic --q biperm", 1,
     "7da8a5a271bca0caf59067be738c08386b52dca0d96730eaeaddfce8315dd3bd"),
    ("check --suite all --n 2 --seed 7", 0,
     "7786f092b513d7938e5ffbec1a55636f3e02738ee57182dedf43a01750a542f5"),
    ("check --suite geometry --n 3", 0,
     "dd837d59241e2950f51cbf0f89605d392bcf09c7cc1b7e43ecaa30df642786e7"),
    ("check --suite deformation --n 3", 0,
     "c7774a3370949ee86d131574f2779968ab4781e821a10aea896122468c5efbb1"),
]


@pytest.mark.parametrize(
    ("command", "code", "digest"), REPORT_DIGESTS, ids=[c for c, _, _ in REPORT_DIGESTS]
)
def test_reports_match_their_digest(capsys, command, code, digest):
    got, out, err = run_cli(capsys, *command.split())
    assert (got, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()) == (code, digest)


SCRIPT_ARGV = ["fvector", "--n", "2", "--format", "text"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_runs():
    # Run the [project.scripts] target the way the wrapper that setuptools
    # generates does, so no install is needed for the declared entry point
    # to be exercised.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert "bipermutahedron" in scripts
    module, attr = scripts["bipermutahedron"].split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    result = subprocess.run(
        [sys.executable, "-c", launcher, *SCRIPT_ARGV],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines() == ["# bipermutahedron 0.1.0 seed=none", "1,6,6"]


@pytest.mark.skipif(
    shutil.which("bipermutahedron") is None,
    reason="the bipermutahedron console script is not installed on PATH",
)
def test_installed_console_script_runs():
    result = subprocess.run(
        ["bipermutahedron", *SCRIPT_ARGV],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines() == ["# bipermutahedron 0.1.0 seed=none", "1,6,6"]


def test_package_runs_as_a_module(capsys):
    argv = ["bieulerian", "--n", "3", "--format", "text"]
    result = subprocess.run(
        [sys.executable, "-m", "bipermutahedron", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert (result.returncode, result.stdout, result.stderr) == (0, out, err)


def test_module_invocation_runs():
    result = subprocess.run(
        [sys.executable, "-m", "bipermutahedron.cli", "quotient", "--n", "2",
         "--format", "text"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[1] == "2"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


SHARED_PARSER_ARGV = [
    ["fvector", "--n", "3", "--format", "text"],
    ["fvector", "--n", "two"],
    ["quotient", "--n", "2"],
]


def test_a_shared_parser_answers_as_a_fresh_one(capsys):
    fresh = []
    for argv in SHARED_PARSER_ARGV:
        cli.build_parser.cache_clear()
        fresh.append(run_catching_exit(capsys, argv))
    shared = [run_catching_exit(capsys, argv) for argv in SHARED_PARSER_ARGV]
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert "invalid" in shared[1][2]
    assert shared == fresh
