"""End-to-end tests for the command line interface."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bipermutahedron.cli import main
from bipermutahedron.deformation import format_support_csv, named_support


def run_cli(capsys, *argv):
    code = main(list(argv))
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


class TestCheckSuites:
    @pytest.mark.parametrize(
        "suite", ["combinatorics", "invariants", "geometry", "deformation"]
    )
    def test_deterministic_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(capsys, "check", "--n", "2", "--suite", suite)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["failures"] == []

    def test_all_suites_with_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--n", "2", "--suite", "all", "--seed", "11", "--samples", "50"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True


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


def test_module_invocation_runs():
    result = subprocess.run(
        [sys.executable, "-m", "bipermutahedron.cli", "quotient", "--n", "2",
         "--format", "text"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[1] == "2"
