"""Input checks raise typed exceptions, which survive ``python -O``."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from bipermutahedron.combinatorics import bisequence_of_configuration
from bipermutahedron.geometry import SupportFunction, biperm_support_function
from bipermutahedron.polynomials import (
    IntPolynomial,
    count_distinct_real_roots,
    poly_divmod,
)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: bisequence_of_configuration((0, 1), (0,)), ValueError),
        (lambda: bisequence_of_configuration((), ()), ValueError),
        (lambda: SupportFunction.combine([]), ValueError),
        (
            lambda: SupportFunction.combine(
                [(1, biperm_support_function(2)), (1, biperm_support_function(3))]
            ),
            ValueError,
        ),
        (lambda: poly_divmod((Fraction(1),), ()), ZeroDivisionError),
        (lambda: count_distinct_real_roots((0, 0)), ValueError),
        (lambda: IntPolynomial((1, Fraction(1, 2))), TypeError),
    ],
    ids=[
        "configuration-mismatched",
        "configuration-empty",
        "combine-no-terms",
        "combine-mixed-n",
        "divmod-zero-divisor",
        "roots-zero-polynomial",
        "intpolynomial-fraction",
    ],
)
def test_input_checks_raise_typed_exceptions(call, error):
    with pytest.raises(error):
        call()


PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "bipermutahedron"


def test_package_has_no_assert_statements():
    # python -O strips assert statements; checks must raise explicitly.
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
