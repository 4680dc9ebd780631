"""Input checks raise typed exceptions, which survive ``python -O``."""

from fractions import Fraction

import pytest

from bipermutahedron.combinatorics import bisequence_of_configuration
from bipermutahedron.deformation import named_support
from bipermutahedron.geometry import SupportFunction
from bipermutahedron.polynomials import (
    IntPolynomial,
    count_distinct_real_roots,
)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: bisequence_of_configuration((0, 1), (0,)), ValueError),
        (lambda: bisequence_of_configuration((), ()), ValueError),
        (lambda: SupportFunction.combine([]), ValueError),
        (
            lambda: SupportFunction.combine(
                [(1, named_support("biperm", 2)), (1, named_support("biperm", 3))]
            ),
            ValueError,
        ),
        (lambda: count_distinct_real_roots((0, 0)), ValueError),
        (lambda: count_distinct_real_roots((1, Fraction(1, 2))), TypeError),
        (lambda: IntPolynomial((1, Fraction(1, 2))), TypeError),
    ],
    ids=[
        "configuration-mismatched",
        "configuration-empty",
        "combine-no-terms",
        "combine-mixed-n",
        "roots-zero-polynomial",
        "roots-fraction",
        "intpolynomial-fraction",
    ],
)
def test_input_checks_raise_typed_exceptions(call, error):
    with pytest.raises(error):
        call()
