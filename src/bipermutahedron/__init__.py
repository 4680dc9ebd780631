"""Exact-arithmetic toolkit for the bipermutahedron and its normal fan.

The package constructs the bipermutahedron (the polytope whose vertices
are indexed by bipermutations of {1..n}) and its normal fan, computes
their enumerative invariants by independent routes, triangulates the
product of n triangles compatibly, and decides which support functions
define nef or ample classes on the fan, including exact Minkowski
quotients.  All arithmetic is over the integers and rationals; nothing
is floating point.
"""

from .combinatorics import (
    Bipermutation,
    Bisequence,
    Bisubset,
    Wall,
    bipermutation_count,
    descents,
    enumerate_bipermutations,
    parse_bipermutation,
    parse_bisequence,
)
from .deformation import (
    enumerate_walls,
    is_ample,
    is_nef,
    minkowski_quotient,
    named_support,
    wall_inequality,
)
from .geometry import (
    SupportFunction,
    facet_check,
    vertex_of_bipermutation,
)
from .invariants import (
    bieulerian_by_descents,
    bieulerian_by_ehrhart,
    f_vector_formula,
    h_from_f,
)
from .polynomials import IntPolynomial, real_root_check
from .triangulation import cover_locate, unimodularity_check

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Bipermutation",
    "Bisequence",
    "Bisubset",
    "bipermutation_count",
    "descents",
    "enumerate_bipermutations",
    "parse_bipermutation",
    "parse_bisequence",
    "Wall",
    "enumerate_walls",
    "is_ample",
    "is_nef",
    "minkowski_quotient",
    "named_support",
    "wall_inequality",
    "SupportFunction",
    "facet_check",
    "vertex_of_bipermutation",
    "bieulerian_by_descents",
    "bieulerian_by_ehrhart",
    "f_vector_formula",
    "h_from_f",
    "IntPolynomial",
    "real_root_check",
    "cover_locate",
    "unimodularity_check",
]
