"""Command-line interface.

Every subcommand prints one deterministic report to standard output and
returns a meaningful exit code: 0 on success, 1 when a mathematical check
fails (the message names the violated statement), 2 on malformed input.
Reports echo the package version and the seed in a header; big integers
and rationals are serialized as decimal strings so no consumer has to
worry about 64-bit overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import __version__
from .combinatorics import (
    all_bisubsets,
    bipermutation_count,
    bisequence_to_multigraph,
    count_bipermutations_recursively,
    descents,
    enumerate_bipermutations,
    enumerate_bisequences,
    format_bisequence,
    multigraph_to_bisequence,
)
from .deformation import (
    _NAMED_SUPPORTS,
    enumerate_walls,
    format_support_csv,
    inequality_table_check,
    is_ample,
    is_nef,
    minkowski_quotient,
    named_support,
    parse_support_csv,
    wall_value_table,
)
from .geometry import (
    SupportFunction,
    facet_check,
    hyperplane_face_counts,
    symmetry_checks,
    vertex_of_bipermutation,
)
from .invariants import (
    bieulerian_by_descents,
    bieulerian_by_ehrhart,
    f_generating_check,
    f_vector_bruteforce,
    f_vector_formula,
    h_from_f,
    sweep_orientation_check,
)
from .polynomials import real_root_check
from .triangulation import (
    cover_check,
    face_to_face_check,
    hstar_consistency,
    pi1_lattice_check,
    unimodularity_check,
)

# The largest n each (subcommand, --method) accepts, and the rest of the
# message that refuses a larger one, checked by ``main`` before any work.
# What a command lists, counts or enumerates grows with n, so n itself
# decides feasibility.  A key that is not here accepts every n.
_FORMULA = (200, "is above 200, the largest n whose f-vector the formula route computes")
_BRUTEFORCE = (7, "is above 7, the largest n whose f-vector the brute-force route computes")
_DESCENTS = (8, "is above 8, the largest n whose B_n the descent route computes; "
                "use --method hfromf or --method ehrhart")
_SUPPORTS = (10, "has more facets than the 59046 at n = 10, the largest n whose "
                 "support functions are built")
_N_BOUNDS = {
    ("fvector", "formula"): _FORMULA,
    ("fvector", "bruteforce"): _BRUTEFORCE,
    ("hvector", "formula"): _FORMULA,
    ("hvector", "bruteforce"): _BRUTEFORCE,
    ("bieulerian", "hfromf"): _FORMULA,
    ("bieulerian", "descents"): _DESCENTS,
    ("bieulerian", "all"): _DESCENTS,
    ("bieulerian", "ehrhart"): (200, "is above 200, the largest n whose B_n the "
                                     "Ehrhart route computes"),
    ("vertices", None): (5, "has more vertices than the 113400 at n = 5, the "
                            "largest n whose vertices can be listed"),
    ("facets", None): (10, "has more facets than the 59046 at n = 10, the "
                           "largest n whose facets can be listed"),
    ("walls", None): (5, "has more walls than the 453600 at n = 5, the largest "
                         "n whose walls can be enumerated"),
    ("nef-check", None): _SUPPORTS,
    ("quotient", None): _SUPPORTS,
    ("check", None): (5, "has more bipermutations than the 113400 at n = 5, the "
                         "largest n whose bipermutations and walls the check "
                         "suites enumerate"),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_positive_int, required=True)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")


def _emit(payload: dict, fmt: str, seed: int | None, text_body: Iterable[str]) -> None:
    if fmt == "json":
        report = {"version": __version__, "seed": seed}
        report.update(payload)
        print(json.dumps(report, indent=2))
    else:
        seed_text = "none" if seed is None else str(seed)
        print(f"# bipermutahedron {__version__} seed={seed_text}")
        for line in text_body:
            print(line)


def _emit_coeffs(args, keys: Sequence[str], coeffs: Iterable) -> int:
    """Report a coefficient list: JSON keys ``keys`` (read off ``args``)
    then ``coeffs``, or one comma-joined text line."""
    strings = [str(c) for c in coeffs]
    payload = {key: getattr(args, key) for key in keys}
    payload["coeffs"] = strings
    _emit(payload, args.format, None, [",".join(strings)])
    return 0


# The routes a --method option names, each a function of n.  The B_n routes
# look their functions up when called, so that perfbench's tracer, which
# rebinds module attributes, still sees the check suite call them.
_F_VECTOR_ROUTES = {"formula": f_vector_formula, "bruteforce": f_vector_bruteforce}
_BIEULERIAN_ROUTES = {
    "descents": lambda n: bieulerian_by_descents(n),
    "hfromf": lambda n: h_from_f(f_vector_formula(n), 2 * n - 2),
    "ehrhart": lambda n: bieulerian_by_ehrhart(n),
}


def _cmd_fvector(args) -> int:
    fan = _F_VECTOR_ROUTES[args.method](args.n)
    coeffs = fan if args.object == "fan" else [1] + fan[::-1]
    return _emit_coeffs(args, ("n", "object", "method"), coeffs)


def _cmd_hvector(args) -> int:
    poly = h_from_f(_F_VECTOR_ROUTES[args.method](args.n), 2 * args.n - 2)
    return _emit_coeffs(args, ("n", "method"), poly.coefficients)


def _cmd_bieulerian(args) -> int:
    if args.method == "all":
        results = {name: route(args.n) for name, route in _BIEULERIAN_ROUTES.items()}
        values = set(results.values())
        if len(values) != 1:
            print(
                "route disagreement: the descent, h-from-f, and Ehrhart "
                "routes must all produce the same biEulerian polynomial, got "
                + "; ".join(f"{k}={list(v.coefficients)}" for k, v in results.items()),
                file=sys.stderr,
            )
            return 1
        poly = values.pop()
    else:
        poly = _BIEULERIAN_ROUTES[args.method](args.n)
    return _emit_coeffs(args, ("n", "method"), poly.coefficients)


def _cmd_vertices(args) -> int:
    # Each vertex row is built once and rendered only in the format asked for.
    n = args.n
    rows = ((str(bp), vertex_of_bipermutation(bp)) for bp in enumerate_bipermutations(n))
    if args.format == "json":
        vertices = [{"biperm": w, "top": list(v[:n]), "bottom": list(v[n:])} for w, v in rows]
        _emit({"n": n, "vertices": vertices}, args.format, None, ())
    else:
        body = (
            f"{w} top={','.join(map(str, v[:n]))} bottom={','.join(map(str, v[n:]))}"
            for w, v in rows
        )
        _emit({}, args.format, None, body)
    return 0


def _cmd_facets(args) -> int:
    # One table for every format, the bipermutahedron's cached support: the
    # JSON entries are its S, T and exact right-hand sides, and the csv and
    # text lines are the S;T;value form that --support reads.
    h = named_support("biperm", args.n)
    if args.format == "json":
        # Each of the 2**n - 1 part sets is sorted once, not once per split.
        ordered = functools.cache(sorted)
        rhs = (str(Fraction(v, h.scale)) for v in h.row)
        facets = [
            {"S": ordered(bs.left), "T": ordered(bs.right), "rhs": text}
            for bs, text in zip(all_bisubsets(args.n), rhs)
        ]
        _emit({"n": args.n, "facets": facets}, args.format, None, ())
    else:
        _emit({}, args.format, None, format_support_csv(h).splitlines())
    return 0


def _cmd_walls(args) -> int:
    # Each wall is formatted once, and only the format asked for is built.
    walls = [
        (w.kind, format_bisequence(w))
        for w in enumerate_walls(args.n)
        if args.kind == "all" or w.kind == args.kind
    ]
    if args.format == "json":
        entries = [{"kind": kind, "bisequence": text} for kind, text in walls]
        data = {"n": args.n, "kind": args.kind, "count": len(walls), "walls": entries}
        _emit(data, args.format, None, ())
    else:
        _emit({}, args.format, None, (f"{kind} {text}" for kind, text in walls))
    return 0


def _load_support(spec_text: str, n: int) -> SupportFunction:
    if spec_text in _NAMED_SUPPORTS:
        return named_support(spec_text, n)
    with open(spec_text, "r", encoding="utf-8-sig") as handle:
        return parse_support_csv(handle.read(), n)


def _cmd_nef_check(args) -> int:
    h = _load_support(args.support, args.n)
    verdict = is_ample(h) if args.ample else is_nef(h)
    payload = {
        "n": args.n,
        "support": args.support,
        "strict": args.ample,
        "passed": verdict.passed,
        "witness": None
        if verdict.passed
        else {
            "wall": str(verdict.witness_wall),
            "value": str(verdict.witness_value),
        },
    }
    body = ["passed" if verdict.passed else
            f"failed {verdict.witness_wall} value={verdict.witness_value}"]
    _emit(payload, args.format, None, body)
    if not verdict.passed:
        print(
            f"the wall-crossing inequality at wall {verdict.witness_wall} "
            f"evaluates to {verdict.witness_value}, violating the "
            + ("strict positivity required for an ample class"
               if args.ample
               else "nonnegativity required for a nef class"),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_quotient(args) -> int:
    p = _load_support(args.p, args.n)
    q = _load_support(args.q, args.n)
    result = minkowski_quotient(p, q)
    value = "unbounded" if result.status == "unbounded" else str(result.value)
    payload = {
        "n": args.n,
        "p": args.p,
        "q": args.q,
        "status": result.status,
        "value": value,
        "witness": result.witness,
    }
    _emit(payload, args.format, None, [value])
    if result.status == "not-summand":
        print(
            f"no positive multiple of Q is a Minkowski summand of P: the "
            f"wall-crossing value of P vanishes at wall {result.witness} "
            f"while Q's is positive",
            file=sys.stderr,
        )
        return 1
    return 0


def _suite_combinatorics(n: int, samples: int, seed: int | None) -> Iterator[str]:
    for m in range(1, n + 1):
        per_word = Counter(map(descents, enumerate_bipermutations(m)))
        if per_word.total() != bipermutation_count(m):
            yield f"bipermutation count at n={m} differs from (2n)!/2^n"
        if count_bipermutations_recursively(m) != bipermutation_count(m):
            yield f"recursive count at n={m} differs from (2n)!/2^n"
        poly = bieulerian_by_descents(m)
        if per_word != Counter(dict(enumerate(poly.coefficients))):
            yield f"descent histogram at n={m} differs from per-word descents"
        if not poly.is_palindromic():
            yield f"descent histogram at n={m} is not palindromic"


def _suite_invariants(n: int, samples: int, seed: int | None) -> Iterator[str]:
    for m in range(1, n + 1):
        if f_vector_formula(m) != f_vector_bruteforce(m):
            yield f"f-vector formula and brute force differ at n={m}"
        values = {name: route(m) for name, route in _BIEULERIAN_ROUTES.items()}
        if len(set(values.values())) != 1:
            yield f"biEulerian routes disagree at n={m}"
        poly = values["descents"]
        if poly.evaluate(1) != bipermutation_count(m):
            yield f"B_n(1) differs from (2n)!/2^n at n={m}"
        if real_root_check(poly) != "real-rooted":
            yield f"B_n fails the real-rootedness certificate at n={m}"
        if not (poly.is_log_concave() and poly.is_unimodal()):
            yield f"B_n fails log-concavity/unimodality at n={m}"
        if m <= 3:
            if not sweep_orientation_check(m).passed:
                yield f"sweep indegrees differ from descents at n={m}"
            yield from _bijection_failures(m)
    if not f_generating_check(min(n, 4)):
        yield "generating-function coefficients differ from the f-vector"


def _bijection_failures(m: int) -> Iterator[str]:
    """The faces as bisequences, counted by number of parts against the
    formula and each sent to its multigraph and back."""
    faces = [0] * (2 * m - 1)
    round_trip = True
    for seq in enumerate_bisequences(m):
        faces[len(seq.parts) - 1] += 1
        round_trip &= multigraph_to_bisequence(bisequence_to_multigraph(seq)) == seq
    if faces != f_vector_formula(m):
        yield f"bisequence counts by number of parts differ from the f-vector at n={m}"
    if not round_trip:
        yield f"a bisequence does not survive the multigraph round trip at n={m}"


def _suite_geometry(n: int, samples: int, seed: int | None) -> Iterator[str]:
    for m in range(1, n + 1):
        if not facet_check(m).passed:
            yield f"facet pairing bound fails at n={m}"
        report = symmetry_checks(m)
        if not (
            report.rays_relabel_invariant
            and report.rays_swap_invariant
            and report.vertices_relabel_equivariant
            and report.vertices_swap_reverse
        ):
            yield f"relabeling/swap symmetry fails at n={m}"
        if m >= 3 and report.negation_is_automorphism:
            yield f"negation unexpectedly preserves the fan at n={m}"
    # n = 1 has no hyperplanes to classify.
    if n >= 2 and not hyperplane_face_counts(min(n, 3)).passed:
        yield "hyperplane face counts differ from the closed forms"


def _suite_triangulation(n: int, samples: int, seed: int | None) -> Iterator[str]:
    if not pi1_lattice_check(n):
        yield "projection does not identify the two sublattices"
    if not unimodularity_check(n):
        yield "some simplex has determinant other than +-1"
    cover = cover_check(n, samples, seed)
    if not cover.passed:
        yield (
            "a sampled point received a negative barycentric coefficient: "
            + "; ".join(cover.failures[:3])
        )
    if not face_to_face_check(min(n, 3), max(4, samples // 1000), seed).passed:
        yield "two simplices fail to meet along a common face"
    if not hstar_consistency(n):
        yield "triangulation h-vector differs from the Ehrhart route"


def _suite_deformation(n: int, samples: int, seed: int | None) -> Iterator[str]:
    yield from inequality_table_check(n)
    biperm = named_support("biperm", n)
    harmonic = named_support("harmonic", n)
    table_p = wall_value_table(biperm)
    if n >= 3:
        expected_a = {"i": {2}, "ii": {2}, "iii": {4}}
    else:
        # n = 2 has only case-iii walls, and n = 1 has no walls at all.
        expected_a = {"iii": {4} if n == 2 else set()}
    for case, values in expected_a.items():
        if table_p.kind_a_values(case) != {Fraction(v) for v in values}:
            yield f"kind-A case {case} values for the bipermutahedron differ"
    if table_p.kind_b and table_p.kind_b_min() < n:
        yield "a kind-B wall value for the bipermutahedron is below n"
    table_h = wall_value_table(harmonic)
    if table_h.kind_b and set(table_h.kind_b) != {Fraction(1)}:
        yield "kind-B values for the harmonic polytope differ from 1"
    result = minkowski_quotient(biperm, harmonic)
    # No wall bounds the quotient at n = 1.
    expected = "2" if n >= 2 else "unbounded"
    got = "unbounded" if result.status == "unbounded" else str(result.value)
    if got != expected:
        yield f"the Minkowski quotient of the pair differs from {expected}"


# The suites by --suite name; "all" runs them in this order.  Each yields
# its failure messages.
SUITES = {
    "combinatorics": _suite_combinatorics,
    "invariants": _suite_invariants,
    "geometry": _suite_geometry,
    "triangulation": _suite_triangulation,
    "deformation": _suite_deformation,
}


def _cmd_check(args) -> int:
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    if "triangulation" in selected and args.seed is None:
        print("a seed is required for randomized suites", file=sys.stderr)
        return 2
    failures = []
    for name in selected:
        # A guard a suite raises is that suite's failure, not malformed input.
        try:
            for msg in SUITES[name](args.n, args.samples, args.seed):
                failures.append(f"{name}: {msg}")
        except (AssertionError, ValueError, ArithmeticError) as exc:
            failures.append(f"{name}: {exc}")
    payload = {
        "suite": args.suite,
        "n": args.n,
        "samples": args.samples,
        "passed": not failures,
        "failures": failures,
    }
    if "triangulation" in selected:
        # The normalised volume of the product of n triangles, (2n)!/2^n.
        payload["volumes"] = {str(args.n): str(bipermutation_count(args.n))}
    body = ["passed" if not failures else "failed"] + failures
    _emit(payload, args.format, args.seed, body)
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="bipermutahedron",
        description=(
            "exact constructions and checks for the bipermutahedron, its "
            "normal fan, and their invariants"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fvector", help="face numbers of the fan or the polytope")
    _add_common(p)
    p.add_argument("--object", choices=("fan", "polytope"), default="fan")
    p.add_argument("--method", choices=_F_VECTOR_ROUTES, default="formula")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("hvector", help="h-vector of the fan from its f-vector")
    _add_common(p)
    p.add_argument("--method", choices=_F_VECTOR_ROUTES, default="formula")
    p.set_defaults(func=_cmd_hvector)

    p = sub.add_parser("bieulerian", help="biEulerian polynomial by any route")
    _add_common(p)
    p.add_argument(
        "--method",
        choices=(*_BIEULERIAN_ROUTES, "all"),
        default="all",
    )
    p.set_defaults(func=_cmd_bieulerian)

    p = sub.add_parser("vertices", help="vertex table of the polytope")
    _add_common(p)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("facets", help="facet right-hand sides of the polytope")
    _add_common(p)
    p.set_defaults(func=_cmd_facets)

    p = sub.add_parser("walls", help="codimension-1 cones of the fan")
    _add_common(p)
    p.add_argument("--kind", choices=("A", "B", "all"), default="all")
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("nef-check", help="wall-crossing inequalities for a support")
    _add_common(p)
    p.add_argument(
        "--support",
        required=True,
        help="".join(f"{name!r}, " for name in _NAMED_SUPPORTS)
        + "or a CSV file of lines S;T;value",
    )
    p.add_argument("--ample", action="store_true", help="require strict inequalities")
    p.set_defaults(func=_cmd_nef_check)

    p = sub.add_parser("quotient", help="Minkowski quotient P/Q")
    _add_common(p)
    p.add_argument("--p", default="biperm", help="nef numerator: name or CSV file")
    p.add_argument("--q", default="harmonic", help="denominator: name or CSV file")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("check", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--samples", type=_nonnegative_int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bound = _N_BOUNDS.get((args.command, getattr(args, "method", None)))
        if bound is not None and args.n > bound[0]:
            raise ValueError(f"n = {args.n} {bound[1]}")
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
