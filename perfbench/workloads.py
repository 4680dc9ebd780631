"""Workload inputs, operations and their correctness checks.

``BATCHES[name](rng, tmpdir)`` returns the batch of operations one child
runs.  Each ``Op`` has ``run()``, the timed call into the package, and
``check(outcome)``, which returns an error message or None.  Checks use
closed-form expectations computed here, never the package, so they add no
spans to a traced run.  The package is always reached through module
attributes, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any, Callable

import bipermutahedron.cli as cli
import bipermutahedron.deformation as deformation
import bipermutahedron.geometry as geometry
import bipermutahedron.invariants as invariants
import bipermutahedron.triangulation as triangulation

P61 = 2**61 - 1  # a 61-bit (Mersenne) prime, for large denominators
WALLS_N4 = 7560  # walls of the n = 4 fan: the polytope's edge count


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def chambers(n: int) -> int:
    """(2n)!/2^n, the number of bipermutations of {1..n}."""
    return factorial(2 * n) // 2**n


# ---------------------------------------------------------------- nef-queries


def _bisubsets(n: int):
    """(S, T) with S, T nonempty, S != T and S u T = {1..n}."""
    for codes in itertools.product((0, 1, 2), repeat=n):
        left = frozenset(i + 1 for i, c in enumerate(codes) if c in (0, 1))
        right = frozenset(i + 1 for i, c in enumerate(codes) if c in (0, 2))
        if left and right and left != right:
            yield left, right


def _biperm_value(left, right) -> int:
    r = len(left) + len(left - right)
    t = len(right) + len(right - left)
    return -r * t


def _harmonic_value(left, right, n: int) -> Fraction:
    def f(x: int) -> Fraction:
        return x * (Fraction(x - n, 2) - Fraction(1, n))

    return f(len(left)) + f(len(right)) + 1


def support_csv(a: Fraction, b: Fraction, n: int) -> str:
    """The support function a*B + b*H in the CLI's "S;T;value" format."""
    lines = []
    for left, right in _bisubsets(n):
        value = a * _biperm_value(left, right) + b * _harmonic_value(left, right, n)
        lines.append(
            "{};{};{}".format(
                ",".join(map(str, sorted(left))),
                ",".join(map(str, sorted(right))),
                value,
            )
        )
    return "\n".join(lines) + "\n"


def _rational(rng, big: bool, positive: bool) -> Fraction:
    low = 1 if positive else 0
    if big:
        return Fraction(rng.randint(low, 8 * P61), P61)
    return Fraction(rng.randint(low, 40), rng.randint(1, 12))


def call_cli(argv: list[str]):
    """cli.main in-process with captured output; SystemExit is a result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _json_report(outcome, want_code: int):
    code, out, err = outcome
    if code != want_code:
        return None, f"exit code {code!r}, expected {want_code}: {err.strip()[:200]}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, f"stdout is not one JSON report: {out[:200]!r}"


def _check_nef(outcome):
    report, error = _json_report(outcome, 0)
    if error:
        return error
    if report["passed"] is not True or report["witness"] is not None:
        return f"a nonnegative combination of B and H must be nef: {report}"
    return None


def _check_ample(a: Fraction):
    def check(outcome):
        report, error = _json_report(outcome, 0 if a > 0 else 1)
        if error:
            return error
        if a > 0:
            if report["passed"] is not True:
                return f"a*B + b*H with a = {a} > 0 must be ample: {report}"
            return None
        witness = report["witness"]
        if report["passed"] is not False or not witness:
            return f"a class with a = 0 is not ample and needs a witness: {report}"
        if Fraction(witness["value"]) != 0:
            return f"a nef class fails ampleness only at value 0, got {witness}"
        if witness["wall"] not in outcome[2]:
            return f"stderr does not name the witness wall {witness['wall']}"
        return None

    return check


def _check_quotient(expected: Fraction):
    def check(outcome):
        report, error = _json_report(outcome, 0)
        if error:
            return error
        if report["status"] != "ok" or Fraction(report["value"]) != expected:
            return f"quotient by H must be 2a + b = {expected}: {report}"
        return None

    return check


def build_nef_queries(rng, tmpdir: str) -> list[Op]:
    """15 CLI calls of fixed composition in seeded order.

    3 ample checks with a = 0 (early exit at the first zero wall; 2 at
    n = 4, 1 at n = 3), 3 full scans at n = 3 (nef, ample with a > 0,
    quotient) and 9 full scans at n = 4 (3 each).  The n = 4 scans are 60%
    of the calls, so the median and the 90th percentile both fall on them:
    quantiles of millisecond calls swing with the host's load far more than
    the calls' own cost.  A small batch gives a run many batches to take
    medians over.  The CSV supports alternate between small denominators and
    the 61-bit prime denominator.
    """
    specs = [  # (command, n, a, b, named support or None)
        ("ample", 4, Fraction(0), None, "harmonic"),
        ("ample", 4, Fraction(0), None, None),
        ("ample", 3, Fraction(0), None, None),
        ("nef", 3, None, None, "biperm"),
        ("ample", 3, None, None, None),
        ("quotient", 3, None, None, "biperm"),
    ]
    for command in ("nef", "ample", "quotient"):
        specs += [(command, 4, None, None, None)] * 3
    ops = []
    for index, (command, n, a, b, named) in enumerate(specs):
        if named == "biperm":
            a, b, support = Fraction(1), Fraction(0), "biperm"
        elif named == "harmonic":
            a, b, support = Fraction(0), Fraction(1), "harmonic"
        else:
            big = index % 2 == 1
            if a is None:
                a = _rational(rng, big, positive=True)
                b = _rational(rng, big, positive=False)
            else:
                b = _rational(rng, big, positive=True)
            support = os.path.join(tmpdir, f"support-{index}.csv")
            with open(support, "w", encoding="utf-8") as handle:
                handle.write(support_csv(a, b, n))
        if command == "nef":
            argv = ["nef-check", "--n", str(n), "--support", support]
            check = _check_nef
        elif command == "ample":
            argv = ["nef-check", "--n", str(n), "--support", support, "--ample"]
            check = _check_ample(a)
        else:
            argv = ["quotient", "--n", str(n), "--p", support, "--q", "harmonic"]
            check = _check_quotient(2 * a + b)
        ops.append(Op(f"{command}-n{n}", lambda argv=argv: call_cli(argv), check))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------- locate


def delta_point(n: int, rng, denominator: int):
    """A random point of Delta^n: n columns (u, v, w) summing to 1."""
    rows: list[list[Fraction]] = [[], [], []]
    for _ in range(n):
        x, y = sorted((rng.randint(0, denominator), rng.randint(0, denominator)))
        rows[0].append(Fraction(x, denominator))
        rows[1].append(Fraction(y - x, denominator))
        rows[2].append(Fraction(denominator - y, denominator))
    return tuple(tuple(row) for row in rows)


class PointPool:
    """Pre-drawn points of one class; a tie makes the caller draw again."""

    def __init__(self, n: int, denominator: int, rng, size: int) -> None:
        self.n, self.denominator, self.rng = n, denominator, rng
        self.points = [delta_point(n, rng, denominator) for _ in range(size)]
        self.next = 0

    def draw(self):
        if self.next == len(self.points):
            self.points.append(delta_point(self.n, self.rng, self.denominator))
        point = self.points[self.next]
        self.next += 1
        return point


def locate_one(pool: PointPool):
    """Locate one point, redrawing while the reading ties on a boundary."""
    while True:
        point = pool.draw()
        try:
            return point, triangulation.cover_locate(point)
        except triangulation.TieOnBoundary:
            pass


def check_located(outcome):
    point, located = outcome
    n = len(point[0])
    lambdas = located.lambdas
    coefficients = [located.a, located.b, located.c] + [lam for _, lam in lambdas]
    if len(lambdas) != 2 * n - 2:
        return f"{len(lambdas)} split coefficients, expected {2 * n - 2}"
    if any(value < 0 for value in coefficients):
        return f"negative barycentric coefficient for {point}"
    if sum(coefficients) != 1:
        return f"barycentric coefficients sum to {sum(coefficients)}"
    total = sum(lam for _, lam in lambdas)
    rebuilt = [1 - total - located.a] * n + [1 - total - located.b] * n
    for bs, lam in lambdas:
        for i in bs.left:
            rebuilt[i - 1] += lam
        for i in bs.right:
            rebuilt[n + i - 1] += lam
    target = [1 - x for x in point[0]] + [1 - x for x in point[1]]
    if rebuilt != target:
        return f"coefficients do not rebuild pi1 of {point}"
    return None


LOCATE_PER_CLASS = 150


def build_locate(rng, tmpdir: str) -> list[Op]:
    """150 points for each n in (3, 4, 5) and denominator in (97, 2^61 - 1),
    in seeded order, plus one unimodularity_check(4)."""
    ops = []
    for n in (3, 4, 5):
        for denominator in (97, P61):
            pool = PointPool(n, denominator, rng, 2 * LOCATE_PER_CLASS)
            kind = f"locate-n{n}-d{denominator.bit_length()}"
            ops += [
                Op(kind, lambda pool=pool: locate_one(pool), check_located)
                for _ in range(LOCATE_PER_CLASS)
            ]
    rng.shuffle(ops)
    ops.append(
        Op(
            "unimodularity-n4",
            lambda: triangulation.unimodularity_check(4),
            lambda ok: None if ok is True else "a simplex at n = 4 is not unimodular",
        )
    )
    return ops


# --------------------------------------------------------------------- routes


def _check_suite(outcome):
    report, error = _json_report(outcome, 0)
    if error:
        return error
    if report["passed"] is not True or report["failures"]:
        return f"check --suite all --n 3 failed: {report['failures']}"
    return None


def _oracle_n4():
    walls = mismatches = 0
    for wall in deformation.enumerate_walls(4):
        walls += 1
        closed = deformation.wall_inequality(wall)
        oracle = deformation.generic_wallcross_oracle(wall)
        if not deformation.same_inequality(closed, oracle):
            mismatches += 1
    return walls, mismatches


def _bn_routes():
    """The descent, h-from-f and Ehrhart routes to B_n for n = 1..5."""
    return [
        (
            invariants.bieulerian_by_descents(n).coefficients,
            invariants.h_from_f(invariants.f_vector_formula(n), 2 * n - 2).coefficients,
            invariants.bieulerian_by_ehrhart(n).coefficients,
        )
        for n in range(1, 6)
    ]


def _check_bn(results):
    for n, routes in enumerate(results, start=1):
        first = routes[0]
        if any(route != first for route in routes):
            return f"the three B_{n} routes disagree: {routes}"
        if sum(first) != chambers(n) or tuple(first) != tuple(reversed(first)):
            return f"B_{n} must be palindromic with B_{n}(1) = (2n)!/2^n: {first}"
    return None


def _check_sweep(result):
    passed, histogram = result
    if not passed or sum(histogram) != chambers(4):
        return f"sweep orientation at n = 4 failed: {histogram}"
    if tuple(histogram) != tuple(reversed(histogram)):
        return f"sweep indegree histogram at n = 4 is not palindromic: {histogram}"
    return None


def _check_symmetry(report):
    if not (
        report.rays_relabel_invariant
        and report.rays_swap_invariant
        and report.vertices_relabel_equivariant
        and report.vertices_swap_reverse
    ):
        return "relabeling/swap symmetry fails at n = 4"
    if report.negation_is_automorphism:
        return "negation must not preserve the fan at n = 4"
    return None


def _sweep_n4():
    report = invariants.sweep_orientation_check(4)
    return report.passed, tuple(report.histogram)


def build_routes(rng, tmpdir: str) -> list[Op]:
    """The independent cross-checks, in a fixed order; the seed drives the
    sampled parts of the n = 3 suite."""
    argv = ["check", "--suite", "all", "--n", "3", "--seed", str(rng.randrange(2**31))]
    return [
        Op("check-all-n3", lambda: call_cli(argv), _check_suite),
        Op(
            "oracle-n4",
            _oracle_n4,
            lambda r: None if r == (WALLS_N4, 0) else f"walls, mismatches = {r}",
        ),
        Op(
            "hyperplane-counts-n4",
            lambda: geometry.hyperplane_face_counts(4).passed,
            lambda ok: None if ok is True else "hyperplane face counts differ at n = 4",
        ),
        Op("bn-routes-n1-5", _bn_routes, _check_bn),
        Op("sweep-n4", _sweep_n4, _check_sweep),
        Op("symmetry-n4", lambda: geometry.symmetry_checks(4), _check_symmetry),
    ]


BATCHES = {
    "nef-queries": build_nef_queries,
    "locate": build_locate,
    "routes": build_routes,
}
