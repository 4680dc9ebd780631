"""In-memory span tracer installed around the package's public functions.

The tracer lives entirely in the benchmark: it replaces each traced
function by a wrapper in every module that imported it, so the package
itself is untouched.  A span is (id, parent id, name, start ns, end ns);
spans are kept in a list and written out once, after the timed section.

Functions that return iterators get one span per ``next()``, so a lazy
enumeration is charged to the generator rather than to its consumer, and
``<name>.items`` counts yields.  Exceptions are counted by type at the
function that raised them (``<name>.raised.<Type>``).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, kind): kind is "call" for functions, "iter" for
# functions returning iterators, "method" for "Class.method".
TRACED = (
    ("cli", "main", "call"),
    ("combinatorics", "enumerate_wall_bisequences", "iter"),
    ("combinatorics", "enumerate_bipermutations", "iter"),
    ("combinatorics", "bisequence_of_configuration", "call"),
    ("deformation", "enumerate_walls", "iter"),
    ("deformation", "wall_inequality", "call"),
    ("deformation", "WallInequality.evaluate", "method"),
    ("deformation", "parse_support_csv", "call"),
    ("deformation", "named_support", "call"),
    ("deformation", "is_nef", "call"),
    ("deformation", "is_ample", "call"),
    ("deformation", "minkowski_quotient", "call"),
    ("deformation", "wall_value_table", "call"),
    ("deformation", "generic_wallcross_oracle", "call"),
    ("deformation", "same_inequality", "call"),
    ("linalg", "solve_unique", "call"),
    ("linalg", "nullspace_normal", "call"),
    ("linalg", "det_int", "call"),
    ("triangulation", "cover_locate", "call"),
    ("triangulation", "cover_check", "call"),
    ("triangulation", "unimodularity_check", "call"),
    ("triangulation", "pi1_lattice_check", "call"),
    ("triangulation", "face_to_face_check", "call"),
    ("triangulation", "hstar_consistency", "call"),
    ("geometry", "hyperplane_face_counts", "call"),
    ("geometry", "symmetry_checks", "call"),
    ("geometry", "facet_check", "call"),
    ("invariants", "bieulerian_by_descents", "call"),
    ("invariants", "bieulerian_by_ehrhart", "call"),
    ("invariants", "h_from_f", "call"),
    ("invariants", "f_vector_formula", "call"),
    ("invariants", "f_vector_bruteforce", "call"),
    ("invariants", "f_generating_check", "call"),
    ("invariants", "sweep_orientation_check", "call"),
    ("polynomials", "real_root_check", "call"),
)

PACKAGE = "bipermutahedron"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1

    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        self.counts[name + ".calls"] += 1
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))
        if name == "triangulation.face_to_face_check":
            self.counts[name + ".points"] += result.points
        return result

    def step(self, name, iterator):
        """One ``next()`` of a traced iterator, as its own span."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            item = next(iterator)
        except StopIteration:
            raise
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))
        self.counts[name + ".items"] += 1
        return item

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the spans it caused."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, start, end in self.spans:
            child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for sid, _parent, name, start, end in self.spans:
            totals[name] += end - start - child_ns.get(sid, 0)
        return {name: ns / 1e9 for name, ns in totals.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for record in self.spans:
                handle.write("\t".join(map(str, record)) + "\n")


class _TracedIterator:
    __slots__ = ("_tracer", "_name", "_iterator")

    def __init__(self, tracer: Tracer, name: str, iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.step(self._name, self._iterator)


def _wrap(tracer: Tracer, name: str, fn, kind: str):
    if kind == "iter":
        def traced(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            return _TracedIterator(tracer, name, iter(fn(*args, **kwargs)))
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer) -> None:
    """Rebind every traced function in each package module holding it."""
    modules = [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
    for short, attribute, kind in TRACED:
        owner = sys.modules[f"{PACKAGE}.{short}"]
        name = f"{short}.{attribute}"
        if kind == "method":
            class_name, method = attribute.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, method, _wrap(tracer, name, cls.__dict__[method], kind))
            continue
        original = getattr(owner, attribute)
        traced = _wrap(tracer, name, original, kind)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
