"""Tooling checks: the benchmark's span tracer names only functions the
package still has, and the routes call the kernel under those names; the
benchmark's workloads build and pass their own checks, and every package
attribute they read resolves; the package imports nothing it does not use
and has no ``assert`` statement; a ``Bisubset`` is built in one place
only, a support refuses another n in one, and a table entry only where a
row is built, merged or walked;
each kernel entry checks that its entries are ints before it eliminates;
every public function and method has a caller outside the tests; the
README's command line tour prints what it shows, and its Python blocks
run; a support that reads S|T only through its size pair never
reads the inequality table from the CLI; every private function and class
is referenced outside its own definition; pi1 and a kind-B wall's doubled
word are each applied in one place, and a cone query's walk is chosen in
one; a wall's kind is compared only where it is decoded or dispatched on;
no query takes an n that its inputs already fix; a part's mask has one
rule, which alone fills the split table's mask memo; the lineality rows are
cached as tuples."""

import ast
import importlib
import importlib.util
import inspect
import random
import re
import shlex
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from bipermutahedron import cli, combinatorics, deformation, geometry, invariants

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """TRACED from perfbench/tracer.py, read with ast, never imported."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED assignment in {TRACER}")


def resolves(module, attribute, kind):
    owner = importlib.import_module(f"bipermutahedron.{module}")
    if kind == "method":
        class_name, method = attribute.split(".")
        # The tracer rebinds the method found in the class's own namespace.
        return callable(vars(getattr(owner, class_name, object)).get(method))
    return callable(getattr(owner, attribute, None))


def test_every_traced_name_resolves():
    names = traced_names()
    assert {kind for _, _, kind in names} == {"call", "iter", "method"}
    missing = [f"{m}.{a}" for m, a, kind in names if not resolves(m, a, kind)]
    assert missing == []


def test_routes_call_the_traced_kernel_names(monkeypatch):
    # The tracer rebinds module attributes, so it sees an elimination only
    # if the route calls the kernel through the name it imported.
    calls = {"solve_unique": 0, "nullspace_normal": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(deformation, "solve_unique")
    counting(geometry, "nullspace_normal")
    for wall in deformation.enumerate_walls(3):
        deformation.generic_wallcross_oracle(wall)
    assert geometry.hyperplane_face_counts(3).passed
    assert calls == {"solve_unique": 180, "nullspace_normal": 180}


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_workload_kind_runs_and_passes_its_check(monkeypatch, tmp_path):
    # oracle-n4 (about 1.4 s) is left out: the names it reads are checked
    # below, and the oracle itself by test_closed_forms_match_dependence_solver.
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    ran = []
    for name, build in workloads.BATCHES.items():
        workdir = tmp_path / name
        workdir.mkdir()
        kinds = set()
        for op in build(random.Random(23), str(workdir)):
            if op.kind in kinds or op.kind == "oracle-n4":
                continue
            kinds.add(op.kind)
            assert op.check(op.run()) is None, op.kind
        ran.append(len(kinds))
    assert ran == [6, 7, 5]


def test_every_package_attribute_a_workload_reads_resolves():
    modules = ("cli", "deformation", "geometry", "invariants", "triangulation")
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {module for module, _ in read} == set(modules)
    missing = [
        f"{module}.{attribute}"
        for module, attribute in sorted(read)
        if not hasattr(importlib.import_module(f"bipermutahedron.{module}"), attribute)
    ]
    assert missing == []


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bipermutahedron"


def unused_imports(path):
    """Names a module imports but never uses.

    A name counts as used if it appears as a Name node (annotations
    included), on a ``>>>`` doctest line, or in ``__all__``.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for line in source.splitlines():
        if line.strip().startswith(">>>"):
            used.update(re.findall(r"[A-Za-z_]\w*", line.strip()[3:]))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    unused = [
        f"{path.stem}.{name}" for path in modules for name in unused_imports(path)
    ]
    assert unused == []


def test_package_has_no_assert_statements():
    # Guards must be exceptions: python -O strips assert statements.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    asserts = [
        f"{path.stem}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def call_sites(path, callee, where=lambda call: True):
    """The qualified name of the def around each call of ``callee`` in a
    module for which ``where(call)`` holds, or "<module>" for a call outside
    every def."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee and where(child):
                    sites.append(f"{path.stem}.{scope or '<module>'}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sites


def test_bisubsets_are_built_in_one_place():
    # Every split the package hands out is the split table's object, a
    # validated bisubset from outside input too.  The CSV parser probes with
    # a plain tuple, which a Bisubset equals and hashes as.
    modules = sorted(PACKAGE.glob("*.py"))
    sites = [site for path in modules for site in call_sites(path, "Bisubset")]
    assert sites == ["combinatorics._SplitTable.__missing__"]


def test_a_support_refuses_another_n_in_one_place():
    # A lookup h[bs], an inequality's evaluation and the cone queries' walk
    # all ask the support itself, so its message is written once.
    modules = sorted(PACKAGE.glob("*.py"))
    text = "support function is for n ="
    counts = {path.stem: path.read_text(encoding="utf-8").count(text) for path in modules}
    assert {stem: count for stem, count in counts.items() if count} == {"geometry": 1}
    sites = [site for path in modules for site in call_sites(path, "require_n")]
    assert sorted(sites) == [
        "deformation.WallInequality.evaluate",
        "deformation._walk",
        "geometry.SupportFunction.__getitem__",
    ]


def test_the_inequality_table_is_refused_in_one_place():
    # The queries reach the table only through _walk, which refuses it past
    # n = 6; the CLI bounds nef-check and quotient by the support row alone.
    modules = sorted(PACKAGE.glob("*.py"))
    counts = {path.stem: path.read_text(encoding="utf-8").count("37422000") for path in modules}
    assert {stem: count for stem, count in counts.items() if count} == {"deformation": 1}
    sites = [site for path in modules for site in call_sites(path, "_inequality_table")]
    assert sorted(sites) == ["deformation._walk", "deformation.inequality_table_check"]


def test_table_rows_have_one_rule_each():
    # A table entry is built where a row is (a kind-A row by one rule for
    # the labelled table and the canonical classes alike, a kind-B chain or
    # size sequence), where rows merge, and by the walk that checks them.
    modules = sorted(PACKAGE.glob("*.py"))
    sites = [site for path in modules for site in call_sites(path, "_TableEntry")]
    assert sorted(sites) == [
        "deformation._kind_a_row",
        "deformation._kind_b_classes.emit",
        "deformation._kind_b_entries.extend",
        "deformation._merged",
        "deformation.inequality_table_check",
    ]
    deformation_py = PACKAGE / "deformation.py"
    assert sorted(call_sites(deformation_py, "_kind_a_row")) == [
        "deformation._kind_a_classes",
        "deformation._kind_a_entries",
    ]
    assert sorted(set(call_sites(deformation_py, "_merged"))) == [
        "deformation._kind_a_classes",
        "deformation._kind_a_entries",
        "deformation.inequality_table_check",
    ]


# The modules that read walls: where they are built, walked and classified.
WALL_MODULES = [
    PACKAGE / f"{name}.py" for name in ("combinatorics", "deformation", "geometry")
]


def wall_module_call_sites(callee):
    return sorted(site for path in WALL_MODULES for site in call_sites(path, callee))


def test_each_projection_and_decode_has_one_home():
    # pi1 is applied by the point location and by the lattice certificate
    # alike; a wall is decoded by its cached properties only (the other
    # doubled words are a bipermutation's: its descents and its vertex);
    # the wall tree sums its spine from the ray rows, looping over no
    # split's sets.
    assert sorted(call_sites(PACKAGE / "triangulation.py", "_pi1")) == [
        "triangulation.cover_locate",
        "triangulation.pi1_lattice_check",
    ]
    assert wall_module_call_sites("_kind_a_parts") == ["combinatorics.Wall.kind_a_parts"]
    assert wall_module_call_sites("doubled_word") == [
        "combinatorics.Wall.kind_b_word",
        "combinatorics.descents",
        "geometry.vertex_of_bipermutation",
    ]
    deformation_py = PACKAGE / "deformation.py"
    tree = ast.parse(deformation_py.read_text(encoding="utf-8"))
    (wall_tree,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "wall_tree"
    ]
    loops = [
        node.iter.attr
        for node in ast.walk(wall_tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Attribute)
    ]
    assert not {"left", "right"} & set(loops)
    # The cone queries' shared helper picks their walk: the size classes are
    # read only there, and the table there and by the walk that checks it.
    assert call_sites(deformation_py, "_size_classes") == ["deformation._walk"]
    assert sorted(call_sites(deformation_py, "_inequality_table")) == [
        "deformation._walk",
        "deformation.inequality_table_check",
    ]


def test_a_support_is_scaled_once_where_it_is_built():
    # A support holds its values as ints over one scale, so no query
    # rescales it; location scales its own rational table.
    sites = [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in call_sites(path, "_scaled_integers")
    ]
    assert sorted(sites) == [
        "geometry.SupportFunction.__post_init__",
        "triangulation.cover_locate",
    ]


def test_a_walls_kind_is_compared_where_it_is_decoded_or_dispatched():
    # Each decode refuses a wall of the other kind, so the kind-specific
    # constructions that read it first check no kind of their own.
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "kind"
                for side in (child.left, *child.comparators)
            ):
                scopes.add(scope or "<module>")
            visit(child, inner)

    for path in WALL_MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert scopes == {
        "combinatorics.Wall.kind_a_parts",
        "combinatorics.Wall.kind_b_word",
        "deformation.wall_refinements",
        "deformation.wall_inequality",
        "deformation.inequality_table_check",
        "geometry.structural_wall_type",
    }


def test_queries_take_no_n_their_inputs_fix():
    # A support knows its n, a wall normal has 2n entries, and the series
    # behind the generating-function check needs 2n vertices for n edges.
    queries = (
        deformation.is_nef,
        deformation.is_ample,
        deformation.wall_value_table,
        deformation.minkowski_quotient,
        geometry.classify_wall_normal,
        invariants.f_generating_check,
    )
    assert {f.__name__: list(inspect.signature(f).parameters) for f in queries} == {
        "is_nef": ["h"],
        "is_ample": ["h"],
        "wall_value_table": ["h"],
        "minkowski_quotient": ["p", "q"],
        "classify_wall_normal": ["normal"],
        "f_generating_check": ["max_n"],
    }


def test_kernel_entries_check_their_entries_before_eliminating():
    # The kernel's floor divisions are exact only on ints, so each entry's
    # body runs _require_ints as a statement of its own before the first
    # statement that reaches _bareiss.
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    entries = {"det_int", "solve_unique", "nullspace_normal"}
    guarded = set()
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name in entries):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and getattr(stmt.value.func, "id", None) == "_require_ints"
            ):
                guarded.add(node.name)
            if any(
                isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_bareiss"
                for child in ast.walk(stmt)
            ):
                break
        else:
            raise AssertionError(f"linalg.{node.name} never calls _bareiss")
    assert guarded == entries


def reads_element_bits(call):
    """Whether a call reads ``(1).__lshift__``, the bit of an element."""
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "__lshift__"
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
        for node in ast.walk(call)
    )


def test_a_parts_mask_has_one_rule():
    # _mask is the one sum of element bits; the split table's mask memo is
    # filled by _mask on lookup and written nowhere else.
    modules = sorted(PACKAGE.glob("*.py"))
    sums = [site for path in modules for site in call_sites(path, "sum", reads_element_bits)]
    assert sums == ["combinatorics._mask"]
    combinatorics_py = PACKAGE / "combinatorics.py"
    assert call_sites(combinatorics_py, "_MaskMemo") == ["combinatorics._SplitTable.__init__"]
    assert "combinatorics._MaskMemo.__missing__" in call_sites(combinatorics_py, "_mask")

    def names_masks(node):
        return getattr(node, "attr", getattr(node, "id", None)) == "masks"

    writes = [
        f"{path.stem}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and names_masks(node.value)
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr in {"update", "setdefault", "__setitem__"}
            and names_masks(node.value)
        )
    ]
    assert writes == []
    walls = list(deformation.enumerate_walls(3))
    for wall in walls:
        combinatorics.splits_of(wall)
    masks = combinatorics._split_table(3).masks
    assert {part for wall in walls for part in wall.parts} <= masks.keys()
    assert all(mask == combinatorics._mask(part) for part, mask in masks.items())


def test_lineality_rows_are_built_once_as_tuples():
    # The oracle, the wall normals and the unimodularity check share the
    # cached rows, so a caller must not be able to change them.
    rows = geometry._lineality_rows(3)
    assert rows is geometry._lineality_rows(3)
    assert rows == ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1))
    assert type(rows) is tuple and {type(row) for row in rows} == {tuple}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public names that nothing in the package or the benchmark calls, each with
# the reason it stays.
CALLED_ONLY_BY_TESTS = {
    "combinatorics.parse_bipermutation": "the documented parser of the word notation",
    "combinatorics.parse_bisequence": "the documented parser of the word notation",
    "polynomials.count_distinct_real_roots": (
        "the Sturm root count that the tests check against known roots"
    ),
    "geometry.SupportFunction.combine": (
        "the library constructor for the deformations aB + bH that the "
        "nef-cone claims range over"
    ),
}


def name_references(path):
    """(name, line) for each Name and Attribute node of a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def public_definitions(path):
    """(qualified name, node) for each public def or class of a module and
    each public method of its classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def private_definitions(path):
    """(name, node) for each private def or class at a module's top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, node


def unreferenced(definitions):
    """"module.qualified" for each (qualified name, node) of
    ``definitions(path)`` over the package's modules whose name no Name or
    Attribute node of the package or the benchmark reads outside the
    definition itself.  Imports, __all__ strings and doctests are not
    references."""
    sources = sorted(PACKAGE.parent.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py"))
    references = defaultdict(list)
    for path in sources:
        for name, line in name_references(path):
            references[name].append((path, line))
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(path):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in references[node.name]):
                yield f"{path.stem}.{qualified}"


def test_every_public_function_has_a_caller():
    # A public def, class or method that only the tests reach is wired into
    # a route or deleted.  A method is found by its name alone, so one that
    # shares a name with another attribute (as LocatedPoint.coefficients did
    # with IntPolynomial.coefficients) has to be checked by hand.
    uncalled = list(unreferenced(public_definitions))
    assert [name for name in uncalled if name not in CALLED_ONLY_BY_TESTS] == []
    assert sorted(uncalled) == sorted(CALLED_ONLY_BY_TESTS)


def test_every_private_function_is_referenced():
    # A private helper that a refactor leaves behind unused is deleted with
    # the code that used it.
    assert list(unreferenced(private_definitions)) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_tour():
    """(command, shown output lines) for each ``$ bipermutahedron ...`` line
    in the README's ``sh`` blocks; the shown lines run to the next ``$``
    line or the end of the block."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        examples = []
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            elif examples:
                examples[-1][1].append(line)
        yield from (ex for ex in examples if ex[0].startswith("bipermutahedron "))


def test_readme_tour_runs_as_shown(capsys, monkeypatch, tmp_path):
    # The tour runs in a scratch directory, where `> FILE` writes the output
    # to FILE for the examples that read it back.
    monkeypatch.chdir(tmp_path)
    examples = list(readme_tour())
    assert len(examples) >= 10
    for line, shown in examples:
        command, _, comment = line.partition("#")
        exit_comment = re.match(r"\s*exit (\d+)", comment)
        command, _, head = command.partition("|")
        command, _, target = command.partition(">")
        code = cli.main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == (int(exit_comment[1]) if exit_comment else 0), line
        if target:
            Path(target.strip()).write_text(out, encoding="utf-8")
        lines = out.splitlines()
        if head:
            lines = lines[: int(re.fullmatch(r"\s*head -(\d+)\s*", head)[1])]
        if shown:
            assert lines == shown, line


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_public_name_resolves():
    # A deleted function or type must not leave a dangling export behind.
    modules = [
        "bipermutahedron",
        "bipermutahedron.invariants",
        "bipermutahedron.deformation",
        "bipermutahedron.polynomials",
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in map(importlib.import_module, modules)
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_symmetric_supports_make_no_table_call(capsys, monkeypatch, tmp_path):
    # A support that reads S|T only through its size pair is evaluated per
    # size class, whether it is named or read from a CSV, and the classes are
    # generated in closed form, so no table entry is generated; one value off
    # makes the queries read the inequality table.
    calls = []

    def counted(name):
        real = getattr(deformation, name)

        def call(n):
            calls.append(name)
            return real(n)

        return call

    for name in ("_inequality_table", "_kind_a_entries", "_kind_b_entries"):
        monkeypatch.setattr(deformation, name, counted(name))
    for n in (3, 4):
        text = deformation.format_support_csv(deformation.named_support("harmonic", n))
        symmetric, off = tmp_path / f"harmonic-{n}.csv", tmp_path / f"off-{n}.csv"
        symmetric.write_text(text, encoding="utf-8")
        head, last = text.rstrip("\n").rsplit("\n", 1)
        left, right, value = last.split(";")
        off.write_text(f"{head}\n{left};{right};{Fraction(value) + 1}\n", encoding="utf-8")
        for support in ("harmonic", symmetric, off):
            outputs = []
            for argv in (
                ["nef-check", "--support", str(support)],
                ["nef-check", "--support", str(support), "--ample"],
                ["quotient", "--p", "biperm", "--q", str(support)],
            ):
                calls.clear()
                code = cli.main([*argv, "--n", str(n), "--format", "text"])
                outputs.append((code, *capsys.readouterr()))
                if support == off:
                    assert calls[:2] == ["_inequality_table", "_kind_a_entries"], argv
                else:
                    assert calls == [], (support, argv)
            if support == "harmonic":
                named = outputs
            elif support == symmetric:
                assert outputs == named
