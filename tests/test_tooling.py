"""The benchmark's span tracer names only functions the package still has."""

import ast
import importlib
import re
from pathlib import Path

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
