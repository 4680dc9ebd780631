"""The benchmark's span tracer names only functions the package still has."""

import ast
import importlib
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
