"""Tooling checks: the benchmark's span tracer names only functions the
package still has, the package imports nothing it does not use, and the
README's command line tour prints what it shows."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from bipermutahedron import cli

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
