"""Guards on the package layout: module boundaries, the README's module list,
the names the benchmark's tracer wraps and the package's exports."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupanon"


def _modules() -> set[str]:
    return {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def test_no_module_imports_a_private_name_from_a_sibling():
    # A name with a leading underscore belongs to its module; a sibling
    # that needs it should get a public name instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("groupanon")
            )
            if sibling:
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_readme_module_list_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\nModules:", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`\s+\(", paragraph)
    assert len(listed) == len(set(listed))
    assert set(listed) == _modules()


def test_traced_spans_name_functions():
    # perfbench/trace_child.py wraps each span's function at the name the
    # modules in its NAMESPACES import it under, and lists a name it finds
    # nowhere as absent rather than failing.  A rename would drop a layer
    # from the benchmark unnoticed; only these three are absent today.  The
    # tuples are read from the source, so the tracer itself never runs.
    tree = ast.parse((ROOT / "perfbench" / "trace_child.py").read_text(encoding="utf-8"))
    constants = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANS", "NAMESPACES")
    }
    assert constants["NAMESPACES"] == ("groupanon.cli", "groupanon.redistribution")
    namespaces = [importlib.import_module(name) for name in constants["NAMESPACES"]]

    def found(span):
        targets = (getattr(module, span.split(".", 1)[1], None) for module in namespaces)
        return any(callable(fn) and not isinstance(fn, type) for fn in targets)

    absent = [span for span in constants["SPANS"] if not found(span)]
    assert absent == ["matrices.build_reconstruction_matrix", "matrices.apply_matrix", "wavelets.synth_detail"]


def test_every_export_is_used_by_the_readme_or_the_command_line():
    # The package exports the names the README and the command line use, so
    # an export neither names is dead.
    import groupanon

    text = (ROOT / "README.md").read_text(encoding="utf-8") + (PACKAGE / "cli.py").read_text(encoding="utf-8")
    unused = [name for name in groupanon.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_no_module_imports_the_csv_module():
    # The record layer reads and writes the format itself: csv.reader would
    # be a second tokenizer, and csv.writer a second rule for quoting.  The
    # csv module stays only as the tests' oracle.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}: import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] == "csv"]
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                found += [f"{path.name}:{node.lineno}: from csv import {alias.name}" for alias in node.names]
    assert found == []


def test_every_imported_name_is_used():
    # A name a module imports and never reads is left over from code that
    # moved or went.  The package's __init__ uses its imports by listing
    # them in __all__, and a __future__ import is a compiler directive.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(alias.asname or alias.name.split(".")[0]): node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(alias.asname or alias.name): node.lineno for alias in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(importlib.import_module("groupanon").__all__)
        found += [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]
    assert found == []
