"""Guards on the package layout: module boundaries and the README's module list."""

import ast
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
