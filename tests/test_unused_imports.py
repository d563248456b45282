"""Every name a module of the library imports is used in that module.

No linter ships with the project, so this reads the source with ``ast``: an
imported name counts as used when it appears as a ``Name`` node (attribute
access ``mod.attr`` starts with one) or is listed in ``__all__``.  The
package ``__init__`` imports only to re-export, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "goodfilt"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_checker_sees_an_unused_import():
    assert unused_imports("import math\nimport os.path\nos.getcwd()\n") == ["line 1: math"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
