"""Every name a module of the library imports is used in that module, and
every private function or method of the library is used somewhere in it.

No linter ships with the project, so this reads the source with ``ast``: an
imported name counts as used when it appears as a ``Name`` node (attribute
access ``mod.attr`` starts with one) or is listed in ``__all__``.  The
package ``__init__`` imports only to re-export, so it is not checked.  A
private (underscore-prefixed, not dunder) module-level function or method
counts as used when a ``Name`` or an attribute of that name appears in the
package outside its own definition.  A private instance attribute that a
class assigns (``self._x = ...``) counts as used when the package reads an
attribute of that name: storing into it (``self._x[k] = v``) or calling a
method of it as a statement (``self._x.append(v)``) is no read, so a memo
that nothing looks up any more is found.

The prose names no private name that is gone: every private name that a
module of the library quotes in double backticks (``_x``, ``mod._x``,
``Cls._x``; dunders excepted), and every one that README quotes in single
backticks, is defined in the package.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "goodfilt"
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and methods of ``sources``
    ({file name: source}) that nothing outside their own definition names."""
    defined, used = [], []
    for name, source in sources.items():
        tree = ast.parse(source)
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in [tree.body, *classes]:
            defined += [
                (name, node) for node in body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.endswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                used.append((name, node.id if isinstance(node, ast.Name) else node.attr, node.lineno))
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, node in defined
        if not any(
            ref == node.name and not (where == name and node.lineno <= line <= node.end_lineno)
            for where, ref, line in used
        )
    ]


def test_the_checker_sees_an_unused_private_name():
    source = (
        "def _used():\n    pass\n"
        "def _dead():\n    return _dead()\n"
        "class C:\n"
        "    def __init__(self):\n        _used()\n"
        "    def _method(self):\n        pass\n"
        "    def _called(self):\n        pass\n"
    )
    assert unused_private_names({"a.py": source, "b.py": "C()._called()\n"}) == [
        "a.py line 3: _dead", "a.py line 8: _method"
    ]


def test_every_private_name_is_used():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def write_only_attributes(sources: dict[str, str]) -> list[str]:
    """The private instance attributes assigned in ``sources`` ({file
    name: source}) whose name nothing in them reads, each at its first
    assignment."""
    assigned, reads = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        written_through = set()  # ids of attribute nodes a statement only writes into
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr.startswith("_") and not node.attr.endswith("__")):
                key = name, node.attr
                assigned[key] = min(node.lineno, assigned.get(key, node.lineno))
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                written_through.add(id(node.value))
            elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)):
                written_through.add(id(node.value.func.value))
        reads |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in written_through
        }
    return [
        f"{name} line {line}: {attr}"
        for line, name, attr in sorted((line, *key) for key, line in assigned.items())
        if attr not in reads
    ]


def test_the_checker_sees_a_write_only_attribute():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self._read, self._stored, self._appended = {}, {}, []\n"
        "        self._elsewhere: int = 0\n"
        "        self._counted = 0\n"
        "    def f(self, k):\n"
        "        self._stored[k] = self._read.get(k)\n"
        "        self._appended.append(k)\n"
        "        self._counted += 1\n"
    )
    assert write_only_attributes({"a.py": source, "b.py": "print(C()._elsewhere)\n"}) == [
        "a.py line 3: _appended", "a.py line 3: _stored", "a.py line 5: _counted",
    ]


def test_every_private_attribute_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert write_only_attributes(sources) == []


def _binds(node) -> set[str]:
    """The names that a definition or an assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
    return set()


def defined_names(sources: dict[str, str]) -> set[str]:
    """What a quoted name may resolve to in ``sources`` ({file name:
    source}): every function, class, assigned name and stored attribute,
    bare; a module-level one also as ``mod.name``; a member of a class (a
    method, a class attribute or ``self.name``) also as ``Cls.name``."""
    names = set()
    for file_name, source in sources.items():
        tree, mod = ast.parse(source), Path(file_name).stem
        for node in ast.walk(tree):
            names |= _binds(node)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        for node in tree.body:
            names |= {f"{mod}.{name}" for name in _binds(node)}
            if isinstance(node, ast.ClassDef):
                members = set().union(*map(_binds, node.body)) | {
                    n.attr for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                }
                names |= {f"{node.name}.{name}" for name in members}
    return names


def stale_private_names(texts: dict[str, str], quote: str, defined: set[str]) -> list[str]:
    """The private names that ``texts`` ({file name: text}) quote between
    ``quote`` marks and that ``defined`` lacks, as 'file line n: name'."""
    pattern = re.compile(rf"{quote}((?:\w+\.)*_\w+){quote}")
    return [
        f"{name} line {text.count(chr(10), 0, m.start()) + 1}: {m.group(1)}"
        for name, text in texts.items()
        for m in pattern.finditer(text)
        if not m.group(1).split(".")[-1].endswith("__") and m.group(1) not in defined
    ]


def test_the_checker_sees_a_stale_private_name():
    source = (
        '"""See ``_kept``, ``a._kept``, ``C._method``, ``C._slot`` and ``__init__``;\n'
        'not ``_gone`` or ``b._kept``."""\n'
        "_kept = 1\n"
        "class C:\n"
        "    def _method(self):\n        self._slot = 0  # ``a._gone``\n"
    )
    defined = defined_names({"a.py": source})
    assert stale_private_names({"a.py": source}, "``", defined) == [
        "a.py line 2: _gone", "a.py line 2: b._kept", "a.py line 6: a._gone"
    ]
    assert stale_private_names({"README.md": "`_kept` and\n`C._gone`"}, "`", defined) == [
        "README.md line 2: C._gone"
    ]


def test_the_docs_quote_no_stale_private_name():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    defined = defined_names(sources)
    readme = {"README.md": (ROOT / "README.md").read_text()}
    assert stale_private_names(sources, "``", defined) == []
    assert stale_private_names(readme, "`", defined) == []
