"""Syntax-tree scans: every imported name is used, in the package and the
tests; every private module-level name of the package is read in it;
every exported name is read in it, outside ``__init__``, or has a reason
not to be; and every private name the README cites is defined."""

import ast
import pathlib
import re

import pytest

from wordmeasure import _NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wordmeasure").glob("*.py"))
# the package's __init__ imports names only to re-export them
SOURCES = sorted(
    path
    for path in [*(ROOT / "src" / "wordmeasure").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import annotations\nos.sep\nd()\n"
    assert unused_imports(source) == ["b (line 2)"]


def read_names(node: ast.AST) -> set[str]:
    """Every name read under ``node``, as a name or an attribute."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unread(sources: dict[str, str], wanted: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """The (module, name) pairs of ``wanted`` that no module of ``sources``
    reads, as a name or an attribute.  A function or class body runs only
    if its name is read, so the reads in the definition of a wanted name
    count only once that name is read somewhere that counts: a name read
    only by unread names, or by itself, is unread too."""
    pending, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                (module, node.name) in wanted
            ):
                pending.append(node)
            else:
                read |= read_names(node)
    while live := [node for node in pending if node.name in read]:
        pending = [node for node in pending if node.name not in read]
        for node in live:
            read |= read_names(node)
    return {(module, name) for module, name in wanted if name not in read}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants of ``sources``
    (module name -> text) that no module reads (see ``unread``)."""
    defined = [
        (module, name, node.lineno)
        for module, source in sources.items()
        for node in ast.parse(source).body
        for name in bound_names(node)
        if name.startswith("_") and not name.startswith("__")
    ]
    dead = unread(sources, {(module, name) for module, name, _ in defined})
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if (module, name) in dead]


def test_no_unread_private_name_in_the_package():
    # the tests may read a helper too, but the package must
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\n_LIMIT: int = 1\nclass _Kind: pass\n"
             "__all__ = []\n_used()\n",
        "b": "import a\na._Kind\n",
    }
    assert unread_private_names(sources) == ["a: _dead (line 2)", "a: _LIMIT (line 3)"]


def test_the_scan_finds_a_chain_of_unread_private_names():
    # _a is read only by _b, which nothing reads, and _c only by itself
    sources = {
        "a": "def _a(): pass\ndef _b(): return _a()\ndef _c(): return _c()\n"
             "def _d(): pass\n_E = _d\n_E()\n",
        "b": "import a\na._d\n",
    }
    assert unread_private_names(sources) == [
        "a: _a (line 1)", "a: _b (line 2)", "a: _c (line 3)"
    ]


# exported names that the package itself never reads, and why they stay
UNREAD_EXPORTS = {
    "trace_leading": "perfbench/replay.py wraps it",
    "parity_report": "perfbench/replay.py wraps it",
    "wg": "perfbench/replay.py wraps it",
    "parse_tuple": "the README example and tests/conftest.py build tuples with it",
}


def unread_exports(exports: dict[str, tuple[str, ...]], sources: dict[str, str]) -> list[str]:
    """Names of ``exports`` (module -> names) that no module of ``sources``
    reads (see ``unread``)."""
    dead = unread(sources, {(module, name) for module, names in exports.items() for name in names})
    return [f"{module}: {name}" for module, names in exports.items() for name in names
            if (module, name) in dead]


def test_every_export_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE if path.name != "__init__.py"}
    exported = {name: module for module, names in _NAMES.items() for name in names}
    assert set(UNREAD_EXPORTS) <= set(exported), "an allowed name is no longer exported"
    assert sorted(unread_exports(_NAMES, sources)) == sorted(
        f"{exported[name]}: {name}" for name in UNREAD_EXPORTS
    )


def test_the_scan_finds_an_unread_export():
    sources = {
        "a": "class Used: pass\ndef dead(): pass\ndef called(): pass\n",
        "b": "from a import Used\nimport a\nx: Used = a.called()\n",
    }
    exports = {"a": ("Used", "dead", "called"), "b": ("x",)}
    assert unread_exports(exports, sources) == ["a: dead", "b: x"]


def test_the_scan_finds_an_export_read_only_by_an_unread_export():
    sources = {
        "a": "def base(): pass\ndef top(): return base()\ndef kept(): pass\n",
        "b": "from a import kept\nkept()\n",
    }
    exports = {"a": ("base", "top", "kept")}
    assert unread_exports(exports, sources) == ["a: base", "a: top"]


def undefined_cited_names(text: str, sources: list[str]) -> list[str]:
    """Private names that ``text`` cites in backticks, such as `_lay`, and
    that no module-level statement of ``sources`` defines."""
    defined = {name for source in sources for node in ast.parse(source).body
               for name in bound_names(node)}
    return sorted(set(re.findall(r"`(_[A-Za-z]\w*)`", text)) - defined)


def test_the_readme_cites_only_defined_private_names():
    sources = [path.read_text(encoding="utf-8")
               for path in [*PACKAGE, ROOT / "tests" / "oracles.py"]]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert undefined_cited_names(readme, sources) == []


def test_the_scan_finds_an_undefined_cited_name():
    text = "`_kept` and `_gone` do it; `__slots__` and `_kept()` are not names"
    assert undefined_cited_names(text, ["def _kept(): pass\n"]) == ["_gone"]
