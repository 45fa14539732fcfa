"""Syntax-tree scans: every imported name is used, in the package and the
tests, and every private module-level name of the package is read in it."""

import ast
import pathlib

import pytest

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants of ``sources``
    (module name -> text) that no module reads, as a name or an attribute."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (module, name, node.lineno)
                for name in names if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


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
