"""Every name a module of the package imports is used in that module, and
every private top-level name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cobweb"


def unused_imports(source: str):
    """Names bound by an import anywhere in source (function bodies and
    TYPE_CHECKING blocks included) that no expression of source reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_no_unused_name(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


def test_unused_imports_sees_every_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from typing import TYPE_CHECKING, List\n"
              "from .blockmat import INT as I, BlockMatrix\n"
              "if TYPE_CHECKING:\n"
              "    from fractions import Fraction\n"
              "def f(x: List[int]) -> BlockMatrix:\n"
              "    import struct\n"
              "    return json.dumps(x) if TYPE_CHECKING else os.sep\n")
    assert unused_imports(source) == [(4, "I"), (6, "Fraction"), (8, "struct")]


def unread_private_names(sources):
    """(module, name) for each private top-level name of a module in
    sources (module name -> source) that no code of any module reads
    outside the statement that defines it.  A read is a loaded name or an
    attribute; an import alone is not one."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    out = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = set(map(id, ast.walk(stmt)))
            out += [(mod, name) for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and all(id(node) in inside for node in reads.get(name, []))]
    return sorted(out)


def test_every_private_name_is_read_outside_its_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_names_sees_defs_classes_and_assignments():
    sources = {"a": ("_TABLE = 1\n"
                     "_USED: int = 2\n"
                     "def _loop(n):\n"
                     "    return _loop(n - 1) if n else _USED\n"
                     "class _Box:\n"
                     "    pass\n"
                     "def public():\n"
                     "    return _helper(), __name__\n"),
               "b": ("from a import _Box, _TABLE\n"
                     "def _helper():\n"
                     "    return _Box\n")}
    assert unread_private_names(sources) == [("a", "_TABLE"), ("a", "_loop")]
