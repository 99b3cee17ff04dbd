"""Every name a module of the package imports is used in that module."""

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
