"""Every name a module of the package imports is used in that module,
every private top-level name is read somewhere in the package, every public
one, exported or not, is read there too or is allowlisted with its reason,
and the chain oracle imports nothing of the package but the poset."""

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


def unread_names(sources, wanted):
    """(module, name) for each top-level name of a module in sources
    (module name -> source) with wanted(module, name) true that no code of
    any module reads outside the statement that defines it.  Each read
    resolves to the module that binds the name: a loaded bare name to the
    module m of a `from .m import name` line of the reading module, else to
    the reading module itself; `m.name` to m where the reading module binds
    m by `from . import m`.  No other attribute is a read, and an import
    alone is not one."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = {}
    for mod, tree in trees.items():
        imported, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = imported.get(node.id, (mod, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                key = (node.value.id, node.attr)
            else:
                continue
            reads.setdefault(key, []).append(node)
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
            out += [(mod, name) for name in names if wanted(mod, name)
                    and all(id(node) in inside for node in reads.get((mod, name), []))]
    return sorted(out)


def test_unread_names_resolves_each_read_to_the_module_that_binds_it():
    # operator.mul and a ring's .mul are not reads of a.mul, nor is a local
    # mul of another module; an aliased import and a module attribute are
    sources = {"a": ("import operator\n"
                     "def mul(x, y):\n"
                     "    return operator.mul(x, y)\n"
                     "def add(x, y):\n"
                     "    return x\n"
                     "def sub(x, y):\n"
                     "    return x\n"
                     "class Ring:\n"
                     "    mul = operator.mul\n"),
               "b": ("from . import a\n"
                     "from .a import Ring, add as plus\n"
                     "def f(ring, mul):\n"
                     "    return ring.mul(1, 2), mul, plus(1, 2), a.sub(1, 2), Ring\n")}
    assert unread_names(sources, lambda mod, name: mod == "a") == [("a", "mul")]


def unread_private_names(sources):
    return unread_names(sources, lambda mod, name: name.startswith("_")
                        and not name.startswith("__"))


def exported_names(init_source):
    """(module, name) for each name the package's __init__ imports from
    one of its modules."""
    return {(node.module, alias.name) for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_private_name_is_read_outside_its_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_names_sees_defs_classes_and_assignments():
    sources = {"a": ("from .b import _helper\n"
                     "_TABLE = 1\n"
                     "_USED: int = 2\n"
                     "def _loop(n):\n"
                     "    return _loop(n - 1) if n else _USED\n"
                     "class _Box:\n"
                     "    pass\n"
                     "def public():\n"
                     "    return _helper(), __name__\n"),
               "b": ("from .a import _Box, _TABLE\n"
                     "def _helper():\n"
                     "    return _Box\n")}
    assert unread_private_names(sources) == [("a", "_TABLE"), ("a", "_loop")]


TRACED = "bound for perfbench/tracer.py's TARGETS until ROADMAP item 1c"
JOIN = "ROADMAP item 5 makes the natural join and layers a checked route"
SEQUENCE = "a sequence entry point of the library; the CLI reaches it through preset"

# Exported names that no code of the package reads, each with the reason it
# stays.  A new export needs a caller in the package or a line here, and a
# name that gains a caller leaves the list.
UNREAD_EXPORTS = {
    ("chains", "count_head_chains"): TRACED,
    ("chains", "count_tail_chains"): TRACED,
    ("chains", "enumerate_max_chains"): TRACED,
    ("invariants", "whitney_first"): TRACED,
    ("incidence", "logic_L"): "the matrix of the rows the zeta suite reads from _logic_L_rows",
    ("blockmat", "nilpotent_closure"): TRACED,
    ("blockmat", "unitriangular_inverse"): TRACED,
    ("blockmat", "mul"): "the algebra's product, which the README's library example calls",
    ("blockmat", "add"): "the algebra's sum, which the tests hold mul to",
    ("poset", "layer"): JOIN,
    ("poset", "natural_join"): JOIN,
    ("fsequence", "custom"): SEQUENCE,
    ("fsequence", "fib"): SEQUENCE,
    ("fsequence", "nat"): SEQUENCE,
}

# Public top-level names that __init__ does not export and no code of the
# package reads, each with the reason it stays, under the same rule.
UNREAD_UNEXPORTED = {
    ("blockmat", "natural_join"): JOIN + "; acceptance criterion 11 holds "
                                  "max_inverse and eta_inverse to it",
    ("formats", "chains_to_json"): TRACED,
}


def test_every_exported_name_is_read_or_allowlisted():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    exported = exported_names(sources["__init__"])
    assert unread_names(sources, lambda mod, name: (mod, name) in exported) == \
        sorted(UNREAD_EXPORTS)


def test_every_unexported_public_name_is_read_or_allowlisted():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    exported = exported_names(sources["__init__"])
    assert unread_names(sources, lambda mod, name: mod != "__init__"
                        and not name.startswith("_")
                        and (mod, name) not in exported) == sorted(UNREAD_UNEXPORTED)


def test_exported_names_keys_each_name_by_its_module():
    source = ("from .a import x, y as z\n"
              "from .b import (w)\n"
              "__version__ = '1'\n")
    assert exported_names(source) == {("a", "x"), ("a", "y"), ("b", "w")}


def package_imports(source):
    """The modules of the package that source imports, by relative import."""
    return {node.module for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level}


def test_the_chain_oracle_imports_only_the_poset():
    # a fault in the matrix routes it is held against cannot reach it
    assert package_imports((SRC / "chains.py").read_text(encoding="utf-8")) == {"poset"}


def test_package_imports_sees_only_relative_imports():
    source = ("import json\n"
              "from typing import List\n"
              "from .poset import GradedPoset\n"
              "def f():\n"
              "    from .blockmat import INT\n")
    assert package_imports(source) == {"poset", "blockmat"}
