"""The library stays stdlib-only and float-free, checked on its source.

Every module under src/quasicirc is parsed, and the walk fails on an
absolute import of a module outside the standard library (`__future__` is
allowed), on a float literal, and on a call of `float`.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "quasicirc").glob("*.py"))


def violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            top = name.partition(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                yield f"line {node.lineno}: import of {name}"
        if isinstance(node, ast.Constant) and type(node.value) is float:
            yield f"line {node.lineno}: float literal {node.value!r}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield f"line {node.lineno}: call of float"


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_stdlib_only_and_float_free(path):
    assert list(violations(path)) == []


@pytest.mark.parametrize("source,expected", [
    ("import numpy", "import of numpy"),
    ("from sympy.core import S", "import of sympy.core"),
    ("x = 0.5", "float literal 0.5"),
    ("x = 1e3", "float literal 1000.0"),
    ("x = float(y)", "call of float"),
])
def test_guard_catches(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(f"from __future__ import annotations\nfrom . import poly\nimport math\n{source}\n")
    assert [v.partition(": ")[2] for v in violations(path)] == [expected]
