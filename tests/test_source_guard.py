"""The library stays stdlib-only and float-free, checked on its source.

Every module under src/quasicirc is parsed, and the walk fails on an
absolute import of a module outside the standard library (`__future__` is
allowed), on a float literal, and on a call of `float`.

A second walk keeps `Polynomial`'s storage inside `poly` and `intpoly`:
every other module fails on an attribute named `_num`, `_den`, `_width`,
`_exps` or `_terms` (the packed terms, their denominator and field width,
and the two views decoded from them), and on an import from `intpoly`.

A third check reads `pyproject.toml`: the `test` extra names every module
that a test skips itself without, so `pip install -e .[test]` runs them all.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "quasicirc").glob("*.py"))


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


STORAGE_MODULES = {"poly.py", "intpoly.py"}
STORAGE_ATTRIBUTES = {"_num", "_den", "_width", "_exps", "_terms"}


def storage_violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRIBUTES:
            yield f"line {node.lineno}: use of {node.attr}"
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = []
        if any(name.rpartition(".")[2] == "intpoly" for name in names):
            yield f"line {node.lineno}: import from intpoly"


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_stdlib_only_and_float_free(path):
    assert list(violations(path)) == []


OUTSIDE_STORAGE = [path for path in SOURCES if path.name not in STORAGE_MODULES]


@pytest.mark.parametrize("path", OUTSIDE_STORAGE, ids=[path.name for path in OUTSIDE_STORAGE])
def test_storage_stays_in_poly(path):
    assert list(storage_violations(path)) == []


@pytest.mark.parametrize("source,expected", [
    ("import numpy", "import of numpy"),
    ("from sympy.core import S", "import of sympy.core"),
    ("x = 0.5", "float literal 0.5"),
    ("x = 1e3", "float literal 1000.0"),
    ("x = float(y)", "call of float"),
    ("terms = p._num", "use of _num"),
    ("p._den = 1", "use of _den"),
    ("bits = p._width", "use of _width"),
    ("exponents = p._exps", "use of _exps"),
    ("view = p._terms", "use of _terms"),
    ("from .intpoly import evaluate", "import from intpoly"),
    ("from . import intpoly", "import from intpoly"),
])
def test_guard_catches(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(f"from __future__ import annotations\nfrom . import poly\nimport math\n{source}\n")
    found = [*violations(path), *storage_violations(path)]
    assert [v.partition(": ")[2] for v in found] == [expected]


def test_test_extra_holds_every_skippable_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        extra = tomllib.load(handle)["project"]["optional-dependencies"]["test"]
    skippable = {
        name
        for path in (ROOT / "tests").glob("*.py")
        for name in re.findall(r"importorskip\(\"(\w+)", path.read_text(encoding="utf-8"))
        if name not in sys.stdlib_module_names
    }
    assert skippable and skippable <= set(extra)
