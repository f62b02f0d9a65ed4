"""Rules every module under src/apnsurf keeps, checked on its syntax tree.

- no assert statement: a check that guards a result is an explicit raise,
  which python -O does not strip;
- no numba import: the kernels are numpy only;
- no read of APNSURF_BACKEND: there is one backend, so nothing to select;
- no parameter named seed: every result is deterministic, so a seed
  would be a knob that changes nothing;
- TriPoly.__new__ is called from one function, the unchecked
  constructor: every other TriPoly goes through it or through the
  checking public constructor.

The repro/ scripts keep the first rule too: their checks guard the
counts and tables they report.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "apnsurf"
MODULES = sorted(SRC.glob("*.py"))
REPRO_SCRIPTS = sorted((ROOT / "repro").glob("*.py"))


def violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numba":
                    yield node.lineno, "numba import"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numba":
                yield node.lineno, "numba import"
        elif isinstance(node, ast.Constant) and node.value == "APNSURF_BACKEND":
            yield node.lineno, "APNSURF_BACKEND read"
        elif isinstance(node, ast.arg) and node.arg == "seed":
            yield node.lineno, "seed parameter"


def test_modules_found():
    assert len(MODULES) >= 10
    assert len(REPRO_SCRIPTS) >= 4


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_source_rules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(violations(tree)) == []


@pytest.mark.parametrize("path", REPRO_SCRIPTS, ids=lambda p: p.name)
def test_repro_scripts_have_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [v for v in violations(tree) if v[1] == "assert statement"] == []


def test_rules_catch_each_violation():
    src = ("import os\nimport numba.core\nfrom numba import njit\n"
           "assert True\nos.environ.get('APNSURF_BACKEND')\n"
           "def f(p, *, seed=0):\n    return lambda seed: p\n")
    assert sorted(violations(ast.parse(src))) == [
        (2, "numba import"), (3, "numba import"), (4, "assert statement"),
        (5, "APNSURF_BACKEND read"), (6, "seed parameter"),
        (7, "seed parameter")]


def tri_new_sites(tree):
    """Qualified names of the functions that reach TriPoly.__new__, by
    name or as cls/self inside class TriPoly."""
    sites = set()

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = f"{cls}.{node.name}" if cls else node.name
        elif isinstance(node, ast.Attribute) and node.attr == "__new__":
            owner = node.value
            if isinstance(owner, ast.Name) and (
                    owner.id == "TriPoly"
                    or (cls == "TriPoly" and owner.id in ("cls", "self"))):
                sites.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)
    visit(tree, None, None)
    return sites


def test_tripoly_new_has_one_site():
    sites = set()
    for path in MODULES:
        sites |= tri_new_sites(ast.parse(path.read_text(), filename=str(path)))
    assert sites == {"TriPoly._of"}


def test_tripoly_new_rule_sees_each_form():
    src = ("class TriPoly:\n    def a(cls):\n        return cls.__new__(cls)\n"
           "def b():\n    return TriPoly.__new__(TriPoly)\n"
           "class Other:\n    def c(cls):\n        return cls.__new__(cls)\n")
    assert tri_new_sites(ast.parse(src)) == {"TriPoly.a", "b"}
