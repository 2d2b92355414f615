"""Invariant checks in the package must survive ``python -O``.

Every check in every module of ``src/snakedec`` raises a typed
``SnakedecError`` rather than using ``assert``, which ``-O`` strips.  The
modules are found by glob, so a new module is covered without a list to
update.
"""

import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "snakedec"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _asserts_by_function(path):
    found = collections.Counter()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found[(path.name, func)] += 1
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_every_module_is_linted():
    assert {"__init__.py", "errors.py", "twostory.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_asserts_outside_the_allowlist(module):
    # nothing is allowlisted: an assert in any function of any module fails
    found = _asserts_by_function(SRC / module)
    assert not found, f"assert used where a typed error belongs: {dict(found)}"


def test_the_lint_sees_asserts(tmp_path):
    path = tmp_path / "checked.py"
    path.write_text("def f(x):\n    assert x\n\n\nclass C:\n    def g(self):\n        assert self\n")
    assert _asserts_by_function(path) == {("checked.py", "f"): 1, ("checked.py", "g"): 1}
