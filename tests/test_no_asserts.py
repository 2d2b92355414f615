"""Invariant checks in the package must survive ``python -O``.

Every check in every module of ``src/snakedec`` raises a typed
``SnakedecError`` rather than using ``assert``, which ``-O`` strips, and
every type that ``errors.py`` declares is raised somewhere.  The modules
are found by glob, so a new module is covered without a list to update.
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


def _raised_names(path):
    """The names of the exception types a module raises, as ``raise X``,
    ``raise X(...)`` or ``raise module.X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_type_is_raised_elsewhere(tmp_path):
    # a type that no other module raises cannot come back into errors.py
    path = tmp_path / "raising.py"
    path.write_text("def f():\n    raise A('x')\n    raise e.B\n    raise\n")
    assert _raised_names(path) == {"A", "B"}
    tree = ast.parse((SRC / "errors.py").read_text())
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(SRC / m) for m in MODULES if m != "errors.py"))
    assert declared - raised == {"SnakedecError"}
