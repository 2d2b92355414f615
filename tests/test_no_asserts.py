"""Invariant checks in the package must survive ``python -O``.

Every check in every module of ``src/snakedec`` raises a typed
``SnakedecError`` rather than using ``assert``, which ``-O`` strips: every
``raise`` names a type that ``errors.py`` declares, and every such type is
raised somewhere.  Every name a module imports is also used there.  The
modules are found by glob, so a new module is covered without a list to
update.
"""

import ast
import collections
import pathlib

import pytest

from gen import figure_eight, trefoil
from snakedec import complexes as cx
from snakedec import gf
from snakedec.errors import SnakedecError, ValidationError
from snakedec.simplify import horizontal_simplify, normalize_transition, vertical_simplify

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


def _declared_names():
    tree = ast.parse((SRC / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def test_every_error_type_is_raised_elsewhere(tmp_path):
    # a type that no other module raises cannot come back into errors.py
    path = tmp_path / "raising.py"
    path.write_text("def f():\n    raise A('x')\n    raise e.B\n    raise\n")
    assert _raised_names(path) == {"A", "B"}
    raised = set().union(*(_raised_names(SRC / m) for m in MODULES if m != "errors.py"))
    assert _declared_names() - raised == {"SnakedecError"}


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_names_a_declared_error_type(module):
    # a builtin such as ValueError, or a type errors.py does not declare,
    # would escape a caller that catches SnakedecError
    stray = _raised_names(SRC / module) - _declared_names()
    assert not stray, f"raise of a type errors.py does not declare: {sorted(stray)}"


def _unused_imports(path):
    """The names a module imports and never reads, ``from __future__``
    imports excepted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_import_lint_sees_unused_names(tmp_path):
    path = tmp_path / "importing.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom . import gf\nfrom .m import a, b as c\n\n"
        "def f():\n    return gf.x, a\n"
    )
    assert _unused_imports(path) == ["c", "os", "regex"]


@pytest.mark.parametrize("module", MODULES)
def test_every_src_import_is_used(module):
    # an import left behind by a removal keeps a dead dependency between layers
    unused = _unused_imports(SRC / module)
    assert not unused, f"imported and never used: {unused}"


def _compose_across_fields():
    over_2, over_3 = trefoil(), figure_eight()
    return cx.BasisChange.identity(over_2).compose(cx.BasisChange.identity(over_3))


def _normalize_misaligned():
    c = trefoil()
    return normalize_transition(c, vertical_simplify(c), horizontal_simplify(figure_eight()))


def _scale_by_zero():
    c = trefoil()
    cx.Elimination(c.generators, c.char, cx.differential_rows(c)).scale(0, 0)


# one refusal per layer, each of an input the operation is not defined on
REFUSALS = {
    "field element": lambda: gf.FieldElem(1, 4),
    "ragged matrix": lambda: gf.Matrix([[1, 0], [1]], 2),
    "block sum across fields": lambda: gf.block_diag([gf.Matrix([[1]], 3)], 2),
    "negative exponent": lambda: cx.mono(1, 0, -1, 2),
    "compose across fields": _compose_across_fields,
    "misaligned bases": _normalize_misaligned,
    "scale by zero": _scale_by_zero,
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_every_layer_refuses_bad_input_with_one_type(refusal):
    with pytest.raises(ValidationError) as info:
        REFUSALS[refusal]()
    assert isinstance(info.value, SnakedecError) and isinstance(info.value, ValueError)
