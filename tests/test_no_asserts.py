"""Invariant checks in the pipeline modules must survive ``python -O``.

Every check in ``gf``, ``complexes``, ``simplify`` and ``twostory`` raises a
typed ``SnakedecError`` rather than using ``assert``, which ``-O`` strips.
"""

import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "snakedec"

# (module, function) -> asserts allowed there
ALLOWED: dict = {}


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


@pytest.mark.parametrize("module", ["gf.py", "complexes.py", "simplify.py", "twostory.py"])
def test_no_asserts_outside_the_allowlist(module):
    found = _asserts_by_function(SRC / module)
    extra = {key: n for key, n in found.items() if n > ALLOWED.get(key, 0)}
    assert not extra, f"assert used where a typed error belongs: {extra}"


def test_the_lint_sees_asserts(tmp_path):
    path = tmp_path / "checked.py"
    path.write_text("def f(x):\n    assert x\n\n\nclass C:\n    def g(self):\n        assert self\n")
    assert _asserts_by_function(path) == {("checked.py", "f"): 1, ("checked.py", "g"): 1}
