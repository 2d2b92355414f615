"""The benchmark's view of the package still resolves.

``perfbench/`` wraps package functions by name and generates its inputs
through the package, but its own tests are not part of this suite.  These
tests only read ``perfbench/``: a change that removes or renames a name it
uses fails here instead of at the next benchmark run.
"""

import functools
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, qualname", _load("tracer").WRAPPED)
def test_every_wrapped_name_resolves(module, qualname):
    target = functools.reduce(getattr, qualname.split("."), importlib.import_module(f"snakedec.{module}"))
    assert callable(target)


def test_the_input_generators_import():
    frozen = _load("frozen_gen")
    assert callable(frozen.random_messy) and callable(frozen.random_complex)


def test_the_traced_token_class_exists():
    from snakedec.twostory import CrossoverArrow

    assert isinstance(CrossoverArrow, type)
