"""The benchmark's view of the package still resolves.

``perfbench/`` wraps package functions by name and generates its inputs
through the package, but its own tests are not part of this suite.  These
tests only read ``perfbench/``: a change that removes or renames a name it
uses, or an operator its generators call at run time, fails here instead of
at the next benchmark run.
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


def _resolve(module, qualname):
    return functools.reduce(getattr, qualname.split("."), importlib.import_module(f"snakedec.{module}"))


@pytest.mark.parametrize("module, qualname", _load("tracer").WRAPPED)
def test_every_wrapped_name_resolves(module, qualname):
    assert callable(_resolve(module, qualname))


def test_the_input_generators_import():
    frozen = _load("frozen_gen")
    assert callable(frozen.random_messy) and callable(frozen.random_complex)


def test_the_traced_token_class_exists():
    # --trace 1 counts the tokens and crossover arrows of each built
    # complex through the shafts' token views; braided() has one of each
    from gen import braided
    from snakedec.twostory import CrossoverArrow, build

    assert isinstance(CrossoverArrow, type)
    counts = _load("tracer")._build_counts(build(braided()))
    assert counts == {"twostory.tokens_at_build": 1, "twostory.arrows_at_build": 1}


def test_the_tracer_sees_the_simplify_layer_under_build():
    # build goes through simplified_transition, so the simplify layer's
    # spans nest under build's instead of counting as its self time
    from gen import braided
    from snakedec import twostory

    tracer = _load("tracer").Tracer()
    with tracer:
        tracer.op = 0
        twostory.build(braided())
        tracer.op = None
    spans = tracer.spans
    parent = {span[0]: spans[span[3]][0] if span[3] >= 0 else None for span in spans}
    assert [span[0] for span in spans].count("twostory.build") == 1
    assert parent["twostory.build"] is None
    assert parent["simplify.simplified_transition"] == "twostory.build"
    assert parent["simplify.normalize_transition"] == "simplify.simplified_transition"
    assert parent["twostory.TwoStoryComplex.verify"] == "twostory.build"


# what perfbench/run.py and tools/ab.py call on the package
CALLED = [
    ("gf", "Matrix.from_rows"),
    ("gf", "charpoly"),
    ("gf", "rational_canonical_form"),
    ("complexes", "strip_zero_complexes"),
    ("twostory", "build"),
    ("twostory", "run_to_depth_infinity"),
    ("twostory", "dump"),
]


@pytest.mark.parametrize("module, qualname", CALLED)
def test_every_called_name_resolves(module, qualname):
    assert callable(_resolve(module, qualname))


@pytest.mark.parametrize("workload", ["messy", "sums", "rcf"])
def test_one_input_of_each_workload_runs_through_the_benchmark_calls(monkeypatch, workload):
    # the first input of each population, made by the frozen generators
    # (random_messy(0, max_rank=24), random_complex(0, max_parts=12), the
    # first matrix of GL_3(F_3)), then the op, its check and its output text
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    [(_, x, expect)] = run.make_inputs(workload, size=1)
    result = run.OPS[workload](x)
    if workload == "rcf":
        assert run.check_form(x, result) == []
    else:
        assert run.check_complex(x, expect, result) == []
    assert run.output_text(result)


@pytest.mark.parametrize("workload", ["messy", "sums", "rcf"])
def test_each_full_population_has_its_recorded_input_digest(monkeypatch, workload):
    # run.py's setup() refuses to measure a population whose inputs moved
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    assert run.input_digest(run.make_inputs(workload)) == run.INPUT_DIGESTS[workload]
