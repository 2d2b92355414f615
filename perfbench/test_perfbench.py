"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer

run.load_program()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def test_layer_times_on_a_synthetic_span_tree():
    # build [0, 10] holds inverse [1, 4] (which holds inverse [2, 3]) and verify [5, 9]
    spans = [
        ["build", 0.0, 10.0, -1, 0],
        ["inverse", 1.0, 4.0, 0, 0],
        ["inverse", 2.0, 3.0, 1, 0],
        ["verify", 5.0, 9.0, 0, 0],
        ["inverse", 20.0, 22.0, -1, 1],
    ]
    times = tracer.layer_times(spans)
    assert times["build"] == (1, 10.0, 3.0)
    # the nested inverse is not counted twice in inclusive time
    assert times["inverse"] == (3, 5.0, 5.0)
    assert times["verify"] == (1, 4.0, 4.0)
    assert sum(self_s for _, _, self_s in times.values()) == 10.0 + 2.0


def test_input_digests_match_the_recorded_populations():
    assert run.input_digest(run.make_inputs("rcf")) == run.INPUT_DIGESTS["rcf"]
    for workload in ("messy", "sums"):
        items = run.make_inputs(workload)
        assert run.input_digest(items) == run.INPUT_DIGESTS[workload]
        label, c, expect = items[0]
        items[0] = (label, c.__class__(c.ring, c.char, c.generators, c.arrows[1:]), expect)
        assert run.input_digest(items) != run.INPUT_DIGESTS[workload]


def test_changed_inputs_stop_the_benchmark(monkeypatch):
    monkeypatch.setitem(run.INPUT_DIGESTS, "sums", "0" * 64)
    with pytest.raises(SystemExit, match="inputs changed"):
        run.setup("sums", None)


@pytest.mark.parametrize("workload", ["messy", "sums", "rcf"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    res = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, size=4)
    assert res["problems"] == []
    assert res["passes"] == 1 + trace
    assert [(k, m["unit"]) for k, m in res["end_to_end"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]
    if workload == "messy":  # seed 1 is a known convoy-drift failure
        assert res["failures"] == ["seed=1: AssertionError: convoy entry drifted from the boundary"]
    else:
        assert res["failures"] == []
    if trace:
        layers = res["per_layer"]
        assert [(k, m["unit"]) for k, m in layers.items()] == [
            (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
        ]
        calls = "gf.rational_canonical_form.calls" if workload == "rcf" else "twostory.build.calls"
        assert layers[calls]["value"] == 4
        assert layers["gf.FieldElem.created"]["value"] > 0
        spans = res["tracer"].spans
        assert {op for *_, op in spans} == set(range(4))


def test_tracer_patches_every_importer_and_restores():
    from snakedec import complexes, simplify, twostory

    before = (complexes.apply_basis_change, simplify.apply_basis_change, twostory.simplified_transition)
    with tracer.Tracer():
        assert simplify.apply_basis_change is complexes.apply_basis_change
        assert twostory.apply_basis_change is complexes.apply_basis_change
        assert twostory.simplified_transition is simplify.simplified_transition
        assert complexes.apply_basis_change is not before[0]
    assert (complexes.apply_basis_change, simplify.apply_basis_change, twostory.simplified_transition) == before


def test_outputs_do_not_depend_on_the_hash_seed():
    code = (
        "import json, run; r = run.run_workload('messy', 5, 0.0, 0, size=6);"
        "print(json.dumps([r['input_digest'], r['output_digest']]))"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=here, env=env, capture_output=True, text=True, check=True
        )
        digests.append(json.loads(out.stdout.splitlines()[-1]))
    assert digests[0] == digests[1]


def test_refuses_to_run_optimized():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, "-O", script, "--workload", "rcf", "--seed", "0", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
    )
    assert out.returncode != 0
    assert "python -O" in out.stderr
    assert out.stdout == ""
