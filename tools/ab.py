"""In-process A/B timing of two snakedec trees on the benchmark's workloads.

    python3 tools/ab.py OLD_TREE NEW_TREE --workload sums --passes 40

Each tree's ``src/snakedec`` is copied into a temporary directory under the
package names ``snakedec_a`` (OLD_TREE) and ``snakedec_b`` (NEW_TREE); the
package imports itself only relatively, so both load in one process and run
under the same host load.  Each side's inputs are built by the benchmark's
own generators (``perfbench/run.py``'s ``make_inputs`` on
``perfbench/frozen_gen.py``, both only read), with ``snakedec`` standing for
that side while they run, and their digest is checked against the recorded
one.  Every pass runs every op on both sides, the side that goes first
alternating from op to op and from pass to pass; the two outputs must be
equal on every op: the canonical form on rcf, and on the pipeline
``str`` of the complex that ``strip_zero_complexes`` returns, and
``twostory.dump``, ``repr`` of the log and the round count of the
depth-infinity result.  An op's time is its minimum over the passes, as
in the benchmark, and ops/s is the number of ops over the sum of those
minima.  Each side's nearest-rank p50 and p90 of the per-op minima are
printed too, in ms, by the benchmark's own ``percentile``, as the
benchmark's gate reads ``latency_ms.p50`` and ``latency_ms.p90`` as well.
"""

import argparse
import gc
import importlib
import os
import shutil
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SUBMODULES = ("errors", "gf", "complexes", "simplify", "twostory")


def load_side(tree, name, tmp):
    """Import ``tree``'s snakedec as the package ``name``."""
    shutil.copytree(
        os.path.join(tree, "src", "snakedec"),
        os.path.join(tmp, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    pkg = importlib.import_module(name)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return pkg


def build_inputs(run, pkg, workload, size):
    """The workload's inputs, generated with ``pkg`` standing in for snakedec."""
    saved = {k: v for k, v in sys.modules.items() if k == "snakedec" or k.startswith("snakedec.")}
    sys.modules["snakedec"] = pkg
    for sub in SUBMODULES:
        sys.modules[f"snakedec.{sub}"] = getattr(pkg, sub)
    sys.modules.pop("frozen_gen", None)
    try:
        items = run.make_inputs(workload, size)
    finally:
        for k in [k for k in sys.modules if k == "snakedec" or k.startswith("snakedec.")]:
            del sys.modules[k]
        sys.modules.update(saved)
        sys.modules.pop("frozen_gen", None)
    digest = run.input_digest(items)
    if size is None and digest != run.INPUT_DIGESTS[workload]:
        raise SystemExit(f"{pkg.__name__}: the input digest of {workload} is not the recorded one")
    return [x for _, x, _ in items]


def make_op(pkg, workload):
    """The benchmark's op on one side, as (op, output texts of its result)."""
    if workload == "rcf":
        return pkg.gf.rational_canonical_form, lambda form: {"canonical form": str(form)}

    def pipeline(c):
        d, _, _ = pkg.complexes.strip_zero_complexes(c)
        t = pkg.twostory.build(d)
        pkg.twostory.run_to_depth_infinity(t)
        return d, t

    def texts(out):
        d, t = out
        return {
            "stripped complex": str(d),
            "dump": pkg.twostory.dump(t),
            "log": repr(t.log),
            "round count": t.rounds,
        }

    return pipeline, texts


def timed(op, x):
    t0 = perf_counter()
    out = op(x)
    return perf_counter() - t0, out


def compare(sides, workload, passes, size):
    import run

    inputs = [build_inputs(run, pkg, workload, size) for pkg in sides]
    ops = [make_op(pkg, workload) for pkg in sides]
    n = len(inputs[0])
    best = [[float("inf")] * n for _ in sides]
    gc.collect()
    gc.freeze()
    for k in range(passes):
        for i in range(n):
            order = (0, 1) if (i + k) % 2 == 0 else (1, 0)
            texts = [None, None]
            for s in order:
                op, text = ops[s]
                dt, out = timed(op, inputs[s][i])
                best[s][i] = min(best[s][i], dt)
                if k == 0:
                    texts[s] = text(out)
            if k == 0 and texts[0] != texts[1]:
                part = next(name for name in texts[0] if texts[0][name] != texts[1][name])
                raise SystemExit(f"{workload} op {i}: the two trees give a different {part}")
    gc.unfreeze()
    return [
        (n / sum(times), run.percentile(times, 0.5) * 1e3, run.percentile(times, 0.9) * 1e3)
        for times in best
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--workload", action="append", choices=("messy", "sums", "rcf"))
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--size", type=int, default=None, help="first SIZE inputs only")
    args = parser.parse_args(argv)
    sys.path.insert(0, PERFBENCH)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [
            load_side(args.old_tree, "snakedec_a", tmp),
            load_side(args.new_tree, "snakedec_b", tmp),
        ]
        for workload in args.workload or ["sums"]:
            (a, a50, a90), (b, b50, b90) = compare(sides, workload, args.passes, args.size)
            print(
                f"{workload}: old {a:.1f} ops/s, new {b:.1f} ops/s, "
                f"new/old {b / a:.3f} (min of {args.passes} passes per op); "
                f"p50 {a50:.3f} -> {b50:.3f} ms, p90 {a90:.3f} -> {b90:.3f} ms"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
