"""Benchmark of the complex -> depth-infinity pipeline and of rational canonical forms.

    python3 perfbench/run.py --workload messy --seed 1 --seconds 30 --trace 0

Each workload is a fixed population of inputs, generated in the benchmark's
own code and checked against a recorded digest.  ``--seed`` sets the order in
which the ops run.  The first pass runs every op once; further passes, in new
orders, run until ``--seconds`` have passed, and an op's time is the minimum
over its executions, which filters out the host's noise.  Every output is
checked.  With ``--trace 1`` the first pass runs under the tracer and at
least one untraced pass follows it.  The last line of standard output is a
JSON object with the metrics; see ``perfbench/README.md`` for their meaning.
"""

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

MESSY_SEEDS = 100  # random_messy seeds 0..99
MESSY_MAX_RANK = 24
SUMS_SEEDS = 100  # random_complex seeds 0..99
SUMS_MAX_PARTS = 12
RCF_P = 3  # all of GL_3(F_3)
RCF_ORDER = 11232
RCF_CLASSES = 24  # conjugacy classes of GL_3(F_3): p^3 - p
SETUP_REPEATS = 5
WARMUP_OPS = 3

# sha256 of the canonical text of each full population (see input_digest)
INPUT_DIGESTS = {
    "messy": "f80b9dd84cc5a2177dc788c909272ccfb7cb3174b880b16f657a58a719fb5a00",
    "sums": "6b3b2fe593ccc0aade5b629db47f5dcee759647dbcba975f808e0204d983ca8f",
    "rcf": "85d925bf2effb790edb8c3ddcbabc1499c83b5f75f242f274877d15c824dc946",
}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_program():
    """Import snakedec from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import snakedec
    except ImportError as exc:
        raise SystemExit(f"cannot import snakedec from {src}: {exc}")
    found = os.path.dirname(os.path.dirname(os.path.abspath(snakedec.__file__)))
    if found != src:
        raise SystemExit(f"snakedec was imported from {found}, not from {src}")


# ---------------------------------------------------------------------------
# workloads


def make_inputs(workload, size=None):
    """The workload's population as (label, input, expected zero pairs) items.

    ``size`` truncates the population for smoke tests; None is the full one.
    """
    import frozen_gen
    from snakedec import gf

    if workload == "messy":
        seeds = range(MESSY_SEEDS if size is None else size)
        return [(f"seed={s}", frozen_gen.random_messy(s, max_rank=MESSY_MAX_RANK), None) for s in seeds]
    if workload == "sums":
        seeds = range(SUMS_SEEDS if size is None else size)
        return [(f"seed={s}", *frozen_gen.random_complex(s, max_parts=SUMS_MAX_PARTS)) for s in seeds]
    group = []
    for flat in itertools.product(range(RCF_P), repeat=9):
        a, b, c, d, e, f, g, h, i = flat
        if (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % RCF_P == 0:
            continue
        m = gf.Matrix.from_rows([flat[0:3], flat[3:6], flat[6:9]], RCF_P)
        group.append((f"matrix={''.join(map(str, flat))}", m, None))
        if len(group) == size:
            break
    return group


def canonical_text(x):
    """Input as text: sorted generators and arrows of a complex, or matrix entries."""
    if hasattr(x, "generators"):
        gens = sorted(f"g {g.id} {g.gr_u} {g.gr_v}" for g in x.generators)
        arrows = sorted(
            f"a {a.src} {a.tgt} {a.mono.coeff.value} {a.mono.u_exp} {a.mono.v_exp}" for a in x.arrows
        )
        return "\n".join([f"complex {x.ring} F_{x.char}", *gens, *arrows])
    return f"matrix F_{x.char} {x}"


def input_digest(items):
    h = hashlib.sha256()
    for label, x, expect in items:
        h.update(f"{label} {expect}\n{canonical_text(x)}\n".encode())
    return h.hexdigest()


def pipeline(c):
    """One op on a complex: strip zero complexes, build, raise depth to infinity."""
    from snakedec import complexes, twostory

    d, k, _ = complexes.strip_zero_complexes(c)
    t = twostory.build(d)
    twostory.run_to_depth_infinity(t)
    return d, k, t


def canonical_form(m):
    """One op on a matrix."""
    from snakedec import gf

    return gf.rational_canonical_form(m)


OPS = {"messy": pipeline, "sums": pipeline, "rcf": canonical_form}


def check_complex(c, zero_parts, result):
    """Problems with a pipeline result."""
    from snakedec.errors import SnakedecError

    d, k, t = result
    problems = []
    if t.depth() != math.inf:
        problems.append(f"depth {t.depth()} is not infinite")
    try:
        t.verify()
    except (AssertionError, SnakedecError) as exc:
        problems.append(f"verify failed: {type(exc).__name__}: {exc}")
    if not len(t.x_gens) == len(t.y_gens) == d.rank == c.rank - 2 * k:
        problems.append(
            f"rank not preserved: input {c.rank}, {k} zero pairs, stripped {d.rank}, "
            f"floors {len(t.x_gens)}/{len(t.y_gens)}"
        )
    if zero_parts is not None and k != zero_parts:
        problems.append(f"stripped {k} zero pairs, generator drew {zero_parts}")
    return problems


def check_form(m, form):
    """Problems with a rational canonical form."""
    from snakedec import gf

    if gf.charpoly(form) != gf.charpoly(m):
        return ["canonical form has another characteristic polynomial"]
    return []


def output_text(result):
    """The text whose digest stands for an op's output."""
    from snakedec import twostory

    return str(result) if hasattr(result, "entries") else twostory.dump(result[2])


# ---------------------------------------------------------------------------
# measurement


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Timed passes over one workload's population, with every output checked."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.op = OPS[workload]
        n = len(items)
        self.times = [[] for _ in range(n)]  # untraced execution times
        self.traced = [0.0] * n  # time of the traced execution
        self.errors = {}  # op index -> "Type: message" of the first failure
        self.raised = [set() for _ in range(n)]  # outcomes seen: True raised, False returned
        self.outputs = [None] * n  # sha256 of the first output text
        self.problems = []
        self.passes = 0

    def execute(self, i, tracer=None):
        label, x, expect = self.items[i]
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            result = self.op(x)
        except Exception as exc:  # an op failure: recorded and counted
            result = exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.op = None
            self.traced[i] = dt
        else:
            self.times[i].append(dt)
        failed = isinstance(result, Exception)
        self.raised[i].add(failed)
        if failed:
            self.errors.setdefault(i, f"{type(result).__name__}: {result}")
            return
        digest = hashlib.sha256(output_text(result).encode()).hexdigest()
        if self.outputs[i] is None:
            if self.workload == "rcf":
                problems = check_form(x, result)
            else:
                problems = check_complex(x, expect, result)
            self.problems += [f"{label}: {p}" for p in problems]
            self.outputs[i] = digest
        elif digest != self.outputs[i]:
            # a repeat must reproduce the output checked on its first execution
            self.problems.append(f"{label}: output differs between executions")

    def measure(self, rng, seconds, tracer=None):
        start = perf_counter()
        order = list(range(len(self.items)))
        min_passes = 1 if tracer is None else 2
        while True:
            rng.shuffle(order)
            for i in order:
                if self.passes >= min_passes and perf_counter() - start >= seconds:
                    return
                self.execute(i, tracer if (tracer is not None and self.passes == 0) else None)
            self.passes += 1

    def finish_checks(self):
        for i, seen in enumerate(self.raised):
            if len(seen) > 1:
                self.problems.append(f"{self.items[i][0]}: raised on some executions only")
        if self.workload == "rcf" and len(self.items) == RCF_ORDER:
            forms = {h for h in self.outputs if h is not None}
            if len(forms) != RCF_CLASSES:
                self.problems.append(f"{len(forms)} distinct canonical forms, expected {RCF_CLASSES}")

    def ok(self, i):
        return i not in self.errors

    def op_times(self):
        """Per op: the fastest untraced execution, in seconds."""
        return [min(ts) for ts in self.times]

    def latencies(self):
        """Per op time; inf for an op that failed."""
        return [t if self.ok(i) else math.inf for i, t in enumerate(self.op_times())]

    def end_to_end(self):
        n = len(self.items)
        n_ok = sum(self.ok(i) for i in range(n))
        lat = self.latencies()
        return {
            "ops_per_s": n_ok / sum(self.op_times()),
            "latency_ms.p50": percentile(lat, 0.5) * 1e3,
            "latency_ms.p90": percentile(lat, 0.9) * 1e3,
            "ok_share": n_ok / n,
        }

    def output_digest(self):
        h = hashlib.sha256()
        for (label, _, _), out in zip(self.items, self.outputs):
            if out is not None:
                h.update(f"{label} {out}\n".encode())
        return h.hexdigest()


def setup(workload, size):
    """Generate the inputs, check their digest and warm up; returns (items, digest)."""
    items = make_inputs(workload, size)
    digest = input_digest(items)
    if size is None and digest != INPUT_DIGESTS[workload]:
        raise SystemExit(
            f"input digest of workload {workload} is {digest}, recorded {INPUT_DIGESTS[workload]}: "
            "the generated inputs changed"
        )
    for _, x, _ in items[:WARMUP_OPS]:
        # warm-up outcomes are not counted: the timed passes run and check every op
        try:
            OPS[workload](x)
        except Exception:
            pass
    return items, digest


def run_workload(workload, seed, seconds, trace, size=None):
    """Set up, measure and check one workload; returns the result dict."""
    t0 = perf_counter()
    load_program()
    import_s = perf_counter() - t0
    setups = []
    for r in range(SETUP_REPEATS):
        t0 = perf_counter()
        built = setup(workload, size)
        setups.append(perf_counter() - t0)
        if r == 0:
            items, digest = built
    del built
    gc.collect()
    gc.freeze()

    run = Run(workload, items)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        with tracer:
            run.measure(random.Random(seed), seconds, tracer)
    else:
        run.measure(random.Random(seed), seconds)
    run.finish_checks()
    gc.unfreeze()

    e2e = run.end_to_end()
    e2e["setup_s"] = import_s + statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    layers = layer_metrics(tracer, run) if tracer is not None else {}
    return {
        "workload": workload,
        "seed": seed,
        "ops": len(items),
        "passes": run.passes,
        "failures": [f"{items[i][0]}: {msg}" for i, msg in sorted(run.errors.items())],
        "problems": run.problems,
        "input_digest": digest,
        "output_digest": run.output_digest(),
        "end_to_end": metrics,
        "per_layer": layers,
        "tracer": tracer,
    }


def layer_metrics(tracer, run):
    values = {name: {"value": v, "unit": unit} for name, (v, unit) in tracer.metrics().items()}
    untraced = sum(run.op_times())
    values["trace.ops_per_s_ratio"] = {"value": untraced / sum(run.traced), "unit": "ratio"}
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(OPS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O: the program's verify() is built from asserts")

    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if res["tracer"] is not None:
        res["tracer"].write(stem + "-spans.jsonl")
    res.pop("tracer")
    with open(stem + ".json", "w") as fh:
        json.dump(res, fh, indent=1)

    e2e = res["end_to_end"]
    print(f"workload {res['workload']}: {res['ops']} ops, {res['passes']} passes, seed {res['seed']}")
    print(f"input_digest {res['input_digest']}")
    print(f"output_digest {res['output_digest']}")
    for name, m in e2e.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_share {len(res['failures']) / res['ops']:.6g} ({len(res['failures'])}/{res['ops']})")
    for line in res["failures"]:
        print(f"failed {line}")
    for name, m in res["per_layer"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in res["problems"]:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    correct = not res["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["ops"],
        "failed": len(res["failures"]),
        "metrics": res["per_layer"] if args.trace else e2e,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
