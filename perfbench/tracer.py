"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of ``snakedec`` while it is entered and
restores them on exit.  Each wrapped call inside an op records a span
``[name, start, end, parent, op]`` in memory; ``parent`` is the index of the
enclosing span or -1.  Calls made outside an op (input generation, the
benchmark's own checks) pass straight through and record nothing, so the
counts describe the pipeline alone.
"""

import collections
import functools
import json
import sys
from time import perf_counter

# (module, qualified name) of every wrapped function, grouped by layer
WRAPPED = (
    ("gf", "Matrix.inverse"),
    ("gf", "Matrix.is_invertible"),
    ("gf", "ltu_factorize"),
    ("gf", "invariant_factors"),
    ("gf", "rational_canonical_form"),
    ("complexes", "apply_basis_change"),
    ("complexes", "BasisChange.inverse"),
    ("complexes", "BasisChange.compose"),
    ("complexes", "strip_zero_complexes"),
    ("simplify", "vertical_simplify"),
    ("simplify", "horizontal_simplify"),
    ("simplify", "normalize_transition"),
    ("simplify", "simplified_transition"),
    ("twostory", "build"),
    ("twostory", "TwoStoryComplex.run_to_depth_infinity"),
    ("twostory", "TwoStoryComplex.increase_depth"),
    ("twostory", "TwoStoryComplex.depth"),
    ("twostory", "TwoStoryComplex.verify"),
)

COUNTS = (
    "gf.FieldElem.created",
    "complexes.zero_pairs",
    "twostory.tokens_at_build",
    "twostory.arrows_at_build",
    "twostory.rounds",
)


def _build_counts(t):
    from snakedec.twostory import CrossoverArrow

    tokens = [tok for shaft in t.shafts().values() for tok in shaft.tokens]
    return {
        "twostory.tokens_at_build": len(tokens),
        "twostory.arrows_at_build": sum(isinstance(tok, CrossoverArrow) for tok in tokens),
    }


# counts read off a wrapped function's result, after its span has ended
_AFTER = {
    "complexes.strip_zero_complexes": lambda r: {"complexes.zero_pairs": r[1]},
    "twostory.build": _build_counts,
    "twostory.TwoStoryComplex.run_to_depth_infinity": lambda t: {"twostory.rounds": t.rounds},
}


class Tracer:
    """Context manager that patches the wrapped functions while entered."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter({name: 0 for name in COUNTS})
        self.op = None
        self._current = -1
        self._restore = []

    def __enter__(self):
        import snakedec.complexes
        import snakedec.gf
        import snakedec.simplify
        import snakedec.twostory  # noqa: F401  (every module that imports a target)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "snakedec" or n.startswith("snakedec.")]
        for mod_name, qual in WRAPPED:
            name = f"{mod_name}.{qual}"
            owner = sys.modules[f"snakedec.{mod_name}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, _AFTER.get(name))
            if path:  # a method: the class is shared by every importer
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        fe = snakedec.gf.FieldElem
        original = fe.__dict__["__post_init__"]

        def counted_post_init(elem):
            if self.op is not None:
                self.counts["gf.FieldElem.created"] += 1
            original(elem)

        self._patch(fe, "__post_init__", original, counted_post_init)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            span = [name, 0.0, 0.0, tracer._current, tracer.op]
            tracer._current = len(spans)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._current = span[3]
            if after is not None:
                op, tracer.op = tracer.op, None  # the count's own calls are not the op's
                try:
                    tracer.counts.update(after(result))
                finally:
                    tracer.op = op
            return result

        return wrapper

    def metrics(self):
        """Per-layer metrics as name -> (value, unit), in report order."""
        times = layer_times(self.spans)
        out = {}
        for mod_name, qual in WRAPPED:
            name = f"{mod_name}.{qual}"
            calls, inclusive, self_s = times.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (inclusive, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out

    def write(self, path):
        """Write the spans as JSON lines, one ``[name, start, end, parent, op]`` each."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_times(spans):
    """Per name: call count, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children, which nest inside it.
    """
    calls = collections.Counter()
    inclusive = collections.Counter()
    self_s = collections.Counter()
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        self_s[name] += end - start
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
        outer = True
        while parent >= 0:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            inclusive[name] += end - start
    return {name: (calls[name], inclusive[name], self_s[name]) for name in calls}
