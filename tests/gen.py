"""Shared complex builders and randomizers for the test suite, a runner
for scripts under ``python -O``, a conjugation oracle for the two-story
self-check, and a hook that runs that self-check after every inner step
of the depth loop."""

import os
import random
import subprocess
import sys

from snakedec.complexes import (
    Arrow,
    BasisChange,
    Complex,
    Generator,
    Monomial,
    RING_R1,
    apply_basis_change,
    direct_sum,
    infer_gradings,
    mono,
    mono_mul,
    validate,
)
from snakedec.errors import InvariantViolation
from snakedec.gf import FieldElem


def trefoil(ring=RING_R1, char=2):
    gens = (Generator("a", 0, 2), Generator("b", 1, 1), Generator("c", 2, 0))
    arrows = (
        Arrow("a", "b", mono(1, 1, 0, char)),
        Arrow("c", "b", mono(1, 0, 1, char)),
    )
    return Complex(ring, char, gens, arrows)


def figure_eight(ring=RING_R1):
    # five generators over F_3; d(q) = Up + Vd, d(p) = Ve, d(d) = 2Ue
    gens = (
        Generator("q", 0, 0),
        Generator("p", 1, -1),
        Generator("d", -1, 1),
        Generator("e", 0, 0),
        Generator("b", 0, 0),
    )
    arrows = (
        Arrow("q", "p", mono(1, 1, 0, 3)),
        Arrow("q", "d", mono(1, 0, 1, 3)),
        Arrow("p", "e", mono(1, 0, 1, 3)),
        Arrow("d", "e", mono(2, 1, 0, 3)),
    )
    return Complex(ring, 3, gens, arrows)


def interacting():
    gens = (Generator("x", 1, 1), Generator("y", 0, 0), Generator("w", 1, 1))
    arrows = (Arrow("x", "y", mono(1, 0, 0, 2)), Arrow("w", "y", mono(1, 0, 0, 2)))
    return Complex(RING_R1, 2, gens, arrows)


def zero_pair(char=2, lam=1, ids=("x", "y"), at=(1, 1)):
    gens = (Generator(ids[0], at[0], at[1]), Generator(ids[1], at[0] - 1, at[1] - 1))
    return Complex(RING_R1, char, gens, (Arrow(ids[0], ids[1], mono(lam, 0, 0, char)),))


def broken_chain(power="scalar"):
    """a -> b -> c with unit arrows, bigraded but with d^2 != 0.

    ``power`` is "scalar" (over F_2 at (0,0), (-1,-1), (-2,-2)) or "V"
    (V-arrows at (0,0), (-1,1), (-2,2)).
    """
    v = int(power == "V")
    gens = tuple(Generator(g, -k, k * (2 * v - 1)) for k, g in enumerate("abc"))
    arrows = (Arrow("a", "b", mono(1, 0, v, 2)), Arrow("b", "c", mono(1, 0, v, 2)))
    return Complex(RING_R1, 2, gens, arrows)


def run_optimized(*lines):
    """Run the script made of ``lines`` under ``python -O`` and return the
    completed process; src/ and tests/ are on its path, and it first
    checks that asserts are really off."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    script = "\n".join(["assert False, 'asserts are live'", *lines])
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def chain_complex(values, start=1, char=2, anchor=(0, 0), ring=RING_R1, prefix="x"):
    """A chain of arrows between consecutive generators.

    Arrow k has index i = start + k and connects x_{i-1} with x_i; odd
    index means a horizontal arrow (power of U), even a vertical one.
    Positive value: arrow points from x_i to x_{i-1}; negative: reverse.
    start=1 covers even-length chains with basis x_0..x_n, start=0 the
    vertical-snake indexing with basis x_{-1}..x_m.
    """
    assert all(v != 0 for v in values)
    ids = [f"{prefix}{i}" for i in range(start - 1, start + len(values))]
    raw = []
    for k, b in enumerate(values):
        i = start + k
        hi, lo = f"{prefix}{i}", f"{prefix}{i - 1}"
        u, v = (abs(b), 0) if i % 2 == 1 else (0, abs(b))
        src, tgt = (hi, lo) if b > 0 else (lo, hi)
        raw.append((src, tgt, u, v))
    grs = infer_gradings(ids, raw, {ids[0]: anchor})
    gens = tuple(Generator(g, *grs[g]) for g in ids)
    arrs = tuple(Arrow(s, t, mono(1, u, v, char)) for s, t, u, v in raw)
    return Complex(ring, char, gens, arrs)


def random_change(c, seed, moves=6):
    """A random grading-homogeneous basis change on c's generators."""
    rng = random.Random(seed)
    n = c.rank
    if n == 0:
        return BasisChange.identity(c)
    b = BasisChange.identity(c)
    gens = c.generators
    for _ in range(moves):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.choice(["add", "add", "scale", "swap"])
        one = FieldElem(1, c.char)
        rows = [[Monomial(one, 0, 0) if r == s else None for s in range(n)] for r in range(n)]
        if kind == "add" and i != j:
            du = gens[i].gr_u - gens[j].gr_u
            dv = gens[i].gr_v - gens[j].gr_v
            lam = FieldElem(rng.randrange(1, c.char), c.char)
            if du == 0 and dv == 0:
                rows[i][j] = Monomial(lam, 0, 0)
            elif dv == 0 and du < 0 and du % 2 == 0:
                rows[i][j] = Monomial(lam, -du // 2, 0)
            elif du == 0 and dv < 0 and dv % 2 == 0:
                rows[i][j] = Monomial(lam, 0, -dv // 2)
            else:
                continue
        elif kind == "scale":
            lam = FieldElem(rng.randrange(1, c.char), c.char)
            rows[i][i] = Monomial(lam, 0, 0)
        elif kind == "swap" and i != j and gens[i].grading == gens[j].grading:
            rows[i][i] = rows[j][j] = None
            rows[i][j] = rows[j][i] = Monomial(one, 0, 0)
        else:
            continue
        step = BasisChange(c.ring, c.char, gens, gens, tuple(tuple(r) for r in rows))
        b = step.compose(b)
    return b


def random_complex(seed, max_parts=3, allow_zero_pairs=True):
    """Direct sum of small known pieces with a random homogeneous change."""
    rng = random.Random(seed)
    char = rng.choice([2, 3])
    kinds = ["chain", "chain", "single"] + (["zero"] if allow_zero_pairs else [])
    parts = []
    for k in range(rng.randrange(1, max_parts + 1)):
        kind = rng.choice(kinds)
        du, dv = rng.randrange(-2, 3), rng.randrange(-2, 3)
        if kind == "chain":
            values = [
                rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randrange(1, 5))
            ]
            parts.append(
                chain_complex(
                    values,
                    start=rng.choice([0, 1]),
                    char=char,
                    anchor=(du, dv),
                    prefix=f"p{k}x",
                )
            )
        elif kind == "zero":
            parts.append(zero_pair(char, rng.randrange(1, char) or 1, (f"x{k}", f"y{k}"), (du, dv)))
        else:
            parts.append(Complex(RING_R1, char, (Generator(f"s{k}", du, dv),), ()))
    c = direct_sum(parts)
    assert validate(c) == []
    return apply_basis_change(c, random_change(c, seed * 31 + 7, moves=2 * c.rank))


OCTAGON_SHAPE = (
    # src, tgt, u, v -- one cycle of eight generators, alternating sides
    ("q1", "q8", 0, 1),
    ("q2", "q1", 2, 0),
    ("q2", "q3", 0, 1),
    ("q4", "q3", 1, 0),
    ("q4", "q5", 0, 2),
    ("q5", "q6", 2, 0),
    ("q7", "q8", 1, 0),
    ("q7", "q6", 0, 2),
)

OCTAGON_GRADINGS = {
    "q1": (0, 0),
    "q2": (-3, 1),
    "q3": (-4, 2),
    "q4": (-5, 3),
    "q5": (-6, 6),
    "q6": (-3, 5),
    "q7": (-2, 2),
    "q8": (-1, 1),
}


def octagon(char=2):
    """A cycle of eight generators, one arrow per segment."""
    gens = tuple(Generator(g, *OCTAGON_GRADINGS[g]) for g in sorted(OCTAGON_GRADINGS))
    arrows = tuple(
        Arrow(s, t, mono(1, u, v, char)) for s, t, u, v in OCTAGON_SHAPE
    )
    return Complex(RING_R1, char, gens, arrows)


def octagon_sheets(char=2, glue=((0, 1), (1, 1))):
    """Parallel copies of the octagon, glued along the q1 -> q8 edge.

    Sheet s keeps every arrow of the cycle except the glued edge, which
    becomes d(q1_s) = V * sum_t glue[s][t] * q8_t.
    """
    k = len(glue)
    names = "abcdefgh"[:k]
    gens = tuple(
        Generator(f"{g}{names[s]}", *OCTAGON_GRADINGS[g])
        for s in range(k)
        for g in sorted(OCTAGON_GRADINGS)
    )
    arrows = []
    for s in range(k):
        for src, tgt, u, v in OCTAGON_SHAPE:
            if (src, tgt) == ("q1", "q8"):
                continue
            arrows.append(
                Arrow(f"{src}{names[s]}", f"{tgt}{names[s]}", mono(1, u, v, char))
            )
        for t in range(k):
            lam = glue[s][t] % char
            if lam:
                arrows.append(
                    Arrow(f"q1{names[s]}", f"q8{names[t]}", mono(lam, 0, 1, char))
                )
    return Complex(RING_R1, char, gens, tuple(arrows))


def braided(char=2):
    """Two snakes of different arrow calibers sharing one basis line.

    The vertical side must pair a2 with a1 + b1 while the horizontal
    side pairs a1 and b1 separately, so the two-story form carries a
    crossover arrow between strands that split immediately.
    """
    gens = (
        Generator("a0", 0, 0),
        Generator("a1", -1, 1),
        Generator("a2", 0, 0),
        Generator("b0", 2, 0),
        Generator("b1", -1, 1),
        Generator("b2", 0, -2),
    )
    arrows = (
        Arrow("a1", "a0", mono(1, 1, 0, char)),
        Arrow("b1", "b0", mono(1, 2, 0, char)),
        Arrow("a2", "a1", mono(1, 0, 1, char)),
        Arrow("a2", "b1", mono(1, 0, 1, char)),
        Arrow("b2", "b1", mono(1, 0, 2, char)),
    )
    return Complex(RING_R1, char, gens, arrows)


def _square_offenders(gens, arrows, char):
    """Indices of arrows feeding a nonzero entry of the squared differential."""
    by_src = {}
    for idx, a in enumerate(arrows):
        by_src.setdefault(a.src, []).append(idx)
    sums = {}
    for i, first in enumerate(arrows):
        for j in by_src.get(first.tgt, ()):
            second = arrows[j]
            prod = mono_mul(first.mono, second.mono, RING_R1)
            if prod is None:
                continue
            key = (first.src, second.tgt, prod.u_exp, prod.v_exp)
            coeff, members = sums.get(key, (FieldElem(0, char), set()))
            sums[key] = (coeff + prod.coeff, members | {i, j})
    bad = set()
    for coeff, members in sums.values():
        if coeff.value:
            bad |= members
    return sorted(bad)


def random_messy(seed, span=2, max_rank=14, density=0.6):
    """Random valid complex sampled arrow by arrow, not built from known pieces.

    Gradings land on the even-sum sublattice of a small window, so shafts
    come out several strands wide and plenty of pairs admit an arrow; the
    squared differential is repaired by deleting offenders.
    """
    rng = random.Random(seed)
    char = rng.choice([2, 2, 3, 5])
    n = rng.randrange(6, max_rank + 1)
    grs = []
    while len(grs) < n:
        x, y = rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)
        if (x + y) % 2 == 0:
            grs.append((x, y))
    gens = tuple(Generator(f"m{i}", *grs[i]) for i in range(n))
    cands = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dx = grs[j][0] - grs[i][0]
            dy = grs[j][1] - grs[i][1]
            if dy == -1 and dx % 2 and dx >= -1:
                u, v = (dx + 1) // 2, 0
            elif dx == -1 and dy % 2 and dy >= 1:
                u, v = 0, (dy + 1) // 2
            else:
                continue
            cands.append((i, j, u, v))
    arrows = [
        Arrow(f"m{i}", f"m{j}", mono(rng.randrange(1, char), u, v, char))
        for (i, j, u, v) in cands
        if rng.random() < density
    ]
    while True:
        bad = _square_offenders(gens, arrows, char)
        if not bad:
            break
        arrows.pop(rng.choice(bad))
    c = Complex(RING_R1, char, gens, tuple(arrows))
    assert validate(c) == []
    return c


def square(char=2, prefix="s", anchor=(0, 0)):
    """One square complex: four generators, two U-arrows and two V-arrows."""
    ax, ay = anchor
    minus = char - 1
    gens = (
        Generator(prefix + "a", ax, ay),
        Generator(prefix + "b", ax - 1, ay + 1),
        Generator(prefix + "c", ax + 1, ay - 1),
        Generator(prefix + "d", ax, ay),
    )
    arrows = (
        Arrow(prefix + "b", prefix + "a", mono(1, 1, 0, char)),
        Arrow(prefix + "c", prefix + "a", mono(1, 0, 1, char)),
        Arrow(prefix + "d", prefix + "c", mono(1, 1, 0, char)),
        Arrow(prefix + "d", prefix + "b", mono(minus, 0, 1, char)),
    )
    return Complex(RING_R1, char, gens, arrows)


def square_sheets(char=2, glue=((1, 0), (1, 1))):
    """Parallel square copies whose closing V-arrows mix sheets by a matrix."""
    names = "pqrs"[: len(glue)]
    gens, arrows = [], []
    minus = char - 1
    for s, nm in enumerate(names):
        gens += [
            Generator(nm + "a", 0, 0),
            Generator(nm + "b", -1, 1),
            Generator(nm + "c", 1, -1),
            Generator(nm + "d", 0, 0),
        ]
        arrows += [
            Arrow(nm + "b", nm + "a", mono(1, 1, 0, char)),
            Arrow(nm + "c", nm + "a", mono(1, 0, 1, char)),
            Arrow(nm + "d", nm + "c", mono(1, 1, 0, char)),
        ]
        for t, lam in enumerate(glue[s]):
            lam = (lam * minus) % char
            if lam:
                arrows.append(Arrow(nm + "d", names[t] + "b", mono(lam, 0, 1, char)))
    c = Complex(RING_R1, char, tuple(gens), tuple(arrows))
    assert validate(c) == []
    return c


def braided_wrong(char=2):
    """Like braided, but the mixing arrow hangs on the short strand, so the
    surviving crossover arrow points against the divergence order."""
    gens = (
        Generator("a0", 0, 0),
        Generator("a1", -1, 1),
        Generator("a2", 0, 0),
        Generator("b0", 2, 0),
        Generator("b1", -1, 1),
        Generator("b2", 0, 0),
    )
    arrows = (
        Arrow("a1", "a0", mono(1, 1, 0, char)),
        Arrow("b1", "b0", mono(1, 2, 0, char)),
        Arrow("a2", "a1", mono(1, 0, 1, char)),
        Arrow("b2", "b1", mono(1, 0, 1, char)),
        Arrow("b2", "a1", mono(1, 0, 1, char)),
    )
    return Complex(RING_R1, char, gens, arrows)


def depth_two(char=2):
    """Two mixed parallel strands that agree for one journey step on both
    sides and diverge on the near side at the second step."""
    gens = (
        Generator("m1", 0, 0),
        Generator("m2", 0, 0),
        Generator("a1", -1, 1),
        Generator("b1", -1, 1),
        Generator("a0", 0, 0),
        Generator("b0", 0, 0),
        Generator("ad", -1, 1),
        Generator("bd", -1, 3),
    )
    arrows = (
        Arrow("m1", "a1", mono(1, 0, 1, char)),
        Arrow("m1", "b1", mono(1, 0, 1, char)),
        Arrow("m2", "b1", mono(1, 0, 1, char)),
        Arrow("a1", "a0", mono(1, 1, 0, char)),
        Arrow("b1", "b0", mono(1, 1, 0, char)),
        Arrow("a0", "ad", mono(1, 0, 1, char)),
        Arrow("b0", "bd", mono(1, 0, 2, char)),
    )
    return Complex(RING_R1, char, gens, arrows)


def quotient_u(c):
    """Set U = 0: the complex of free graded F[V]-modules left when every
    term with a positive U power is dropped (the container type is kept)."""
    return Complex(c.ring, c.char, c.generators, tuple([a for a in c.arrows if not a.mono.u_exp]))


def quotient_v(c):
    """Set V = 0: drop every term with a positive V power."""
    return Complex(c.ring, c.char, c.generators, tuple([a for a in c.arrows if not a.mono.v_exp]))


def _dense_shaft(st, width, p):
    """A shaft state's block L D P U as dense rows: row a of D P is dots[a]
    times e_{up[a]}; an upper arrow [r, g, c] on the right adds c times
    column r into column g, a lower one on the left c times row g into
    row r."""
    rows = [[0] * width for _ in range(width)]
    for a, q in enumerate(st.up):
        rows[a][q] = st.dots.get(a, 1)
    for r, g, c in st.upper:
        for row in rows:
            row[g] = (row[g] + c * row[r]) % p
    for r, g, c in reversed(st.lower):
        rows[r] = [(x + c * y) % p for x, y in zip(rows[r], rows[g])]
    return tuple([tuple(row) for row in rows])


def conjugation_verify(t):
    """TwoStoryComplex.verify by conjugation, with ring inverses.

    Each floor is rebuilt as the quotient of X D X^-1 (Y D Y^-1) through
    ``apply_basis_change`` and compared with the engine table; the
    transition X Y^-1 must be homogeneous, scalar within a grading and
    equal to every shaft block, multiplied out densely here rather than
    by the engine's row operations.  Raises what ``verify`` raised before it
    checked by intertwining, so the two can be compared on any state.
    """
    x, y = t._basis("bottom"), t._basis("top")
    for change, quot, label in ((x, quotient_u, "bottom"), (y, quotient_v, "top")):
        table = t._floors[label].table
        q = quot(apply_basis_change(t.original, change))
        idx = q.gen_index()
        got = {}
        for a in q.arrows:
            s = idx[a.src]
            if s in got:
                raise InvariantViolation(f"{label} floor source repeated")
            got[s] = (idx[a.tgt], a.mono.u_exp + a.mono.v_exp, a.mono.coeff.value)
        if got != {s: tuple(v) for s, v in table.items()}:
            raise InvariantViolation(f"{label} floor drifted from the engine tables")
    p = x.compose(y.inverse())
    for i, row in enumerate(p.rows):
        for j, (_, u, v) in row.items():
            gi, gj = t.x_gens[i].grading, t.x_gens[j].grading
            if gi == gj and (u or v):
                raise InvariantViolation("same-grading transition entry left the ground field")
            if (-2 * u, -2 * v) != (gi[0] - gj[0], gi[1] - gj[1]):
                raise InvariantViolation("transition entry breaks grading homogeneity")
    for grading in t.gradings():
        members = t._slots[grading]
        block = tuple([tuple([p.rows[i].get(j, (0,))[0] for j in members]) for i in members])
        if block != _dense_shaft(t._shafts[grading], len(members), t.char):
            raise InvariantViolation(f"shaft product drifted at {grading}")


def verify_every_step(t):
    """Make t run ``verify()`` after each of its snowplow removals,
    shaft refactorizations and tier slide-outs, the depth loop's inner
    steps, so a test sees the first step that breaks an invariant rather
    than the pass that contains it.  Returns t."""
    for name in ("_snowplow_remove", "_reparametrize", "_slide_out"):

        def checked(*args, _step=getattr(t, name), **kwargs):
            out = _step(*args, **kwargs)
            t.verify()
            return out

        setattr(t, name, checked)
    return t
