"""Frozen copy of the test-suite generators the benchmark draws its inputs from.

The benchmark keeps its own copy so that an edit to ``tests/gen.py`` cannot
change a workload.  The bodies match the test-suite versions, with one
difference: ``random_complex`` also returns how many zero-pair parts it drew,
which the benchmark checks against ``strip_zero_complexes``.  The generators
still build their complexes through the program (``direct_sum``,
``apply_basis_change``), so ``run.py`` compares a digest of the generated
inputs with a recorded value before it measures anything.
"""

import random

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
from snakedec.gf import FieldElem


def zero_pair(char=2, lam=1, ids=("x", "y"), at=(1, 1)):
    gens = (Generator(ids[0], at[0], at[1]), Generator(ids[1], at[0] - 1, at[1] - 1))
    return Complex(RING_R1, char, gens, (Arrow(ids[0], ids[1], mono(lam, 0, 0, char)),))


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
    """Direct sum of small known pieces with a random homogeneous change.

    Returns ``(complex, zero_parts)``: the number of zero pairs among the
    pieces is the number ``strip_zero_complexes`` must split off.
    """
    rng = random.Random(seed)
    char = rng.choice([2, 3])
    kinds = ["chain", "chain", "single"] + (["zero"] if allow_zero_pairs else [])
    parts = []
    zero_parts = 0
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
            zero_parts += 1
        else:
            parts.append(Complex(RING_R1, char, (Generator(f"s{k}", du, dv),), ()))
    c = direct_sum(parts)
    assert validate(c) == []
    return apply_basis_change(c, random_change(c, seed * 31 + 7, moves=2 * c.rank)), zero_parts


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
