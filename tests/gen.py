"""Shared complex builders and randomizers for the test suite, a runner
for scripts under ``python -O``, a ring-inverse oracle for the transition
normalization, a full-scan oracle for the elimination's pivot order, an
enumeration oracle for permutation classes, a product-form oracle for
the intertwining check, a conjugation oracle for the two-story
self-check, the dense token product as the reference for the engine's
shaft products, planted pairs of snakes whose journeys diverge late,
eventually periodic journey records with their comparison in the
unusual order, the strand-journey multiset of a two-story complex, a
step-by-step journey walk with the weights it gives as the oracle for
the engine's successor table, and a hook that runs that self-check
after every inner step of the depth loop.

The seeded generators ``zero_pair``, ``chain_complex``, ``random_change``,
``random_complex`` and ``random_messy`` are the benchmark's own, from
``perfbench/frozen_gen.py`` (loaded here as ``frozen``)."""

import importlib.util
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass

from snakedec.complexes import (
    Arrow,
    BasisChange,
    Complex,
    Elimination,
    Generator,
    RING_R1,
    _mul_rows,
    apply_basis_change,
    differential_rows,
    direct_sum,
    mono,
    quotient_rows,
    validate,
)
from snakedec.errors import (
    CountMismatch,
    DimensionMismatch,
    FieldMismatch,
    GradingViolation,
    InvariantViolation,
)
from snakedec.gf import (
    PONE,
    Matrix,
    _is_int,
    charpoly,
    conjugate_test,
    perm_matrix,
    pmul,
    pnorm,
)
from snakedec.twostory import BlackDot, Crossing, CrossoverArrow, unusual_key

# One copy of the seeded generators serves both suites, so tier-1 checks the
# pipeline on the very inputs the benchmark measures.  The file is loaded by
# path and read only; perfbench/ stays off sys.path.
_spec = importlib.util.spec_from_file_location(
    "perfbench_frozen_gen", pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "frozen_gen.py"
)
frozen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frozen)
zero_pair = frozen.zero_pair
chain_complex = frozen.chain_complex
random_change = frozen.random_change
random_messy = frozen.random_messy


def random_complex(seed, max_parts=3, allow_zero_pairs=True):
    """``frozen.random_complex`` without the count of zero pairs it drew."""
    return frozen.random_complex(seed, max_parts, allow_zero_pairs)[0]


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


def _draw_pieces(rng, parts):
    pieces = [random_messy(rng.randrange(10**6), max_rank=24)]
    while len(pieces) < parts:
        piece = random_messy(rng.randrange(10**6), max_rank=24)
        if piece.char == pieces[0].char:
            pieces.append(piece)
    return pieces


def mixed_sum_pieces(seed, parts):
    """The pieces whose direct sum ``mixed_sum(seed, parts)`` mixes, drawn
    by the same ``rng`` calls."""
    return _draw_pieces(random.Random(seed), parts)


def mixed_sum(seed, parts):
    """Direct sum of ``parts`` ``random_messy(max_rank=24)`` pieces, mixed.

    The pieces share the first one's field; a drawn piece over another
    field is passed over.  The sum is mixed by 2 * rank random
    ``Elimination.add`` steps, each adding a scalar, U^k or V^k (k <= 2)
    times one generator to another whose bigrading matches, and the
    complex is read back from the mixed differential.
    """
    rng = random.Random(seed)
    c = direct_sum(_draw_pieces(rng, parts))
    gens, p = c.generators, c.char
    by_grading = {}
    for i, g in enumerate(gens):
        by_grading.setdefault(g.grading, []).append(i)
    el = Elimination(gens, p, differential_rows(c))
    steps = 0
    while steps < 2 * c.rank:
        r, k = rng.randrange(c.rank), rng.randrange(1, 3)
        u, v = rng.choice([(0, 0), (k, 0), (0, k)])
        gr_u, gr_v = gens[r].grading
        givers = [g for g in by_grading.get((gr_u + 2 * u, gr_v + 2 * v), ()) if g != r]
        if givers:
            el.add(r, rng.choice(givers), (rng.randrange(1, p), u, v))
            steps += 1
    arrows = [
        Arrow(gens[s].id, gens[t].id, mono(x, u, v, p))
        for s, row in enumerate(el.d)
        for t, (x, u, v) in row.items()
    ]
    return Complex(RING_R1, p, gens, tuple(arrows))


def snake_pair_chains(m, tails):
    """The two snakes ``snake_pair(m, tails, seed)`` mixes: chains a and b
    of m unit arrows, alternately U and V, then one arrow of value
    tails[0] (tails[1]) in the ``chain_complex`` sign convention, over
    F_2 from bigrading (0, 0).  Their journeys agree on a prefix that
    grows with m and differ after it."""
    return [chain_complex([1, 1] * (m // 2) + [tail], prefix=k) for k, tail in zip("ab", tails)]


def snake_pair(m, tails, seed):
    """The direct sum of ``snake_pair_chains(m, tails)``, mixed by
    ``random_change`` with 3 * rank moves."""
    c = direct_sum(snake_pair_chains(m, tails))
    return apply_basis_change(c, random_change(c, seed, moves=3 * c.rank))


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


def transition_by_ring_inverse(c, xb, yb):
    """``normalize_transition`` by the raw transition P = X Y^-1 over the ring.

    P factors as (S + P_U) S^-1 (S + P_V) with S its scalar part, because
    UV = 0, so X' = (S + P_V) Y and Y' = S^-1 X'.  Takes the ring inverse
    Y^-1, a dense inverse of each block and three ring products.  Returns
    (X', Y', blocks): the two adjusted changes and one (members, S block)
    pair per bigrading, in ascending bigrading order.
    """
    if len(xb.generators) != len(yb.generators) or any(
        gx.grading != gy.grading for gx, gy in zip(xb.generators, yb.generators)
    ):
        raise CountMismatch("bases are not aligned by bigrading")
    p_raw = xb.change.compose(yb.change.inverse())
    y_gens, x_gens = p_raw.old_gens, p_raw.new_gens
    with_v = [{j: e for j, e in row.items() if not e[1]} for row in p_raw.rows]
    x_change = BasisChange.from_rows(c.ring, c.char, y_gens, x_gens, with_v).compose(yb.change)
    slots = {}
    for i, g in enumerate(x_gens):
        slots.setdefault(g.grading, []).append(i)
    pos = {i: (gr, k) for gr, members in slots.items() for k, i in enumerate(members)}
    blocks = []
    q_rows = [{} for _ in range(c.rank)]
    for grading in sorted(slots):
        members = tuple(slots[grading])
        rows = [[0] * len(members) for _ in members]
        for row, i in zip(rows, members):
            for j, e in p_raw.rows[i].items():
                if e[1:] == (0, 0):
                    gr, k = pos[j]
                    if gr != grading:
                        raise InvariantViolation("transition crosses bigradings")
                    row[k] = e[0]
        s_mat = Matrix(rows, c.char)
        for i, row in zip(members, s_mat.inverse().entries):
            q_rows[i] = {members[k]: (x, 0, 0) for k, x in enumerate(row) if x}
        blocks.append((members, s_mat))
    y_change = BasisChange.from_rows(c.ring, c.char, x_gens, y_gens, q_rows).compose(x_change)
    return x_change, y_change, tuple(blocks)


def cancel_by_full_scan(el, rank):
    """``Elimination.cancel_in_order`` by rescanning every cell of D for
    each pivot: the least (rank(e), i, j) over the cells with neither
    index cancelled and a rank that is not None."""
    retired, pairs = set(), []
    while live := [
        (k, i, j)
        for i, row in enumerate(el.d) if i not in retired
        for j, e in row.items() if j not in retired and (k := rank(e)) is not None
    ]:
        _, s, t = min(live)
        el.cancel(s, t)
        retired.update((s, t))
        pairs.append((s, t))
    return pairs


def intertwines_by_products(d, change, arrows, k):
    """``twostory._Floor.intertwines`` by two whole products: X D == T X on
    the quotient copies of the rows, with the floor's arrows as
    (src, tgt, length, coeff) and k = 1 (bottom, modulo U) or 2 (top,
    modulo V), and False for a cell of either product that is not a
    single monomial."""
    p = change.char
    x = quotient_rows(change.rows, k)
    t = [{} for _ in x]
    for s, tgt, length, coeff in arrows:
        coeff %= p
        if not coeff:
            return False
        t[s][tgt] = (coeff, 0, length) if k == 1 else (coeff, length, 0)
    try:
        return _mul_rows(x, d, p) == _mul_rows(t, x, p)
    except GradingViolation:
        return False


def cycle_type(sigma):
    """Sorted cycle lengths of a permutation."""
    seen = [False] * len(sigma)
    lens = []
    for s in range(len(sigma)):
        if seen[s]:
            continue
        ln, j = 0, s
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            ln += 1
        lens.append(ln)
    return tuple(sorted(lens))


def permutation_by_enumeration(a):
    """``gf.class_contains_permutation`` by walking all w! permutations,
    with one ``conjugate_test`` per cycle type whose characteristic
    polynomial matches a's."""
    p, cp = a.char, charpoly(a)
    verdict_by_type = {}
    for sigma in itertools.permutations(range(a.rows)):
        ct = cycle_type(sigma)
        perm_cp = PONE
        for ln in ct:
            perm_cp = pmul(perm_cp, pnorm([-1] + [0] * (ln - 1) + [1], p), p)
        if perm_cp != cp:
            continue
        if ct not in verdict_by_type:
            verdict_by_type[ct] = conjugate_test(a, perm_matrix(sigma, p))
        if verdict_by_type[ct]:
            return True
    return False


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


def _token_indices(t) -> set:
    if isinstance(t, (Crossing, CrossoverArrow)):
        return {t.i, t.j}
    return {t.i}


def token_matrix(token, width, char):
    """The elementary matrix a single token stands for."""
    if not isinstance(token, (Crossing, CrossoverArrow, BlackDot)):
        raise TypeError(f"not a token: {token!r}")
    if max(_token_indices(token)) > width:
        raise DimensionMismatch(f"{token} does not fit {width} strands")
    if not isinstance(token, Crossing) and token.lam.char != char:
        raise FieldMismatch(f"{token} lies outside F_{char}")
    rows = [[int(a == b) for b in range(width)] for a in range(width)]
    if isinstance(token, Crossing):
        i, j = token.i - 1, token.j - 1
        rows[i][i] = rows[j][j] = 0
        rows[i][j] = rows[j][i] = 1
    elif isinstance(token, BlackDot):
        rows[token.i - 1][token.i - 1] = token.lam.value
    else:
        rows[token.j - 1][token.i - 1] = token.lam.value
    return Matrix.from_rows(rows, char)


def shaft_matrix(tokens, width, char):
    """Product of the token matrices, bottom-most token leftmost: the
    dense reference for the engine's ``_state_matrix``."""
    out = Matrix.identity(width, char)
    for t in tokens:
        out = out * token_matrix(t, width, char)
    return out


def conjugation_verify(t):
    """TwoStoryComplex.verify by conjugation, with ring inverses.

    Each floor is rebuilt as the quotient of X D X^-1 (Y D Y^-1) through
    ``apply_basis_change`` and compared with the engine's floor arrows,
    read off the sources (``term`` below 0) and their ``partner``s; the
    transition X Y^-1 must be homogeneous, scalar within a grading and
    equal to every shaft block, multiplied out densely here rather than
    by the engine's row operations.  Raises what ``verify`` raised before it
    checked by intertwining, so the two can be compared on any state.
    """
    x, y = t._basis("bottom"), t._basis("top")
    for change, quot, label in ((x, quotient_u, "bottom"), (y, quotient_v, "top")):
        floor = t._floors[label]
        q = quot(apply_basis_change(t.original, change))
        idx = {g.id: k for k, g in enumerate(q.generators)}
        got = {}
        for a in q.arrows:
            s = idx[a.src]
            if s in got:
                raise InvariantViolation(f"{label} floor source repeated")
            got[s] = (idx[a.tgt], a.mono.u_exp + a.mono.v_exp, a.mono.coeff.value)
        if got != {s: (floor.partner[s], -n, 1) for s, n in enumerate(floor.term) if n < 0}:
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


def _min_cycle(cycle):
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


@dataclass(frozen=True)
class TraversalSequence:
    """An eventually periodic journey record: prefix, then repeating cycle.

    A terminated journey is stored with cycle ``(0,)``: the record is
    padded with infinitely many zeros.  Equal journeys give equal records.
    """

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        cycle = _min_cycle(tuple(self.cycle))
        if not cycle:
            raise ValueError("a traversal sequence needs a nonempty cycle")
        prefix = tuple(self.prefix)
        while prefix and prefix[-1] == cycle[-1]:
            cycle = (cycle[-1],) + cycle[:-1]
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    @property
    def terminating(self):
        return self.cycle == (0,)

    @property
    def period(self):
        """Length of the repeating part, None for a terminated journey."""
        return None if self.terminating else len(self.cycle)

    def term(self, k):
        """The k-th term, counted from 0; a k that is not a nonnegative int
        raises ValueError."""
        if not _is_int(k) or k < 0:
            raise ValueError(f"a journey has no term {k!r}")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]

    def realize(self, n):
        return tuple([self.term(k) for k in range(n)])


def _compare_window(s, t):
    lead = max(len(s.prefix), len(t.prefix))
    return lead + math.lcm(len(s.cycle), len(t.cycle))


def _divergence(s, t, window):
    """Signed 1-based index of the first term where s and t differ within
    the window, positive when s comes first in the unusual order; 0 when
    they agree throughout."""
    for k in range(window):
        a, b = s.term(k), t.term(k)
        if a != b:
            return (k + 1) if unusual_key(a) < unusual_key(b) else -(k + 1)
    return 0


def elevator(t, end, idx):
    """The other end of the strand of t whose ``end`` end is the floor
    element idx, read off the shaft's ``up``."""
    g, p = t._pos[idx]
    up = t._shafts[g].up
    return t._idx(g, up[p] if end == "bottom" else up.index(p))


def journey(t, end, idx):
    """The journey out of the element idx of the floor at ``end``, read
    off the engine's successor table."""
    table = t._journeys()
    s = idx if end == "bottom" else table.n + idx
    lead = table.lead[s]
    terms = table.terms(s, lead + table.period[s])
    return TraversalSequence(tuple(terms[:lead]), tuple(terms[lead:]))


def journey_multiset(t):
    """The strands of a two-story complex counted by (bigrading, journey
    out of the bottom floor, journey out of the top floor).  After the
    depth loop it is an invariant of the input complex, if its splitting
    into snakes and local systems is unique."""
    return Counter(
        (g.grading, journey(t, "bottom", i), journey(t, "top", elevator(t, "bottom", i)))
        for i, g in enumerate(t.x_gens)
    )


def journey_by_walk(t, end, idx):
    """The journey out of the element idx of the floor at ``end``, walked
    one floor arrow and one elevator at a time until a state repeats or
    an element has no floor arrow: a definition independent of the
    engine's successor table, and its oracle."""
    seen, terms, state = {}, [], (end, idx)
    while state not in seen:
        seen[state] = len(terms)
        at, i = state
        floor = t._floors[at]
        if not floor.term[i]:
            return TraversalSequence(tuple(terms), (0,))
        terms.append(floor.term[i])
        state = ("top" if at == "bottom" else "bottom", elevator(t, at, floor.partner[i]))
    k = seen[state]
    return TraversalSequence(tuple(terms[:k]), tuple(terms[k:]))


def weight_by_walk(t, grading, end, r, g):
    """(near, far) weight components of the arrow from g into r in the
    tier at ``end``, from walked journeys compared over the full window."""

    def component(at, i, j):
        s, u = journey_by_walk(t, at, i), journey_by_walk(t, at, j)
        return _divergence(s, u, _compare_window(s, u)) or math.inf

    idx_r, idx_g = t._idx(grading, r), t._idx(grading, g)
    far = "top" if end == "bottom" else "bottom"
    return (
        component(end, idx_r, idx_g),
        component(far, elevator(t, end, idx_r), elevator(t, end, idx_g)),
    )


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
