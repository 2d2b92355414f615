"""Tests for the two-story engine: tokens, journeys, weights, turns, depth."""

import copy
import functools
import hashlib
import math
import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from gen import (
    _dense_shaft,
    braided,
    braided_wrong,
    broken_chain,
    conjugation_verify,
    depth_two,
    elevator,
    figure_eight,
    intertwines_by_products,
    journey,
    journey_by_walk,
    journey_multiset,
    mixed_sum,
    mixed_sum_pieces,
    octagon,
    octagon_sheets,
    random_change,
    random_complex,
    random_messy,
    run_optimized,
    shaft_matrix,
    snake_pair,
    snake_pair_chains,
    square_sheets,
    token_matrix,
    trefoil,
    TraversalSequence,
    verify_every_step,
    weight_by_walk,
)
from snakedec import complexes, gf, simplify, twostory
from snakedec.complexes import (
    Arrow,
    BasisChange,
    Complex,
    Generator,
    RING_FUV,
    RING_R1,
    apply_basis_change,
    bar,
    mono,
    strip_zero_complexes,
    validate,
)
from snakedec.errors import (
    BoundExceeded,
    DimensionMismatch,
    FieldMismatch,
    GradingViolation,
    InvariantViolation,
    SnakedecError,
    StrandsDiverge,
    ValidationError,
    WrongOrientation,
)
from snakedec.gf import FieldElem, Matrix
from snakedec.simplify import matching_violations
from snakedec.twostory import (
    _factored_state,
    _ordered_ltu,
    _state_matrix,
    _state_tokens,
    BlackDot,
    Crossing,
    CrossoverArrow,
    TwoStoryComplex,
    build,
    dump,
    run_to_depth_infinity,
    unusual_key,
)


def f(v, char):
    return FieldElem(v, char)


def token_count(t):
    return sum(len(s.tokens) for s in t.shafts().values())


def arrow_handles(t):
    """All (bigrading, end, index in that end's tier) handles of crossover
    arrows, in token order: shaft by shaft, the lower tier first."""
    return [
        (g, end, k)
        for g in sorted(t.gradings())
        for end in (twostory.BOTTOM, twostory.TOP)
        for k in range(len(t._shafts[g].arrows(end)))
    ]


def weight(t, handle):
    """The (near, far) weight components of the arrow at handle."""
    grading, end, k = handle
    r, g, _ = t._shafts[grading].arrows(end)[k]
    return tuple(t._arrow_component(grading, end, r, g, near) for near in (True, False))


def named(t, end, name):
    """Index of the floor basis element called name at ``end``."""
    return [g.id for g in t._floors[end].gens].index(name)


# ---------------------------------------------------------------------------
# tokens and words


def test_token_matrices():
    m = token_matrix(CrossoverArrow(1, 3, f(2, 5)), 3, 5)
    assert m.entries == ((1, 0, 0), (0, 1, 0), (2, 0, 1))
    d = token_matrix(BlackDot(2, f(4, 5)), 3, 5)
    assert d.entries == ((1, 0, 0), (0, 4, 0), (0, 0, 1))
    c = token_matrix(Crossing(1, 2), 3, 5)
    assert c.entries == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    for bad in (Crossing(1, 4), CrossoverArrow(4, 1, f(1, 5)), BlackDot(4, f(2, 5))):
        with pytest.raises(DimensionMismatch):
            token_matrix(bad, 3, 5)
    with pytest.raises(TypeError):
        token_matrix((1, 2), 3, 5)
    for bad in (BlackDot(1, f(4, 5)), CrossoverArrow(1, 2, f(4, 5))):
        with pytest.raises(FieldMismatch):
            token_matrix(bad, 2, 3)
    with pytest.raises(ValueError):
        Crossing(2, 2)
    with pytest.raises(ValueError):
        BlackDot(1, f(0, 5))
    with pytest.raises(ValueError, match="1-based"):
        BlackDot(0, f(1, 5))
    with pytest.raises(ValueError, match="two distinct positions"):
        CrossoverArrow(2, 2, f(1, 5))
    with pytest.raises(ValueError, match="decoration must be nonzero"):
        CrossoverArrow(1, 2, f(0, 5))
    # the calculus's local identities: each pair of words has one product
    for left, right, width, p in (
        ((Crossing(1, 2), BlackDot(3, f(2, 3))), (BlackDot(3, f(2, 3)), Crossing(1, 2)), 4, 3),
        (
            (CrossoverArrow(1, 2, f(1, 3)), BlackDot(1, f(2, 3))),
            (BlackDot(1, f(2, 3)), CrossoverArrow(1, 2, f(2, 3))),
            2,
            3,
        ),
        (
            (BlackDot(1, f(2, 3)), CrossoverArrow(1, 2, f(1, 3))),
            (CrossoverArrow(1, 2, f(2, 3)), BlackDot(1, f(2, 3))),
            2,
            3,
        ),
        ((BlackDot(1, f(2, 3)), Crossing(1, 2)), (Crossing(1, 2), BlackDot(2, f(2, 3))), 2, 3),
        (
            (CrossoverArrow(1, 3, f(1, 2)), Crossing(1, 2)),
            (Crossing(1, 2), CrossoverArrow(2, 3, f(1, 2))),
            3,
            2,
        ),
    ):
        assert shaft_matrix(left, width, p) == shaft_matrix(right, width, p)


def test_dense_word_pins():
    # a six-token word over F_3 whose product is pinned exactly
    toks = [
        CrossoverArrow(2, 3, f(1, 3)),
        Crossing(2, 3),
        CrossoverArrow(3, 1, f(1, 3)),
        Crossing(1, 2),
        BlackDot(2, f(2, 3)),
        CrossoverArrow(1, 2, f(1, 3)),
    ]
    assert shaft_matrix(toks, 3, 3).entries == ((2, 2, 1), (0, 0, 1), (1, 0, 1))


# ---------------------------------------------------------------------------
# the unusual order


def test_unusual_order_ranking():
    values = [3, -1, 1, 0, -2, 2, -3]
    assert sorted(values, key=unusual_key) == [-1, -2, -3, 0, 3, 2, 1]


# ---------------------------------------------------------------------------
# straightening: shaft words refactored along strand orders


def random_word(rng, width, char, length):
    toks = []
    for _ in range(length):
        kind = rng.choice(["arrow", "dot", "cross"])
        i = rng.randrange(1, width + 1)
        j = rng.randrange(1, width + 1)
        while j == i:
            j = rng.randrange(1, width + 1)
        if kind == "arrow":
            toks.append(CrossoverArrow(i, j, f(rng.randrange(1, char), char)))
        elif kind == "dot":
            toks.append(BlackDot(i, f(rng.randrange(1, char), char)))
        else:
            toks.append(Crossing(min(i, j), max(i, j)))
    return tuple(toks)


def straightened(word, width, p, order=None):
    """The word's straight form: ``_ordered_ltu`` on its product, as
    ``_reparametrize`` refactors a shaft, printed as tokens.  ``order[q]``
    ranks position q at both ends of the shaft, and the position breaks
    ties between equal ranks; the default puts every position in one
    class, which is the plain factorization."""
    ranks = list(order) if order is not None else [0] * width
    # _ordered_ltu takes rows by descending key with ascending position
    # ties, so negated bottom keys give ascending (rank, position) rows
    state = _ordered_ltu(shaft_matrix(word, width, p), [-r for r in ranks], ranks, p)
    return tuple(_state_tokens(state, p))


def leaning(tokens, order=None):
    """One letter per token: u/d for arrow direction, m for the rest.

    An arrow leans u when its giver comes before its receiver in
    (order[position], position); without an order, in position alone.
    """

    def key(i):
        return (order[i - 1] if order else 0, i)

    out = []
    for t in tokens:
        if isinstance(t, CrossoverArrow):
            out.append("u" if key(t.i) < key(t.j) else "d")
        else:
            out.append("m")
    return "".join(out)


def is_straight(tokens, order=None):
    lean = leaning(tokens, order)
    return lean == "".join(sorted(lean, key="umd".index))


def test_straighten_already_straight():
    word = (CrossoverArrow(1, 3, f(1, 2)), Crossing(2, 3), CrossoverArrow(3, 1, f(1, 2)))
    once = straightened(word, 3, 2)
    assert shaft_matrix(once, 3, 2) == shaft_matrix(word, 3, 2)
    assert straightened(once, 3, 2) == once


def test_straighten_dense_layout():
    # four-token word whose straight form keeps one arrow below the
    # crossing block and moves the rest above it
    one = f(1, 2)
    word = (
        CrossoverArrow(1, 3, one),
        Crossing(2, 3),
        CrossoverArrow(3, 1, one),
        CrossoverArrow(2, 1, one),
    )
    st = straightened(word, 3, 2)
    assert shaft_matrix(st, 3, 2) == shaft_matrix(word, 3, 2)
    assert is_straight(st)
    assert st == (
        CrossoverArrow(1, 3, f(1, 2)),
        Crossing(2, 3),
        CrossoverArrow(3, 1, f(1, 2)),
        CrossoverArrow(2, 1, f(1, 2)),
    )
    # the plain normal form of short words: dots and arrows on one strand
    # or pair merge, a unit product prints as nothing, and a crossing on an
    # arrow's own pair becomes reversed arrow, inverse dot, original arrow
    for word, p, want in (
        ((BlackDot(1, f(2, 5)), BlackDot(1, f(4, 5))), 5, (BlackDot(1, f(3, 5)),)),
        ((BlackDot(1, f(2, 3)), BlackDot(1, f(2, 3))), 3, ()),
        ((CrossoverArrow(1, 2, f(1, 3)),) * 2, 3, (CrossoverArrow(1, 2, f(2, 3)),)),
        ((CrossoverArrow(1, 2, f(1, 3)), CrossoverArrow(1, 2, f(2, 3))), 3, ()),
        (
            (Crossing(1, 2), CrossoverArrow(1, 2, f(1, 3))),
            3,
            (CrossoverArrow(1, 2, f(1, 3)), BlackDot(2, f(2, 3)), CrossoverArrow(2, 1, f(1, 3))),
        ),
    ):
        st = _factored_state(gf.ltu_factorize(shaft_matrix(word, 2, p)))
        assert tuple(_state_tokens(st, p)) == want
        assert straightened(word, 2, p) == want


def seeded_words():
    """(word, width, char) for 40 seeded random words."""
    for seed in range(40):
        rng = random.Random(seed)
        width = rng.randrange(2, 5)
        char = rng.choice([2, 3, 5])
        yield random_word(rng, width, char, rng.randrange(0, 9)), width, char


def test_straighten_random_words():
    for word, w, p in seeded_words():
        st = straightened(word, w, p)
        assert shaft_matrix(st, w, p) == shaft_matrix(word, w, p)
        assert is_straight(st)
        assert straightened(st, w, p) == st


def test_straighten_with_order():
    rng = random.Random(7)
    base = random_word(rng, 4, 3, 8)
    st = straightened(base, 4, 3, order=[0, 1, 2, 3])
    assert shaft_matrix(st, 4, 3) == shaft_matrix(base, 4, 3)
    assert is_straight(st)
    # the identity order with position tie-breaks is the one-class default
    for word, w, p in seeded_words():
        assert straightened(word, w, p, order=list(range(w))) == straightened(word, w, p)
    # ties and ranks out of position order: arrows lean by (rank, position)
    # at both ends, and straightening again changes nothing
    for word, w, p in [(base, 4, 3), *seeded_words()]:
        order = [2, 0, 2, 1][:w]
        st = straightened(word, w, p, order)
        assert shaft_matrix(st, w, p) == shaft_matrix(word, w, p)
        assert is_straight(st, order)
        assert straightened(st, w, p, order) == st


def test_ordered_ltu_keeps_its_ordering_contract():
    # _reparametrize keys strands by journey prefixes and relies on this
    # order: rows by descending bottom key, columns by ascending top key,
    # ties by position, so a lower arrow's receiver never has the larger
    # bottom key and an upper arrow's receiver never the larger top key
    seen = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        p, w = rng.choice((2, 3, 5)), rng.randrange(2, 5)
        block = None
        while block is None or not block.is_invertible():
            block = Matrix.from_rows([[rng.randrange(p) for _ in range(w)] for _ in range(w)], p)

        def keys():
            terms = (-1, 0, 1, 2)
            return [tuple([unusual_key(rng.choice(terms)) for _ in range(2)]) for _ in range(w)]

        x_keys, y_keys = keys(), keys()
        st = _ordered_ltu(block, x_keys, y_keys, p)
        assert _state_matrix(st, w, p) == block
        for r, g, _ in st.lower:
            assert (x_keys[r], -r) < (x_keys[g], -g), (seed, "lower", r, g)
            seen["lower tie"] += x_keys[r] == x_keys[g]
        for r, g, _ in st.upper:
            assert (y_keys[r], r) < (y_keys[g], g), (seed, "upper", r, g)
            seen["upper tie"] += y_keys[r] == y_keys[g]
        again = _ordered_ltu(_state_matrix(st, w, p), x_keys, y_keys, p)
        assert (again.lower, again.dots, again.up, again.upper) == (st.lower, st.dots, st.up, st.upper)
        seen["tied keys"] += len(set(x_keys)) < w or len(set(y_keys)) < w
        seen["keys out of order"] += x_keys not in (sorted(x_keys), sorted(x_keys, reverse=True))
        seen["arrows"] += len(st.lower) + len(st.upper)
    assert seen["lower tie"] and seen["upper tie"] and seen["tied keys"] > 10
    assert seen["keys out of order"] > 10 and seen["arrows"] > 100


# ---------------------------------------------------------------------------
# building


def test_build_token_free_when_bases_agree():
    for c in (trefoil(), octagon()):
        t = build(c)
        assert token_count(t) == 0
        assert t.depth() == math.inf
        t.verify()


def test_build_braided_dump():
    t = build(braided())
    assert dump(t) == (
        "two-story complex over F_2, rank 6\n"
        "bottom floor:\n"
        "  x3 -V^1-> x2\n"
        "  x6 -V^2-> x5\n"
        "top floor:\n"
        "  y2 -U^1-> y1\n"
        "  y5 -U^2-> y4\n"
        "shafts:\n"
        "  (-1, 1) strands=2 [x2,x5]\n"
        "    CrossoverArrow(i=2, j=1, lam=1#F2)\n"
        "  (0, -2) strands=1 [x6] token-free\n"
        "  (0, 0) strands=2 [x1,x3] token-free\n"
        "  (2, 0) strands=1 [x4] token-free\n"
    )


def _refusal_inputs():
    """The inputs every entry point must refuse: a term off bidegree
    (-1, -1), d^2 != 0 with V arrows, d^2 != 0 with U arrows (which C/U
    drops entirely), a length-zero arrow and a complex over F[U,V]."""
    u = Generator("u", 0, 0)
    off_degree = Complex(RING_R1, 2, (u, Generator("w", 0, 0)), (Arrow("u", "w", mono(1, 1, 0, 2)),))
    # d(a) = U b, d(b) = U c
    gens = tuple(Generator(g, k, -k) for k, g in enumerate("abc"))
    u_arrows = (Arrow("a", "b", mono(1, 1, 0, 2)), Arrow("b", "c", mono(1, 1, 0, 2)))
    u_only = Complex(RING_R1, 2, gens, u_arrows)
    scalar = Complex(RING_R1, 2, (u, Generator("w", -1, -1)), (Arrow("u", "w", mono(1, 0, 0, 2)),))
    return [off_degree, broken_chain("V"), u_only, scalar, Complex(RING_FUV, 2, (u,), ())]


ENTRY_POINTS = {
    "build": build,
    "simplified_transition": simplify.simplified_transition,
    "vertical_simplify": simplify.vertical_simplify,
    "horizontal_simplify": simplify.horizontal_simplify,
}


def _refusals(entry):
    """(type name, text) of what the named entry point raises on each
    refusal input; ("returned", "") where it raises nothing."""
    out = []
    for c in _refusal_inputs():
        try:
            ENTRY_POINTS[entry](c)
        except SnakedecError as exc:
            out.append((type(exc).__name__, str(exc)))
        else:
            out.append(("returned", ""))
    return out


BUILD_REFUSALS = [
    ("GradingViolation", "term u -> w (U) breaks the bigrading"),
    ("ValidationError", "not a chain complex: d^2 != 0 at a: term V^2 -> c"),
    ("ValidationError", "not a chain complex: d^2 != 0 at a: term U^2 -> c"),
    ("ValidationError", "strip zero complexes before simplifying: u -> w"),
    ("ValidationError", "simplification works over the modulo-UV ring: reduce_mod_uv first"),
]


def test_build_rejects_bad_input():
    assert _refusals("build") == BUILD_REFUSALS
    out = run_optimized("import test_twostory", "print(test_twostory._refusals('build'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{BUILD_REFUSALS!r}\n", out.stdout


@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if e != "build"])
def test_every_simplify_entry_point_refuses_what_build_refuses_in_its_words(entry):
    # one input check behind build and the three simplify entry points
    assert _refusals(entry) == BUILD_REFUSALS
    out = run_optimized("import test_twostory", f"print(test_twostory._refusals({entry!r}))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{BUILD_REFUSALS!r}\n", out.stdout


def test_build_parallel_sheets():
    t = build(octagon_sheets())
    handles = arrow_handles(t)
    assert len(handles) == 1
    assert weight(t, handles[0]) == (math.inf, math.inf)
    t.verify()


# ---------------------------------------------------------------------------
# journeys


def test_cyclic_journeys_pinned():
    t = build(octagon())
    x1 = named(t, "bottom", "x1")
    floor_first = journey(t, "bottom", x1)
    shaft_first = journey(t, "top", elevator(t, "bottom", x1))
    assert floor_first.realize(8) == (-1, 1, -2, 2, 2, -1, 1, -2)
    assert shaft_first.realize(8) == (2, -1, 1, -2, -2, 2, -1, 1)
    assert floor_first.period == 8 and shaft_first.period == 8
    assert not floor_first.terminating


def test_journeys_across_the_elevator():
    t = build(octagon())
    x1 = named(t, "bottom", "x1")
    y = elevator(t, "bottom", x1)
    assert t.y_gens[y].id == "y1" and elevator(t, "top", y) == x1
    # the successor table crosses the same elevators as the shafts' up,
    # in both directions
    table = t._journeys()
    n = table.n
    assert table.elev == [n + elevator(t, "bottom", i) for i in range(n)] + [
        elevator(t, "top", j) for j in range(n)
    ]
    assert all(table.divergence(s, s) == math.inf for s in range(2 * n))


def test_terminating_journeys():
    t = build(braided())
    quiet = journey(t, "bottom", named(t, "bottom", "x1"))
    assert quiet.realize(5) == (0, 0, 0, 0, 0)
    assert quiet.terminating and quiet.period is None
    walk = journey(t, "bottom", named(t, "bottom", "x6"))
    assert walk.realize(6) == (-2, -2, 0, 0, 0, 0)
    assert walk.terminating
    # a journey record always repeats something: an empty cycle is refused
    for prefix in ((1,), ()):
        with pytest.raises(ValueError, match="nonempty cycle"):
            TraversalSequence(prefix, ())


# ---------------------------------------------------------------------------
# weights


def test_weight_parallel_sheets():
    t = build(octagon_sheets())
    (handle,) = arrow_handles(t)
    assert weight(t, handle) == (math.inf, math.inf)
    # the two strands of the arrow's shaft walk identical journeys
    grading = handle[0]
    members = [i for i, g in enumerate(t.x_gens) if g.grading == grading]
    walks = [journey(t, "bottom", i).realize(32) for i in members]
    assert walks[0] == walks[1]


def test_weight_immediate_divergence():
    t = build(braided())
    (handle,) = arrow_handles(t)
    assert weight(t, handle) == (1, -1)


def test_weight_against_divergence():
    t = build(braided_wrong())
    (handle,) = arrow_handles(t)
    assert weight(t, handle) == (-2, math.inf)


def test_weight_deep_agreement():
    t = build(depth_two())
    (handle,) = arrow_handles(t)
    assert weight(t, handle) == (2, math.inf)
    assert t.depth() == 2


# ---------------------------------------------------------------------------
# turns


def test_slide_round_trip():
    t = build(square_sheets())
    before = dump(t)
    assert arrow_handles(t) == [((0, 0), "bottom", 0)]
    assert t._turn((0, 0), "bottom", 0, remove=False) == ((-1, 1), "bottom", 0)
    assert arrow_handles(t) == [((-1, 1), "bottom", 0)]
    t._turn((-1, 1), "bottom", 0, remove=False)
    assert dump(t) == before
    t.verify()


def test_slide_refuses_diverging_strands():
    # _restore_convoy turns arrows back with remove off and relies on a
    # refusal that changes nothing
    t = build(braided())
    before = (dump(t), t.log)
    ((grading, end, k),) = arrow_handles(t)
    with pytest.raises(StrandsDiverge):
        t._turn(grading, end, k, remove=False)
    assert (dump(t), t.log) == before


# ---------------------------------------------------------------------------
# removal


def test_remove_diverging_arrow():
    t = build(braided())
    ((grading, end, k),) = arrow_handles(t)
    assert weight(t, (grading, end, k))[0] > 0
    t._snowplow_remove(grading, end, k, end)
    assert token_count(t) == 0
    t.verify()


def test_remove_wrong_orientation():
    t = build(braided_wrong())
    ((grading, end, k),) = arrow_handles(t)
    with pytest.raises(WrongOrientation):
        t._snowplow_remove(grading, end, k, end)


# ---------------------------------------------------------------------------
# depth raising


def test_infinite_depth_is_stable():
    t = build(trefoil())
    before = dump(t)
    assert t.depth() == math.inf
    run_to_depth_infinity(t)
    assert t.rounds == 0 and dump(t) == before
    # a depth pass at depth infinity leaves the complex alone
    t = run_to_depth_infinity(build(braided()))
    before = (dump(t), t.log)
    assert t.increase_depth() is t and (dump(t), t.log) == before


def test_depth_two_single_pass():
    t = verify_every_step(build(depth_two()))
    assert t.depth() == 2
    t.increase_depth()
    assert t.depth() > 2
    t.verify()


def test_round_bound_exceeded():
    t = build(depth_two())
    n = len(t.x_gens)
    assert t.depth() < math.inf and n > 1
    calls = []
    t.increase_depth = lambda: calls.append(t)  # a stub that never raises the depth
    with pytest.raises(BoundExceeded, match=f"more than {n * (n - 1)} depth-raising rounds"):
        t.run_to_depth_infinity()
    assert t.rounds == len(calls) == n * (n - 1)


def test_braided_full_run():
    t = verify_every_step(build(braided()))
    assert t.depth() == 1
    run_to_depth_infinity(t)
    assert t.rounds == 1
    assert t.depth() == math.inf and token_count(t) == 0
    assert len(t.log) > 0
    t.verify()


def test_parallel_arrows_survive_the_run():
    for c in (square_sheets(), octagon_sheets()):
        t = build(c)
        run_to_depth_infinity(t)
        assert t.rounds == 0
        handles = arrow_handles(t)
        assert len(handles) == 1
        assert weight(t, handles[0]) == (math.inf, math.inf)
        t.verify()


def test_reparametrization_keeps_early_terms():
    t = build(depth_two())
    m = t.depth()

    def snapshot():
        # every element's journey toward its floor and toward the shaft
        return {
            (end, i): (journey(t, end, i).realize(m), journey(t, far, elevator(t, end, i)).realize(m))
            for end, far in (("bottom", "top"), ("top", "bottom"))
            for i in range(len(t.x_gens))
        }

    before = snapshot()
    for grading in t.gradings():
        t._reparametrize(grading, m)
    assert snapshot() == before
    t.verify()


def test_reparametrization_can_keep_the_upper_arrows():
    kept = 0
    for seed in range(20):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=24))
        t = build(c)
        for grading in t.gradings():
            st = t._shafts[grading]
            upper, w = list(st.upper), t.width(grading)
            product = _state_matrix(st, w, t.char)
            t._reparametrize(grading, 2, keep_upper=True)
            new = t._shafts[grading].upper
            assert all(a is b for a, b in zip(new[len(new) - len(upper):], upper))
            assert _state_matrix(t._shafts[grading], w, t.char) == product
            kept += len(upper)
        t.verify()
    assert kept > 0


def _stale_cache_entries(t):
    """Successor-table columns that differ from a fresh computation on the
    complex as it is now."""
    if t._table is None:
        return []
    fresh = twostory._Journeys(t._floors, t._slots, t._shafts)
    return [c for c in fresh.__slots__ if getattr(t._table, c) != getattr(fresh, c)]


def test_the_floor_tables_are_fixed_matchings():
    # _Journeys, _turn, verify and dump read the floors' term and partner
    # tuples as built: together they are a matching, partner an involution
    # that fixes exactly the elements with term 0 and term opposite at the
    # two ends of an arrow, and the depth loop changes neither
    cases = [random_messy(seed, max_rank=24) for seed in range(40)] + [mixed_sum(0, 10)]
    arrows = 0
    for c in cases:
        t = build(strip_zero_complexes(c)[0])
        before = {end: (f.term, f.partner) for end, f in t._floors.items()}
        run_to_depth_infinity(t)
        for end, floor in t._floors.items():
            term, partner = floor.term, floor.partner
            assert type(term) is tuple and type(partner) is tuple
            assert (term, partner) == before[end]
            assert len(term) == len(partner) == len(floor.gens)
            for i, (x, q) in enumerate(zip(term, partner)):
                assert partner[q] == i and term[q] == -x and (q == i) == (x == 0)
            sources = tuple((s, partner[s], -x) for s, x in enumerate(term) if x < 0)
            sb = simplify.SimplifiedBasis(end, floor.gens, sources, None, floor.d)
            assert matching_violations(sb) == []
            arrows += len(sources)
    assert arrows > 0


def test_journey_cache_matches_fresh_journeys(monkeypatch):
    # the table is dropped only when a refactorization moves an elevator;
    # after every engine step it must still be current
    seen = {"checks": 0, "entries": 0, "arrow_free": 0, "moved_up": 0}

    def check(t, name):
        assert _stale_cache_entries(t) == [], f"stale cache after {name}"
        seen["checks"] += 1
        seen["entries"] += t._table is not None

    def checked(name, original):
        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            check(self, name)
            return out

        return wrapper

    reparametrize = twostory.TwoStoryComplex._reparametrize

    def checked_reparametrize(self, grading, terms, keep_upper=False):
        before = self._shafts[grading]
        arrow_free = not before.lower and (keep_upper or not before.upper)
        reparametrize(self, grading, terms, keep_upper)
        check(self, "_reparametrize")
        after = self._shafts[grading]
        if arrow_free:
            assert after is before
            seen["arrow_free"] += 1
        seen["moved_up"] += after.up != before.up

    for name in ("_turn", "_cross_middle", "_swap_adjacent", "_restore_convoy"):
        original = getattr(twostory.TwoStoryComplex, name)
        monkeypatch.setattr(twostory.TwoStoryComplex, name, checked(name, original))
    monkeypatch.setattr(twostory.TwoStoryComplex, "_reparametrize", checked_reparametrize)
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=24))
        run_to_depth_infinity(build(c))
    assert seen["checks"] > 0 and seen["entries"] > 0
    assert seen["arrow_free"] > 0 and seen["moved_up"] > 0


# ---------------------------------------------------------------------------
# pipeline sweeps


def test_exhaustive_small_rank_sweep():
    # every shape of a complex on three generators with arrows of length
    # at most two, up to translation and relabeling
    window = 6
    seen = set()
    ran = 0
    for dx1 in range(-window, window + 1):
        for dy1 in range(-window, window + 1):
            for dx2 in range(-window, window + 1):
                for dy2 in range(-window, window + 1):
                    grs = [(0, 0), (dx1, dy1), (dx2, dy2)]
                    cands = []
                    for i in range(3):
                        for j in range(3):
                            if i == j:
                                continue
                            dx = grs[j][0] - grs[i][0]
                            dy = grs[j][1] - grs[i][1]
                            if dy == -1 and dx % 2 and -1 <= dx <= 3:
                                cands.append((i, j, (dx + 1) // 2, 0))
                            elif dx == -1 and dy % 2 and 1 <= dy <= 3:
                                cands.append((i, j, 0, (dy + 1) // 2))
                    if not cands:
                        continue
                    part = tuple(
                        tuple(sorted(k for k in range(3) if grs[k] == g))
                        for g in sorted(set(grs))
                    )
                    for r in range(1, len(cands) + 1):
                        for sub in combinations(cands, r):
                            key = (part, sub)
                            if key in seen:
                                continue
                            seen.add(key)
                            gens = tuple(
                                Generator(f"g{i}", *grs[i]) for i in range(3)
                            )
                            arrows = tuple(
                                Arrow(f"g{i}", f"g{j}", mono(1, u, v, 2))
                                for (i, j, u, v) in sub
                            )
                            c = Complex(RING_R1, 2, gens, arrows)
                            if validate(c):
                                continue
                            c, _, _ = strip_zero_complexes(c)
                            if c.rank == 0:
                                continue
                            t = verify_every_step(build(c))
                            run_to_depth_infinity(t)
                            assert t.depth() == math.inf
                            assert t.rounds <= max(1, c.rank * (c.rank - 1))
                            ran += 1
    assert ran > 400


def _fingerprint(h, t):
    """Fold a two-story complex's dump and log into a running SHA-256."""
    h.update(dump(t).encode())
    h.update(repr(t.log).encode())


# SHA-256 over dump() and log of every complex in the seeded sweeps below;
# a kernel change must leave both byte-identical
MESSY_SWEEP_DIGEST = "eb1df0a6f5d944440ae56572e6b8b38a8f03b1dd25b82c3a63bb46510dae3d5b"
SUM_SWEEP_DIGEST = "45d3bb3c00beb641f205a7af978c781e7fb10df1a1d34598698e547ea6e481ea"


def test_random_messy_pipeline():
    interesting = 0
    h = hashlib.sha256()
    for seed in range(120):
        c, _, _ = strip_zero_complexes(random_messy(seed))
        if c.rank == 0:
            continue
        t = build(c)
        if c.rank <= 10:
            verify_every_step(t)
        had_tokens = token_count(t) > 0
        run_to_depth_infinity(t)
        assert t.depth() == math.inf
        assert t.rounds <= max(1, c.rank * (c.rank - 1))
        t.verify()
        _fingerprint(h, t)
        if had_tokens:
            interesting += 1
            for handle in arrow_handles(t):
                assert weight(t, handle) == (math.inf, math.inf)
    assert interesting >= 20
    assert h.hexdigest() == MESSY_SWEEP_DIGEST


def test_random_sum_pipeline():
    h = hashlib.sha256()
    for seed in range(60):
        c, _, _ = strip_zero_complexes(random_complex(seed, max_parts=4))
        if c.rank == 0:
            continue
        t = build(c)
        if c.rank <= 10:
            verify_every_step(t)
        run_to_depth_infinity(t)
        assert t.depth() == math.inf
        t.verify()
        _fingerprint(h, t)
    assert h.hexdigest() == SUM_SWEEP_DIGEST


# ---------------------------------------------------------------------------
# accessors


def test_shaft_views():
    t = build(braided())
    assert set(t.shafts()) == set(t.gradings())
    sh = t.shaft((-1, 1))
    assert sh.strands == t.width((-1, 1)) == 2
    assert _state_matrix(t._shafts[(-1, 1)], 2, 2) == shaft_matrix(sh.tokens, 2, 2)


# ---------------------------------------------------------------------------
# the shaft-product kernel against the dense token product


def _check_states(t):
    for g, st in t._shafts.items():
        w = t.width(g)
        assert _state_matrix(st, w, t.char) == shaft_matrix(_state_tokens(st, t.char), w, t.char)


def test_state_matrix_matches_token_product():
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=14))
        if c.rank == 0:
            continue
        t = build(c)
        _check_states(t)
        run_to_depth_infinity(t)
        _check_states(t)


def _engine_coefficients(t):
    """Every field coefficient the engine state holds, by where it sits."""
    for st in t._shafts.values():
        yield from (("arrow", ca[2]) for ca in st.lower + st.upper)
        yield from (("dot", c) for c in st.dots.values())
    for floor in t._floors.values():
        yield from (("log", c) for _, _, (c, _, _) in floor.steps)


def test_engine_state_holds_int_residues():
    seen = set()
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=14))
        if c.rank == 0:
            continue
        t = build(c)
        at_build = list(_engine_coefficients(t))
        run_to_depth_infinity(t)
        for where, x in at_build + list(_engine_coefficients(t)):
            assert type(x) is int and 1 <= x < t.char, (seed, where, x)
            seen.add(where)
        # the floors hold no field data: an int length and an int partner per element
        for floor in t._floors.values():
            assert all(type(v) is int for v in floor.term + floor.partner)
    assert seen == {"arrow", "dot", "log"}


@hst.composite
def invertible_blocks(draw):
    p = draw(hst.sampled_from((2, 3, 5)))
    n = draw(hst.integers(min_value=1, max_value=6))
    cells = hst.integers(min_value=0, max_value=p - 1)
    rows = draw(hst.lists(hst.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    m = Matrix.from_rows(rows, p)
    if not m.is_invertible():
        m = Matrix.from_rows([[e + (i == j) for j, e in enumerate(row)] for i, row in enumerate(rows)], p)
    return m


@given(invertible_blocks())
@settings(max_examples=150, deadline=None)
def test_state_matrix_of_seeded_factorization(m):
    assume(m.is_invertible())
    n, p = m.rows, m.char
    st = _factored_state(gf.ltu_factorize(m))
    assert _state_matrix(st, n, p) == shaft_matrix(_state_tokens(st, p), n, p) == m
    assert _dense_shaft(st, n, p) == m.entries  # the conjugation oracle's own product


# ---------------------------------------------------------------------------
# typed invariants


def _corrupt_a_dot(t):
    """Flip the sign of one black dot's coefficient in the engine state."""
    for st in t._shafts.values():
        for pos, lam in st.dots.items():
            st.dots[pos] = -lam % t.char
            return
    raise AssertionError("no black dot to corrupt")


def test_verify_raises_invariant_violation():
    t = build(figure_eight())  # over F_3, one shaft carries a dot of 2
    t.verify()
    _corrupt_a_dot(t)
    with pytest.raises(InvariantViolation, match="shaft product drifted"):
        t.verify()


def test_verify_survives_python_optimize():
    out = run_optimized(
        "import sys",
        "from gen import figure_eight",
        "from snakedec.errors import InvariantViolation",
        "from snakedec.twostory import build",
        "t = build(figure_eight())",
        "st = next(s for s in t._shafts.values() if s.dots)",
        "pos, lam = next(iter(st.dots.items()))",
        "st.dots[pos] = -lam % t.char",
        "try:",
        "    t.verify()",
        "except InvariantViolation as exc:",
        "    print('raised', sys.flags.optimize, exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 shaft product drifted"), out.stdout


def test_each_changing_call_verifies_once(monkeypatch):
    calls = []
    check = TwoStoryComplex.verify
    monkeypatch.setattr(TwoStoryComplex, "verify", lambda t: calls.append(t) or check(t))
    floor_checks = []
    intertwines = twostory._Floor.intertwines

    def counted(floor, *args):
        floor_checks.append(args)
        return intertwines(floor, *args)

    monkeypatch.setattr(twostory._Floor, "intertwines", counted)

    def verified(step):
        before = len(calls)
        step()
        return len(calls) - before

    assert verified(lambda: build(trefoil())) == 1
    assert len(floor_checks) == 2  # once per floor, inside build's one verify
    t = build(trefoil())
    assert verified(lambda: run_to_depth_infinity(t)) == 0 and t.rounds == 0
    t = build(braided())
    assert verified(lambda: run_to_depth_infinity(t)) == 1 and t.rounds == 1
    assert len(floor_checks) == 8  # two per verify: three builds, one pass
    assert verified(lambda: t.increase_depth()) == 0


def test_the_input_is_converted_once(monkeypatch):
    converted, made, dense, per_verify = [], [], [], []
    rows = complexes.differential_rows

    def counted(c):
        converted.append(c)
        return rows(c)

    for module in (complexes, simplify, twostory):
        if getattr(module, "differential_rows", None) is rows:
            monkeypatch.setattr(module, "differential_rows", counted)
    state_matrix = twostory._state_matrix
    monkeypatch.setattr(twostory, "_state_matrix", lambda *a: dense.append(a) or state_matrix(*a))
    verify = TwoStoryComplex.verify

    def watched(t):
        before = len(dense)
        verify(t)
        per_verify.append(len(dense) - before)

    monkeypatch.setattr(TwoStoryComplex, "verify", watched)
    c = braided()
    init, wrap = Complex.__init__, Complex.from_terms  # the constructor and the wrapper
    monkeypatch.setattr(Complex, "__init__", lambda cx, *a: made.append(cx) or init(cx, *a))
    wrapped = classmethod(lambda _, *a: made.append(a) or wrap(*a))
    monkeypatch.setattr(Complex, "from_terms", wrapped)
    t = build(c)
    run_to_depth_infinity(t)
    assert t.rounds == 1  # two verifies: the constructor's and the pass's
    assert len(converted) == 1 and converted[0] is c  # the simplifiers included
    assert made == []  # no Complex inside build, the depth loop or verify
    assert dense and per_verify == [0, 0]  # the pass refactors; verify forms no dense block


def test_the_pipeline_creates_no_field_elements(monkeypatch):
    inputs = [random_messy(seed, max_rank=24) for seed in range(40)]
    inputs += [random_complex(seed, max_parts=12) for seed in range(40)] + [mixed_sum(0, 10)]
    made = []
    post_init = gf.FieldElem.__post_init__
    monkeypatch.setattr(gf.FieldElem, "__post_init__", lambda e: made.append(e) or post_init(e))
    for c in inputs:
        d, _, _ = strip_zero_complexes(c)
        run_to_depth_infinity(build(d))
    assert made == []


def _non_identity_blocks(c):
    """The bigradings where X_0 or Y_0 is not the identity, read off the
    rows of both simplified bases."""
    return {
        c.generators[i].grading
        for sb in (simplify.vertical_simplify(c), simplify.horizontal_simplify(c))
        for i, row in enumerate(sb.change.rows)
        if {j: e for j, e in row.items() if e[1:] == (0, 0)} != {i: (1, 0, 0)}
    }


def test_build_takes_no_inverse_and_factors_each_non_identity_block_once(monkeypatch):
    def refused(*args):
        raise AssertionError("build took a ring inverse, a ring product or a dense inverse")

    c, _, _ = strip_zero_complexes(random_messy(24))
    want = len(_non_identity_blocks(c))
    monkeypatch.setattr(complexes.BasisChange, "inverse", refused)
    monkeypatch.setattr(complexes.BasisChange, "compose", refused)
    monkeypatch.setattr(Matrix, "inverse", refused)
    factored = []
    factorize = gf.ltu_factorize
    monkeypatch.setattr(gf, "ltu_factorize", lambda m: factored.append(m) or factorize(m))
    t = build(c)
    assert len(factored) == want
    assert 0 < len(factored) < len(t.gradings())


def _build_with_fake_factors(fake):
    """Build stripped messy seed 24 (over F_5) while the ``ltu_factorize``
    that ``normalize_transition`` calls returns ``fake(ltu_factorize, m)``
    for each block m it sees; the build must not return."""
    c, _, _ = strip_zero_complexes(random_messy(24))
    assert _non_identity_blocks(c)  # a block that ``ltu_factorize`` sees
    factorize = simplify.gf.ltu_factorize
    simplify.gf.ltu_factorize = functools.partial(fake, factorize)
    try:
        build(c)
    finally:
        simplify.gf.ltu_factorize = factorize


def _doubled_dots(factorize, m):
    """m's factors with every dot of the middle factor doubled, 1s included."""
    lower, dots, up, upper = factorize(m)
    return lower, {a: 2 * dots.get(a, 1) % m.char for a in range(m.rows)}, up, upper


def _identity_factors(factorize, m):
    """The identity's factors, which the build writes down for S = I."""
    return [], {}, tuple(range(m.rows)), []


def _assert_build_sees_shaft_drift(fake):
    with pytest.raises(InvariantViolation, match="shaft product drifted"):
        _build_with_fake_factors(fake)
    out = run_optimized(
        "import sys",
        "import test_twostory as t",
        "from snakedec.errors import InvariantViolation",
        "try:",
        f"    t._build_with_fake_factors(t.{fake.__name__})",
        "except InvariantViolation as exc:",
        "    print('raised', sys.flags.optimize, exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 shaft product drifted"), out.stdout


def test_build_verifies_the_block_factors():
    # X'_0 = X_0 and Y'_0 = Y_0 leave both floors intertwined, so only the
    # shaft check X'_0 = B Y'_0 can see factors whose product B is not S
    _assert_build_sees_shaft_drift(_doubled_dots)


def test_build_catches_a_false_identity_shaft():
    # the installed state is the identity, so verify compares X_0 and Y_0
    # row for row, and they differ where S is not I
    _assert_build_sees_shaft_drift(_identity_factors)


@pytest.mark.parametrize("floor", ["bottom", "top"])
@pytest.mark.parametrize("field", ["target", "length"])
def test_verify_catches_floor_drift(field, floor):
    t = build(figure_eight())  # over F_3, two arrows on each floor
    t.verify()
    at = t._floors[floor]
    s = 0
    assert at.term[s] < 0  # element 0 is a source on both floors
    if field == "target":
        _rewrite(at, "partner", s, _other_target(at, s))
    else:
        _rewrite(at, "term", s, at.term[s] - 1)
    with pytest.raises(InvariantViolation, match=f"{floor} floor drifted from the engine tables"):
        t.verify()


def test_verify_checks_a_one_strand_shaft_by_its_row_pair():
    # scaling the start row of an x-element with no bottom floor arrow and
    # a differential that vanishes modulo U leaves the bottom floor
    # intertwined, so only the shaft check sees it
    caught = 0
    for seed in range(10):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=24))
        t = build(c)
        floor = t._floors[twostory.BOTTOM]
        start = floor.start
        for grading, members in t._slots.items():
            i = members[0]
            if len(members) > 1 or t.char == 2 or t._shafts[grading].dots:
                continue
            if floor.d[i] or floor.term[i]:
                continue
            rows = list(start.rows)
            rows[i] = {j: (2 * x % t.char, u, v) for j, (x, u, v) in rows[i].items()}
            floor.start = complexes.BasisChange.from_rows(
                start.ring, start.char, start.old_gens, start.new_gens, rows
            )
            drifted = re.escape(f"shaft product drifted at {grading}")
            with pytest.raises(InvariantViolation, match=drifted):
                t.verify()
            floor.start = start
            t.verify()
            caught += 1
    assert caught >= 10


def _outcome(check, t):
    try:
        check(t)
    except SnakedecError as exc:
        return type(exc)
    return None


def _other_target(floor, s):
    """The first element of the floor that is neither the source s nor
    its target, None on a floor of two elements."""
    return next((i for i in range(len(floor.gens)) if i not in (s, floor.partner[s])), None)


def _rewrite(floor, field, i, value):
    """Corrupt entry i of the floor's ``term`` or ``partner`` tuple."""
    old = getattr(floor, field)
    setattr(floor, field, old[:i] + (value,) + old[i + 1:])


def _corrupted(t, rng):
    """Copies of t, each with its kind: one dot, one floor entry, one log
    step dropped and one log step rewritten in place.  A rewritten step
    gets another coefficient, or over F_2, where it has no other, another
    giver of the giver's bigrading; with no such giver it is left out."""
    p = t.char
    dot = copy.deepcopy(t)
    grading = rng.choice(dot.gradings())
    pos = rng.randrange(dot.width(grading))
    dots = dot._shafts[grading].dots
    dots[pos] = (dots.get(pos, 1) + 1) % p
    out = [("dot", dot)]
    # a fixed floor order, bottom then top, keeps the draws reproducible
    ends = ("bottom", "top")
    if any(any(t._floors[e].term) for e in ends):
        floor = copy.deepcopy(t)
        at = rng.choice([floor._floors[e] for e in ends if any(floor._floors[e].term)])
        s = rng.choice([i for i, x in enumerate(at.term) if x < 0])
        other = _other_target(at, s)
        if other is not None and rng.random() < 0.5:
            _rewrite(at, "partner", s, other)
        else:
            _rewrite(at, "term", s, at.term[s] - 1)
        out.append(("floor", floor))
    if any(t._floors[e].steps for e in ends):
        step = copy.deepcopy(t)
        steps = rng.choice([step._floors[e].steps for e in ends if step._floors[e].steps])
        del steps[rng.randrange(len(steps))]
        out.append(("dropped step", step))
        step = copy.deepcopy(t)
        at = rng.choice([step._floors[e] for e in ends if step._floors[e].steps])
        i = rng.randrange(len(at.steps))
        r, g, (c, u, v) = at.steps[i]
        grading = at.gens[g].grading
        others = [j for j, x in enumerate(at.gens) if j not in (r, g) and x.grading == grading]
        if p > 2:
            at.steps[i] = (r, g, (c % (p - 1) + 1, u, v))
            out.append(("rewritten step", step))
        elif others:
            at.steps[i] = (r, rng.choice(others), (c, u, v))
            out.append(("rewritten step", step))
    return out


def test_verify_agrees_with_conjugation_oracle():
    # every corruption lands on a state a full verify has just passed, so a
    # rewritten step is one that an earlier verify already covered: a full
    # verify must still replay and catch it
    caught = Counter()
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=14))
        if c.rank == 0:
            continue
        rng = random.Random(seed)
        t = build(c)
        for state in (t, run_to_depth_infinity(copy.deepcopy(t))):
            assert _outcome(conjugation_verify, state) is None
            assert _outcome(lambda s: s.verify(), state) is None
            for kind, bad in _corrupted(state, rng):
                want = _outcome(conjugation_verify, bad)
                assert _outcome(lambda s: s.verify(), bad) == want
                caught[kind] += want is not None
    assert sum(caught.values()) > 150
    assert caught["rewritten step"] >= 10, caught


def _floor_arrows(floor):
    """The floor's arrows as (src, tgt, length, coeff), read off ``term``
    and ``partner``."""
    return [(s, floor.partner[s], -x, 1) for s, x in enumerate(floor.term) if x < 0]


def _floor_check(t, end, rows):
    """The floor's own check of ``rows``, asserted equal to the products."""
    floor, k = t._floors[end], 1 if end == twostory.BOTTOM else 2
    change = BasisChange.from_rows(RING_R1, t.char, (), (), rows)
    got = floor.intertwines(rows, end, t.char)
    assert got == intertwines_by_products(floor.d, change, _floor_arrows(floor), k)
    return got


def _checked_floors(t, rng):
    """Check every floor of t, then again after one corruption of each
    kind, undone after: a basis-row cell rescaled, dropped or added; where
    two quotient entries of a row reach one column of ``d``, one of them
    given one more power of the floor's variable, which makes that cell of
    X D two monomials; a ``term`` entry lengthening an arrow; and a
    ``partner`` entry re-pointing one.  Returns the kinds it refused."""
    refused, p = [], t.char
    for end, k in ((twostory.BOTTOM, 1), (twostory.TOP, 2)):
        floor, rows = t._floors[end], t._basis(end).rows
        assert _floor_check(t, end, rows)
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        bad = list(rows)
        row = bad[i] = dict(rows[i])
        x, u, v = row.get(j, (0, 0, 0))
        if (x + 1) % p:
            row[j] = ((x + 1) % p, u, v)
        else:
            del row[j]
        if not _floor_check(t, end, bad):
            refused.append("cell")
        clash = next((
            (i, a)
            for i, row in enumerate(rows)
            for a, b in combinations([j for j, m in row.items() if not m[k] and floor.d[j]], 2)
            if floor.d[a].keys() & floor.d[b].keys()
        ), None)
        if clash is not None:
            i, a = clash
            bad = list(rows)
            row = bad[i] = dict(rows[i])
            x, u, v = row[a]
            row[a] = (x, u, v + 1) if k == 1 else (x, u + 1, v)
            if not _floor_check(t, end, bad):
                refused.append("two monomials")
        sources = [s for s, x in enumerate(floor.term) if x < 0]
        if not sources:
            continue
        s = rng.choice(sources)
        saved = floor.term
        _rewrite(floor, "term", s, floor.term[s] - 1)
        if not _floor_check(t, end, rows):
            refused.append("term")
        floor.term = saved
        other = _other_target(floor, s)
        if other is not None:
            saved = floor.partner
            _rewrite(floor, "partner", s, other)
            if not _floor_check(t, end, rows):
                refused.append("partner")
            floor.partner = saved
    return refused


def test_the_floor_check_agrees_with_the_products():
    # the row-by-row floor check against two whole products, on every
    # floor after the build and after each depth pass
    refused, passes = Counter(), 0
    inputs = [random_messy(seed, max_rank=14) for seed in range(40)]
    inputs += [random_complex(seed) for seed in range(40)]
    for seed, c in enumerate(inputs):
        d, _, _ = strip_zero_complexes(c)
        if d.rank == 0:
            continue
        rng = random.Random(seed)
        t = build(d)
        refused.update(_checked_floors(t, rng))
        while t.depth() != math.inf:
            t.increase_depth()
            refused.update(_checked_floors(t, rng))
            passes += 1
    assert passes > 10, passes
    assert refused["cell"] > 40 and refused["term"] > 100 and refused["partner"] > 100, refused
    assert refused["two monomials"] > 20, refused  # the pass's GradingViolation is a refusal


def test_verify_refuses_a_malformed_logged_step():
    d, _, _ = strip_zero_complexes(random_messy(3, max_rank=14))
    t = build(d)
    gens, p = t.x_gens, t.char
    pairs = list(combinations(range(len(gens)), 2))
    apart = next((r, g) for r, g in pairs if gens[r].grading != gens[g].grading)
    # U V e_g has e_r's bigrading here, so only UV = 0 in R1 rules the step out
    mixed = next((r, g) for r, g in pairs if gens[r].grading == (gens[g].gr_u - 2, gens[g].gr_v - 2))

    def replayed(step):
        bad = copy.deepcopy(t)
        bad._floors["bottom"].steps.append(step)
        bad.verify()

    for (r, g), m in ((apart, (1, 0, 0)), ((0, 0), (p - 1, 0, 0)), (mixed, (1, 1, 1))):
        msg = f"step {gens[r].id} += (U^{m[1]} V^{m[2]}) {gens[g].id} breaks the bigrading"
        with pytest.raises(GradingViolation, match=f"^{re.escape(msg)}$"):
            replayed((r, g, m))
        rows = [{i: (1, 0, 0)} for i in range(len(gens))]
        with pytest.raises(GradingViolation, match=f"^{re.escape(msg)}$"):
            complexes.add_step(rows, gens, r, g, m, p)
        assert rows == [{i: (1, 0, 0)} for i in range(len(gens))]


def test_the_log_replay_builds_no_elimination(monkeypatch):
    built = [build(strip_zero_complexes(random_messy(seed, max_rank=24))[0]) for seed in (1, 5, 11)]

    def refuse(*args):
        raise AssertionError("the log replay scanned a column of an Elimination")

    monkeypatch.setattr(complexes.Elimination, "column", refuse)
    for t in built:
        run_to_depth_infinity(t)
        assert t.rounds > 0 and t.log
        t.verify()


def _corrupt_each_shaft_entry(t):
    """Corrupt one shaft entry of t in place, yield its kind, undo it, and
    go on to the next: each lower and upper arrow's coefficient (over F_2,
    where the coefficient has no other value, its two ends are swapped
    instead) and the first two entries of each elevator ``up``."""
    p = t.char
    for st in t._shafts.values():
        for ca in st.lower + st.upper:
            saved = list(ca)
            if p == 2:
                ca[0], ca[1] = ca[1], ca[0]
            else:
                ca[2] = ca[2] % (p - 1) + 1
            yield "arrow"
            ca[:] = saved
        if len(st.up) > 1:
            saved = st.up
            st.up = (saved[1], saved[0]) + saved[2:]
            yield "up"
            st.up = saved


def test_verify_catches_shaft_corruption():
    caught = {"arrow": 0, "up": 0}
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=14))
        if c.rank == 0:
            continue
        t = build(c)
        for state in (t, run_to_depth_infinity(copy.deepcopy(t))):
            for kind in _corrupt_each_shaft_entry(state):
                for check in (TwoStoryComplex.verify, conjugation_verify):
                    with pytest.raises(InvariantViolation, match="shaft product drifted"):
                        check(state)
                caught[kind] += 1
            state.verify()
    assert caught["arrow"] >= 30 and caught["up"] >= 100


def test_journey_terms_and_weight_components_refuse_bad_values():
    # the journey record of the oracles in gen: a term index must be a
    # nonnegative int
    seq = TraversalSequence((1, 2), (0,))
    assert seq.realize(4) == (1, 2, 0, 0)
    for k in (-1, -3, 1.5, True):
        with pytest.raises(ValueError, match="a journey has no term"):
            seq.term(k)


def test_turns_reject_an_arrow_off_the_boundary():
    t = build(braided())
    grading = t.gradings()[0]
    for remove in (False, True):
        with pytest.raises(InvariantViolation, match="bottom boundary"):
            t._turn(grading, "bottom", 1, remove)
        with pytest.raises(InvariantViolation, match="top boundary"):
            t._turn(grading, "top", len(t._shafts[grading].upper), remove)
    # a turn whose two strands land in different shafts
    t = build(square_sheets())
    t._pos = {i: ((i, i), p) for i, (_, p) in t._pos.items()}
    with pytest.raises(InvariantViolation, match="parallel step lands in two bigradings"):
        t._turn((0, 0), "bottom", 0, remove=False)
    out = run_optimized(
        "from gen import braided",
        "from snakedec.errors import InvariantViolation",
        "from snakedec.twostory import build",
        "t = build(braided())",
        "for remove in (False, True):",
        "    try:",
        "        t._turn(t.gradings()[0], 'bottom', 1, remove)",
        "    except InvariantViolation as exc:",
        "        print('raised', exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised arrow must sit at the bottom boundary\n" * 2, out.stdout


def test_refactoring_moves_check_the_product(monkeypatch):
    # a refactorization that changed a shaft's product cannot leave a
    # depth pass unseen: the pass ends with verify
    t = build(braided())
    ordered_ltu = twostory._ordered_ltu

    def arrowless(*args):
        state = ordered_ltu(*args)
        state.lower.clear()
        state.upper.clear()
        return state

    monkeypatch.setattr(twostory, "_ordered_ltu", arrowless)
    with pytest.raises(InvariantViolation, match="shaft product drifted"):
        t.increase_depth()


def test_depth_pass_checks_that_it_raised_the_depth(monkeypatch):
    t = build(braided())
    monkeypatch.setattr(twostory.TwoStoryComplex, "_remove_all", lambda *args: None)
    monkeypatch.setattr(twostory.TwoStoryComplex, "_slide_out", lambda *args: None)
    with pytest.raises(InvariantViolation, match="depth pass fell short"):
        t.increase_depth()


# ---------------------------------------------------------------------------
# the depth loop at larger ranks


# generating a messy input at max_rank 60 costs several depth loops on it,
# and the two tests below share the pinned inputs; a Complex is immutable,
# so sharing one is safe
_messy = functools.lru_cache(maxsize=None)(random_messy)


# seeds 1, 34, 126 and 136 at max_rank 24 once failed with convoy drift and
# seed 182 at max_rank 40 with a displacement cycle: arrow records were
# looked up by value, so a tier holding two equal arrows sent the lookup to
# the twin
# the last eight lost a convoy arrow whose record _turn had replaced
@given(
    seed=hst.integers(min_value=0, max_value=10**6),
    span=hst.sampled_from((2, 3)),
    max_rank=hst.integers(min_value=24, max_value=60),
)
@example(seed=1, span=2, max_rank=24)
@example(seed=34, span=2, max_rank=24)
@example(seed=126, span=2, max_rank=24)
@example(seed=136, span=2, max_rank=24)
@example(seed=182, span=2, max_rank=40)
@example(seed=102, span=3, max_rank=40)
@example(seed=1117, span=3, max_rank=40)
@example(seed=167, span=3, max_rank=60)
@example(seed=108, span=2, max_rank=60)
@example(seed=191, span=2, max_rank=60)
@example(seed=312, span=2, max_rank=60)
@example(seed=440, span=2, max_rank=60)
@example(seed=496, span=2, max_rank=60)
@settings(max_examples=25, deadline=None)
def test_depth_loop_finishes_on_messy_seed(seed, span, max_rank):
    c = _messy(seed, span=span, max_rank=max_rank)
    d, k, _ = strip_zero_complexes(c)
    t = run_to_depth_infinity(build(d))
    assert t.depth() == math.inf
    t.verify()
    assert len(t.x_gens) == len(t.y_gens) == c.rank - 2 * k


PINNED_MESSY = [
    (102, 3, 40),
    (1117, 3, 40),
    (167, 3, 60),
    (108, 2, 60),
    (191, 2, 60),
    (312, 2, 60),
    (440, 2, 60),
    (496, 2, 60),
]


def _arrow_places(t):
    """Every arrow record of t's tiers, by id, with its (shaft, tier), its
    strands (r, g) as they are now and its weight."""
    return {
        id(ca): (ca, (g, end), (ca[0], ca[1]), weight(t, (g, end, k)))
        for g, st in t._shafts.items()
        for end in (twostory.BOTTOM, twostory.TOP)
        for k, ca in enumerate(st.arrows(end))
    }


def test_a_snowplow_moves_only_the_arrow_it_removes(monkeypatch):
    # records are held by the maps, so no id is reused within one snowplow;
    # a removal sweep weighs each tier once, which needs every record that
    # survives a snowplow to keep its strands and its weight
    seen = {"snowplows": 0, "displaced": 0}
    snowplow, displace = TwoStoryComplex._snowplow_remove, TwoStoryComplex._displace

    def watched(self, *args):
        before = _arrow_places(self)
        snowplow(self, *args)
        after = _arrow_places(self)
        assert after.keys() <= before.keys(), "a snowplow made an arrow record"
        moved = [v[1] for key, v in after.items() if before[key][1] != v[1]]
        assert moved == [], f"a snowplow moved arrows at {moved}"
        restrung = [v[1] for key, v in after.items() if before[key][2] != v[2]]
        assert restrung == [], f"a snowplow changed the strands of arrows at {restrung}"
        reweighed = [v[1] for key, v in after.items() if before[key][3] != v[3]]
        assert reweighed == [], f"a snowplow changed the weight of arrows at {reweighed}"
        seen["snowplows"] += 1

    def counted(self, *args):
        seen["displaced"] += 1
        return displace(self, *args)

    monkeypatch.setattr(TwoStoryComplex, "_snowplow_remove", watched)
    monkeypatch.setattr(TwoStoryComplex, "_displace", counted)
    inputs = [(s, 2, 24) for s in range(100)] + [(s, 3, 40) for s in range(100, 160)] + PINNED_MESSY
    for seed, span, max_rank in inputs:
        d, _, _ = strip_zero_complexes(_messy(seed, span=span, max_rank=max_rank))
        run_to_depth_infinity(build(d))
    assert seen["snowplows"] > 100 and seen["displaced"] > 10


def _count_sweep_weighings(monkeypatch, remove_all):
    """Run the depth loop on a few inputs with ``remove_all`` as the sweep,
    counting the weight components it computes; each sweep must compute
    at most one per arrow it started with."""
    seen = {"weighings": 0, "sweeps": 0, "busy": 0}
    component = TwoStoryComplex._arrow_component

    def held(t, end):
        return sum(len(t._shafts[g].arrows(end)) for g in t.gradings())

    def sweep(self, near, m, end, through):
        at_start, weighings = held(self, end), seen["weighings"]
        remove_all(self, near, m, end, through)
        assert seen["weighings"] - weighings <= at_start, "a sweep weighed an arrow twice"
        seen["sweeps"] += 1
        seen["busy"] += 0 < held(self, end) < at_start  # removed some, kept some

    def counted(self, *args):
        seen["weighings"] += 1
        return component(self, *args)

    monkeypatch.setattr(TwoStoryComplex, "_remove_all", sweep)
    monkeypatch.setattr(TwoStoryComplex, "_arrow_component", counted)
    inputs = [random_messy(seed, max_rank=24) for seed in (1, 7, 34)] + [mixed_sum(0, 10)]
    for c in inputs:
        d, _, _ = strip_zero_complexes(c)
        run_to_depth_infinity(build(d))
    return seen


def test_a_removal_sweep_weighs_each_arrow_once(monkeypatch):
    remove_all = TwoStoryComplex._remove_all
    seen = _count_sweep_weighings(monkeypatch, remove_all)
    assert seen["sweeps"] > 50 and seen["busy"] > 5

    def weighing_twice(self, near, m, end, through):
        for g in self.gradings():
            for r, giver, _ in self._shafts[g].arrows(end):
                self._arrow_component(g, end, r, giver, near)
        remove_all(self, near, m, end, through)

    with pytest.raises(AssertionError, match="a sweep weighed an arrow twice"):
        _count_sweep_weighings(monkeypatch, weighing_twice)


def _assert_journeys_match_the_walk(t):
    """Every journey of t as the step-by-step walk gives it, and every
    arrow's two weight components as that walk's journeys give them."""
    n, arrows = len(t.x_gens), 0
    for end in (twostory.BOTTOM, twostory.TOP):
        for i in range(n):
            assert journey(t, end, i) == journey_by_walk(t, end, i), (end, i)
    for g, st in t._shafts.items():
        for end in (twostory.BOTTOM, twostory.TOP):
            for r, giver, _ in st.arrows(end):
                got = tuple(t._arrow_component(g, end, r, giver, near) for near in (True, False))
                assert got == weight_by_walk(t, g, end, r, giver), (g, end, r, giver)
                arrows += 1
    return arrows


@pytest.mark.parametrize("family", ["messy", "sums", "snakes"])
def test_weights_match_walked_journeys(family):
    # the successor table against the walk it replaced, after the build and
    # after every depth pass
    if family == "messy":
        inputs = [random_messy(seed, max_rank=24) for seed in range(100)]
    elif family == "sums":
        inputs = [random_complex(seed, max_parts=12) for seed in range(100)]
    else:
        tails = [(2, 3), (-2, 2), (3, -1)]
        inputs = [snake_pair(m, ab, seed) for m in (6, 8, 12) for ab in tails for seed in range(3)]
    arrows = passes = 0
    for c in inputs:
        d, _, _ = strip_zero_complexes(c)
        t = build(d)
        arrows += _assert_journeys_match_the_walk(t)
        while t.depth() != math.inf:
            t.increase_depth()
            arrows += _assert_journeys_match_the_walk(t)
            passes += 1
    assert arrows > 0 and passes > 0


# SHA-256 over dump(), repr(log) and rounds after the depth loop; the same
# under every PYTHONHASHSEED, so any change to the engine's output shows
DEPTH_LOOP_DIGEST = "afaef9c6e3e5dbe3c47ab98fad1ceda704fc0ff3d970c96e6c03a42fd0f174e8"


def test_depth_loop_output_matches_the_recorded_digest():
    inputs = (
        [random_messy(seed, max_rank=24) for seed in range(20)]
        + [random_complex(seed, max_parts=12) for seed in range(20)]
        + [mixed_sum(seed, 10) for seed in (0, 28)]
    )
    h = hashlib.sha256()
    for c in inputs:
        d, _, _ = strip_zero_complexes(c)
        t = run_to_depth_infinity(build(d))
        _fingerprint(h, t)
        h.update(f"rounds {t.rounds}\n".encode())
    assert h.hexdigest() == DEPTH_LOOP_DIGEST


# consecutive seeds from 0: sums of 10 pieces reach rank 141-200, the one
# sum of 40 pieces rank 571; seed 28 at 10 pieces displaces a convoy arrow
# again and removes it for good, so the restore must drop its first entry
@pytest.mark.parametrize("seed, parts", [(seed, 10) for seed in range(10)] + [(28, 10), (0, 40)])
def test_depth_loop_finishes_on_a_mixed_sum(seed, parts):
    c = mixed_sum(seed, parts)
    assert validate(c) == []
    d, k, _ = strip_zero_complexes(c)
    t = run_to_depth_infinity(build(d))
    assert t.depth() == math.inf
    t.verify()
    assert len(t.x_gens) == len(t.y_gens) == c.rank - 2 * k
    conjugation_verify(t)
    pieces = [_depth_infinity(piece) for piece in mixed_sum_pieces(seed, parts)]
    assert journey_multiset(t) == sum(map(journey_multiset, pieces), Counter())


def _depth_infinity(c):
    return run_to_depth_infinity(build(strip_zero_complexes(c)[0]))


def test_strand_journeys_are_invariants_of_the_complex():
    for seed in range(60):
        c = random_messy(seed, max_rank=24)
        want = journey_multiset(_depth_infinity(c))
        for k in range(2):
            moved = apply_basis_change(c, random_change(c, 100 * seed + k, moves=c.rank))
            assert journey_multiset(_depth_infinity(moved)) == want, (seed, k)
        mirrored = Counter(
            {((gr[1], gr[0]), top, bottom): n for (gr, bottom, top), n in want.items()}
        )
        assert journey_multiset(_depth_infinity(bar(c))) == mirrored, seed


# two snakes sharing their first m values, then tails that differ: their
# journeys agree on a prefix that grows with m, so ordering the pair needs
# the full comparison window, not its first few terms
@pytest.mark.parametrize("m", [6, 8, 12])
@pytest.mark.parametrize("tails", [(2, 3), (-2, 2), (3, -1)], ids=lambda ab: "%d,%d" % ab)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_planted_snake_pair_is_ordered_past_its_shared_prefix(m, tails, seed):
    t = _depth_infinity(snake_pair(m, tails, seed))
    assert t.depth() == math.inf

    def word(end, i):
        return journey(t, end, i).realize(200)

    for g, st in t._shafts.items():
        for end in (twostory.BOTTOM, twostory.TOP):
            for r, giver, _ in st.arrows(end):
                ends = (t._idx(g, r), t._idx(g, giver))
                assert word(end, ends[0]) == word(end, ends[1]), (g, end, r, giver)
                far = [elevator(t, end, i) for i in ends]
                far_end = twostory._other(end)
                assert word(far_end, far[0]) == word(far_end, far[1]), (g, end, r, giver)
    apart = [_depth_infinity(chain) for chain in snake_pair_chains(m, tails)]
    assert journey_multiset(t) == sum(map(journey_multiset, apart), Counter())
