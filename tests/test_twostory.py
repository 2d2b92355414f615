"""Tests for the two-story engine: tokens, journeys, weights, slides, depth."""

import copy
import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from gen import (
    _dense_shaft,
    _square_offenders,
    braided,
    braided_wrong,
    broken_chain,
    conjugation_verify,
    depth_two,
    figure_eight,
    octagon,
    octagon_sheets,
    random_complex,
    random_messy,
    run_optimized,
    square_sheets,
    trefoil,
    verify_every_step,
)
from snakedec import complexes, simplify, twostory
from snakedec.complexes import (
    Arrow,
    Complex,
    Generator,
    RING_FUV,
    RING_R1,
    mono,
    strip_zero_complexes,
    validate,
)
from snakedec.errors import (
    BoundExceeded,
    DimensionMismatch,
    FieldMismatch,
    InvariantViolation,
    Parallel,
    PatternMismatch,
    SnakedecError,
    StrandsDiverge,
    ValidationError,
    WrongOrientation,
)
from snakedec.gf import FieldElem, Matrix
from snakedec.simplify import matching_violations
from snakedec.twostory import (
    _ltu_state,
    _state_matrix,
    _state_tokens,
    BlackDot,
    Crossing,
    CrossoverArrow,
    Shaft,
    TwoStoryComplex,
    apply_local_move,
    build,
    dump,
    increase_depth,
    remove_diverging_arrow,
    run_to_depth_infinity,
    shaft_matrix,
    slide_arrow_step,
    straighten,
    token_matrix,
    traversal_sequence,
    strand_bottom,
    strand_top,
    unusual_compare,
    unusual_key,
    weight_of,
)


def f(v, char):
    return FieldElem(v, char)


def token_count(t):
    return sum(len(s.tokens) for s in t.shafts().values())


def arrow_handles(t):
    """All (bigrading, token index) handles naming crossover arrows."""
    out = []
    for g, sh in sorted(t.shafts().items()):
        for i, tok in enumerate(sh.tokens):
            if isinstance(tok, CrossoverArrow):
                out.append((g, i))
    return out


# ---------------------------------------------------------------------------
# tokens and words


def test_token_matrices():
    m = token_matrix(CrossoverArrow(1, 3, f(2, 5)), 3, 5)
    assert m[2, 0] == f(2, 5) and m[0, 0] == f(1, 5) and m[0, 2] == f(0, 5)
    d = token_matrix(BlackDot(2, f(4, 5)), 3, 5)
    assert d[1, 1] == f(4, 5) and d[0, 0] == f(1, 5)
    c = token_matrix(Crossing(1, 2), 3, 5)
    assert c[0, 1] == f(1, 5) and c[1, 0] == f(1, 5) and c[0, 0] == f(0, 5)
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
    prod = shaft_matrix(toks, 3, 3)
    want = Matrix.from_rows(
        [[f(v, 3) for v in row] for row in ((2, 2, 1), (0, 0, 1), (1, 0, 1))], 3
    )
    assert prod == want


# ---------------------------------------------------------------------------
# the unusual order


def test_unusual_order_ranking():
    values = [3, -1, 1, 0, -2, 2, -3]
    assert sorted(values, key=unusual_key) == [-1, -2, -3, 0, 3, 2, 1]


def test_unusual_compare_basics():
    assert unusual_compare((-1, 5), (1, 5)) == "less"
    assert unusual_compare((0, 0, 0), (0, 0, 0), limit=5) == "equal"
    assert unusual_compare((3, 0), (2, 0)) == "less"
    assert unusual_compare((0, 0, 5), (0, 0, 7), limit=2) == "equal"
    assert unusual_compare((0, 0, 5), (0, 0, 7), limit=3) == "greater"


# ---------------------------------------------------------------------------
# local moves


def test_merge_dots():
    sh = Shaft((0, 0), 2, (BlackDot(1, f(2, 5)), BlackDot(1, f(4, 5))), 5)
    out = apply_local_move(sh, 0, "merge_dots")
    assert out.tokens == (BlackDot(1, f(3, 5)),)
    # a product of one dissolves entirely
    sh = Shaft((0, 0), 2, (BlackDot(1, f(2, 3)), BlackDot(1, f(2, 3))), 3)
    assert apply_local_move(sh, 0, "merge_dots").tokens == ()
    with pytest.raises(PatternMismatch):
        apply_local_move(
            Shaft((0, 0), 2, (BlackDot(1, f(2, 3)), BlackDot(2, f(2, 3))), 3),
            0,
            "merge_dots",
        )


def test_merge_arrows():
    sh = Shaft(
        (0, 0), 2, (CrossoverArrow(1, 2, f(1, 3)), CrossoverArrow(1, 2, f(1, 3))), 3
    )
    assert apply_local_move(sh, 0, "merge_arrows").tokens == (
        CrossoverArrow(1, 2, f(2, 3)),
    )
    # opposite decorations cancel both arrows
    sh = Shaft(
        (0, 0), 2, (CrossoverArrow(1, 2, f(1, 3)), CrossoverArrow(1, 2, f(2, 3))), 3
    )
    assert apply_local_move(sh, 0, "merge_arrows").tokens == ()


def test_swap_disjoint():
    sh = Shaft((0, 0), 4, (Crossing(1, 2), BlackDot(3, f(2, 3))), 3)
    out = apply_local_move(sh, 0, "swap_disjoint")
    assert out.tokens == (BlackDot(3, f(2, 3)), Crossing(1, 2))
    with pytest.raises(PatternMismatch):
        apply_local_move(
            Shaft((0, 0), 3, (Crossing(1, 2), BlackDot(2, f(2, 3))), 3),
            0,
            "swap_disjoint",
        )


def test_swap_arrow_dot():
    sh = Shaft((0, 0), 2, (CrossoverArrow(1, 2, f(1, 3)), BlackDot(1, f(2, 3))), 3)
    out = apply_local_move(sh, 0, "swap_arrow_dot")
    assert out.tokens == (BlackDot(1, f(2, 3)), CrossoverArrow(1, 2, f(2, 3)))
    assert out.matrix() == sh.matrix()
    sh = Shaft((0, 0), 2, (BlackDot(1, f(2, 3)), CrossoverArrow(1, 2, f(1, 3))), 3)
    out = apply_local_move(sh, 0, "swap_arrow_dot")
    assert out.tokens == (CrossoverArrow(1, 2, f(2, 3)), BlackDot(1, f(2, 3)))
    assert out.matrix() == sh.matrix()


def test_swap_dot_crossing():
    sh = Shaft((0, 0), 2, (BlackDot(1, f(2, 3)), Crossing(1, 2)), 3)
    out = apply_local_move(sh, 0, "swap_dot_crossing")
    assert out.tokens == (Crossing(1, 2), BlackDot(2, f(2, 3)))


def test_swap_arrow_crossing():
    sh = Shaft((0, 0), 3, (CrossoverArrow(1, 3, f(1, 2)), Crossing(1, 2)), 2)
    out = apply_local_move(sh, 0, "swap_arrow_crossing")
    assert out.tokens == (Crossing(1, 2), CrossoverArrow(2, 3, f(1, 2)))
    with pytest.raises(PatternMismatch):
        apply_local_move(
            Shaft((0, 0), 2, (CrossoverArrow(1, 2, f(1, 2)), Crossing(1, 2)), 2),
            0,
            "swap_arrow_crossing",
        )


def test_swap_sharing_arrows():
    sh = Shaft(
        (0, 0), 3, (CrossoverArrow(1, 2, f(1, 3)), CrossoverArrow(2, 3, f(2, 3))), 3
    )
    out = apply_local_move(sh, 0, "swap_sharing_arrows")
    assert out.matrix() == sh.matrix()
    assert all(isinstance(t, (CrossoverArrow, BlackDot, Crossing)) for t in out.tokens)


def test_resolve_crossing():
    # a crossing absorbed into an overlapping arrow leaves the three-token
    # form: reversed arrow, inverse dot, original arrow
    sh = Shaft((0, 0), 2, (Crossing(1, 2), CrossoverArrow(1, 2, f(1, 3))), 3)
    out = apply_local_move(sh, 0, "resolve_crossing")
    assert out.tokens == (
        CrossoverArrow(1, 2, f(1, 3)),
        BlackDot(2, f(2, 3)),
        CrossoverArrow(2, 1, f(1, 3)),
    )
    assert out.matrix() == sh.matrix()
    sh = Shaft((0, 0), 2, (CrossoverArrow(1, 2, f(1, 3)), Crossing(1, 2)), 3)
    out = apply_local_move(sh, 0, "resolve_crossing")
    assert out.matrix() == sh.matrix()


def test_move_errors():
    sh = Shaft((0, 0), 2, (Crossing(1, 2), BlackDot(1, f(2, 3))), 3)
    with pytest.raises(PatternMismatch):
        apply_local_move(sh, 0, "no_such_move")
    with pytest.raises(PatternMismatch):
        apply_local_move(sh, 5, "merge_dots")


# ---------------------------------------------------------------------------
# straightening


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
    sh = Shaft(
        (0, 0),
        3,
        (CrossoverArrow(1, 3, f(1, 2)), Crossing(2, 3), CrossoverArrow(3, 1, f(1, 2))),
        2,
    )
    once = straighten(sh)
    assert once.matrix() == sh.matrix()
    assert straighten(once).tokens == once.tokens


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
    sh = Shaft((0, 0), 3, word, 2)
    st = straighten(sh)
    assert st.matrix() == sh.matrix()
    assert is_straight(st.tokens)
    assert st.tokens == (
        CrossoverArrow(1, 3, f(1, 2)),
        Crossing(2, 3),
        CrossoverArrow(3, 1, f(1, 2)),
        CrossoverArrow(2, 1, f(1, 2)),
    )


def seeded_words():
    for seed in range(40):
        rng = random.Random(seed)
        width = rng.randrange(2, 5)
        char = rng.choice([2, 3, 5])
        yield Shaft(
            (0, 0), width, random_word(rng, width, char, rng.randrange(0, 9)), char
        )


def test_straighten_random_words():
    for sh in seeded_words():
        st = straighten(sh)
        assert st.matrix() == sh.matrix()
        assert is_straight(st.tokens)
        assert straighten(st).tokens == st.tokens


def test_straighten_with_order():
    rng = random.Random(7)
    sh = Shaft((0, 0), 4, random_word(rng, 4, 3, 8), 3)
    st = straighten(sh, order=[0, 1, 2, 3])
    assert st.matrix() == sh.matrix()
    assert is_straight(st.tokens)
    with pytest.raises(ValueError):
        straighten(sh, order=[0, 1])
    # the identity order with position tie-breaks is the one-class default
    for word in seeded_words():
        identity = list(range(word.strands))
        assert straighten(word, order=identity).tokens == straighten(word).tokens
    # ties and ranks out of position order: arrows lean by (rank, position)
    # at both ends, and straightening again changes nothing
    for word in [sh, *seeded_words()]:
        order = [2, 0, 2, 1][: word.strands]
        st = straighten(word, order=order)
        assert st.matrix() == word.matrix()
        assert is_straight(st.tokens, order)
        assert straighten(st, order=order).tokens == st.tokens


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


def _build_refusals():
    """build's ValidationError message for each input it must refuse: a
    term off bidegree (-1, -1), d^2 != 0, a length-zero arrow and a
    complex over F[U,V]."""
    u = Generator("u", 0, 0)
    off_degree = Complex(RING_R1, 2, (u, Generator("w", 0, 0)), (Arrow("u", "w", mono(1, 1, 0, 2)),))
    scalar = Complex(RING_R1, 2, (u, Generator("w", -1, -1)), (Arrow("u", "w", mono(1, 0, 0, 2)),))
    out = []
    for c in (off_degree, broken_chain("V"), scalar, Complex(RING_FUV, 2, (u,), ())):
        try:
            build(c)
        except ValidationError as exc:
            out.append(str(exc))
    return out


BUILD_REFUSALS = [
    "term u -> w (U) breaks the bigrading",
    "d^2 != 0 at a: term V^2 -> c",
    "cancel length-zero arrows before building: u -> w",
    "two-story complexes live over the modulo-UV ring",
]


def test_build_rejects_bad_input():
    assert _build_refusals() == BUILD_REFUSALS
    out = run_optimized("import test_twostory", "print(test_twostory._build_refusals())")
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{BUILD_REFUSALS!r}\n", out.stdout


def test_build_parallel_sheets():
    t = build(octagon_sheets())
    handles = arrow_handles(t)
    assert len(handles) == 1
    assert weight_of(t, handles[0]) == type(weight_of(t, handles[0]))(
        math.inf, math.inf
    )
    t.verify()


# ---------------------------------------------------------------------------
# journeys


def test_cyclic_journeys_pinned():
    t = build(octagon())
    floor_first = traversal_sequence(t, "x1", "toward-floor")
    shaft_first = traversal_sequence(t, "x1", "toward-shaft")
    assert floor_first.realize(8) == (-1, 1, -2, 2, 2, -1, 1, -2)
    assert shaft_first.realize(8) == (2, -1, 1, -2, -2, 2, -1, 1)
    assert floor_first.period == 8 and shaft_first.period == 8
    assert not floor_first.terminating


def test_journeys_across_the_elevator():
    t = build(octagon())
    y = strand_top(t, "x1")
    assert y == "y1" and strand_bottom(t, y) == "x1"
    assert (
        traversal_sequence(t, y, "toward-floor").realize(16)
        == traversal_sequence(t, "x1", "toward-shaft").realize(16)
    )
    assert (
        traversal_sequence(t, y, "toward-shaft").realize(16)
        == traversal_sequence(t, "x1", "toward-floor").realize(16)
    )


def test_terminating_journeys():
    t = build(braided())
    quiet = traversal_sequence(t, "x1", "toward-floor")
    assert quiet.realize(5) == (0, 0, 0, 0, 0)
    assert quiet.terminating and quiet.period is None
    walk = traversal_sequence(t, "x6", "toward-floor")
    assert walk.realize(6) == (-2, -2, 0, 0, 0, 0)
    assert walk.terminating
    # a journey record always repeats something: an empty cycle is refused
    for prefix in ((1,), ()):
        with pytest.raises(ValueError, match="nonempty cycle"):
            twostory.TraversalSequence(prefix, ())


@pytest.mark.parametrize("direction", ["sideways", "floor", "toward_shaft"])
def test_traversal_rejects_unknown_directions(direction):
    t = build(braided())
    with pytest.raises(ValueError, match="unknown direction"):
        traversal_sequence(t, "x1", direction)


# ---------------------------------------------------------------------------
# weights


def test_weight_parallel_sheets():
    t = build(octagon_sheets())
    (handle,) = arrow_handles(t)
    w = weight_of(t, handle)
    assert (w.w_hat, w.w_check) == (math.inf, math.inf)
    # the two strands of the arrow's shaft walk identical journeys
    grading, _ = handle
    names = [g.id for g in t.x_gens if g.grading == grading]
    walks = [traversal_sequence(t, n, "toward-floor").realize(32) for n in names]
    assert walks[0] == walks[1]


def test_weight_immediate_divergence():
    t = build(braided())
    (handle,) = arrow_handles(t)
    w = weight_of(t, handle)
    assert (w.w_hat, w.w_check) == (1, -1)


def test_weight_against_divergence():
    t = build(braided_wrong())
    (handle,) = arrow_handles(t)
    w = weight_of(t, handle)
    assert (w.w_hat, w.w_check) == (-2, math.inf)


def test_weight_deep_agreement():
    t = build(depth_two())
    (handle,) = arrow_handles(t)
    w = weight_of(t, handle)
    assert (w.w_hat, w.w_check) == (2, math.inf)
    assert t.depth() == 2


def test_weight_needs_an_arrow():
    t = build(figure_eight())
    with pytest.raises(PatternMismatch):
        weight_of(t, ((0, 0), 0))  # that token is a black dot
    with pytest.raises(PatternMismatch):
        weight_of(t, ((9, 9), 0))


# ---------------------------------------------------------------------------
# slides


def test_slide_round_trip():
    t = build(square_sheets())
    before = dump(t)
    slide_arrow_step(t, ((0, 0), 0), "down")
    assert arrow_handles(t) == [((-1, 1), 0)]
    slide_arrow_step(t, ((-1, 1), 0), "down")
    assert dump(t) == before
    t.verify()


def test_slide_dot_dissolves():
    t = build(figure_eight())
    assert t.shaft((0, 0)).tokens == (BlackDot(2, f(2, 3)),)
    before = dump(t)
    with pytest.raises(ValueError, match="unknown slide direction"):
        slide_arrow_step(t, ((0, 0), 0), "sideways")
    assert dump(t) == before
    slide_arrow_step(t, ((0, 0), 0), "down")
    assert token_count(t) == 0
    assert "x2 -V^1-> x4  (coefficient 2)" in dump(t)
    t.verify()


def test_slide_dot_up_dissolves_into_the_top_floor():
    t = build(figure_eight())
    slide_arrow_step(t, ((0, 0), 0), "up")
    assert token_count(t) == 0
    assert "y3 -U^1-> y4  (coefficient 2)" in dump(t)
    assert t.log == (("y", "scale", 3, f(2, 3)),)
    t.verify()
    conjugation_verify(t)


def test_slide_refuses_diverging_strands():
    t = build(braided())
    before = (dump(t), t.log)
    with pytest.raises(StrandsDiverge):
        slide_arrow_step(t, ((-1, 1), 0), "up")
    assert (dump(t), t.log) == before


def test_slide_rejects_non_boundary():
    t = build(braided())
    with pytest.raises(PatternMismatch):
        slide_arrow_step(t, ((-1, 1), 0), "down")
    with pytest.raises(ValueError):
        slide_arrow_step(t, ((-1, 1), 0), "sideways")


# ---------------------------------------------------------------------------
# removal


def test_remove_diverging_arrow():
    t = build(braided())
    (handle,) = arrow_handles(t)
    remove_diverging_arrow(t, handle)
    assert token_count(t) == 0
    assert matching_violations(t.bottom) == []
    assert matching_violations(t.top) == []
    t.verify()


def test_remove_wrong_orientation():
    t = build(braided_wrong())
    (handle,) = arrow_handles(t)
    with pytest.raises(WrongOrientation):
        remove_diverging_arrow(t, handle)


def test_remove_parallel_refused():
    t = build(square_sheets())
    (handle,) = arrow_handles(t)
    with pytest.raises(Parallel):
        remove_diverging_arrow(t, handle)


# ---------------------------------------------------------------------------
# depth raising


def test_infinite_depth_is_stable():
    t = build(trefoil())
    before = dump(t)
    assert t.depth() == math.inf
    run_to_depth_infinity(t)
    assert t.rounds == 0 and dump(t) == before


def test_depth_two_single_pass():
    t = verify_every_step(build(depth_two()))
    assert t.depth() == 2
    t.increase_depth(2)
    assert t.depth() > 2
    t.verify()


def test_round_bound_exceeded():
    t = build(depth_two())
    n = len(t.x_gens)
    assert t.depth() < math.inf and n > 1
    calls = []
    t.increase_depth = calls.append  # a stub that never raises the depth
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
        w = weight_of(t, handles[0])
        assert (w.w_hat, w.w_check) == (math.inf, math.inf)
        t.verify()


def test_reparametrization_keeps_early_terms():
    t = build(depth_two())
    m = t.depth()
    names = [g.id for g in t.x_gens] + [g.id for g in t.y_gens]

    def snapshot():
        return {
            (n, d): traversal_sequence(t, n, d).realize(m)
            for n in names
            for d in ("toward-floor", "toward-shaft")
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
    """Cached journeys and divergences that differ from a fresh computation."""
    journeys, divergences = t._seq_cache, t._div_cache
    t._seq_cache, t._div_cache = {}, {}
    try:
        stale = [k for k, seq in journeys.items() if t._sequence(*k) != seq]
        stale += [k for k, d in divergences.items() if t._component(*k) != d]
    finally:
        t._seq_cache, t._div_cache = journeys, divergences
    return stale


def test_journey_cache_matches_fresh_journeys(monkeypatch):
    # the cache is cleared only when a refactorization moves an elevator;
    # after every engine step each cached entry must still be current
    seen = {"checks": 0, "entries": 0, "arrow_free": 0, "moved_up": 0}

    def check(t, name):
        assert _stale_cache_entries(t) == [], f"stale cache after {name}"
        seen["checks"] += 1
        seen["entries"] += len(t._seq_cache) + len(t._div_cache)

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

    for name in ("_turn", "_slide_dot", "_cross_middle", "_swap_adjacent", "_restore_convoy"):
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
                            if _square_offenders(gens, arrows, 2):
                                continue
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
                w = weight_of(t, handle)
                assert (w.w_hat, w.w_check) == (math.inf, math.inf)
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
    assert sh.matrix() == shaft_matrix(sh.tokens, 2, 2)
    one = FieldElem(1, t.char)
    assert t.floor_arrows("bottom") == tuple((s, tg, l, one) for s, tg, l in t.bottom.arrows)
    assert matching_violations(t.bottom) == []
    assert matching_violations(t.top) == []


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
        yield from (("floor", v[2]) for v in floor.table.values())
        yield from (("log", s[3][0] if s[0] == "add" else s[2]) for s in floor.steps)


def test_engine_state_holds_int_residues():
    seen = set()
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=14))
        if c.rank == 0:
            continue
        t = build(c)
        slid = copy.deepcopy(t)
        for grading, st in slid._shafts.items():
            for k, pos in enumerate(sorted(st.dots)):
                slid._slide_dot(grading, pos, ("bottom", "top")[k % 2])
        slid.verify()
        at_build = list(_engine_coefficients(t)) + list(_engine_coefficients(slid))
        run_to_depth_infinity(t)
        for where, x in at_build + list(_engine_coefficients(t)):
            assert type(x) is int and 1 <= x < t.char, (seed, where, x)
            seen.add(where)
    assert seen == {"arrow", "dot", "floor", "log"}


@hst.composite
def invertible_blocks(draw):
    p = draw(hst.sampled_from((2, 3, 5)))
    n = draw(hst.integers(min_value=1, max_value=6))
    cells = hst.integers(min_value=0, max_value=p - 1)
    rows = draw(hst.lists(hst.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    m = Matrix.from_rows(rows, p)
    if not m.is_invertible():
        m = m + Matrix.identity(n, p)
    return m


@given(invertible_blocks())
@settings(max_examples=150, deadline=None)
def test_state_matrix_of_seeded_factorization(m):
    assume(m.is_invertible())
    n, p = m.rows, m.char
    st = _ltu_state(m)
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
    intertwines = complexes.intertwines

    def counted(*args):
        floor_checks.append(args)
        return intertwines(*args)

    for module in (complexes, simplify, twostory):
        if getattr(module, "intertwines", None) is intertwines:
            monkeypatch.setattr(module, "intertwines", counted)

    def verified(step):
        before = len(calls)
        step()
        return len(calls) - before

    assert verified(lambda: build(trefoil())) == 1
    assert len(floor_checks) == 2  # once per floor, inside build's one verify
    t = build(trefoil())
    assert verified(lambda: run_to_depth_infinity(t)) == 0 and t.rounds == 0
    t = build(braided())
    with pytest.raises(ValueError):
        verified(lambda: increase_depth(t, 4))
    with pytest.raises(StrandsDiverge):
        verified(lambda: slide_arrow_step(t, ((-1, 1), 0), "up"))
    assert len(calls) == 3  # the builds only: the refused calls changed nothing
    assert verified(lambda: run_to_depth_infinity(t)) == 1 and t.rounds == 1
    assert verified(lambda: increase_depth(t, math.inf)) == 0
    t = build(figure_eight())
    assert verified(lambda: slide_arrow_step(t, ((0, 0), 0), "down")) == 1
    t = build(braided())
    assert verified(lambda: remove_diverging_arrow(t, arrow_handles(t)[0])) == 1


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
    post_init = Complex.__post_init__
    monkeypatch.setattr(Complex, "__post_init__", lambda cx: made.append(cx) or post_init(cx))
    t = build(c)
    run_to_depth_infinity(t)
    assert t.rounds == 1  # two verifies: the constructor's and the pass's
    assert len(converted) == 1 and converted[0] is c  # the simplifiers included
    assert made == []  # no Complex inside build, the depth loop or verify
    assert dense and per_verify == [0, 0]  # the pass refactors; verify forms no dense block


def _corrupt_and_slide_a_dot():
    """Corrupt the one black dot of messy seed 24 (over F_5) and slide it
    out through the bottom floor; the slide must not return."""
    c, _, _ = strip_zero_complexes(random_messy(24))
    t = build(c)
    _corrupt_a_dot(t)
    (grading,) = [g for g in t.gradings() if t._shafts[g].dots]
    assert isinstance(t.shaft(grading).tokens[0], BlackDot)
    slide_arrow_step(t, (grading, 0), "down")


def test_slide_verifies_what_it_moved():
    with pytest.raises(InvariantViolation, match="shaft product drifted"):
        _corrupt_and_slide_a_dot()
    out = run_optimized(
        "import sys",
        "import test_twostory",
        "from snakedec.errors import InvariantViolation",
        "try:",
        "    test_twostory._corrupt_and_slide_a_dot()",
        "except InvariantViolation as exc:",
        "    print('raised', sys.flags.optimize, exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 shaft product drifted"), out.stdout


def _build_with_doubled_block_inverses():
    """Build stripped messy seed 24 (over F_5) while ``gf.Matrix.inverse``
    returns twice the true inverse; the build must not return."""
    c, _, _ = strip_zero_complexes(random_messy(24))
    inverse = Matrix.inverse
    Matrix.inverse = lambda m: inverse(m) * 2
    try:
        build(c)
    finally:
        Matrix.inverse = inverse


def test_build_verifies_the_block_inverses():
    # Y' = 2 S^-1 X' keeps both floors intertwined, so only the shaft
    # check X'_0 = S Y'_0 can see the wrong inverse
    with pytest.raises(InvariantViolation, match="shaft product drifted"):
        _build_with_doubled_block_inverses()
    out = run_optimized(
        "import sys",
        "import test_twostory",
        "from snakedec.errors import InvariantViolation",
        "try:",
        "    test_twostory._build_with_doubled_block_inverses()",
        "except InvariantViolation as exc:",
        "    print('raised', sys.flags.optimize, exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 shaft product drifted"), out.stdout


@pytest.mark.parametrize("floor", ["bottom", "top"])
@pytest.mark.parametrize("field", ["coeff", "length"])
def test_verify_catches_floor_drift(field, floor):
    t = build(figure_eight())  # over F_3, two arrows on each floor
    t.verify()
    entry = t._floors[floor].table[0]
    if field == "coeff":
        entry[2] = -entry[2]
    else:
        entry[1] += 1
    with pytest.raises(InvariantViolation, match=f"{floor} floor drifted from the engine tables"):
        t.verify()


def _outcome(check, t):
    try:
        check(t)
    except SnakedecError as exc:
        return type(exc)
    return None


def _corrupted(t, rng):
    """Copies of t with one dot, one floor entry and one log step corrupted."""
    p = t.char
    dot = copy.deepcopy(t)
    grading = rng.choice(dot.gradings())
    pos = rng.randrange(dot.width(grading))
    dots = dot._shafts[grading].dots
    dots[pos] = (dots.get(pos, 1) + 1) % p
    out = [dot]
    # a fixed floor order, bottom then top, keeps the draws reproducible
    ends = ("bottom", "top")
    if any(t._floors[e].table for e in ends):
        floor = copy.deepcopy(t)
        table = rng.choice([floor._floors[e].table for e in ends if floor._floors[e].table])
        entry = table[rng.choice(sorted(table))]
        if p > 2 and rng.random() < 0.5:
            entry[2] = (entry[2] + 1) % p
        else:
            entry[1] += 1
        out.append(floor)
    if any(t._floors[e].steps for e in ends):
        step = copy.deepcopy(t)
        steps = rng.choice([step._floors[e].steps for e in ends if step._floors[e].steps])
        del steps[rng.randrange(len(steps))]
        out.append(step)
    return out


def test_verify_agrees_with_conjugation_oracle():
    caught = 0
    for seed in range(40):
        c, _, _ = strip_zero_complexes(random_messy(seed, max_rank=14))
        if c.rank == 0:
            continue
        rng = random.Random(seed)
        t = build(c)
        for state in (t, run_to_depth_infinity(copy.deepcopy(t))):
            assert _outcome(conjugation_verify, state) is None
            assert _outcome(lambda s: s.verify(), state) is None
            for bad in _corrupted(state, rng):
                want = _outcome(conjugation_verify, bad)
                assert _outcome(lambda s: s.verify(), bad) == want
                caught += want is not None
    assert caught > 150


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


def test_strand_endpoints_reject_the_wrong_floor():
    t = build(braided())
    with pytest.raises(ValueError, match="expected a bottom basis element"):
        strand_top(t, "y1")
    with pytest.raises(ValueError, match="expected a top basis element"):
        strand_bottom(t, "x1")
    out = run_optimized(
        "from gen import braided",
        "from snakedec.twostory import build, strand_top",
        "try:",
        "    print(strand_top(build(braided()), 'y1'))",
        "except ValueError as exc:",
        "    print('raised', exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised expected a bottom basis element"), out.stdout


def test_increase_depth_validates_m():
    t = build(braided())
    assert t.depth() == 1
    before = dump(t)
    with pytest.raises(ValueError, match="m = 4 is above the current depth 1"):
        increase_depth(t, 4)
    assert dump(t) == before
    increase_depth(t, 1)
    assert t.depth() > 1
    # at depth infinity every m, infinity included, leaves the complex alone
    run_to_depth_infinity(t)
    before = dump(t)
    increase_depth(t, math.inf)
    assert dump(t) == before
    out = run_optimized(
        "from gen import braided",
        "from snakedec.twostory import build, increase_depth",
        "try:",
        "    increase_depth(build(braided()), 4)",
        "except ValueError as exc:",
        "    print('raised', exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised m = 4 is above the current depth 1"), out.stdout


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
        slide_arrow_step(t, ((0, 0), 0), "down")
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
    sh = Shaft(
        (0, 0),
        3,
        (CrossoverArrow(1, 2, f(1, 3)), CrossoverArrow(2, 3, f(2, 3)), Crossing(2, 3)),
        3,
    )
    assert straighten(sh).matrix() == sh.matrix()
    assert apply_local_move(sh, 0, "swap_sharing_arrows").matrix() == sh.matrix()
    monkeypatch.setattr(twostory, "_state_tokens", lambda state, char: [])
    with pytest.raises(InvariantViolation, match="straightening changed the product"):
        straighten(sh)
    with pytest.raises(InvariantViolation, match="local move changed the product"):
        apply_local_move(sh, 0, "swap_sharing_arrows")
    with pytest.raises(InvariantViolation, match="local move changed the product"):
        apply_local_move(sh, 1, "resolve_crossing")


def test_depth_pass_checks_that_it_raised_the_depth(monkeypatch):
    t = build(braided())
    monkeypatch.setattr(twostory.TwoStoryComplex, "_remove_all", lambda *args: None)
    monkeypatch.setattr(twostory.TwoStoryComplex, "_slide_out", lambda *args: None)
    with pytest.raises(InvariantViolation, match="depth pass fell short"):
        increase_depth(t, 1)


# ---------------------------------------------------------------------------
# the depth loop at larger ranks


# seeds 1, 34, 126 and 136 at max_rank 24 once failed with convoy drift and
# seed 182 at max_rank 40 with a displacement cycle: arrow records were
# looked up by value, so a tier holding two equal arrows sent the lookup to
# the twin
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
@settings(max_examples=25, deadline=None)
def test_depth_loop_finishes_on_messy_seed(seed, span, max_rank):
    c = random_messy(seed, span=span, max_rank=max_rank)
    d, k, _ = strip_zero_complexes(c)
    t = run_to_depth_infinity(build(d))
    assert t.depth() == math.inf
    t.verify()
    assert len(t.x_gens) == len(t.y_gens) == c.rank - 2 * k


# In one snowplow a convoy arrow in shaft (3, -1) of seed 1117 is displaced
# a second time: it crosses the middle and is turned out through the other
# floor.  The later convoy entry is restored first and brings back a new
# record, so the earlier entry's lookup by identity fails.
@pytest.mark.xfail(raises=InvariantViolation, strict=True, reason="convoy restore loses a twice-displaced arrow")
@pytest.mark.parametrize(
    "seed, span, max_rank",
    [
        (102, 3, 40),
        (1117, 3, 40),
        (167, 3, 60),
        (108, 2, 60),
        (191, 2, 60),
        (312, 2, 60),
        (440, 2, 60),
        (496, 2, 60),
    ],
)
def test_depth_loop_restores_a_twice_displaced_convoy_arrow(seed, span, max_rank):
    d, _, _ = strip_zero_complexes(random_messy(seed, span=span, max_rank=max_rank))
    t = run_to_depth_infinity(build(d))
    assert t.depth() == math.inf
