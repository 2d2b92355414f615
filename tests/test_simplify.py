"""Tests for vertical/horizontal simplification and transition normalization."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gen import (
    broken_chain,
    cancel_by_full_scan,
    chain_complex,
    figure_eight,
    mixed_sum,
    random_complex,
    quotient_u,
    quotient_v,
    random_messy,
    run_optimized,
    transition_by_ring_inverse,
    trefoil,
    zero_pair,
)
from test_gf import _ltu_product
from snakedec.complexes import (
    Arrow,
    BasisChange,
    Complex,
    Elimination,
    Generator,
    apply_basis_change,
    direct_sum,
    mono,
    quotient_rows,
    strip_zero_complexes,
    RING_FUV,
    RING_R1,
)
from snakedec.errors import (
    GradingViolation,
    InvariantViolation,
    Singular,
    ValidationError,
)
from snakedec import gf
from snakedec.gf import FieldElem, Matrix
from snakedec.simplify import (
    HORIZONTAL,
    SimplifiedBasis,
    VERTICAL,
    horizontal_simplify,
    matching_violations,
    normalize_transition,
    simplified_transition,
    vertical_simplify,
)
from snakedec.twostory import TwoStoryComplex


def replay(c, sb):
    """Arrow list read back by applying sb.change to c and taking the quotient."""
    moved = apply_basis_change(c, sb.change)
    quot = quotient_u(moved) if sb.direction == VERTICAL else quotient_v(moved)
    idx = {g.id: k for k, g in enumerate(quot.generators)}
    one = FieldElem(1, c.char)
    out = []
    for a in quot.arrows:
        assert a.mono.coeff == one, "arrow coefficient was not normalized"
        out.append((idx[a.src], idx[a.tgt], a.mono.u_exp + a.mono.v_exp))
    return tuple(sorted(out))


def v_case():
    # d(a) = Vb + V^2 c and d(d) = V^2 b force both an absorb and a clear
    gens = (
        Generator("a", 0, 0),
        Generator("b", -1, 1),
        Generator("c", -1, 3),
        Generator("d", 0, -2),
    )
    arrows = (
        Arrow("a", "b", mono(1, 0, 1, 2)),
        Arrow("a", "c", mono(1, 0, 2, 2)),
        Arrow("d", "b", mono(1, 0, 2, 2)),
    )
    return Complex(RING_R1, 2, gens, arrows)


def u_case():
    # mirror image of v_case with powers of U
    gens = (
        Generator("a", 0, 0),
        Generator("b", 1, -1),
        Generator("c", 3, -1),
        Generator("d", -2, 0),
    )
    arrows = (
        Arrow("a", "b", mono(1, 1, 0, 2)),
        Arrow("a", "c", mono(1, 2, 0, 2)),
        Arrow("d", "b", mono(1, 2, 0, 2)),
    )
    return Complex(RING_R1, 2, gens, arrows)


def test_vertical_trefoil():
    sb = vertical_simplify(trefoil())
    assert sb.direction == VERTICAL
    assert sb.arrows == ((2, 1, 1),)
    assert [g.id for g in sb.generators] == ["x1", "x2", "x3"]
    assert replay(trefoil(), sb) == sb.arrows


def test_horizontal_trefoil():
    sb = horizontal_simplify(trefoil())
    assert sb.direction == HORIZONTAL
    assert sb.arrows == ((0, 1, 1),)
    assert replay(trefoil(), sb) == sb.arrows


def test_vertical_snake_is_fixed_point():
    c = chain_complex([1, 2, 1], start=0)
    sb = vertical_simplify(c)
    assert sb.arrows == ((1, 0, 1), (3, 2, 1))
    assert sb.change.rows == tuple({i: (1, 0, 0)} for i in range(c.rank))


def test_horizontal_standard_is_fixed_point():
    c = chain_complex([2, -2, -1, 1, 3, -1], start=1)
    sb = horizontal_simplify(c)
    assert sb.arrows == ((1, 0, 2), (2, 3, 1), (5, 4, 3))
    assert sb.change.rows == tuple({i: (1, 0, 0)} for i in range(c.rank))


def test_vertical_absorb_and_clear():
    c = v_case()
    sb = vertical_simplify(c)
    assert sb.arrows == ((0, 1, 1), (3, 2, 3))
    assert replay(c, sb) == sb.arrows


def test_horizontal_absorb_and_clear():
    c = u_case()
    sb = horizontal_simplify(c)
    assert sb.arrows == ((0, 1, 1), (3, 2, 3))
    assert replay(c, sb) == sb.arrows


def test_coefficient_normalization():
    # d(d) = 2 U e over F_3 must come back with coefficient 1
    c = figure_eight()
    sb = horizontal_simplify(c)
    assert sb.arrows == ((0, 1, 1), (2, 3, 1))
    assert replay(c, sb) == sb.arrows


def _permuted(sb, perm):
    pos = {old: new for new, old in enumerate(perm)}
    gens = tuple(sb.generators[j] for j in perm)
    arrows = tuple(sorted((pos[i], pos[j], a) for i, j, a in sb.arrows))
    rows = tuple(sb.change.rows[j] for j in perm)
    change = BasisChange.from_rows(sb.change.char, sb.change.old_gens, gens, rows)
    return SimplifiedBasis(sb.direction, gens, arrows, change, sb.quotient)


@pytest.mark.parametrize("simplify", [vertical_simplify, horizontal_simplify])
def test_simplify_rejects_complex_over_fuv(simplify):
    with pytest.raises(ValidationError, match="modulo-UV"):
        simplify(trefoil(ring=RING_FUV))


@pytest.mark.parametrize("simplify", [vertical_simplify, horizontal_simplify])
def test_simplify_rejects_length_zero_arrow(simplify):
    with pytest.raises(ValidationError, match="strip zero complexes"):
        simplify(direct_sum([trefoil(), zero_pair()]))


def test_simplify_rejects_non_complex():
    # d(a) = V b and d(b) = V c, so d^2 = V^2 c
    with pytest.raises(ValidationError, match="not a chain complex"):
        vertical_simplify(broken_chain("V"))
    out = run_optimized(
        "import sys",
        "from gen import broken_chain",
        "from snakedec.simplify import vertical_simplify",
        "from snakedec.errors import ValidationError",
        "try:",
        "    print('returned', vertical_simplify(broken_chain('V')).arrows)",
        "except ValidationError as exc:",
        "    print('raised', sys.flags.optimize, exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 not a chain complex"), out.stdout


@pytest.mark.parametrize("simplify", [vertical_simplify, horizontal_simplify])
def test_simplify_rejects_unbigraded_input(simplify):
    gens = (Generator("a", 0, 0), Generator("b", 5, -1), Generator("c", -1, 5))
    arrows = (Arrow("a", "b", mono(1, 1, 0, 2)), Arrow("a", "c", mono(1, 0, 1, 2)))
    # a bad term counts even where the quotient drops it
    for bad in (arrows, arrows[:1], arrows[1:]):
        with pytest.raises(GradingViolation, match="breaks the bigrading"):
            simplify(Complex(RING_R1, 2, gens, bad))


def test_normalize_rejects_unaligned_bases():
    c = trefoil()
    xb, yb = vertical_simplify(c), horizontal_simplify(c)
    with pytest.raises(ValidationError, match="align"):
        normalize_transition(c, xb, _permuted(yb, (2, 0, 1)))
    with pytest.raises(ValidationError, match="align"):
        normalize_transition(c, xb, horizontal_simplify(figure_eight()))


def test_normalize_rejects_a_transition_that_crosses_bigradings():
    c = figure_eight()
    xb, yb = vertical_simplify(c), horizontal_simplify(c)
    # a scalar entry from x_0 to an input element of another bigrading
    j = next(j for j, g in enumerate(c.generators) if g.grading != xb.generators[0].grading)
    rows = [dict(row) for row in xb.change.rows]
    rows[0][j] = (1, 0, 0)
    bad = BasisChange.from_rows(c.char, c.generators, xb.generators, rows)
    xb = SimplifiedBasis(xb.direction, xb.generators, xb.arrows, bad, xb.quotient)
    with pytest.raises(InvariantViolation, match="crosses bigradings"):
        normalize_transition(c, xb, yb)


@pytest.mark.parametrize("side", ["x", "y"])
def test_normalize_names_the_bigrading_of_a_singular_block(side):
    # the bigrading (0, 0) holds positions 0, 3 and 4; copying the scalar
    # row 0 onto row 3 makes that block of the chosen basis singular
    c = figure_eight()
    xb, yb = vertical_simplify(c), horizontal_simplify(c)
    sb = xb if side == "x" else yb
    rows = [dict(row) for row in sb.change.rows]
    rows[3] = {j: e for j, e in rows[0].items() if e[1:] == (0, 0)}
    change = BasisChange.from_rows(c.char, c.generators, sb.generators, rows)
    bad = SimplifiedBasis(sb.direction, sb.generators, sb.arrows, change, sb.quotient)
    xb, yb = (bad, yb) if side == "x" else (xb, bad)
    with pytest.raises(Singular, match=rf"the {side}-basis .* singular .* bigrading \(0, 0\)"):
        normalize_transition(c, xb, yb)


def _check_blocks(c, td):
    """The transition blocks against an independent X Y^-1 over the ring.

    The recomputed transition's scalar part must agree on every block
    with the dense product of the block's factors and be zero off the
    blocks; its U and V entries are not read.  The blocks partition the
    positions by bigrading.  Returns S assembled densely from the blocks.
    """
    p = td.x_basis.change.compose(td.y_basis.change.inverse())
    dense = [[0] * c.rank for _ in range(c.rank)]
    gradings = [g.grading for g in td.x_basis.generators]
    seen = []
    for members, factors in td.blocks:
        assert len({gradings[i] for i in members}) == 1
        block = _ltu_product(factors, len(members), c.char)
        assert tuple(tuple(p.rows[i].get(j, (0,))[0] for j in members) for i in members) == block.entries
        for i, row in zip(members, block.entries):
            for j, x in zip(members, row):
                dense[i][j] = x
        seen.extend(members)
    assert sorted(seen) == list(range(c.rank))
    assert len(td.blocks) == len(set(gradings))
    scalar = [{j: e[0] for j, e in row.items() if e[1:] == (0, 0)} for row in p.rows]
    assert [[row.get(j, 0) for j in range(c.rank)] for row in scalar] == dense
    return tuple(map(tuple, dense))


def test_transition_identity_for_trefoil():
    c = trefoil()
    td = simplified_transition(c)
    assert _check_blocks(c, td) == Matrix.identity(3, 2).entries
    for members, factors in td.blocks:
        assert factors == ([], {}, tuple(range(len(members))), [])


def test_transition_scale_for_figure_eight():
    c = figure_eight()
    td = simplified_transition(c)
    assert _check_blocks(c, td) == (
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 2, 0),
        (0, 0, 0, 0, 1),
    )
    # the 2 sits in the block of bigrading (0, 0): one black dot, no arrows
    dot = ([], {1: 2}, (0, 1, 2), [])
    assert [b for b in td.blocks if 3 in b[0]] == [((0, 3, 4), dot)]


def test_transition_eliminates_variable_entries():
    # the v_case x-change has V entries, so the y-basis must be adjusted
    for c in (v_case(), u_case(), direct_sum([v_case(), u_case()])):
        td = simplified_transition(c)
        assert matching_violations(td.x_basis) == []
        assert matching_violations(td.y_basis) == []
        assert replay(c, td.x_basis) == td.x_basis.arrows
        assert replay(c, td.y_basis) == td.y_basis.arrows


def test_matching_violations_names_each_clause():
    sb = vertical_simplify(trefoil())
    assert matching_violations(sb) == []
    # 0 emits two arrows, 2 receives two, and 1 both emits and receives
    arrows = ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert matching_violations(dataclasses.replace(sb, arrows=arrows)) == [
        "index 0 emits 2 arrows",
        "index 2 receives 2 arrows",
        "index 1 both emits and receives",
    ]


def test_transition_rank_zero():
    td = simplified_transition(Complex(RING_R1, 2, (), ()))
    assert td.blocks == ()


def _messy24(seed):
    return random_messy(seed, max_rank=24)


def _with_messy_seeds(test):
    """Also run the test on random_messy seeds 0-39 at max_rank 24."""
    for seed in range(40):
        test = example(seed=seed, make=_messy24)(test)
    return test


@given(seed=st.integers(min_value=0, max_value=10_000), make=st.just(random_complex))
@_with_messy_seeds
@settings(max_examples=50, deadline=None)
def test_simplification_properties(seed, make):
    c, _, _ = strip_zero_complexes(make(seed))
    td = simplified_transition(c)
    for sb in (td.x_basis, td.y_basis):
        assert matching_violations(sb) == []
        assert replay(c, sb) == sb.arrows
    # both bases keep the input's order, so positions are grading-aligned
    # with c.generators, and the transition matrix is scalar
    want = [g.grading for g in c.generators]
    assert [g.grading for g in td.x_basis.generators] == want
    assert [g.grading for g in td.y_basis.generators] == want
    _check_blocks(c, td)


def test_normalize_transition_matches_the_ring_inverse_route():
    """Equal blocks to the X Y^-1 oracle on messy, sum and mixed inputs, and
    equal bases modulo U (X) and modulo V (Y): the oracle's bases are the
    exactly scalar ones, which differ from the handed-on bases only by
    S Y_U and S^-1 X_V."""
    cases = [random_messy(seed, max_rank=24) for seed in range(60)]
    cases += [random_complex(seed) for seed in range(60)]
    cases.append(mixed_sum(0, 10))
    for c in cases:
        c, _, _ = strip_zero_complexes(c)
        xb, yb = vertical_simplify(c), horizontal_simplify(c)
        td = normalize_transition(c, xb, yb)
        x_change, y_change, blocks = transition_by_ring_inverse(c, xb, yb)
        assert quotient_rows(td.x_basis.change.rows, 1) == quotient_rows(x_change.rows, 1)
        assert quotient_rows(td.y_basis.change.rows, 2) == quotient_rows(y_change.rows, 2)
        assert [members for members, _ in td.blocks] == [members for members, _ in blocks]
        for (_, factors), (_, block) in zip(td.blocks, blocks):  # the identity's included
            assert factors == gf.ltu_factorize(block)


def test_normalize_transition_hands_the_bases_on():
    """The bases come back as they were handed, and the two-story complex
    starts its bottom floor from the vertical basis's own change."""
    for c in (trefoil(), figure_eight(), v_case(), u_case(), random_messy(3, max_rank=24)):
        c, _, _ = strip_zero_complexes(c)
        xb, yb = vertical_simplify(c), horizontal_simplify(c)
        td = normalize_transition(c, xb, yb)
        assert td.x_basis is xb and td.y_basis is yb
        assert TwoStoryComplex(c, td)._floors["bottom"].start is xb.change


def test_pivot_heap_matches_the_full_scan(monkeypatch):
    """The strip and both simplifiers give what a rescan of every cell
    for each pivot gives."""
    cases = [random_messy(seed, max_rank=24) for seed in range(40)]
    cases += [random_complex(seed) for seed in range(40)]
    cases += [mixed_sum(0, 10), mixed_sum(28, 10)]

    def run():
        out = []
        for c in cases:
            d, k, b = strip_zero_complexes(c)
            out.append((d, k, b.rows))
            for sb in (vertical_simplify(d), horizontal_simplify(d)):
                out.append((sb.change.rows, sb.arrows))
        return out

    by_heap = run()
    assert sum(k for _, k, _ in by_heap[::3]) > 0
    monkeypatch.setattr(Elimination, "cancel_in_order", cancel_by_full_scan)
    assert run() == by_heap


def test_normalize_transition_shares_the_input_rows_and_leaves_them_alone():
    """Rows a BasisChange holds are never mutated: after the call the input
    bases' rows equal snapshots taken before it, and a row the call neither
    filters nor merges into passes into the new basis as the same dict."""
    cases = [random_messy(seed, max_rank=24) for seed in range(100)]
    cases += [random_complex(seed, max_parts=12) for seed in range(100)]
    shared = 0
    for c in cases:
        c, _, _ = strip_zero_complexes(c)
        xb, yb = vertical_simplify(c), horizontal_simplify(c)
        before = [[dict(row) for row in sb.change.rows] for sb in (xb, yb)]
        td = normalize_transition(c, xb, yb)
        assert [list(sb.change.rows) for sb in (xb, yb)] == before
        for old, new in ((xb, td.x_basis), (yb, td.y_basis)):
            shared += sum(a is b for a, b in zip(old.change.rows, new.change.rows))
    assert shared > 0
