"""Tests for vertical/horizontal simplification and transition normalization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gen import (
    broken_chain,
    chain_complex,
    figure_eight,
    random_complex,
    quotient_u,
    quotient_v,
    random_messy,
    run_optimized,
    trefoil,
    zero_pair,
)
from snakedec.complexes import (
    Arrow,
    BasisChange,
    Complex,
    Generator,
    apply_basis_change,
    direct_sum,
    empty_complex,
    mono,
    strip_zero_complexes,
    RING_FUV,
    RING_R1,
)
from snakedec.errors import CountMismatch, GradingViolation, InvariantViolation, ValidationError
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


def replay(c, sb):
    """Arrow list read back by applying sb.change to c and taking the quotient."""
    moved = apply_basis_change(c, sb.change)
    quot = quotient_u(moved) if sb.direction == VERTICAL else quotient_v(moved)
    idx = quot.gen_index()
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
    n = c.rank
    ident = tuple(
        tuple(mono(1, 0, 0, 2) if i == j else None for j in range(n)) for i in range(n)
    )
    assert sb.change.entries == ident


def test_horizontal_standard_is_fixed_point():
    c = chain_complex([2, -2, -1, 1, 3, -1], start=1)
    sb = horizontal_simplify(c)
    assert sb.arrows == ((1, 0, 2), (2, 3, 1), (5, 4, 3))
    n = c.rank
    ident = tuple(
        tuple(mono(1, 0, 0, 2) if i == j else None for j in range(n)) for i in range(n)
    )
    assert sb.change.entries == ident


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
    entries = tuple(sb.change.entries[j] for j in perm)
    change = type(sb.change)(
        sb.change.ring, sb.change.char, sb.change.old_gens, gens, entries
    )
    return SimplifiedBasis(sb.direction, gens, arrows, change)


@pytest.mark.parametrize("simplify", [vertical_simplify, horizontal_simplify])
def test_simplify_rejects_complex_over_fuv(simplify):
    with pytest.raises(ValidationError, match="modulo-UV"):
        simplify(trefoil(ring=RING_FUV))


@pytest.mark.parametrize("simplify", [vertical_simplify, horizontal_simplify])
def test_simplify_rejects_length_zero_arrow(simplify):
    with pytest.raises(ValidationError, match="strip zero complexes"):
        simplify(direct_sum([trefoil(), zero_pair()]))


def test_simplify_rejects_non_complex():
    # d(a) = V b and d(b) = V c: after a -> b is split off, b -> c is left over
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
    with pytest.raises(CountMismatch, match="align"):
        normalize_transition(c, xb, _permuted(yb, (2, 0, 1)))
    with pytest.raises(CountMismatch, match="align"):
        normalize_transition(c, xb, horizontal_simplify(figure_eight()))


def test_normalize_rejects_a_transition_that_crosses_bigradings():
    c = figure_eight()
    xb, yb = vertical_simplify(c), horizontal_simplify(c)
    # a scalar entry from x_0 to an input element of another bigrading
    j = next(j for j, g in enumerate(c.generators) if g.grading != xb.generators[0].grading)
    rows = [dict(row) for row in xb.change.rows]
    rows[0][j] = (1, 0, 0)
    bad = BasisChange.from_rows(c.ring, c.char, c.generators, xb.generators, rows)
    xb = SimplifiedBasis(xb.direction, xb.generators, xb.arrows, bad)
    with pytest.raises(InvariantViolation, match="crosses bigradings"):
        normalize_transition(c, xb, yb)


def _check_blocks(c, td):
    """The transition blocks against an independent X Y^-1 over the ring.

    The recomputed transition must be scalar, agree with every block, be
    zero off the blocks, and each block times its inverse must be I.  The
    blocks partition the positions by bigrading.  Returns S assembled
    densely from the blocks.
    """
    p = td.x_basis.change.compose(td.y_basis.change.inverse())
    assert all(e[1:] == (0, 0) for row in p.rows for e in row.values())
    dense = [[0] * c.rank for _ in range(c.rank)]
    gradings = [g.grading for g in td.x_basis.generators]
    seen = []
    for members, block, inverse in td.blocks:
        assert len({gradings[i] for i in members}) == 1
        assert block * inverse == Matrix.identity(len(members), c.char)
        assert [[p.rows[i].get(j, (0,))[0] for j in members] for i in members] == block.to_lists()
        for i, row in zip(members, block.entries):
            for j, x in zip(members, row):
                dense[i][j] = x
        seen.extend(members)
    assert sorted(seen) == list(range(c.rank))
    assert len(td.blocks) == len(set(gradings))
    assert [[row.get(j, (0,))[0] for j in range(c.rank)] for row in p.rows] == dense
    return dense


def test_transition_identity_for_trefoil():
    c = trefoil()
    td = simplified_transition(c)
    assert _check_blocks(c, td) == Matrix.identity(3, 2).to_lists()
    for members, block, inverse in td.blocks:
        assert block == inverse == Matrix.identity(len(members), 2)


def test_transition_scale_for_figure_eight():
    c = figure_eight()
    td = simplified_transition(c)
    assert _check_blocks(c, td) == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 2, 0],
        [0, 0, 0, 0, 1],
    ]
    # the 2 sits in the block of bigrading (0, 0), and 2 is its own inverse mod 3
    diag = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]], 3)
    assert [b for b in td.blocks if 3 in b[0]] == [((0, 3, 4), diag, diag)]


def test_transition_eliminates_variable_entries():
    # the v_case x-change has V entries, so the y-basis must be adjusted
    for c in (v_case(), u_case(), direct_sum([v_case(), u_case()])):
        td = simplified_transition(c)
        assert matching_violations(td.x_basis) == []
        assert matching_violations(td.y_basis) == []
        assert replay(c, td.x_basis) == td.x_basis.arrows
        assert replay(c, td.y_basis) == td.y_basis.arrows


def test_transition_rank_zero():
    td = simplified_transition(empty_complex(RING_R1, 2))
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
