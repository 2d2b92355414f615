"""Tests for the bigraded chain complex data model."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snakedec import complexes as cx
from snakedec.complexes import (
    Arrow,
    BasisChange,
    Complex,
    Generator,
    Monomial,
    RING_FUV,
    RING_R1,
    apply_basis_change,
    bar,
    direct_sum,
    infer_gradings,
    mono,
    mono_mul,
    reduce_mod_uv,
    strip_zero_complexes,
    validate,
)
from snakedec.errors import (
    FieldMismatch,
    GradingViolation,
    NotInvertible,
    ValidationError,
)
from snakedec.gf import FieldElem, Matrix


from gen import (
    broken_chain,
    figure_eight,
    frozen,
    interacting,
    mixed_sum,
    random_change as _random_change,
    random_complex as _random_complex,
    quotient_u,
    quotient_v,
    random_messy,
    run_optimized,
    trefoil,
    zero_pair,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_canonicalization_merges_terms():
    gens = (Generator("x", 1, 1), Generator("y", 0, 0))
    a1 = Arrow("x", "y", mono(1, 0, 0, 3))
    a2 = Arrow("x", "y", mono(2, 0, 0, 3))
    c = Complex(RING_R1, 3, gens, (a1, a2))
    assert c.arrows == ()  # 1 + 2 = 0 mod 3
    c2 = Complex(RING_R1, 3, gens, (a1, a1))
    assert c2.arrows == (Arrow("x", "y", mono(2, 0, 0, 3)),)


def test_r1_drops_mixed_monomials():
    gens = (Generator("x", 2, 2), Generator("y", 1, 1))
    diag = Arrow("x", "y", mono(1, 1, 1, 2))
    assert Complex(RING_R1, 2, gens, (diag,)).arrows == ()
    kept = Complex(RING_FUV, 2, gens, (diag,))
    assert kept.arrows == (diag,)


def test_mono_mul_refuses_an_unknown_ring_tag():
    u, v = mono(1, 1, 0, 2), mono(1, 0, 1, 2)
    assert mono_mul(u, v, RING_R1) is None
    assert mono_mul(u, v, RING_FUV) == mono(1, 1, 1, 2)
    assert mono_mul(u, u, RING_R1) == mono(1, 2, 0, 2)
    for tag in ("R1", "", None):
        with pytest.raises(ValidationError, match="unknown ring tag"):
            mono_mul(u, v, tag)
        with pytest.raises(ValidationError, match="unknown ring tag"):
            mono_mul(u, u, tag)


def test_structural_validation():
    with pytest.raises(ValidationError):
        Complex(RING_R1, 2, (Generator("x", 0, 0), Generator("x", 1, 1)), ())
    with pytest.raises(ValidationError):
        Complex(RING_R1, 2, (Generator("x", 0, 0),), (Arrow("x", "zz", mono(1, 0, 0, 2)),))
    with pytest.raises(ValidationError):
        Complex("weird", 2, (), ())
    with pytest.raises(ValidationError):
        Complex(
            RING_R1,
            2,
            (Generator("x", 1, 1), Generator("y", 0, 0)),
            (Arrow("x", "y", mono(1, 0, 0, 3)),),
        )


def test_constructors_refuse_a_characteristic_that_is_not_a_prime_int():
    # 2.0 == 2 and True == 1: the float twin of the arrows' own field must not
    # slip float terms into the complex, nor a bool or a composite through
    t = trefoil()
    one = mono(1, 0, 0, 2)
    ident = tuple(tuple(one if i == j else None for j in range(3)) for i in range(3))
    for char in (2.0, 4, True, 1, "2"):
        with pytest.raises(ValueError, match="not prime"):
            Complex(RING_R1, char, t.generators, t.arrows if char == 2 else ())
        with pytest.raises(ValueError, match="not prime"):
            BasisChange(RING_R1, char, t.generators, t.generators, ident if char == 2 else ())
        with pytest.raises(ValueError, match="not prime"):
            BasisChange(RING_R1, char, (), (), ())
    assert Complex(RING_R1, 2, t.generators, t.arrows) == t
    assert BasisChange(RING_R1, 2, t.generators, t.generators, ident) == BasisChange.identity(t)


def test_a_coefficient_or_exponent_that_is_not_an_int_is_refused():
    # a float coefficient used to reach the terms and fail in build's pow(),
    # a float exponent to give a float grading
    for args in ((1.0, 0, 1), (1, 1.0, 0), (1, 0, 1.0), (1, "1", 0), (1, 0, None)):
        with pytest.raises(ValueError, match="not an int"):
            mono(*args, 2)
    with pytest.raises(ValueError, match="not an int"):
        Monomial(FieldElem(1, 2), 1.0, 0)
    # a bare coefficient used to raise AttributeError on the missing .value
    for coeff in (1, 1.0, None):
        with pytest.raises(ValueError, match="not a FieldElem"):
            Monomial(coeff, 0, 1)
    with pytest.raises(ValueError, match="nonzero coefficients only"):
        Monomial(FieldElem(0, 2), 0, 1)
    with pytest.raises(ValueError, match="negative exponent"):
        mono(1, 0, -1, 2)
    assert mono(3, 1, 0, 2) == Monomial(FieldElem(1, 2), 1, 0)


def test_a_bool_exponent_is_refused():
    # True == 1, so mono(1, True, False, 2) used to build a complex equal to
    # mono(1, 1, 0, 2)'s whose canonical text printed "1 True False"
    for args in ((1, True, False), (1, 1, False), (1, True, 0)):
        with pytest.raises(ValueError, match="not an int"):
            mono(*args, 2)
    with pytest.raises(ValueError, match="not an int"):
        Monomial(FieldElem(1, 2), 0, True)
    assert mono(1, 1, 0, 2).u_exp == 1


def test_a_string_grading_is_refused_at_construction():
    # it used to be accepted, and build then died with TypeError
    with pytest.raises(ValidationError, match="not a Generator with int gradings"):
        Complex(RING_R1, 2, (Generator("a", "0", 0),), ())


def test_a_grading_that_is_a_float_or_a_bool_is_refused():
    # the gradings are in Z + Z; 1.5 used to be stripped without complaint
    for gr in ((1.5, 0), (0, 1.5), (True, 0), (0, False)):
        with pytest.raises(ValidationError, match="not a Generator with int gradings"):
            Complex(RING_R1, 2, (Generator("a", *gr),), ())
    with pytest.raises(ValidationError, match="not a Generator with int gradings"):
        Complex(RING_R1, 2, (("a", 0, 0),), ())


def test_an_arrow_that_is_a_plain_tuple_is_refused():
    # it used to raise AttributeError on the missing .src
    gens = (Generator("x", 1, 1), Generator("y", 0, 0))
    one = mono(1, 0, 0, 2)
    for arrow in (("x", "y", one), Arrow("x", "y", (1, 0, 0)), Arrow("x", "y", 1)):
        with pytest.raises(ValidationError, match="is not an Arrow with a Monomial"):
            Complex(RING_R1, 2, gens, (arrow,))
    assert Complex(RING_R1, 2, gens, (Arrow("x", "y", one),)).terms == ((0, 1, 0, 0, 1),)


def test_a_basis_change_entry_that_is_no_monomial_is_refused():
    # an int entry used to raise AttributeError on the missing .coeff
    g = (Generator("a", 0, 0),)
    for entry in (1, FieldElem(1, 2), (1, 0, 0)):
        with pytest.raises(ValidationError, match="is no Monomial or None"):
            BasisChange(RING_R1, 2, g, g, ((entry,),))
    assert BasisChange(RING_R1, 2, g, g, ((mono(1, 0, 0, 2),),)).rows == ({0: (1, 0, 0)},)
    g2, one = (Generator("a", 0, 0), Generator("b", 0, 0)), mono(1, 0, 0, 2)
    for new, entries in ((g, ((one, None), (None, one))), (g2, ((one, None),))):
        with pytest.raises(ValidationError, match="must be square"):
            BasisChange(RING_R1, 2, g2, new, entries)
    with pytest.raises(ValidationError, match="ragged"):
        BasisChange(RING_R1, 2, g2, g2, ((one, None), (one,)))
    with pytest.raises(FieldMismatch, match="outside F_2"):
        BasisChange(RING_R1, 2, g, g, ((mono(1, 0, 0, 3),),))


def test_a_basis_change_refuses_what_a_complex_refuses():
    # "R1" used to run as F[U,V], since compose tests ring == RING_R1, and a
    # bare id as a generator used to die in inverse() with AttributeError
    g = (Generator("a", 0, 0),)
    one = ((mono(1, 0, 0, 2),),)
    with pytest.raises(ValidationError, match="unknown ring tag 'R1'"):
        BasisChange("R1", 2, g, g, one)
    for old, new in ((("a",), g), (g, ("a",)), (("a",), ("a",))):
        with pytest.raises(ValidationError, match="not a Generator with int gradings"):
            BasisChange(RING_R1, 2, old, new, one)
    with pytest.raises(ValidationError, match="generator id 1 is not a str"):
        BasisChange(RING_R1, 2, (Generator(1, 0, 0),), g, one)
    # the row arithmetic is over R1 only: an F[U,V] change used to be
    # inverted and composed with a second rule that kept mixed monomials
    with pytest.raises(ValidationError, match="reduce_mod_uv"):
        BasisChange(RING_FUV, 2, g, g, one)
    # a change onto (a, b, b) used to give a complex with two generators b
    # and an arrow b -> b, which Complex refuses and direct_sum relabelled
    # as b@0 twice; the old and the new basis may share ids, as the
    # identity does
    t = trefoil()
    a, b, c = t.generators
    dup = (a, b, Generator("b", c.gr_u, c.gr_v))
    ident = tuple(tuple(mono(1, 0, 0, 2) if i == j else None for j in range(3)) for i in range(3))
    for old, new in ((t.generators, dup), (dup, t.generators)):
        with pytest.raises(ValidationError, match="duplicate generator id 'b'"):
            BasisChange(RING_R1, 2, old, new, ident)
    assert BasisChange(RING_R1, 2, t.generators, t.generators, ident) == BasisChange.identity(t)
    # from_rows wraps what it is handed, unchecked
    rows = ({0: (1, 0, 0)},)
    assert BasisChange.from_rows("R1", 2, g, g, rows).ring == "R1"
    assert BasisChange.from_rows(RING_FUV, 2, g, g, rows).ring == RING_FUV
    assert BasisChange(RING_R1, 2, g, g, one) == BasisChange.from_rows(RING_R1, 2, g, g, rows)


def test_a_generator_id_that_is_not_a_str_is_refused():
    # a list id used to raise a bare "TypeError: unhashable type", and 1 and
    # "1" could sit in one complex and print alike in dump and log
    for gid in (["x"], 1, None, ("x",)):
        with pytest.raises(ValidationError, match=r"generator id .* is not a str"):
            Complex(RING_R1, 2, (Generator(gid, 0, 0), Generator("1", 0, 0)), ())
    assert Complex(RING_R1, 2, (Generator("1", 0, 0),), ()).rank == 1


def test_validate_trefoil_ok():
    assert validate(trefoil()) == []


def test_validate_figure_eight_ok():
    assert validate(figure_eight()) == []
    assert validate(figure_eight(RING_FUV)) == []  # 3 UV e = 0 mod 3 already


def test_validate_catches_dsquared():
    gens = (Generator("a", 2, 2), Generator("b", 1, 1), Generator("c", 0, 0))
    arrows = (Arrow("a", "b", mono(1, 0, 0, 2)), Arrow("b", "c", mono(1, 0, 0, 2)))
    out = validate(Complex(RING_R1, 2, gens, arrows))
    assert any("d^2 != 0 at a" in v for v in out)


def test_validate_catches_bad_bidegree():
    gens = (Generator("a", 0, 0), Generator("b", 0, 0))
    c = Complex(RING_R1, 2, gens, (Arrow("a", "b", mono(1, 1, 0, 2)),))
    out = validate(c)
    assert len(out) == 1 and "bidegree" in out[0]


# ---------------------------------------------------------------------------
# quotients and reduction


def test_reduce_mod_uv():
    gens = (Generator("x", 0, 0), Generator("y", 1, 1), Generator("z", 1, -1))
    diag = Arrow("x", "y", mono(1, 1, 1, 2))
    vert = Arrow("x", "z", mono(1, 1, 0, 2))
    c = Complex(RING_FUV, 2, gens, (diag, vert))
    r = reduce_mod_uv(c)
    assert r.ring == RING_R1 and r.arrows == (vert,)
    # no diagonal terms: same generators and arrows survive
    c2 = Complex(RING_FUV, 2, trefoil().generators, trefoil().arrows)
    r2 = reduce_mod_uv(c2)
    assert (r2.generators, r2.arrows) == (c2.generators, c2.arrows)


def test_reduce_mod_uv_rejects_r1():
    with pytest.raises(ValidationError, match="over R1"):
        reduce_mod_uv(trefoil())


def test_reduce_mod_uv_rejects_non_complex():
    c = broken_chain("V")
    with pytest.raises(ValidationError, match="not a chain complex"):
        reduce_mod_uv(Complex(RING_FUV, c.char, c.generators, c.arrows))


def test_quotients():
    t = trefoil()
    qu = quotient_u(t)
    assert qu.arrows == (Arrow("c", "b", mono(1, 0, 1, 2)),)
    qv = quotient_v(t)
    assert qv.arrows == (Arrow("a", "b", mono(1, 1, 0, 2)),)
    z = zero_pair()
    assert quotient_u(z).arrows == z.arrows  # length-0 arrows survive
    only_vertical = quotient_u(t)
    assert quotient_u(only_vertical).arrows == only_vertical.arrows
    # the sparse rows the pipeline runs on drop the same terms
    for c in (t, z, random_messy(3, max_rank=14)):
        d = cx.differential_rows(c)
        assert cx.quotient_rows(d, 1) == cx.differential_rows(quotient_u(c))
        assert cx.quotient_rows(d, 2) == cx.differential_rows(quotient_v(c))


# ---------------------------------------------------------------------------
# basis changes


def test_apply_identity_change():
    t = trefoil()
    assert apply_basis_change(t, BasisChange.identity(t)) == t


def test_apply_simple_merge_change():
    # x |-> x + w cancels the two unit arrows into y over F_2
    c = interacting()
    one = FieldElem(1, 2)
    rows = [
        [Monomial(one, 0, 0), None, Monomial(one, 0, 0)],
        [None, Monomial(one, 0, 0), None],
        [None, None, Monomial(one, 0, 0)],
    ]
    b = BasisChange(RING_R1, 2, c.generators, c.generators, tuple(tuple(r) for r in rows))
    moved = apply_basis_change(c, b)
    assert validate(moved) == []
    assert moved.arrows == (Arrow("w", "y", mono(1, 0, 0, 2)),)
    # moving back restores the original complex
    assert apply_basis_change(moved, b.inverse()) == c


def test_change_rejects_bad_grading():
    t = trefoil()
    one = FieldElem(1, 2)
    rows = [
        [Monomial(one, 0, 0), Monomial(one, 0, 0), None],  # a <- b is not graded
        [None, Monomial(one, 0, 0), None],
        [None, None, Monomial(one, 0, 0)],
    ]
    b = BasisChange(RING_R1, 2, t.generators, t.generators, tuple(tuple(r) for r in rows))
    with pytest.raises(GradingViolation):
        apply_basis_change(t, b)
    # x0 <- UV x1 fits the bigrading, but UV is zero in R1
    gens = (Generator("x0", 0, 0), Generator("x1", 2, 2))
    one = mono(1, 0, 0, 2)
    mixed = BasisChange(RING_R1, 2, gens, gens, ((one, mono(1, 1, 1, 2)), (None, one)))
    with pytest.raises(GradingViolation, match="zero in R1"):
        mixed.inverse()


def test_change_rejects_singular():
    # x and w both map to w: homogeneous but singular
    c = interacting()
    one = FieldElem(1, 2)
    rows = [
        [None, None, Monomial(one, 0, 0)],
        [None, Monomial(one, 0, 0), None],
        [None, None, Monomial(one, 0, 0)],
    ]
    b = BasisChange(RING_R1, 2, c.generators, c.generators, tuple(tuple(r) for r in rows))
    with pytest.raises(NotInvertible):
        apply_basis_change(c, b)


def test_change_rejects_wrong_basis():
    t = trefoil()
    other = figure_eight()
    with pytest.raises(FieldMismatch):
        apply_basis_change(t, BasisChange.identity(other))
    renamed = cx._relabel(t, {"a": "A"})
    with pytest.raises(GradingViolation):
        apply_basis_change(t, BasisChange.identity(renamed))


def test_apply_basis_change_refuses_fuv():
    # the products run over R1, so on d(x) = UV y + U z over F[U,V] even the
    # identity change would lose the mixed term UV y
    gens = (Generator("x", 0, 0), Generator("y", 1, 1), Generator("z", 1, -1))
    arrows = (Arrow("x", "y", mono(1, 1, 1, 2)), Arrow("x", "z", mono(1, 1, 0, 2)))
    c = Complex(RING_FUV, 2, gens, arrows)
    with pytest.raises(ValidationError, match="reduce_mod_uv"):
        apply_basis_change(c, BasisChange.identity(c))
    r = reduce_mod_uv(c)
    assert apply_basis_change(r, BasisChange.identity(r)) == r


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_changes_preserve_validity(seed):
    c = _random_complex(seed)
    assert validate(c) == []
    b = _random_change(c, seed + 1)
    moved = apply_basis_change(c, b)
    assert validate(moved) == []
    assert any(not (u or v) for _, _, u, v, _ in moved.terms) == any(
        not (u or v) for _, _, u, v, _ in c.terms
    )
    assert apply_basis_change(moved, b.inverse()) == c


@st.composite
def homogeneous_changes(draw):
    """A random homogeneous basis change, and whether its scalar part was
    forced singular by clearing the scalar entries of one row.

    Gradings are even, so U- and V-power entries occur; a mixed U^a V^b
    entry is zero in R1, so none is drawn.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=1, max_value=30))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    singular = draw(st.booleans())
    old = [Generator(f"x{i}", 2 * rng.randrange(3), 2 * rng.randrange(3)) for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    new = [Generator(f"y{i}", *old[perm[i]].grading) for i in range(n)]
    density = rng.choice([0.1, 0.3, 0.6])
    dead = rng.randrange(n) if singular else None
    rows = []
    for i, gi in enumerate(new):
        row = []
        for j, gj in enumerate(old):
            u, v = (gj.gr_u - gi.gr_u) // 2, (gj.gr_v - gi.gr_v) // 2
            legal = u >= 0 and v >= 0 and not (u and v)
            if i == dead and u == v == 0:
                legal = False
            hit = j == perm[i] or rng.random() < density
            row.append(mono(rng.randrange(1, p), u, v, p) if legal and hit else None)
        rows.append(tuple(row))
    return BasisChange(RING_R1, p, tuple(old), tuple(new), tuple(rows)), singular


@given(homogeneous_changes())
@settings(max_examples=80, deadline=None)
def test_inverse_is_two_sided(case):
    b, forced_singular = case
    n, p = len(b.old_gens), b.char
    scalar = [[0] * n for _ in range(n)]
    for i, row in enumerate(b.rows):
        for j, (c, u, v) in row.items():
            if not (u or v):
                scalar[i][j] = c
    if not Matrix.from_rows(scalar, p).is_invertible():
        with pytest.raises(NotInvertible):
            b.inverse()
        return
    assert not forced_singular
    ident = tuple({i: (1, 0, 0)} for i in range(n))
    inv = b.inverse()
    assert (inv.old_gens, inv.new_gens) == (b.new_gens, b.old_gens)
    assert inv.compose(b).rows == ident
    assert b.compose(inv).rows == ident


def test_compose_rejects_two_monomial_cell():
    # x0 + x1 followed by x1 -> U x0 puts 1 + U into one cell: not homogeneous
    gens = (Generator("x0", 0, 0), Generator("x1", 0, 0))
    one = mono(1, 0, 0, 2)
    first = BasisChange(RING_R1, 2, gens, gens, ((one, None), (mono(1, 1, 0, 2), None)))
    then = BasisChange(RING_R1, 2, gens, gens, ((one, one), (None, one)))
    with pytest.raises(GradingViolation):
        then.compose(first)


def test_compose_refuses_another_field_or_ring_and_misaligned_bases():
    # a change over F_2 after one over F_3 used to store 1 * 2 mod 2, a
    # zero coefficient, in a sparse row
    g = (Generator("a", 0, 0),)
    b2 = BasisChange(RING_R1, 2, g, g, ((mono(1, 0, 0, 2),),))
    b3 = BasisChange(RING_R1, 3, g, g, ((mono(2, 0, 0, 3),),))
    fuv = BasisChange.from_rows(RING_FUV, 2, g, g, b2.rows)
    for then, first in ((b2, b3), (b3, b2), (b2, fuv)):
        with pytest.raises(FieldMismatch):
            then.compose(first)
    h = (Generator("h", 0, 0),)
    with pytest.raises(ValidationError, match="do not line up"):
        b2.compose(BasisChange(RING_R1, 2, g, h, ((mono(1, 0, 0, 2),),)))
    assert b2.compose(b2) == b2


def test_elimination_touches_every_row_it_writes():
    """Random steps write only touched rows, and ``column`` reads every
    column as a scan of D would, in the same order."""
    rng = random.Random(0)
    changed_any = 0
    for seed in range(10):
        c = random_messy(seed, max_rank=24)
        gens, p = c.generators, c.char
        el = cx.Elimination(gens, p, cx.differential_rows(c))
        retired = set()
        for _ in range(60):
            before = [dict(row) for row in el.d]
            el.touched.clear()
            scalars = [
                (s, t)
                for s, row in enumerate(el.d) if s not in retired
                for t, e in row.items() if t not in retired and e[1:] == (0, 0)
            ]
            roll = rng.random()
            if roll < 0.2 and scalars:
                el.cancel(*min(scalars))
                retired.update(min(scalars))
            elif roll < 0.4:
                el.scale(rng.randrange(c.rank), rng.randrange(1, p))
            else:
                r, k = rng.randrange(c.rank), rng.randrange(1, 3)
                u, v = rng.choice([(0, 0), (k, 0), (0, k)])
                givers = [
                    g for g in range(c.rank)
                    if g != r and gens[g].grading == (gens[r].gr_u + 2 * u, gens[r].gr_v + 2 * v)
                ]
                if givers:
                    el.add(r, rng.choice(givers), (rng.randrange(1, p), u, v))
            changed = {i for i, (old, new) in enumerate(zip(before, el.d)) if old != new}
            assert changed <= el.touched
            changed_any += len(changed)
            for j in range(c.rank):  # the column index against a scan of D
                assert el.column(j) == [(i, row[j]) for i, row in enumerate(el.d) if j in row]
    assert changed_any


def test_elimination_rejects_zero_scale():
    c = figure_eight()  # over F_3
    el = cx.Elimination(c.generators, c.char, cx.differential_rows(c))
    for c in (0, 3):
        with pytest.raises(ValueError, match="scaled by zero"):
            el.scale(0, c)
    assert el.rows[0] == {0: (1, 0, 0)}


# ---------------------------------------------------------------------------
# bar involution


def test_bar_involution_and_swap():
    for c in (trefoil(), figure_eight()):
        bb = bar(c)
        assert bar(bb) == c
        assert sorted((g.gr_v, g.gr_u) for g in bb.generators) == sorted(
            (g.gr_u, g.gr_v) for g in c.generators
        )
        assert validate(bb) == []
    t = bar(trefoil())
    assert [a for a in t.arrows if a.src == "a"] == [Arrow("a", "b", mono(1, 0, 1, 2))]


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_single_is_identity():
    t = trefoil()
    assert direct_sum([t]) == t
    with pytest.raises(ValidationError, match="none given"):
        direct_sum([])


def test_direct_sum_of_zero_pairs():
    s = direct_sum([zero_pair(), zero_pair()])
    assert s.rank == 4
    assert sum(1 for a in s.arrows if not (a.mono.u_exp or a.mono.v_exp)) == 2
    ids = [g.id for g in s.generators]
    assert len(set(ids)) == 4 and "x@1" in ids


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum([trefoil(char=2), figure_eight()])
    with pytest.raises(FieldMismatch):
        direct_sum([figure_eight(RING_R1), figure_eight(RING_FUV)])


def test_direct_sum_empty_component():
    t = trefoil()
    assert direct_sum([t, Complex(RING_R1, 2, (), ())]) == t


# ---------------------------------------------------------------------------
# zero complex stripping


def test_strip_nothing():
    t = trefoil()
    d, k, b = strip_zero_complexes(t)
    assert (d, k) == (t, 0)
    assert b == BasisChange.identity(t)


def test_strip_single_pair():
    for lam in (1, 2):
        z = zero_pair(char=3, lam=lam)
        d, k, b = strip_zero_complexes(z)
        assert d.rank == 0 and k == 1
        moved = apply_basis_change(z, b)
        assert moved.arrows == (Arrow("x", "y", mono(1, 0, 0, 3)),)


def test_strip_interacting_pairs():
    gens = (
        Generator("x", 1, 1),
        Generator("y", 0, 0),
        Generator("w", 1, 1),
    )
    arrows = (Arrow("x", "y", mono(1, 0, 0, 2)), Arrow("w", "y", mono(1, 0, 0, 2)))
    c = Complex(RING_R1, 2, gens, arrows)
    d, k, b = strip_zero_complexes(c)
    assert k == 1 and d.rank == 1 and d.arrows == ()
    assert d.generators[0].id == "w"


def test_strip_reassembles_exactly():
    inputs = [_random_complex(seed) for seed in range(25)]
    inputs += [random_messy(seed, max_rank=24) for seed in range(40)]
    for c in inputs:
        d, k, b = strip_zero_complexes(c)
        assert all(u or v for _, _, u, v, _ in d.terms)
        assert d.rank == c.rank - 2 * k
        moved = apply_basis_change(c, b)
        pair_gens = moved.generators[d.rank :]
        expect_arrows = list(d.arrows)
        one = FieldElem(1, c.char)
        for s, t in zip(pair_gens[0::2], pair_gens[1::2]):
            expect_arrows.append(Arrow(s.id, t.id, Monomial(one, 0, 0)))
        expect = Complex(c.ring, c.char, moved.generators, tuple(expect_arrows))
        assert moved == expect


def test_strip_splits_off_the_zero_pairs_the_benchmark_generator_drew():
    # the benchmark's sums population, whose check compares the two counts
    for seed in range(100):
        c, zero_parts = frozen.random_complex(seed, max_parts=12)
        assert strip_zero_complexes(c)[1] == zero_parts


def test_strip_rejects_non_complex():
    # a -> b splits off as a zero pair, but b -> c is left hanging on it
    with pytest.raises(ValidationError, match="not a chain complex"):
        strip_zero_complexes(broken_chain())
    out = run_optimized(
        "import sys",
        "from gen import broken_chain",
        "from snakedec.complexes import strip_zero_complexes",
        "from snakedec.errors import ValidationError",
        "try:",
        "    print('returned', strip_zero_complexes(broken_chain())[1])",
        "except ValidationError as exc:",
        "    print('raised', sys.flags.optimize, exc)",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised 1 not a chain complex"), out.stdout


def test_strip_refuses_fuv():
    # it used to eliminate over F[U,V], with a second rule for mixed terms
    for c in (zero_pair(), trefoil()):
        with pytest.raises(ValidationError, match="reduce_mod_uv"):
            strip_zero_complexes(Complex(RING_FUV, c.char, c.generators, c.arrows))


def test_strip_rejects_unbigraded_input():
    # the zero pair a -> b is fine, but x -> y (U) would need y at (1, -1)
    gens = (
        Generator("a", 0, 0), Generator("b", -1, -1), Generator("x", 0, 0), Generator("y", 3, -1)
    )
    arrows = (Arrow("a", "b", mono(1, 0, 0, 2)), Arrow("x", "y", mono(1, 1, 0, 2)))
    c = Complex(RING_R1, 2, gens, arrows)
    assert validate(c)
    with pytest.raises(GradingViolation, match="breaks the bigrading"):
        strip_zero_complexes(c)


# ---------------------------------------------------------------------------
# int terms and the arrows view


def _sweep_inputs():
    yield from (random_messy(seed, max_rank=24) for seed in range(40))
    yield from (_random_complex(seed, max_parts=12) for seed in range(40))
    yield mixed_sum(0, 10)


def _check_canonical(c):
    """The arrows view rebuilds c through the public constructor, and reads
    sorted by generator order, with no zero or ring-zero term."""
    again = Complex(c.ring, c.char, c.generators, c.arrows)
    assert again == c and hash(again) == hash(c)
    index = {g.id: k for k, g in enumerate(c.generators)}
    keys = [(index[a.src], index[a.tgt], a.mono.u_exp, a.mono.v_exp) for a in c.arrows]
    assert keys == sorted(set(keys))
    assert [(*key, a.mono.coeff.value) for key, a in zip(keys, c.arrows)] == list(c.terms)
    assert all(0 < x < c.char for *_, x in c.terms)
    if c.ring == RING_R1:
        assert not any(u and v for _, _, u, v, _ in c.terms)


def test_terms_are_canonical_on_the_sweeps():
    for x in _sweep_inputs():
        d, _, _ = strip_zero_complexes(x)
        for c in (x, d, bar(x)):
            _check_canonical(c)
        assert bar(bar(x)) == x


def test_two_terms_in_one_cell_are_both_kept():
    # x -> y by U and by V: not homogeneous, so one of them must be reported
    gens = (Generator("x", 0, 0), Generator("y", 1, -1))
    arrows = (Arrow("x", "y", mono(1, 0, 1, 2)), Arrow("x", "y", mono(1, 1, 0, 2)))
    c = Complex(RING_R1, 2, gens, arrows)
    assert c.terms == ((0, 1, 0, 1, 1), (0, 1, 1, 0, 1)) and c.arrows == arrows
    with pytest.raises(GradingViolation, match=r"x -> y \(V\) breaks the bigrading"):
        cx.differential_rows(c)
    # apply_basis_change runs on the same rows, so it names the same term
    # rather than moving a complex that is not bigraded
    with pytest.raises(GradingViolation, match=r"x -> y \(V\) breaks the bigrading"):
        apply_basis_change(c, BasisChange.identity(c))


def test_quotient_row_shares_a_row_with_nothing_to_drop():
    row = {0: (1, 0, 0), 1: (1, 0, 2)}
    assert cx.quotient_row(row, 1) is row
    assert cx.quotient_row(row, 2) == {0: (1, 0, 0)}
    assert row == {0: (1, 0, 0), 1: (1, 0, 2)}
    d = [row, {2: (1, 3, 0)}]
    assert cx.quotient_rows(d, 1) == [row, {}] and cx.quotient_rows(d, 1)[0] is row


# ---------------------------------------------------------------------------
# grading inference


def test_infer_gradings_trefoil():
    grs = infer_gradings(
        ["a", "b", "c"],
        [("a", "b", 1, 0), ("c", "b", 0, 1)],
        {"b": (1, 1)},
    )
    assert grs == {"a": (0, 2), "b": (1, 1), "c": (2, 0)}


def test_infer_gradings_conflict():
    with pytest.raises(ValidationError):
        infer_gradings(
            ["a", "b"],
            [("a", "b", 1, 0), ("a", "b", 2, 0)],
            {"a": (0, 0)},
        )


def test_infer_gradings_unreachable():
    with pytest.raises(ValidationError):
        infer_gradings(["a", "b"], [], {"a": (0, 0)})
    with pytest.raises(ValidationError):
        infer_gradings(["a"], [], {"zz": (0, 0)})
    with pytest.raises(ValidationError, match="unknown generator"):
        infer_gradings(["a", "b"], [("a", "z", 1, 0)], {"a": (0, 0)})
