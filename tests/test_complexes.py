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
    empty_complex,
    has_length_zero_arrow,
    infer_gradings,
    mono,
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
    interacting,
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


def test_has_length_zero_arrow():
    assert has_length_zero_arrow(zero_pair())
    assert not has_length_zero_arrow(trefoil())


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


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_changes_preserve_validity(seed):
    c = _random_complex(seed)
    assert validate(c) == []
    b = _random_change(c, seed + 1)
    moved = apply_basis_change(c, b)
    assert validate(moved) == []
    assert has_length_zero_arrow(moved) == has_length_zero_arrow(c)
    assert apply_basis_change(moved, b.inverse()) == c


@st.composite
def homogeneous_changes(draw):
    """A random homogeneous basis change, and whether its scalar part was
    forced singular by clearing the scalar entries of one row.

    Gradings are even, so U- and V-power entries occur; over F[U,V] mixed
    U^a V^b entries occur too.
    """
    ring = draw(st.sampled_from([RING_R1, RING_FUV]))
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
            legal = u >= 0 and v >= 0 and not (ring == RING_R1 and u and v)
            if i == dead and u == v == 0:
                legal = False
            hit = j == perm[i] or rng.random() < density
            row.append(mono(rng.randrange(1, p), u, v, p) if legal and hit else None)
        rows.append(tuple(row))
    return BasisChange(ring, p, tuple(old), tuple(new), tuple(rows)), singular


@given(homogeneous_changes())
@settings(max_examples=80, deadline=None)
def test_inverse_is_two_sided(case):
    b, forced_singular = case
    n, p = len(b.old_gens), b.char
    scalar = Matrix.from_rows(
        [[m.coeff.value if m is not None and m.is_scalar() else 0 for m in row] for row in b.entries],
        p,
    )
    if not scalar.is_invertible():
        with pytest.raises(NotInvertible):
            b.inverse()
        return
    assert not forced_singular
    ident = tuple(tuple(mono(1, 0, 0, p) if i == j else None for j in range(n)) for i in range(n))
    inv = b.inverse()
    assert (inv.old_gens, inv.new_gens) == (b.new_gens, b.old_gens)
    assert inv.compose(b).entries == ident
    assert b.compose(inv).entries == ident


def test_compose_rejects_two_monomial_cell():
    # x0 + x1 followed by x1 -> U x0 puts 1 + U into one cell: not homogeneous
    gens = (Generator("x0", 0, 0), Generator("x1", 0, 0))
    one = mono(1, 0, 0, 2)
    first = BasisChange(RING_FUV, 2, gens, gens, ((one, None), (mono(1, 1, 0, 2), None)))
    then = BasisChange(RING_FUV, 2, gens, gens, ((one, one), (None, one)))
    with pytest.raises(GradingViolation):
        then.compose(first)


def _quotient_table(c, k):
    """The arrows of c modulo U (k = 1) or V (k = 2), by cell: length, coeff."""
    idx = c.gen_index()
    out = {}
    for a in c.arrows:
        e = (a.mono.u_exp, a.mono.v_exp)
        if not e[k - 1]:
            out[idx[a.src], idx[a.tgt]] = (e[2 - k], a.mono.coeff.value)
    return out


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from((1, 2)))
@example(seed=189, k=1)  # the changed cell makes a product cell two monomials
@example(seed=574, k=2)
@settings(max_examples=150, deadline=None)
def test_intertwines_checks_one_quotient(seed, k):
    c = _random_complex(seed) if seed % 2 else random_messy(seed, max_rank=14)
    b = _random_change(c, seed + 1, moves=2 * c.rank)
    cells = _quotient_table(apply_basis_change(c, b), k)

    def arrows():
        return [(s, t, length, x) for (s, t), (length, x) in sorted(cells.items())]

    d = cx.quotient_rows(cx.differential_rows(c), k)
    assert cx.intertwines(d, b, arrows(), k)
    # one cell changed: dropped, lengthened, rescaled or added
    rng = random.Random(seed)
    cell = (rng.randrange(c.rank), rng.randrange(c.rank))
    if cell not in cells:
        cells[cell] = (rng.randrange(3), rng.randrange(1, c.char))
    elif rng.random() < 0.3:
        del cells[cell]
    elif c.char == 2 or rng.random() < 0.5:
        cells[cell] = (cells[cell][0] + 1, cells[cell][1])
    else:
        cells[cell] = (cells[cell][0], cells[cell][1] % (c.char - 1) + 1)
    assert not cx.intertwines(d, b, arrows(), k)


def test_elimination_rejects_zero_scale():
    c = figure_eight()  # over F_3
    el = cx.Elimination(c.generators, c.char, c.ring, cx.differential_rows(c))
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
    assert t.terms_from("a") == [Arrow("a", "b", mono(1, 0, 1, 2))]


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_single_is_identity():
    t = trefoil()
    assert direct_sum([t]) == t


def test_direct_sum_of_zero_pairs():
    s = direct_sum([zero_pair(), zero_pair()])
    assert s.rank == 4
    assert sum(1 for a in s.arrows if a.mono.is_scalar()) == 2
    ids = [g.id for g in s.generators]
    assert len(set(ids)) == 4 and "x@1" in ids


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum([trefoil(char=2), figure_eight()])
    with pytest.raises(FieldMismatch):
        direct_sum([figure_eight(RING_R1), figure_eight(RING_FUV)])


def test_direct_sum_empty_component():
    t = trefoil()
    assert direct_sum([t, empty_complex(RING_R1, 2)]) == t


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
        assert not has_length_zero_arrow(d)
        assert d.rank == c.rank - 2 * k
        moved = apply_basis_change(c, b)
        pair_gens = moved.generators[d.rank :]
        expect_arrows = list(d.arrows)
        one = FieldElem(1, c.char)
        for s, t in zip(pair_gens[0::2], pair_gens[1::2]):
            expect_arrows.append(Arrow(s.id, t.id, Monomial(one, 0, 0)))
        expect = Complex(c.ring, c.char, moved.generators, tuple(expect_arrows))
        assert moved == expect


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
