"""Simplified bases for the two single-variable quotients of a complex.

A vertically simplified basis makes the differential of C/U a partial
matching: every basis element either emits exactly one vertical arrow
d(x_i) = V^a x_j, or is closed and receives at most one such arrow.
A horizontally simplified basis does the same for C/V and powers of U.
Both always exist; a basis doing both jobs at once generally does not.

The two bases are produced by graded Gaussian elimination on the quotient
complexes, pivoting on the shortest arrow first.  Elimination keeps the
input's generator order, so position i of either basis sits in the input
generator i's bigrading.  `normalize_transition` then adjusts them,
without disturbing either quotient structure, so that the transition
matrix between them has all entries in the ground field.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .complexes import (
    BasisChange,
    Complex,
    Elimination,
    Generator,
    RING_R1,
    has_length_zero_arrow,
    quotient_u,
    quotient_v,
)
from .errors import CountMismatch, InvariantViolation, ValidationError

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class SimplifiedBasis:
    """An ordered basis whose quotient differential is a partial matching.

    Attributes
    ----------
    direction : str
        "vertical" for C/U (arrows are powers of V), "horizontal" for C/V.
    generators : tuple of Generator
        The basis, in order; gradings are those of the underlying elements.
    arrows : tuple of (int, int, int)
        One entry (source index, target index, length) per arrow of the
        quotient differential, all with unit coefficient.
    change : BasisChange
        Transforms the basis of the input complex into this basis.
    """

    direction: str
    generators: tuple[Generator, ...]
    arrows: tuple[tuple[int, int, int], ...]
    change: BasisChange


@dataclass(frozen=True)
class TransitionData:
    """Aligned simplified bases with a scalar transition, one block per
    bigrading.

    x_basis[i] and y_basis[i] sit in the same bigrading, and
    x_i = sum_j S[i][j] y_j with S over the ground field.  S is homogeneous,
    so it only joins elements of one bigrading: it is block-diagonal.
    ``blocks`` holds one ``(members, block, inverse)`` triple per bigrading,
    in ascending bigrading order: ``members`` is the ascending tuple of the
    positions in that bigrading, ``block`` is S restricted to them (row and
    column k stand for position members[k]), and ``inverse`` is the
    block's inverse, the transition in the other direction.  A rank-zero
    complex has no blocks.  ``normalize_transition`` returns it unchecked;
    the ``TwoStoryComplex`` built from it verifies its bases and blocks.
    """

    x_basis: SimplifiedBasis
    y_basis: SimplifiedBasis
    blocks: tuple[tuple[tuple[int, ...], gf.Matrix, gf.Matrix], ...]


def matching_violations(sb: SimplifiedBasis) -> list[str]:
    """Clause checks for a simplified basis: return [] if it qualifies."""
    out = []
    sources = {}
    targets = {}
    for i, j, _ in sb.arrows:
        sources[i] = sources.get(i, 0) + 1
        targets[j] = targets.get(j, 0) + 1
    for i, k in sources.items():
        if k > 1:
            out.append(f"index {i} emits {k} arrows")
    for j, k in targets.items():
        if k > 1:
            out.append(f"index {j} receives {k} arrows")
    for i in sources:
        if i in targets:
            out.append(f"index {i} both emits and receives")
    return out


def _simplify_quotient(c: Complex, direction: str) -> SimplifiedBasis:
    """Gaussian elimination making the quotient differential a matching."""
    if c.ring != RING_R1:
        raise ValidationError("simplification works over the modulo-UV ring")
    if has_length_zero_arrow(c):
        raise ValidationError("strip zero complexes before simplifying")
    el = Elimination(quotient_u(c) if direction == VERTICAL else quotient_v(c))
    axis = 2 if direction == VERTICAL else 1  # the exponent that is the length
    retired: set[int] = set()
    while live := el.live(retired):
        _, s, t = min((e[axis], i, j) for i, j, e in live)
        el.cancel(s, t)
        retired.update((s, t))

    prefix = "x" if direction == VERTICAL else "y"
    renamed = tuple([
        Generator(f"{prefix}{i + 1}", g.gr_u, g.gr_v) for i, g in enumerate(c.generators)
    ])
    change = BasisChange.from_rows(c.ring, c.char, c.generators, renamed, el.rows)
    arrows = tuple(sorted((i, j, e[axis]) for i, row in enumerate(el.d) for j, e in row.items()))
    sb = SimplifiedBasis(direction, renamed, arrows, change)
    bad = matching_violations(sb)
    if bad:
        raise ValidationError(f"not a chain complex: {bad[0]}")
    return sb


def vertical_simplify(c: Complex) -> SimplifiedBasis:
    """A basis making the differential of C/U a partial matching.

    The input must be a bigraded chain complex over the modulo-UV ring
    without length-zero arrows.  A term of the quotient that breaks the
    bigrading raises GradingViolation before any step; a step that fails
    to split its arrow off (d^2 != 0) raises ValidationError.
    """
    return _simplify_quotient(c, VERTICAL)


def horizontal_simplify(c: Complex) -> SimplifiedBasis:
    """A basis making the differential of C/V a partial matching.

    Same input requirements as vertical_simplify.
    """
    return _simplify_quotient(c, HORIZONTAL)


def normalize_transition(
    c: Complex, xb: SimplifiedBasis, yb: SimplifiedBasis
) -> TransitionData:
    """Adjust both bases so the transition matrix lives in the ground field.

    The raw transition P' = X Y^{-1} between the aligned bases X and Y
    factors over the modulo-UV ring as (S + P_U) S^{-1} (S + P_V), where S
    is its scalar part: the cross terms P_U S^{-1} P_V die because UV = 0.
    The new bases are X' = S (S + P_U)^{-1} X = (S + P_V) Y, which is X
    moved by the identity modulo U, and Y' = S^{-1} X' = S^{-1} (S + P_V) Y,
    Y moved by the identity modulo V; so both quotient structures are
    untouched and the new transition matrix is S.  Y^{-1} is the one ring
    inverse taken.  S is homogeneous, hence block-diagonal by bigrading; it
    is inverted block by block, and a scalar entry joining two bigradings
    raises InvariantViolation; unaligned bases raise CountMismatch.
    Nothing else is checked here: the ``verify`` ending
    ``TwoStoryComplex(c, td)`` checks that each new basis intertwines its
    quotient differential with the simplified arrows and that
    X'_0 = S_g Y'_0 on every block, which fails exactly when some
    S_g S_g^{-1} != I.
    """
    if len(xb.generators) != len(yb.generators) or any(
        gx.grading != gy.grading for gx, gy in zip(xb.generators, yb.generators)
    ):
        raise CountMismatch("bases are not aligned by bigrading")
    p_raw = xb.change.compose(yb.change.inverse())
    y_gens, x_gens = p_raw.old_gens, p_raw.new_gens
    with_v = [{j: e for j, e in row.items() if not e[1]} for row in p_raw.rows]
    x_change = BasisChange.from_rows(c.ring, c.char, y_gens, x_gens, with_v).compose(yb.change)
    slots: dict = {}
    for i, g in enumerate(x_gens):
        slots.setdefault(g.grading, []).append(i)
    pos = {i: (gr, k) for gr, members in slots.items() for k, i in enumerate(members)}
    blocks = []
    q_rows: list = [{} for _ in range(c.rank)]
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
        s_mat = gf.Matrix._wrap(tuple([tuple(row) for row in rows]), c.char)
        s_inv = s_mat.inverse()
        for i, row in zip(members, s_inv.entries):
            q_rows[i] = {members[k]: (x, 0, 0) for k, x in enumerate(row) if x}
        blocks.append((members, s_mat, s_inv))
    y_change = BasisChange.from_rows(c.ring, c.char, x_gens, y_gens, q_rows).compose(x_change)
    xb2 = SimplifiedBasis(xb.direction, xb.generators, xb.arrows, x_change)
    yb2 = SimplifiedBasis(yb.direction, yb.generators, yb.arrows, y_change)
    return TransitionData(xb2, yb2, tuple(blocks))


def simplified_transition(c: Complex) -> TransitionData:
    """Simplify both quotients and normalize the transition between them;
    both simplifiers keep the input's order, so the bases arrive aligned."""
    return normalize_transition(c, vertical_simplify(c), horizontal_simplify(c))
