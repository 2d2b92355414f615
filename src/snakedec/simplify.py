"""Simplified bases for the two single-variable quotients of a complex.

A vertically simplified basis makes the differential of C/U a partial
matching: every basis element either emits exactly one vertical arrow
d(x_i) = V^a x_j, or is closed and receives at most one such arrow.
A horizontally simplified basis does the same for C/V and powers of U.
Both always exist; a basis doing both jobs at once generally does not.

The two bases are produced by graded Gaussian elimination on the sparse
rows of each quotient differential, pivoting on the shortest arrow
first, with the pivots taken from a heap that is refreshed from the rows
each step wrote.  Every entry point checks and converts its input by one
``_checked_rows``, so all refuse alike; ``simplified_transition``, which
``twostory.build`` calls, does it once for both quotients.  Elimination
keeps the input's generator order, so position i of either basis sits in
the input generator i's bigrading.
``normalize_transition`` then factors the scalar transition S between
them, X_0 = S Y_0, one bigrading block at a time, and hands both bases on
as given.  The exactly scalar bases X + S Y_U and Y + S^-1 X_V exist (the
test oracle ``transition_by_ring_inverse`` builds them), but the engine
reads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .complexes import (
    BasisChange,
    Complex,
    Elimination,
    Generator,
    Monomial,
    RING_R1,
    _mul_rows,
    differential_rows,
    quotient_rows,
)
from .errors import InvariantViolation, Singular, ValidationError

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
    quotient : list of dict
        The sparse rows of the input's differential modulo U (vertical) or
        V (horizontal) that the basis was found on.
    """

    direction: str
    generators: tuple[Generator, ...]
    arrows: tuple[tuple[int, int, int], ...]
    change: BasisChange
    quotient: list


@dataclass(frozen=True)
class TransitionData:
    """Aligned simplified bases with a scalar transition, one block per
    bigrading.

    x_basis[i] and y_basis[i] sit in the same bigrading, and the bases are
    those ``normalize_transition`` was handed.  Their scalar parts satisfy
    X_0 = S Y_0 with S over the ground field; S is homogeneous, so it is
    block-diagonal.  ``blocks`` holds one ``(members, factors)`` pair per
    bigrading, ascending: ``members`` is the ascending tuple of the
    positions in that bigrading, and ``factors`` is ``gf.ltu_factorize`` of
    S restricted to them (row and column k stand for position members[k]),
    the shaft normal form the ``TwoStoryComplex`` constructor installs.  An
    identity block carries ([], {}, (0, ..., w - 1), []), written down
    without factoring.  The constructor verifies what it is handed.
    """

    x_basis: SimplifiedBasis
    y_basis: SimplifiedBasis
    blocks: tuple[tuple[tuple[int, ...], tuple[list, dict, tuple, list]], ...]


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


def _checked_rows(c: Complex) -> list:
    """The differential of c as sparse rows, after every simplifier's one
    input check: a term off bidegree (-1, -1) raises GradingViolation
    (``differential_rows``); a ring other than R1, d^2 != 0 or a term of
    length zero raise ValidationError."""
    if c.ring != RING_R1:
        raise ValidationError("simplification works over the modulo-UV ring: reduce_mod_uv first")
    d = differential_rows(c)
    gens, p = c.generators, c.char
    for s, row in enumerate(_mul_rows(d, d, p)):
        if row:
            t, (x, u, v) = min(row.items())
            term = f"{Monomial(gf.FieldElem(x, p), u, v)} -> {gens[t].id}"
            raise ValidationError(f"not a chain complex: d^2 != 0 at {gens[s].id}: term {term}")
    zero = [(s, t) for s, row in enumerate(d) for t, e in row.items() if e[1:] == (0, 0)]
    if zero:
        ids = " -> ".join(gens[i].id for i in zero[0])
        raise ValidationError(f"strip zero complexes before simplifying: {ids}")
    return d


def _simplify_quotient(c: Complex, d: list, direction: str) -> SimplifiedBasis:
    """Gaussian elimination making the quotient differential a matching:
    d holds the checked rows of the differential, taken here modulo U
    (vertical) or V (horizontal), c only the generators and the field."""
    axis = 2 if direction == VERTICAL else 1  # the exponent that is the length
    quotient = quotient_rows(d, 3 - axis)  # modulo the other variable
    el = Elimination(c.generators, c.char, quotient)
    el.cancel_in_order(lambda e: e[axis])

    prefix = "x" if direction == VERTICAL else "y"
    renamed = tuple([
        Generator(f"{prefix}{i + 1}", g.gr_u, g.gr_v) for i, g in enumerate(c.generators)
    ])
    change = BasisChange.from_rows(c.char, c.generators, renamed, el.rows)
    arrows = tuple(sorted((i, j, e[axis]) for i, row in enumerate(el.d) for j, e in row.items()))
    sb = SimplifiedBasis(direction, renamed, arrows, change, quotient)
    bad = matching_violations(sb)
    if bad:
        raise ValidationError(f"not a chain complex: {bad[0]}")
    return sb


def vertical_simplify(c: Complex) -> SimplifiedBasis:
    """A basis making the differential of C/U a partial matching.

    The input must be a bigraded chain complex over the modulo-UV ring
    without length-zero arrows; ``_checked_rows`` refuses any other, with
    the same error and text as ``simplified_transition`` and
    ``twostory.build``, before any step.
    """
    return _simplify_quotient(c, _checked_rows(c), VERTICAL)


def horizontal_simplify(c: Complex) -> SimplifiedBasis:
    """A basis making the differential of C/V a partial matching.

    Same input requirements as vertical_simplify.
    """
    return _simplify_quotient(c, _checked_rows(c), HORIZONTAL)


def _unit_scalar_part(row: dict, i: int) -> bool:
    """Whether the scalar entries of a sparse row are exactly e_i."""
    if row.get(i) != (1, 0, 0):
        return False
    if len(row) > 1:
        for j, e in row.items():
            if j != i and not e[1] and not e[2]:
                return False
    return True


def normalize_transition(
    c: Complex, xb: SimplifiedBasis, yb: SimplifiedBasis
) -> TransitionData:
    """Factor the scalar transition between two aligned simplified bases.

    Split each basis into scalar, U and V parts, X = X_0 + X_U + X_V.  The
    transition P = X Y^{-1} has scalar part S with X_0 = S Y_0, and S is
    homogeneous, hence block-diagonal by bigrading.  A block where the
    scalar parts of X and Y are both e_i on every member i is the
    identity; any other gets S_g from one Gauss-Jordan pass on
    [Y_0^T | X_0^T] and one ``gf.ltu_factorize``.  No ring inverse and no
    dense inverse is formed, and the bases are handed on as given: the
    engine reads X modulo U, Y modulo V and X_0 = S Y_0, never P's U and V
    entries.  Bases not found on c's generators or not aligned by
    bigrading raise ValidationError, a scalar entry joining two bigradings
    InvariantViolation, and a singular scalar part Singular naming its
    bigrading; a block with either is not the identity, so the identity
    scan skips no check.  The constructor's ``verify`` checks S and its
    factors.
    """
    if xb.change.old_gens != c.generators or yb.change.old_gens != c.generators:
        raise ValidationError("bases are not aligned with the complex's generators")
    x_gens, y_gens = xb.generators, yb.generators
    if len(x_gens) != len(y_gens):
        raise ValidationError("bases are not aligned by bigrading")
    slots: dict = {}
    for i, (gx, gy) in enumerate(zip(x_gens, y_gens)):
        if gx.gr_u != gy.gr_u or gx.gr_v != gy.gr_v:
            raise ValidationError("bases are not aligned by bigrading")
        slots.setdefault((gx.gr_u, gx.gr_v), []).append(i)
    x_rows, y_rows, p = xb.change.rows, yb.change.rows, c.char
    blocks = []
    for grading in sorted(slots):
        members = tuple(slots[grading])
        w = len(members)
        if all(_unit_scalar_part(x_rows[i], i) and _unit_scalar_part(y_rows[i], i) for i in members):
            blocks.append((members, ([], {}, tuple(range(w)), [])))
            continue
        col = {i: k for k, i in enumerate(members)}
        aug = [[0] * (2 * w) for _ in members]  # [Y_0^T | X_0^T]
        for off, rows in ((0, y_rows), (w, x_rows)):
            for k, i in enumerate(members):
                for j, (x, u, v) in rows[i].items():
                    if not u and not v:
                        if j not in col:
                            raise InvariantViolation("transition crosses bigradings")
                        aug[col[j]][off + k] = x
        if not gf.gauss_jordan(aug, w, p):
            raise Singular(f"the y-basis has a singular scalar part at bigrading {grading}")
        s_g = tuple([tuple([aug[j][w + k] for j in range(w)]) for k in range(w)])
        try:
            blocks.append((members, gf.ltu_factorize(gf.Matrix._wrap(s_g, p))))
        except Singular:
            raise Singular(
                f"the x-basis has a singular scalar part at bigrading {grading}"
            ) from None
    return TransitionData(xb, yb, tuple(blocks))


def simplified_transition(c: Complex) -> TransitionData:
    """Check c once, simplify both quotients and factor the transition
    between them; both simplifiers keep the input's order, so the bases
    arrive aligned.  The one path from a complex to its two bases."""
    d = _checked_rows(c)
    xb, yb = _simplify_quotient(c, d, VERTICAL), _simplify_quotient(c, d, HORIZONTAL)
    return normalize_transition(c, xb, yb)
