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
`normalize_transition` then adjusts them, without disturbing either
quotient structure, so that the transition matrix between them has all
entries in the ground field.  It works in closed form, one bigrading
block at a time, and takes no ring inverse and no dense inverse: a block
where both bases have identity scalar parts is the identity, at most two
row merges per member and no solve or factorization; every other block is
solved for and factored once, and only its factors are kept: they stand in
for the inverse and are the shaft's normal form.
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
    _scaled,
    add_row_multiple,
    differential_rows,
    quotient_row,
    quotient_rows,
)
from .errors import CountMismatch, InvariantViolation, Singular, ValidationError

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

    x_basis[i] and y_basis[i] sit in the same bigrading, and
    x_i = sum_j S[i][j] y_j with S over the ground field.  S is homogeneous,
    so it only joins elements of one bigrading: it is block-diagonal.
    ``blocks`` holds one ``(members, factors)`` pair per bigrading, in
    ascending bigrading order: ``members`` is the ascending tuple of the
    positions in that bigrading, and ``factors`` is ``gf.ltu_factorize``
    of S restricted to them (row and column k stand for position
    members[k]), the block's shaft normal form, which the
    ``TwoStoryComplex`` constructor installs as it is.  An identity block
    carries the identity's factors ([], {}, (0, ..., w - 1), []), written
    down without factoring.  A rank-zero complex has no blocks.
    ``normalize_transition`` returns it unchecked; the ``TwoStoryComplex``
    built from it verifies its bases and factors.
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
    change = BasisChange.from_rows(RING_R1, c.char, c.generators, renamed, el.rows)
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


def _merge_into(rows: list, held: list, i: int, m: tuple, other: dict, p: int) -> None:
    """rows[i] += m * other, on a copy while rows[i] is still the row that
    ``held`` shares with a BasisChange, which is never mutated."""
    if rows[i] is held[i]:
        rows[i] = dict(rows[i])
    add_row_multiple(rows[i], m, other, p)


def normalize_transition(
    c: Complex, xb: SimplifiedBasis, yb: SimplifiedBasis
) -> TransitionData:
    """Adjust both bases so the transition matrix lives in the ground field.

    Split the aligned bases X and Y into scalar, U and V parts, X = X_0 +
    X_U + X_V.  The raw transition P = X Y^{-1} has scalar part S with
    S Y_0 = X_0, and the adjusted bases are
    X' = X_0 + X_V + S Y_U, which is X moved by the identity modulo U, and
    Y' = Y_0 + Y_U + S^{-1} X_V, Y moved by the identity modulo V; so both
    quotient structures are untouched, and X' = S Y' because UV = 0.  S is
    homogeneous, hence block-diagonal by bigrading, and each block is
    handled alone.  If the scalar parts of X and Y are both e_i on every
    member i, S_g = I and at most two row merges per member,
    X'_i = (X_i mod U) + Y_U,i and Y'_i = (Y_i mod V) + X_V,i, do the
    whole block.  Any other
    block gets S_g from one Gauss-Jordan pass on [Y_0^T | X_0^T], one
    ``gf.ltu_factorize`` of S_g, and S_g^{-1} X_V by the inverse factors as
    row operations (the lower arrows in order, then D P undone, then the
    upper arrows in order).  No ring inverse and no dense inverse is
    formed.  Bases not found on c's generators or not aligned by bigrading
    raise CountMismatch (the returned ones carry their ``quotient`` rows
    on), a scalar entry joining two bigradings InvariantViolation, and a
    singular scalar part Singular naming its bigrading; a block with either
    is not the identity, so the identity case skips no check.

    Each row is read in one pass per block.  The identity test stops at
    the first member whose scalar part is not e_i, rows are taken modulo U
    or V by ``complexes.quotient_row``, and a U or V part is split off and
    merged only when the row holds more than its scalar entry and that
    part is nonempty.  The rows of the input bases are
    shared, never mutated: a row that is neither filtered nor merged into
    goes into the new basis as the same dict, and only a row that is
    gets a copy of its own.

    Nothing else is checked here.  The ``verify`` ending the
    ``TwoStoryComplex`` constructor checks each new basis modulo its own
    variable, which sees X_V and Y_U but neither S Y_U nor S^{-1} X_V, and
    checks X'_0 = B Y'_0 on every block, with B the product of its
    factors; as X'_0 = X_0 and Y'_0 = Y_0, that checks S and its factors.
    """
    if xb.change.old_gens != c.generators or yb.change.old_gens != c.generators:
        raise CountMismatch("bases are not aligned with the complex's generators")
    x_gens, y_gens = xb.generators, yb.generators
    if len(x_gens) != len(y_gens):
        raise CountMismatch("bases are not aligned by bigrading")
    p = c.char
    slots: dict = {}
    for i, (gx, gy) in enumerate(zip(x_gens, y_gens)):
        if gx.gr_u != gy.gr_u or gx.gr_v != gy.gr_v:
            raise CountMismatch("bases are not aligned by bigrading")
        slots.setdefault((gx.gr_u, gx.gr_v), []).append(i)
    x_all, y_all = xb.change.rows, yb.change.rows
    x_rows, y_rows = [None] * len(x_all), [None] * len(y_all)
    blocks = []
    for grading in sorted(slots):
        members = tuple(slots[grading])
        w = len(members)
        identity = True
        for i in members:
            x_rows[i] = xi = quotient_row(x_all[i], 1)
            y_rows[i] = yi = quotient_row(y_all[i], 2)
            if identity and not (_unit_scalar_part(xi, i) and _unit_scalar_part(yi, i)):
                identity = False
        if identity:  # X_0 = Y_0 = I on the block, so S_g = I: at most two merges per member
            for i in members:
                # with one entry, a row is its scalar part e_i: no U or V part
                if len(y_all[i]) > 1:
                    y_u = {j: e for j, e in y_all[i].items() if e[1]}
                    if y_u:
                        _merge_into(x_rows, x_all, i, (1, 0, 0), y_u, p)
                if len(x_all[i]) > 1:
                    x_v = {j: e for j, e in x_all[i].items() if e[2]}
                    if x_v:
                        _merge_into(y_rows, y_all, i, (1, 0, 0), x_v, p)
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
            factors = gf.ltu_factorize(gf.Matrix._wrap(s_g, p))
        except Singular:
            raise Singular(
                f"the x-basis has a singular scalar part at bigrading {grading}"
            ) from None
        lower, dots, up, upper = factors
        y_u = [{j: e for j, e in y_all[i].items() if e[1]} for i in members]
        for i, row in zip(members, s_g):
            for k, f in enumerate(row):
                if f and y_u[k]:
                    _merge_into(x_rows, x_all, i, (f, 0, 0), y_u[k], p)
        x_v = [{j: e for j, e in x_all[i].items() if e[2]} for i in members]
        for r, g, f in lower:
            add_row_multiple(x_v[r], (p - f, 0, 0), x_v[g], p)
        back: list = [None] * w
        for a, q in enumerate(up):
            back[q] = _scaled(x_v[a], pow(dots[a], p - 2, p), p) if a in dots else x_v[a]
        for r, g, f in upper:
            add_row_multiple(back[r], (p - f, 0, 0), back[g], p)
        for i, row in zip(members, back):
            if row:
                _merge_into(y_rows, y_all, i, (1, 0, 0), row, p)
        blocks.append((members, factors))
    x_change = BasisChange.from_rows(RING_R1, p, c.generators, x_gens, x_rows)
    y_change = BasisChange.from_rows(RING_R1, p, c.generators, y_gens, y_rows)
    xb2 = SimplifiedBasis(xb.direction, x_gens, xb.arrows, x_change, xb.quotient)
    yb2 = SimplifiedBasis(yb.direction, y_gens, yb.arrows, y_change, yb.quotient)
    return TransitionData(xb2, yb2, tuple(blocks))


def simplified_transition(c: Complex) -> TransitionData:
    """Check c once, simplify both quotients and normalize the transition
    between them; both simplifiers keep the input's order, so the bases
    arrive aligned.  The one path from a complex to its two bases."""
    d = _checked_rows(c)
    xb, yb = _simplify_quotient(c, d, VERTICAL), _simplify_quotient(c, d, HORIZONTAL)
    return normalize_transition(c, xb, yb)
