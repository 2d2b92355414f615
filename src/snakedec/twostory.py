"""Two-story complexes: graphical calculus for the transition between bases.

A complex over F[U,V]/(UV) carries two simplified bases at once: a bottom
basis whose vertical quotient is a partial matching and a top basis doing
the same for the horizontal quotient.  The pair of floors together with
the scalar transition between the bases is a two-story complex.  Within
each bigrading the transition block is drawn as a bundle of elevator
strands wearing crossings, crossover arrows and black dots; this module
stores that word's normal form per bigrading, traces strand journeys
through the floors, measures how fast neighbouring journeys diverge,
and slides crossover arrows along parallel stretches until every
surviving arrow connects strands that stay parallel forever.

The engine stores no token words.  Each shaft is a ``_ShaftState``, the
normal form read off ``gf.ltu_factorize``: crossover arrows near the
bottom, then black dots, then a permutation, then crossover arrows near
the top.  Tokens (``Crossing``, ``CrossoverArrow``, ``BlackDot``) are
only a printed view of it, regenerated on demand, so equal engine states
print identically; the pure shaft calculus (``apply_local_move``,
``straighten``) works on such views.

Each end of a shaft is named ``BOTTOM`` or ``TOP``, and that one name
picks everything on the end: the floor there, the tier of crossover
arrows next to it (``lower`` at the bottom, ``upper`` at the top) and
the floor a dot or an arrow leaves through.  The ``bar`` symmetry swaps
U with V and the bottom with the top, so each move is one code path
taking an end.  In both tiers an arrow's index rises toward the top.
Only the public surface keeps other words: ``slide_arrow_step`` takes
"down" or "up", and ``log`` labels the bottom floor's steps "x" and the
top floor's "y".

Each floor's state is one ``_Floor`` record: its basis, its arrow
table, the basis change ``build`` started from and the steps logged
since.  Floor arrows carry a coefficient internally (sliding a black dot
out of a shaft rescales a basis element, which taints the adjacent floor
arrows), while the structural views expose only (source, target,
length).  The engine holds all field data as int residues mod p: shaft
arrows and dots, floor coefficients, and the logged steps in
``complexes.Elimination``'s form.  Only the tokens, ``floor_arrows``
and ``log`` box them.

One rule says when the engine checks itself: a public call that creates
or changes a two-story complex ends with exactly one ``verify()``, and a
call that changes nothing verifies nothing.  So the constructor (hence
``build``), a depth pass that ran, ``slide_arrow_step`` and
``remove_diverging_arrow`` each end with it: none returns unchecked state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf
from .complexes import (
    BasisChange,
    Complex,
    Elimination,
    Monomial,
    RING_R1,
    _mul_rows,
    _scaled,
    add_row_multiple,
    differential_rows,
    intertwines,
    quotient_rows,
)
from .errors import (
    BoundExceeded,
    DimensionMismatch,
    FieldMismatch,
    GradingViolation,
    InvariantViolation,
    Parallel,
    PatternMismatch,
    StrandsDiverge,
    ValidationError,
    WrongOrientation,
)
from .simplify import (
    HORIZONTAL,
    SimplifiedBasis,
    TransitionData,
    VERTICAL,
    _simplify_quotient,
    normalize_transition,
)

BOTTOM = "bottom"
TOP = "top"
TOWARD_FLOOR = "toward-floor"
TOWARD_SHAFT = "toward-shaft"


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Crossing:
    """Two elevator strands exchanging positions i and j (1-based)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1 or self.i == self.j:
            raise ValueError("crossing needs two distinct 1-based positions")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class CrossoverArrow:
    """Arrow adding lam times strand i into strand j (1-based positions)."""

    i: int
    j: int
    lam: gf.FieldElem

    def __post_init__(self):
        if self.i < 1 or self.j < 1 or self.i == self.j:
            raise ValueError("crossover arrow needs two distinct positions")
        if not self.lam:
            raise ValueError("crossover arrow decoration must be nonzero")


@dataclass(frozen=True)
class BlackDot:
    """Decoration scaling strand i by a nonzero field element."""

    i: int
    lam: gf.FieldElem

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("black dot position is 1-based")
        if not self.lam:
            raise ValueError("black dot decoration must be nonzero")


def token_matrix(token, width: int, char: int) -> gf.Matrix:
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
    return gf.Matrix._wrap(tuple([tuple(row) for row in rows]), char)


def shaft_matrix(tokens, width: int, char: int) -> gf.Matrix:
    """Product of the token matrices, bottom-most token leftmost."""
    out = gf.Matrix.identity(width, char)
    for t in tokens:
        out = out * token_matrix(t, width, char)
    return out


def _token_indices(t) -> set:
    if isinstance(t, (Crossing, CrossoverArrow)):
        return {t.i, t.j}
    return {t.i}


# ---------------------------------------------------------------------------
# traversal sequences and the unusual order


def unusual_key(v: int) -> tuple:
    """Sort key realizing -1 < -2 < ... < 0 < ... < 3 < 2 < 1."""
    if v < 0:
        return (0, -v)
    if v == 0:
        return (1, 0)
    return (2, -v)


def _min_cycle(cycle: tuple) -> tuple:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


@dataclass(frozen=True)
class TraversalSequence:
    """An eventually periodic journey record: prefix, then repeating cycle.

    A terminated journey is stored with cycle ``(0,)``: the record is
    padded with infinitely many zeros.
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
    def terminating(self) -> bool:
        return self.cycle == (0,)

    @property
    def period(self):
        """Length of the repeating part, None for a terminated journey."""
        return None if self.terminating else len(self.cycle)

    def term(self, k: int) -> int:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]

    def realize(self, n: int) -> tuple:
        return tuple([self.term(k) for k in range(n)])

    def __repr__(self):
        head = ", ".join(str(v) for v in self.prefix + self.cycle)
        return f"({head}, ...)"


def _compare_window(s: TraversalSequence, t: TraversalSequence) -> int:
    lead = max(len(s.prefix), len(t.prefix))
    return lead + math.lcm(len(s.cycle), len(t.cycle))


def _divergence(s: TraversalSequence, t: TraversalSequence, window: int) -> int:
    """Signed 1-based index of the first term where s and t differ within
    the window, positive when s comes first in the unusual order; 0 when
    they agree throughout."""
    for k in range(window):
        a, b = s.term(k), t.term(k)
        if a != b:
            return (k + 1) if unusual_key(a) < unusual_key(b) else -(k + 1)
    return 0


def _as_sequence(s) -> TraversalSequence:
    if isinstance(s, TraversalSequence):
        return s
    return TraversalSequence(tuple(s), (0,))


def unusual_compare(s, t, limit=math.inf) -> str:
    """Compare two journeys lexicographically in the unusual order.

    Plain tuples are read as terminated records.  With a finite limit
    only the first ``limit`` terms are compared; with an infinite limit
    the comparison is exact.
    """
    s, t = _as_sequence(s), _as_sequence(t)
    window = _compare_window(s, t) if limit == math.inf else int(limit)
    d = _divergence(s, t, window)
    return "equal" if not d else "less" if d > 0 else "greater"


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Divergence record of an arrow's strand pair, one term per side.

    ``w_hat`` measures the journeys out of the arrow's own floor
    boundary, ``w_check`` the journeys out of the opposite boundary.  A
    positive sign means the receiving strand's journey comes first in
    the unusual order, which is the removable orientation.
    """

    w_hat: object  # int or math.inf
    w_check: object

    def __post_init__(self):
        for w in (self.w_hat, self.w_check):
            if w != math.inf and abs(w) < 1:
                raise ValueError("finite weight components are nonzero")

    @property
    def depth(self):
        return min(abs(self.w_hat), abs(self.w_check))

    def __repr__(self):
        def show(w):
            return "inf" if w == math.inf else str(w)

        return f"Weight({show(self.w_hat)}, {show(self.w_check)})"


# ---------------------------------------------------------------------------
# engine shaft state


class _ShaftState:
    """Normal form of one shaft's word: lower, dots, crossings, upper.

    Crossover arrows are mutable ``[r, g, c]`` triples meaning the
    matrix I + c e_{rg} (0-based strand positions, r receives), dots map
    a bottom position to its scale, and ``up`` sends a bottom position to
    the top position of its strand.  Coefficients are int residues mod p.
    """

    __slots__ = ("lower", "dots", "up", "upper")

    def __init__(self, lower, dots, up, upper):
        self.lower = lower
        self.dots = dots
        self.up = up
        self.upper = upper

    def arrows(self, end) -> list:
        """The tier next to the floor at ``end``: ``lower`` at the bottom."""
        return self.lower if end == BOTTOM else self.upper


def _shaft_times(state: _ShaftState, rows: list, char: int) -> list:
    """L_1 ... L_k D P U_1 ... U_m times sparse scalar rows, by row ops in
    place: an arrow [r, g, c] adds c times row g into row r, upper arrows
    first, each tier in reverse; D P makes row a dots[a] times row up[a]."""
    for r, g, c in reversed(state.upper):
        add_row_multiple(rows[r], (c, 0, 0), rows[g], False, char)
    rows = [_scaled(rows[q], state.dots.get(a, 1), char) for a, q in enumerate(state.up)]
    for r, g, c in reversed(state.lower):
        add_row_multiple(rows[r], (c, 0, 0), rows[g], False, char)
    return rows


def _state_matrix(state: _ShaftState, width: int, char: int) -> gf.Matrix:
    """The shaft product as a dense block: ``_shaft_times`` on the identity."""
    rows = _shaft_times(state, [{j: (1, 0, 0)} for j in range(width)], char)
    dense = [tuple([row[j][0] if j in row else 0 for j in range(width)]) for row in rows]
    return gf.Matrix._wrap(tuple(dense), char)


def _scalar_entries(row: dict) -> dict:
    return {j: e for j, e in row.items() if e[1:] == (0, 0)}


def _perm_crossings(sigma) -> list:
    # Each cycle (c0 c1 ... c_{m-1}) factors as crossings (c0 c1) (c1 c2)
    # ... in product order.
    out = []
    seen = [False] * len(sigma)
    for s in range(len(sigma)):
        if seen[s] or sigma[s] == s:
            seen[s] = True
            continue
        cyc, j = [], s
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = sigma[j]
        for a, b in zip(cyc, cyc[1:]):
            out.append(Crossing(a + 1, b + 1))
    return out


def _state_tokens(state: _ShaftState, char: int) -> list:
    def arrows(seq):
        return [CrossoverArrow(g + 1, r + 1, gf.FieldElem(c, char)) for r, g, c in seq]

    dots = sorted((a, c) for a, c in state.dots.items() if c != 1)
    middle = [BlackDot(a + 1, gf.FieldElem(c, char)) for a, c in dots]
    middle += _perm_crossings(gf.perm_inverse(state.up))
    return arrows(state.lower) + middle + arrows(state.upper)


def _ltu_state(mat: gf.Matrix) -> _ShaftState:
    """Normal form of an invertible block: ``gf.ltu_factorize`` with
    mutable arrows."""
    lower, dots, up, upper = gf.ltu_factorize(mat)
    return _ShaftState([list(a) for a in lower], dots, up, [list(a) for a in upper])


def _ordered_ltu(mat: gf.Matrix, x_keys, y_keys, char: int) -> _ShaftState:
    """Refactor an invertible scalar block along strand orderings.

    Rows (bottom positions) are processed by descending key with stable
    position ties, columns (top positions) by ascending key, so every
    lower arrow of the result has its receiver's bottom key at most the
    giver's, and every upper arrow has its receiver's top key at most
    the giver's.
    """
    w = mat.rows
    xorder = sorted(range(w), key=lambda p: x_keys[p], reverse=True)
    yorder = sorted(range(w), key=lambda q: (y_keys[q], q))
    ents = mat.entries
    sub = gf.Matrix._wrap(
        tuple([tuple([ents[x][y] for y in yorder]) for x in xorder]), char
    )
    local = _ltu_state(sub)
    lower = [[xorder[r], xorder[g], c] for r, g, c in local.lower]
    dots = {xorder[p]: c for p, c in local.dots.items()}
    up = [0] * w
    for a in range(w):
        up[xorder[a]] = yorder[local.up[a]]
    upper = [[yorder[r], yorder[g], c] for r, g, c in local.upper]
    return _ShaftState(lower, dots, tuple(up), upper)


# ---------------------------------------------------------------------------
# public shaft views and the pure shaft calculus


@dataclass(frozen=True)
class Shaft:
    """One bigrading's bundle of elevator strands and its token word."""

    bigrading: tuple
    strands: int
    tokens: tuple
    char: int

    def matrix(self) -> gf.Matrix:
        return shaft_matrix(self.tokens, self.strands, self.char)


_MOVES = (
    "merge_dots",
    "merge_arrows",
    "swap_disjoint",
    "swap_arrow_dot",
    "swap_dot_crossing",
    "swap_arrow_crossing",
    "swap_sharing_arrows",
    "resolve_crossing",
)


def apply_local_move(shaft: Shaft, position: int, move_id: str) -> Shaft:
    """Rewrite the adjacent tokens at position, position + 1 by a named
    local identity.  The word changes, its product does not."""
    if move_id not in _MOVES:
        raise PatternMismatch(f"unknown move {move_id!r}")
    toks = list(shaft.tokens)
    if not 0 <= position < len(toks) - 1:
        raise PatternMismatch("position does not name an adjacent pair")
    a, b = toks[position], toks[position + 1]
    char = shaft.char

    def done(replacement):
        new = toks[:position] + list(replacement) + toks[position + 2 :]
        out = Shaft(shaft.bigrading, shaft.strands, tuple(new), char)
        if out.matrix() != shaft.matrix():
            raise InvariantViolation("local move changed the product")
        return out

    if move_id == "merge_dots":
        if isinstance(a, BlackDot) and isinstance(b, BlackDot) and a.i == b.i:
            lam = a.lam * b.lam
            return done([] if lam.value == 1 else [BlackDot(a.i, lam)])
        raise PatternMismatch("needs two dots on one strand")

    if move_id == "merge_arrows":
        if (
            isinstance(a, CrossoverArrow)
            and isinstance(b, CrossoverArrow)
            and (a.i, a.j) == (b.i, b.j)
        ):
            s = a.lam + b.lam
            return done([] if not s else [CrossoverArrow(a.i, a.j, s)])
        raise PatternMismatch("needs two same-direction arrows on one pair")

    if move_id == "swap_disjoint":
        if _token_indices(a) & _token_indices(b):
            raise PatternMismatch("tokens share a strand")
        return done([b, a])

    if move_id == "swap_arrow_dot":
        if {type(a), type(b)} != {CrossoverArrow, BlackDot}:
            raise PatternMismatch("needs an arrow and a dot")
        arrow, dot = (a, b) if isinstance(a, CrossoverArrow) else (b, a)
        lam = arrow.lam
        if dot.i == arrow.i:
            lam = lam * dot.lam if arrow is a else lam / dot.lam
        elif dot.i == arrow.j:
            lam = lam / dot.lam if arrow is a else lam * dot.lam
        moved = CrossoverArrow(arrow.i, arrow.j, lam)
        return done([dot, moved] if arrow is a else [moved, dot])

    if move_id == "swap_dot_crossing":
        if {type(a), type(b)} != {BlackDot, Crossing}:
            raise PatternMismatch("needs a dot and a crossing")
        dot, cross = (a, b) if isinstance(a, BlackDot) else (b, a)
        swap = {cross.i: cross.j, cross.j: cross.i}
        moved = BlackDot(swap.get(dot.i, dot.i), dot.lam)
        return done([cross, moved] if dot is a else [moved, cross])

    if move_id == "swap_arrow_crossing":
        if {type(a), type(b)} != {CrossoverArrow, Crossing}:
            raise PatternMismatch("needs an arrow and a crossing")
        arrow, cross = (a, b) if isinstance(a, CrossoverArrow) else (b, a)
        if {arrow.i, arrow.j} == {cross.i, cross.j}:
            raise PatternMismatch("use resolve_crossing for a full overlap")
        swap = {cross.i: cross.j, cross.j: cross.i}
        moved = CrossoverArrow(
            swap.get(arrow.i, arrow.i), swap.get(arrow.j, arrow.j), arrow.lam
        )
        return done([cross, moved] if arrow is a else [moved, cross])

    if move_id == "swap_sharing_arrows":
        if not (
            isinstance(a, CrossoverArrow)
            and isinstance(b, CrossoverArrow)
            and _token_indices(a) & _token_indices(b)
            and (a.i, a.j) != (b.i, b.j)
        ):
            raise PatternMismatch("needs two arrows sharing one strand")
        prod = token_matrix(a, shaft.strands, char) * token_matrix(
            b, shaft.strands, char
        )
        return done(_state_tokens(_ltu_state(prod), char))

    # resolve_crossing
    kinds = {type(a), type(b)}
    if kinds == {CrossoverArrow, Crossing}:
        arrow = a if isinstance(a, CrossoverArrow) else b
        cross = b if arrow is a else a
        if {arrow.i, arrow.j} == {cross.i, cross.j}:
            prod = token_matrix(a, shaft.strands, char) * token_matrix(
                b, shaft.strands, char
            )
            return done(_state_tokens(_ltu_state(prod), char))
    raise PatternMismatch("needs an arrow and a crossing on one pair")


def straighten(shaft: Shaft, order=None) -> Shaft:
    """Rewrite the word in straight form sorted by a per-position order.

    ``order[p]`` ranks position p (0-based) at both ends of the shaft,
    and the position itself breaks ties between equal ranks.  The word
    comes out as lower arrows, dots, crossings, then upper arrows, where
    every lower arrow points from earlier to later in (rank, bottom
    position) and every upper arrow from later to earlier in (rank, top
    position).  The result depends only on the shaft's matrix and
    ``order``, not on how the input word is spelled.  The default puts
    every position in one class, which is the plain factorization.

    A rank cannot follow a strand from its bottom end to its top end:
    which bottom position a top position is joined to is an output of
    the factorization, not an input to it.
    """
    w = shaft.strands
    ranks = list(order) if order is not None else [0] * w
    if len(ranks) != w:
        raise ValueError("order must rank every strand")
    rank_index = {r: k for k, r in enumerate(sorted(set(ranks)))}
    # _ordered_ltu takes rows by descending key with ascending position
    # ties, so negated bottom keys give ascending (rank, position) rows.
    x_keys = [-rank_index[r] for r in ranks]
    state = _ordered_ltu(shaft.matrix(), x_keys, ranks, shaft.char)
    out = Shaft(
        shaft.bigrading, w, tuple(_state_tokens(state, shaft.char)), shaft.char
    )
    if out.matrix() != shaft.matrix():
        raise InvariantViolation("straightening changed the product")
    return out


# ---------------------------------------------------------------------------
# the two-story complex engine


def _other(end):
    return TOP if end == BOTTOM else BOTTOM


def _exit_index(seq: list, end) -> int:
    """Index of a tier's arrow at its ``end`` boundary; in both tiers the
    index rises toward the top."""
    return 0 if end == BOTTOM else len(seq) - 1


def _index_of(seq: list, ca: list) -> int:
    """Position of the arrow record ca itself in seq; an equal twin is
    another arrow and does not count."""
    for k, other in enumerate(seq):
        if other is ca:
            return k
    raise InvariantViolation("arrow record left its tier")


def _boundary_arrow(st: _ShaftState, end, k) -> list:
    """The arrow at (end, k), which must sit at the end's boundary."""
    seq = st.arrows(end)
    if k != _exit_index(seq, end):
        raise InvariantViolation(f"arrow must sit at the {end} boundary")
    return seq[k]


class _Floor:
    """One floor's state.

    ``gens`` is the floor basis and ``table`` its arrows: a mutable
    [target, length, coefficient] per source index, with ``into`` sending
    each target back to its source.  ``start`` is the change from the
    input's basis to the basis ``build`` found, and ``steps`` are the
    elementary steps taken on the floor since, in ``Elimination``'s form:
    ("add", r, g, (c, u, v)) or ("scale", i, c).  ``d`` holds the sparse
    rows of the input's differential modulo U (bottom) or V (top).
    """

    __slots__ = ("gens", "table", "into", "start", "steps", "d")

    def __init__(self, basis: SimplifiedBasis, d: list):
        self.gens = tuple(basis.generators)
        self.table = {s: [t, n, 1] for s, t, n in basis.arrows}
        self.into = {t: s for s, t, _ in basis.arrows}
        self.start, self.steps, self.d = basis.change, [], d


class TwoStoryComplex:
    """Floors, shafts and the cumulative basis-change log of one complex.

    Each floor's state is one ``_Floor`` record in ``_floors``, keyed by
    its end, ``BOTTOM`` or ``TOP``; every move takes the end it acts on
    instead of branching on it.  ``x_gens`` and ``y_gens`` read the
    bottom and top bases.

    Operations mutate the instance in place and return it; ``verify``
    replays the log and checks every structural invariant by
    intertwining, without a ring inverse: each floor basis must carry the
    input's quotient differential onto its floor table, and the scalar
    parts of the two bases must differ by the shaft blocks.  The
    constructor takes a complex, its normalized transition and the rows
    of its differential modulo U and V, kept for every ``verify``; it
    reads no arrow of ``c``.  It and every public operation that changes
    the state end with one ``verify``; one that changes nothing does not.

    Journeys and the divergences between them are cached.  A journey
    reads only the floor tables' targets and lengths and the elevators
    ``up`` of the shafts.  After construction the tables change only in their
    coefficients, and an elevator changes only when ``_reparametrize``
    installs a refactored shaft, so that is the one place where both
    caches are cleared, and only when the new ``up`` differs from the old.
    """

    def __init__(self, c: Complex, td: TransitionData, d_mod_u: list, d_mod_v: list):
        self.char, self.original, self.rounds = c.char, c, 0
        self._floors = {BOTTOM: _Floor(td.x_basis, d_mod_u), TOP: _Floor(td.y_basis, d_mod_v)}
        self._slots, self._pos, self._shafts = {}, {}, {}
        for members, block, _ in td.blocks:
            grading = self.x_gens[members[0]].grading
            self._slots[grading] = members
            self._pos.update((i, (grading, p)) for p, i in enumerate(members))
            self._shafts[grading] = _ltu_state(block)
        self._gradings = tuple(self._slots)  # td.blocks ascend by bigrading
        self._seq_cache, self._div_cache = {}, {}
        self.verify()

    @property
    def x_gens(self) -> tuple:
        """The bottom floor's basis."""
        return self._floors[BOTTOM].gens

    @property
    def y_gens(self) -> tuple:
        """The top floor's basis."""
        return self._floors[TOP].gens

    # -- addressing ---------------------------------------------------

    def gradings(self) -> tuple:
        return self._gradings

    def width(self, grading) -> int:
        return len(self._slots[grading])

    def _idx(self, grading, p) -> int:
        return self._slots[grading][p]

    def _elevator(self, end, idx) -> int:
        """The other end of the strand whose ``end`` end is idx."""
        g, p = self._pos[idx]
        st = self._shafts[g]
        if end == BOTTOM:
            return self._idx(g, st.up[p])
        return self._idx(g, st.up.index(p))

    def _name_index(self, name: str):
        for end in (BOTTOM, TOP):
            for i, g in enumerate(self._floors[end].gens):
                if g.id == name:
                    return end, i
        raise KeyError(f"no floor basis element named {name!r}")

    # -- logging ---------------------------------------------------------

    @property
    def log(self) -> tuple:
        """The steps with boxed coefficients, ``Monomial`` and ``FieldElem``:
        the bottom floor's, labelled "x", then the top floor's, "y"."""
        p = self.char
        out = []
        for end, side in ((BOTTOM, "x"), (TOP, "y")):
            for step in self._floors[end].steps:
                if step[0] == "add":
                    _, r, g, (c, u, v) = step
                    out.append((side, "add", r, g, Monomial(gf.FieldElem(c, p), u, v)))
                else:
                    out.append((side, "scale", step[1], gf.FieldElem(step[2], p)))
        return tuple(out)

    def _basis(self, end) -> BasisChange:
        """The floor basis over the input's: the logged steps replayed
        on the change ``build`` started from."""
        floor = self._floors[end]
        el = Elimination(floor.gens, self.char, self.original.ring, [{} for _ in floor.gens])
        el.rows = [dict(row) for row in floor.start.rows]
        for op, *args in floor.steps:
            getattr(el, op)(*args)
        return BasisChange.from_rows(
            self.original.ring, self.char, floor.start.old_gens, floor.gens, el.rows
        )

    # -- views -------------------------------------------------------------

    def shaft(self, grading) -> Shaft:
        st = self._shafts[grading]
        return Shaft(
            grading,
            self.width(grading),
            tuple(_state_tokens(st, self.char)),
            self.char,
        )

    def shafts(self) -> dict:
        return {g: self.shaft(g) for g in self.gradings()}

    def _floor_view(self, end) -> SimplifiedBasis:
        floor = self._floors[end]
        arrows = tuple(sorted((s, v[0], v[1]) for s, v in floor.table.items()))
        direction = VERTICAL if end == BOTTOM else HORIZONTAL
        return SimplifiedBasis(direction, floor.gens, arrows, self._basis(end))

    @property
    def bottom(self) -> SimplifiedBasis:
        return self._floor_view(BOTTOM)

    @property
    def top(self) -> SimplifiedBasis:
        return self._floor_view(TOP)

    def floor_arrows(self, floor) -> tuple:
        """Structural floor arrows with coefficients: (src, tgt, len, mu)."""
        p = self.char
        table = self._floors[floor].table
        return tuple(sorted((s, v[0], v[1], gf.FieldElem(v[2], p)) for s, v in table.items()))

    # -- journeys -------------------------------------------------------------

    def _floor_step(self, end, idx):
        floor = self._floors[end]
        if idx in floor.table:
            tgt, length, _ = floor.table[idx]
            return (-length, tgt)
        if idx in floor.into:
            src = floor.into[idx]
            return (floor.table[src][1], src)
        return None

    def _sequence(self, end, idx) -> TraversalSequence:
        """Journey record of the element idx of one floor, walked along its
        floor arrow first.

        The walk reads the floor tables' targets and lengths, never their
        coefficients, and the elevators ``up``.  The record is cached until
        ``_reparametrize`` moves an elevator.
        """
        key = (end, idx)
        hit = self._seq_cache.get(key)
        if hit is not None:
            return hit
        seen: dict = {}
        terms: list = []
        state = key
        while True:
            if state in seen:
                k = seen[state]
                prefix, cycle = terms[:k], terms[k:]
                break
            seen[state] = len(terms)
            at, i = state
            step = self._floor_step(at, i)
            if step is None:
                prefix, cycle = terms, [0]
                break
            term, j = step
            terms.append(term)
            state = (_other(at), self._elevator(at, j))
        seq = TraversalSequence(tuple(prefix), tuple(cycle))
        self._seq_cache[key] = seq
        return seq

    # -- weights ------------------------------------------------------------------

    def _component(self, end, idx_r, idx_g):
        """Signed divergence of two journeys out of one floor, cached next
        to the journeys themselves."""
        key = (end, idx_r, idx_g)
        hit = self._div_cache.get(key)
        if hit is not None:
            return hit
        sr = self._sequence(end, idx_r)
        sg = self._sequence(end, idx_g)
        d = _divergence(sr, sg, _compare_window(sr, sg)) or math.inf
        self._div_cache[key] = d
        return d

    def _arrow_weight(self, grading, end, r, g) -> Weight:
        """Weight of an arrow from g into r in the tier at ``end``: the
        near component out of that floor, the far one out of the other."""
        idx_r, idx_g = self._idx(grading, r), self._idx(grading, g)
        far_r, far_g = self._elevator(end, idx_r), self._elevator(end, idx_g)
        return Weight(
            self._component(end, idx_r, idx_g), self._component(_other(end), far_r, far_g)
        )

    def depth(self):
        best = math.inf
        for g in self.gradings():
            st = self._shafts[g]
            for end in (BOTTOM, TOP):
                for r, giver, _ in st.arrows(end):
                    best = min(best, self._arrow_weight(g, end, r, giver).depth)
        return best

    # -- verification ----------------------------------------------------------------

    def verify(self) -> None:
        """Replay the log on sparse rows and recheck everything.

        The replayed floor bases X and Y must be homogeneous.  Each floor
        is checked by intertwining, with no ring inverse: X D = T X modulo
        U for the bottom table T, and Y D = T' Y modulo V for the top table
        T' (``complexes.intertwines``), on the floors' quotient rows.
        Every logged step is invertible, so the transition P = X Y^-1
        exists and is homogeneous too; its scalar entries are its
        same-grading blocks, and each shaft block B is checked as
        X_0 = B Y_0 by row operations on Y_0 (``_shaft_times``).  An
        inhomogeneous basis raises GradingViolation, any other failure
        InvariantViolation.  ``build`` alone checks the input.

        The constructor and every public call that changes the complex
        end here, once; a call that changes nothing does not come here.
        """
        x, y = self._basis(BOTTOM), self._basis(TOP)
        x.check_homogeneous()
        y.check_homogeneous()
        for end, change, k in ((BOTTOM, x, 1), (TOP, y, 2)):
            floor = self._floors[end]
            arrows = [(s, t, n, mu) for s, (t, n, mu) in floor.table.items()]
            if not intertwines(floor.d, change, arrows, k):
                raise InvariantViolation(f"{end} floor drifted from the engine tables")
        for grading in self._gradings:
            members, st = self._slots[grading], self._shafts[grading]
            want = _shaft_times(st, [_scalar_entries(y.rows[j]) for j in members], self.char)
            if any(row != _scalar_entries(x.rows[i]) for i, row in zip(members, want)):
                raise InvariantViolation(f"shaft product drifted at {grading}")

    # -- black dot slides ----------------------------------------------------------

    def _slide_dot(self, grading, p, end):
        """Dissolve the dot at bottom position p into the floor at ``end``.

        The dot's strand meets that floor at position q: p itself at the
        bottom, up[p] at the top.  The floor element there is scaled by f,
        1/lam going down and lam going up.  In the tier at ``end`` an arrow
        whose receiver is q is multiplied by f and one whose giver is q by
        1/f; the floor arrow out of the element by f, the one into it by
        1/f.
        """
        st = self._shafts[grading]
        if p not in st.dots:
            raise PatternMismatch("no dot to slide at this position")
        char = self.char
        lam = st.dots.pop(p)
        f = pow(lam, -1, char) if end == BOTTOM else lam
        f_inv = pow(f, -1, char)
        q = p if end == BOTTOM else st.up[p]
        for ca in st.arrows(end):
            if ca[0] == q:
                ca[2] = ca[2] * f % char
            if ca[1] == q:
                ca[2] = ca[2] * f_inv % char
        idx = self._idx(grading, q)
        floor = self._floors[end]
        floor.steps.append(("scale", idx, f))
        if idx in floor.table:
            floor.table[idx][2] = floor.table[idx][2] * f % char
        if idx in floor.into:
            src = floor.into[idx]
            floor.table[src][2] = floor.table[src][2] * f_inv % char

    # -- crossover arrow turns -------------------------------------------------------

    def _turn(self, grading, end, k, remove=True):
        """Carry the boundary arrow out through the floor at ``end``.

        The arrow's basis step at the floor is undone.  Where both strands
        continue along the floor on the same side, that forces a second
        step between their neighbours, times the variable to the power by
        which the two floor lengths differ.  A parallel pair has power 0:
        the second step is an arrow in the neighbouring shaft, and
        (handle, arrow record) there is returned.  A diverging pair loses
        the arrow and None is returned; with ``remove`` off, StrandsDiverge
        is raised instead, before any change.
        """
        st = self._shafts[grading]
        r, g, lam = _boundary_arrow(st, end, k)
        idx_r, idx_g = self._idx(grading, r), self._idx(grading, g)
        ar = self._floor_step(end, idx_r)
        ag = self._floor_step(end, idx_g)
        vr = ar[0] if ar else 0
        vg = ag[0] if ag else 0
        parallel = vr == vg != 0
        if parallel:
            g2 = self._pos[ar[1]][0]
            if self._pos[ag[1]][0] != g2:
                raise InvariantViolation("parallel step lands in two bigradings")
        elif not remove:
            raise StrandsDiverge(f"pair at {grading} splits at the {end} floor")
        elif (ar or ag) and not unusual_key(vr) < unusual_key(vg):
            raise WrongOrientation(f"arrow at {grading} points up the divergence order")
        p = self.char
        sign = -1 if end == BOTTOM else 1
        st.arrows(end).pop(k)
        floor = self._floors[end]
        floor.steps.append(("add", idx_r, idx_g, (sign * lam % p, 0, 0)))
        table = floor.table
        if vr < 0 and vg < 0:
            coeff = lam * table[idx_g][2] * pow(table[idx_r][2], -1, p) % p
        elif vr > 0 and vg > 0:
            coeff = lam * table[ar[1]][2] * pow(table[ag[1]][2], -1, p) % p
        else:
            return None
        floor.steps.append(("add", ar[1], ag[1], _power_mono(sign * coeff % p, end, vr - vg)))
        if not parallel:
            return None
        seq2 = self._shafts[g2].arrows(end)
        ca = [self._pos[ar[1]][1], self._pos[ag[1]][1], -coeff % p]
        seq2.insert(0 if end == BOTTOM else len(seq2), ca)
        return (g2, end, _exit_index(seq2, end)), ca

    # -- extraction and the snowplow ----------------------------------------------------

    def _swap_adjacent(self, seq, a):
        ca, cb = seq[a], seq[a + 1]
        if {ca[0], ca[1]} & {cb[0], cb[1]}:
            return False
        seq[a], seq[a + 1] = cb, ca
        return True

    def _cross_middle(self, grading, ca, through):
        """Carry an arrow through the dot and crossing block into the tier
        at ``through``."""
        st, p = self._shafts[grading], self.char
        if through == TOP:
            dr, dg = st.dots.get(ca[0], 1), st.dots.get(ca[1], 1)
            ca[2] = ca[2] * dg * pow(dr, -1, p) % p
            ca[0], ca[1] = st.up[ca[0]], st.up[ca[1]]
            st.upper.insert(0, ca)
        else:
            inv = gf.perm_inverse(st.up)
            ca[0], ca[1] = inv[ca[0]], inv[ca[1]]
            dr, dg = st.dots.get(ca[0], 1), st.dots.get(ca[1], 1)
            ca[2] = ca[2] * dr * pow(dg, -1, p) % p
            st.lower.append(ca)

    def _push(self, grading, end, ca, through, convoy) -> int:
        """Move the record ca along the tier at ``end`` to its ``through``
        boundary and return its index there.  An index-sharing blocker in
        the way is pushed out through the floor at ``through`` first."""
        seq = self._shafts[grading].arrows(end)
        step = 1 if through == TOP else -1
        while True:
            k = _index_of(seq, ca)
            j = k + step
            if not 0 <= j < len(seq):
                return k
            if not self._swap_adjacent(seq, min(j, k)):
                self._displace(grading, end, j, through, convoy)

    def _extract(self, grading, end, k, through, convoy):
        """Bring the arrow at (end, k) to the boundary of the floor at
        ``through``, across the middle block if it lies in the other tier.

        Index-sharing blockers are pushed out through the exit floor
        first and recorded in the convoy for later restoration.
        """
        st = self._shafts[grading]
        ca = st.arrows(end)[k]
        if end != through:
            del st.arrows(end)[self._push(grading, end, ca, through, convoy)]
            self._cross_middle(grading, ca, through)
        return (grading, through, self._push(grading, through, ca, through, convoy))

    def _displace(self, grading, end, k, through, convoy):
        """Push the blocking arrow at (end, k) out through the exit floor."""
        moved = self._turn(*self._extract(grading, end, k, through, convoy))
        if moved is not None:  # a blocker that cannot ride along left for good
            convoy.append(moved)

    def _restore_convoy(self, convoy):
        # _turn raises InvariantViolation for an entry that drifted off
        # its boundary
        for (grading, end, _), ca in reversed(convoy):
            k = _index_of(self._shafts[grading].arrows(end), ca)
            self._turn(grading, end, k, remove=False)

    def _snowplow_remove(self, grading, end, k, through):
        """Slide the arrow along parallel turns, remove it where the
        strands diverge, then send every displaced arrow back."""
        convoy: list = []
        handle = (grading, end, k)
        while True:
            moved = self._turn(*self._extract(*handle, through, convoy))
            if moved is None:
                break
            handle = moved[0]
            through = _other(through)
        self._restore_convoy(convoy)

    # -- reparametrization ------------------------------------------------------------

    def _reparametrize(self, grading, terms, keep_upper=False):
        """Refactor one shaft so arrows respect the journey-prefix order.

        Bottom positions are keyed by prefixes of their downward
        journeys, top positions by prefixes of their upward ones; after
        the refactorization every arrow between strands that separate
        inside the window points in the removable direction.

        With ``keep_upper`` only the word below the upper arrows is
        refactored and fresh upper factors come out underneath the kept
        ones.  That keeps every replacement strand parallel to the old
        one for a full extra step downward, which is what lets one more
        journey term survive the change of basis.
        """
        w = self.width(grading)
        st = self._shafts[grading]
        if w <= 1 or not (st.lower or (st.upper and not keep_upper)):
            return  # a dot-and-crossing block is its own normal form
        x_keys, y_keys = [], []
        for p in range(w):
            idx = self._idx(grading, p)
            down = self._sequence(BOTTOM, idx).realize(terms)
            upw = self._sequence(TOP, idx).realize(terms)
            # tuple([...]), not tuple(<genexpr>): resized generator tuples raised peak RSS
            x_keys.append(tuple([unusual_key(v) for v in down]))
            y_keys.append(tuple([unusual_key(v) for v in upw]))
        kept = st.upper if keep_upper else []
        region = _ShaftState(st.lower, st.dots, st.up, [] if keep_upper else st.upper)
        new = _ordered_ltu(_state_matrix(region, w, self.char), x_keys, y_keys, self.char)
        new.upper.extend(kept)
        self._shafts[grading] = new
        if new.up != st.up:
            self._seq_cache.clear()
            self._div_cache.clear()

    # -- depth raising ----------------------------------------------------------------

    def _candidates(self, predicate, end):
        out = []
        for g in self.gradings():
            for k, ca in enumerate(self._shafts[g].arrows(end)):
                if predicate(self._arrow_weight(g, end, ca[0], ca[1])):
                    out.append((g, k))
        return out

    def _remove_all(self, predicate, end, through):
        """Remove matching arrows of the tier at ``end`` one at a time
        through the floor at ``through``: the first shaft's arrow nearest
        that floor first."""
        while True:
            found = self._candidates(predicate, end)
            if not found:
                return
            grading = min(g for g, _ in found)
            ks = [k for g, k in found if g == grading]
            k = max(ks) if through == TOP else min(ks)
            self._snowplow_remove(grading, end, k, through)

    def _slide_out(self, grading, end):
        """Turn every arrow of one tier out into the neighbouring shafts.

        The arrow at the exit boundary always goes first, so nothing is
        ever displaced.  A pair whose journeys have both already ended
        falls off for free instead of turning.
        """
        seq = self._shafts[grading].arrows(end)
        while seq:
            self._turn(grading, end, _exit_index(seq, end))

    def increase_depth(self, m: int):
        """Raise the depth of the complex past m.

        Four sweeps, one per way a weight component can sit at m.
        First every shaft is refactored along m-term journey prefixes,
        which points each divergence-m arrow in the removable direction,
        and those arrows are snowplowed out through their near floors.
        Then, shaft by shaft, the word below the upper arrows is
        refactored along (m + 1)-term prefixes and the whole lower tier
        is turned out to the neighbouring shafts; the turn trades each
        arrow's weight components, so no far component at -m survives
        it.  The upper tier gets the mirrored treatment.  Finally the
        arrows whose far component equals +m are snowplowed out through
        their far floors.  An m above the current depth raises ValueError.

        A pass that ran ends with one ``verify``.  When the depth is
        already above m, or infinite, nothing changes and nothing is
        checked.
        """
        d = self.depth()
        if d > m or d == math.inf:
            return self
        if d < m:
            raise ValueError(f"m = {m} is above the current depth {d}")
        for g in self.gradings():
            self._reparametrize(g, m)
        self._remove_all(lambda w: w.w_hat == m, TOP, TOP)
        self._remove_all(lambda w: w.w_hat == m, BOTTOM, BOTTOM)
        for g in self.gradings():
            self._reparametrize(g, m + 1, keep_upper=True)
            self._remove_all(lambda w: w.w_hat == m, TOP, TOP)
            self._slide_out(g, BOTTOM)
            self._reparametrize(g, m + 1)
            self._remove_all(lambda w: w.w_hat == m, BOTTOM, BOTTOM)
            self._slide_out(g, TOP)
        self._remove_all(lambda w: w.w_check == m, TOP, BOTTOM)
        self._remove_all(lambda w: w.w_check == m, BOTTOM, TOP)
        self.verify()
        if self.depth() < m + 1:
            raise InvariantViolation("depth pass fell short")
        return self

    def run_to_depth_infinity(self):
        """Iterate depth raising until every weight is (inf, inf).

        Each round is an ``increase_depth`` pass, which verifies what it
        changed, so the loop adds no check of its own: with no round run,
        the state is the one its producer already verified.
        """
        n = len(self.x_gens)
        bound = max(1, n * (n - 1))
        self.rounds = 0
        while True:
            d = self.depth()
            if d == math.inf:
                break
            if self.rounds >= bound:
                raise BoundExceeded(
                    f"more than {bound} depth-raising rounds on rank {n}"
                )
            self.increase_depth(d)
            self.rounds += 1
        return self


def _power_mono(c: int, end, delta: int) -> tuple:
    return (c, 0, delta) if end == BOTTOM else (c, delta, 0)


# ---------------------------------------------------------------------------
# construction


def build(c: Complex) -> TwoStoryComplex:
    """Simplify both quotients of a complex and assemble its two-story form.

    The input is converted to sparse rows once; on them every term must
    have bidegree (-1, -1), d^2 must vanish and no term may have length
    zero, over R1 (ValidationError otherwise).  Both simplifiers and the
    constructor get the two quotients' rows.  The constructor's one
    ``verify`` is the only check of the adjusted bases and the transition
    blocks that ``normalize_transition`` returns.
    """
    if c.ring != RING_R1:
        raise ValidationError("two-story complexes live over the modulo-UV ring")
    try:
        d = differential_rows(c)
    except GradingViolation as exc:
        raise ValidationError(str(exc)) from None
    gens, p = c.generators, c.char
    for s, row in enumerate(_mul_rows(d, d, True, p)):
        if row:
            t, (x, u, v) = min(row.items())
            term = Monomial(gf.FieldElem(x, p), u, v)
            raise ValidationError(f"d^2 != 0 at {gens[s].id}: term {term} -> {gens[t].id}")
    zero = [(s, t) for s, row in enumerate(d) for t, e in row.items() if e[1:] == (0, 0)]
    if zero:
        ids = " -> ".join(gens[i].id for i in zero[0])
        raise ValidationError(f"cancel length-zero arrows before building: {ids}")
    d_u, d_v = quotient_rows(d, 1), quotient_rows(d, 2)
    xb, yb = _simplify_quotient(c, d_u, VERTICAL), _simplify_quotient(c, d_v, HORIZONTAL)
    return TwoStoryComplex(c, normalize_transition(c, xb, yb), d_u, d_v)


# ---------------------------------------------------------------------------
# public operations


def traversal_sequence(t: TwoStoryComplex, z: str, direction: str) -> TraversalSequence:
    """Journey record of a floor basis element in the given direction.

    ``toward-floor`` starts with the element's own floor arrow;
    ``toward-shaft`` crosses the elevator first and continues from the
    strand's other endpoint.  Any other direction raises ValueError.
    """
    if direction not in (TOWARD_FLOOR, TOWARD_SHAFT):
        raise ValueError(f"unknown direction {direction!r}")
    end, idx = t._name_index(z)
    if direction == TOWARD_FLOOR:
        return t._sequence(end, idx)
    return t._sequence(_other(end), t._elevator(end, idx))


def strand_top(t: TwoStoryComplex, x_name: str) -> str:
    """Name of the top endpoint of the strand holding a bottom element."""
    end, idx = t._name_index(x_name)
    if end != BOTTOM:
        raise ValueError(f"expected a bottom basis element, got {x_name!r}")
    return t.y_gens[t._elevator(BOTTOM, idx)].id


def strand_bottom(t: TwoStoryComplex, y_name: str) -> str:
    """Name of the bottom endpoint of the strand holding a top element."""
    end, idx = t._name_index(y_name)
    if end != TOP:
        raise ValueError(f"expected a top basis element, got {y_name!r}")
    return t.x_gens[t._elevator(TOP, idx)].id


def _resolve_arrow(t: TwoStoryComplex, arrow):
    """Map a public (bigrading, token index) handle to (bigrading, end,
    index in that end's tier, token); a dot or crossing has end "middle"."""
    grading, pos = arrow
    grading = tuple(grading)
    if grading not in t._shafts:
        raise PatternMismatch(f"no shaft at bigrading {grading}")
    st = t._shafts[grading]
    view = t.shaft(grading).tokens
    if not 0 <= pos < len(view):
        raise PatternMismatch("token index out of range")
    token = view[pos]
    if pos < len(st.lower):
        return grading, BOTTOM, pos, token
    offset = len(view) - len(st.upper)
    if pos >= offset:
        return grading, TOP, pos - offset, token
    return grading, "middle", pos, token


def weight_of(t: TwoStoryComplex, arrow) -> Weight:
    """Weight of the crossover arrow named by (bigrading, token index)."""
    grading, end, k, token = _resolve_arrow(t, arrow)
    if not isinstance(token, CrossoverArrow):
        raise PatternMismatch("weights are defined for crossover arrows")
    r, g, _ = t._shafts[grading].arrows(end)[k]
    return t._arrow_weight(grading, end, r, g)


def slide_arrow_step(t: TwoStoryComplex, arrow, direction: str) -> TwoStoryComplex:
    """Transport a boundary token across one floor segment, "down" through
    the bottom floor or "up" through the top one.

    Black dots dissolve into a rescaling of the floor element they exit
    through; crossover arrows reappear in the neighbouring shaft.  The
    moved state is verified once; a refused slide changes nothing and
    verifies nothing.
    """
    grading, end, k, token = _resolve_arrow(t, arrow)
    if not isinstance(token, (BlackDot, CrossoverArrow)):
        raise PatternMismatch("only arrows and dots slide through floors")
    through = {"down": BOTTOM, "up": TOP}.get(direction)
    if through is None:
        raise ValueError(f"unknown slide direction {direction!r}")
    if isinstance(token, BlackDot):
        t._slide_dot(grading, token.i - 1, through)
    elif end != through or k != _exit_index(t._shafts[grading].arrows(end), end):
        raise PatternMismatch(f"arrow is not at the {through} boundary")
    else:
        t._turn(grading, end, k, remove=False)
    t.verify()
    return t


def remove_diverging_arrow(t: TwoStoryComplex, arrow) -> TwoStoryComplex:
    """Slide an arrow out along its near floor and remove it at the
    point of divergence, restoring every other displaced arrow.  The
    result is verified once; a refused removal changes nothing and
    verifies nothing."""
    grading, end, k, token = _resolve_arrow(t, arrow)
    if not isinstance(token, CrossoverArrow):
        raise PatternMismatch("only crossover arrows are removable")
    r, g, _ = t._shafts[grading].arrows(end)[k]
    w = t._arrow_weight(grading, end, r, g)
    if w.w_hat == math.inf:
        raise Parallel("the strand pair never diverges")
    if w.w_hat < 0:
        raise WrongOrientation("the arrow points up the divergence order")
    t._snowplow_remove(grading, end, k, end)
    t.verify()
    return t


def increase_depth(t: TwoStoryComplex, m: int) -> TwoStoryComplex:
    """Raise the depth of the two-story complex past m."""
    return t.increase_depth(m)


def run_to_depth_infinity(t: TwoStoryComplex) -> TwoStoryComplex:
    """Iterate depth raising until every arrow's weight is (inf, inf)."""
    return t.run_to_depth_infinity()


def dump(t: TwoStoryComplex) -> str:
    """Deterministic structured text of floors, shafts and tokens."""
    lines = [f"two-story complex over F_{t.char}, rank {len(t.x_gens)}"]
    for end in (BOTTOM, TOP):
        floor = t._floors[end]
        power = "V" if end == BOTTOM else "U"
        lines.append(f"{end} floor:")
        for s in sorted(floor.table):
            tg, l, mu = floor.table[s]
            text = f"  {floor.gens[s].id} -{power}^{l}-> {floor.gens[tg].id}"
            if mu != 1:
                text += f"  (coefficient {mu})"
            lines.append(text)
    lines.append("shafts:")
    for grading in t.gradings():
        shaft = t.shaft(grading)
        names = ",".join(t.x_gens[i].id for i in t._slots[grading])
        head = f"  {grading} strands={shaft.strands} [{names}]"
        if not shaft.tokens:
            lines.append(head + " token-free")
            continue
        lines.append(head)
        for tok in shaft.tokens:
            lines.append(f"    {tok}")
    return "\n".join(lines) + "\n"
