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
only a printed view of it, regenerated on demand for ``dump`` and
``shafts``, so equal engine states print identically.

Each end of a shaft is named ``BOTTOM`` or ``TOP``, and that one name
picks everything on the end: the floor there, the tier of crossover
arrows next to it (``lower`` at the bottom, ``upper`` at the top) and
the floor an arrow leaves through.  The ``bar`` symmetry swaps U with V
and the bottom with the top, so each move is one code path taking an
end.  In both tiers an arrow's index rises toward the top, but a move
names an arrow by its ``[r, g, c]`` record, never by that index.  Only
``log`` keeps other words: it labels the bottom floor's steps "x" and
the top floor's "y".

Each floor's state is one ``_Floor`` record: its basis, its arrows, the
quotient rows and basis change ``build`` started from and the steps
logged since.  Every floor arrow has coefficient 1, so the arrows are
only a signed length and a partner per element, two tuples fixed at
construction, from which the floor checks itself.
The engine holds all field data as int residues mod p: shaft arrows and
dots, and the logged steps in ``complexes.add_step``'s form.  Only
the tokens and ``log`` box them.

One rule says when the engine checks itself: a public call that creates
or changes a two-story complex ends with exactly one ``verify()``, and a
call that changes nothing verifies nothing.  So the constructor (hence
``build``) and a depth pass that ran each end with it: neither returns
unchecked state.  ``build(c)`` is the constructor on
``simplify.simplified_transition(c)``, which alone checks the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf
from .complexes import (
    BasisChange,
    Complex,
    Monomial,
    _scaled,
    add_row_multiple,
    add_step,
)
from .errors import GradingViolation, InvariantViolation
from .simplify import SimplifiedBasis, TransitionData, simplified_transition

BOTTOM = "bottom"
TOP = "top"


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Crossing:
    """Two elevator strands exchanging positions i < j (1-based)."""

    i: int
    j: int


@dataclass(frozen=True)
class CrossoverArrow:
    """Arrow adding lam times strand i into strand j (1-based positions)."""

    i: int
    j: int
    lam: gf.FieldElem


@dataclass(frozen=True)
class BlackDot:
    """Decoration scaling strand i by a nonzero field element."""

    i: int
    lam: gf.FieldElem


# ---------------------------------------------------------------------------
# the unusual order


def unusual_key(v: int) -> tuple:
    """Sort key realizing -1 < -2 < ... < 0 < ... < 3 < 2 < 1."""
    if v < 0:
        return (0, -v)
    if v == 0:
        return (1, 0)
    return (2, -v)


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
    first, each tier in reverse; row a of D P is row up[a], copied only if dots[a] scales it."""
    for r, g, c in reversed(state.upper):
        add_row_multiple(rows[r], (c, 0, 0), rows[g], char)
    rows = [rows[q] for q in state.up]
    for a, c in state.dots.items():
        rows[a] = _scaled(rows[a], c, char)
    for r, g, c in reversed(state.lower):
        add_row_multiple(rows[r], (c, 0, 0), rows[g], char)
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
    # ... in product order, each with its smaller position first.
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
            out.append(Crossing(min(a, b) + 1, max(a, b) + 1))
    return out


def _state_tokens(state: _ShaftState, char: int) -> list:
    def arrows(seq):
        return [CrossoverArrow(g + 1, r + 1, gf.FieldElem(c, char)) for r, g, c in seq]

    dots = sorted((a, c) for a, c in state.dots.items() if c != 1)
    middle = [BlackDot(a + 1, gf.FieldElem(c, char)) for a, c in dots]
    middle += _perm_crossings(gf.perm_inverse(state.up))
    return arrows(state.lower) + middle + arrows(state.upper)


def _factored_state(factors) -> _ShaftState:
    """A shaft state from ``gf.ltu_factorize``'s factors: mutable arrows
    and its own dots, so the engine's moves leave the factors as they are."""
    lower, dots, up, upper = factors
    return _ShaftState([list(a) for a in lower], dict(dots), up, [list(a) for a in upper])


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
    lower, dots, up, upper = gf.ltu_factorize(sub)
    new_up = [0] * w
    for a in range(w):
        new_up[xorder[a]] = yorder[up[a]]
    lower = [[xorder[r], xorder[g], c] for r, g, c in lower]
    upper = [[yorder[r], yorder[g], c] for r, g, c in upper]
    return _ShaftState(lower, {xorder[a]: c for a, c in dots.items()}, tuple(new_up), upper)


# ---------------------------------------------------------------------------
# public shaft views


@dataclass(frozen=True)
class Shaft:
    """One bigrading's bundle of elevator strands and its token word."""

    bigrading: tuple
    strands: int
    tokens: tuple


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


class _Floor:
    """One floor's state.

    ``gens`` is the floor basis.  Its arrows, every one with coefficient
    1, are two tuples indexed by element: ``term`` holds -length at an
    arrow's source, +length at its target and 0 at an element with no
    arrow, and ``partner`` the other end of the element's arrow, or the
    element itself.  Both are fixed at construction.  ``start`` is the
    change from the input's basis to the basis ``build`` found, and
    ``steps`` are the elementary steps taken on the floor since, each an
    (r, g, (c, u, v)) triple for e_r <- e_r + c U^u V^v e_g
    (``complexes.add_step``).  ``d`` is the basis's ``quotient``, the
    input's differential modulo U (bottom) or V (top) as sparse rows.
    """

    __slots__ = ("gens", "term", "partner", "start", "steps", "d")

    def __init__(self, basis: SimplifiedBasis):
        self.gens = tuple(basis.generators)
        term, partner = [0] * len(self.gens), list(range(len(self.gens)))
        for s, t, length in basis.arrows:
            term[s], term[t], partner[s], partner[t] = -length, length, t, s
        self.term, self.partner = tuple(term), tuple(partner)
        self.start, self.steps, self.d = basis.change, [], basis.quotient

    def intertwines(self, rows: list, end, p: int) -> bool:
        """Whether basis rows X carry ``d`` onto the arrows T of this floor,
        at ``end``: X D = T X modulo U (bottom) or V (top), which, as X has
        an invertible scalar part, is X D X^-1 = T with no inverse.  Row by
        row, to the first that differs: the quotient entries of X_i times
        ``d`` against the arrow's power times its partner's row, which, as
        every arrow has positive length, drops the entries outside the
        quotient.  A cell of either product that is not a single monomial
        means they differ."""
        d, term, partner = self.d, self.term, self.partner
        k = 1 if end == BOTTOM else 2
        try:
            for i, row in enumerate(rows):
                lhs: dict = {}
                for j, m in row.items():
                    if not m[k] and d[j]:
                        add_row_multiple(lhs, m, d[j], p)
                rhs: dict = {}
                if term[i] < 0:
                    add_row_multiple(rhs, _power_mono(1, end, -term[i]), rows[partner[i]], p)
                if lhs != rhs:
                    return False
        except GradingViolation:
            return False
        return True


class _Journeys:
    """Every journey of one elevator epoch, as one successor table.

    A state is a floor element: state i < n is the bottom element i and
    state n + i the top element i.  A journey leaves a state along the
    element's floor arrow, which gives its term, -length out of the
    arrow's source and +length out of its target, and crosses the
    elevator at the arrow's other end into ``succ``, the next state.
    ``elev`` sends a state to the other end of its own strand.  An
    element with no floor arrow ends the journey: its term is 0 and it is
    its own successor, which pads the record with zeros.  ``lead`` counts
    the steps before a state's journey enters its cycle and ``period`` is
    that cycle's length; one pass over the functional graph finds both.
    The table reads the floors' ``term`` and ``partner`` and the ``up``s.
    """

    __slots__ = ("n", "term", "succ", "elev", "lead", "period")

    def __init__(self, floors: dict, slots: dict, shafts: dict):
        n = self.n = len(floors[BOTTOM].gens)
        elev = self.elev = [0] * (2 * n)
        for grading, members in slots.items():
            for p, q in enumerate(shafts[grading].up):
                elev[members[p]], elev[n + members[q]] = n + members[q], members[p]
        self.term = floors[BOTTOM].term + floors[TOP].term
        succ = self.succ = []
        for off, end in ((0, BOTTOM), (n, TOP)):
            pairs = enumerate(zip(floors[end].term, floors[end].partner))
            succ += [elev[off + q] if x else off + s for s, (x, q) in pairs]
        # lead -1 marks an unvisited state, -2 - k the k-th state of the
        # current walk
        lead, period = self.lead, self.period = [-1] * (2 * n), [0] * (2 * n)
        for start in range(2 * n):
            path, s = [], start
            while lead[s] == -1:
                lead[s] = -2 - len(path)
                path.append(s)
                s = succ[s]
            if lead[s] < -1:  # the walk closed a new cycle at s
                k = -2 - lead[s]
                for u in path[k:]:
                    lead[u], period[u] = 0, len(path) - k
                del path[k:]
            ahead, cycle = lead[s], period[s]
            for u in reversed(path):
                ahead += 1
                lead[u], period[u] = ahead, cycle

    def terms(self, s: int, k: int) -> list:
        """The first k terms of the journey out of state s."""
        term, succ, out = self.term, self.succ, []
        for _ in range(k):
            out.append(term[s])
            s = succ[s]
        return out

    def divergence(self, s: int, t: int):
        """Signed 1-based index of the first term where the journeys out of
        s and t differ, positive when s's comes first in the unusual order;
        math.inf when they never differ.  Past max(lead) terms both repeat
        with period lcm(period), so a first difference falls inside that
        window."""
        lead, period, term, succ = self.lead, self.period, self.term, self.succ
        window = max(lead[s], lead[t]) + math.lcm(period[s], period[t])
        for k in range(1, window + 1):
            a, b = term[s], term[t]
            if a != b:
                return k if unusual_key(a) < unusual_key(b) else -k
            s, t = succ[s], succ[t]
        return math.inf


class TwoStoryComplex:
    """Floors, shafts and the cumulative basis-change log of one complex.

    Each floor's state is one ``_Floor`` record in ``_floors``, keyed by
    its end, ``BOTTOM`` or ``TOP``; every move takes the end it acts on
    instead of branching on it.  ``x_gens`` and ``y_gens`` read the
    bottom and top bases.

    Operations mutate the instance in place and return it; ``verify``
    replays the log and checks every structural invariant by
    intertwining, without a ring inverse: each floor basis must carry the
    input's quotient differential onto its floor arrows, and the scalar
    parts of the two bases must differ by the shaft blocks.  The
    constructor takes a complex and its factored transition, whose
    bases carry the rows of the differential modulo U and V that every
    ``verify`` reads; it reads no arrow of ``c``, and installs a copy of
    each block's factors as that shaft's state, factoring nothing again.
    It and a depth pass that ran end with one ``verify``; a pass at
    depth infinity changes nothing and does not.

    Journeys come from one successor table, ``_Journeys``, built when a
    journey is first read.  A journey reads only the floor arrows and the
    elevators ``up`` of the shafts.  The arrows are fixed tuples, and an
    elevator changes only when ``_reparametrize`` installs a refactored
    shaft, so that is the one place where the table is dropped, and only
    when the new ``up`` differs from the old.  A
    snowplow changes no journey, so the arrows it leaves keep their
    weights.
    """

    def __init__(self, c: Complex, td: TransitionData):
        self.char, self.original, self.rounds = c.char, c, 0
        self._floors = {BOTTOM: _Floor(td.x_basis), TOP: _Floor(td.y_basis)}
        gens, slots, pos, shafts = td.x_basis.generators, {}, {}, {}
        for members, factors in td.blocks:
            grading = gens[members[0]].grading
            slots[grading] = members
            for p, i in enumerate(members):
                pos[i] = (grading, p)
            shafts[grading] = _factored_state(factors)
        self._slots, self._pos, self._shafts = slots, pos, shafts
        self._gradings = tuple(self._slots)  # td.blocks ascend by bigrading
        self._table = None
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

    # -- logging ---------------------------------------------------------

    @property
    def log(self) -> tuple:
        """The steps with boxed coefficients, ``Monomial`` and ``FieldElem``:
        the bottom floor's, labelled "x", then the top floor's, "y"."""
        p = self.char
        out = []
        for end, side in ((BOTTOM, "x"), (TOP, "y")):
            for r, g, (c, u, v) in self._floors[end].steps:
                out.append((side, "add", r, g, Monomial(gf.FieldElem(c, p), u, v)))
        return tuple(out)

    def _basis(self, end) -> BasisChange:
        """The floor basis over the input's: the logged steps replayed
        on the change ``build`` started from, by ``add_step``."""
        floor = self._floors[end]
        rows = floor.start.rows
        if floor.steps:  # with no step the start's rows are the basis, uncopied
            rows = [dict(row) for row in rows]
            for r, g, m in floor.steps:
                add_step(rows, floor.gens, r, g, m, self.char)
        return BasisChange.from_rows(self.char, floor.start.old_gens, floor.gens, rows)

    # -- views -------------------------------------------------------------

    def shaft(self, grading) -> Shaft:
        st = self._shafts[grading]
        return Shaft(grading, self.width(grading), tuple(_state_tokens(st, self.char)))

    def shafts(self) -> dict:
        return {g: self.shaft(g) for g in self.gradings()}

    # -- journeys -------------------------------------------------------------

    def _journeys(self) -> _Journeys:
        """The successor table of the current elevators, built on first use."""
        if self._table is None:
            self._table = _Journeys(self._floors, self._slots, self._shafts)
        return self._table

    # -- weights ------------------------------------------------------------------

    def _arrow_component(self, grading, end, r, g, near):
        """One weight component of an arrow from g into r in the tier at
        ``end``: the signed divergence of the two strands' journeys out of
        that floor, or with ``near`` off out of the other one."""
        table = self._journeys()
        members, off = self._slots[grading], 0 if end == BOTTOM else table.n
        s, t = off + members[r], off + members[g]
        if not near:
            s, t = table.elev[s], table.elev[t]
        return table.divergence(s, t)

    def depth(self):
        """The least absolute weight component over all arrows, math.inf
        with none."""
        best = math.inf
        for g in self._gradings:
            st = self._shafts[g]
            for end, seq in ((BOTTOM, st.lower), (TOP, st.upper)):
                for r, giver, _ in seq:
                    near = abs(self._arrow_component(g, end, r, giver, True))
                    far = abs(self._arrow_component(g, end, r, giver, False))
                    best = min(best, near, far)
        return best

    # -- verification ----------------------------------------------------------------

    def verify(self) -> None:
        """Replay the log on sparse rows and recheck everything.

        The replayed floor bases X and Y must be homogeneous.  Each floor
        checks itself by intertwining, with no ring inverse: X D = T X
        modulo U for the bottom floor's arrows T, and Y D = T' Y modulo V
        for the top floor's T' (``_Floor.intertwines``).
        Every logged step is invertible, so the transition P = X Y^-1
        exists and is homogeneous too; its scalar entries are its
        same-grading blocks, and each shaft block B is checked as
        X_0 = B Y_0 by row operations on Y_0 (``_shaft_times``), or row for
        row, X_0 = Y_0, where its state is the identity: no arrow, no dot,
        ``up`` the identity.

        Each row is read once and none is copied only to be read: a floor
        with no logged step uses the rows ``build`` started from, the
        floor checks run row by row and stop at the first row that
        differs, and an identity shaft compares whole rows of X and Y,
        taking scalar parts only of rows that differ; a one-strand shaft
        with no dot is the identity on its one row pair.  Y_0's rows are
        built and multiplied out only for a shaft whose state is not the
        identity.

        An inhomogeneous basis or logged step raises GradingViolation
        (``complexes.add_step``), and any other failure
        InvariantViolation.  ``simplified_transition`` checks the input.

        The constructor and a depth pass that ran end here, once; a pass
        that changes nothing does not come here.
        """
        x, y = self._basis(BOTTOM), self._basis(TOP)
        x.check_homogeneous()
        y.check_homogeneous()
        for end, change in ((BOTTOM, x), (TOP, y)):
            if not self._floors[end].intertwines(change.rows, end, self.char):
                raise InvariantViolation(f"{end} floor drifted from the engine tables")
        xr, yr = x.rows, y.rows
        for grading in self._gradings:
            members, st = self._slots[grading], self._shafts[grading]
            w = len(members)
            if st.dots or st.lower or st.upper or st.up != tuple(range(w)):
                want = _shaft_times(st, [_scalar_entries(yr[j]) for j in members], self.char)
                drifted = any(row != _scalar_entries(xr[i]) for i, row in zip(members, want))
            else:  # the identity, row for row: equal rows have equal scalar parts
                drifted = False
                for i in members:
                    if xr[i] != yr[i] and _scalar_entries(xr[i]) != _scalar_entries(yr[i]):
                        drifted = True
                        break
            if drifted:
                raise InvariantViolation(f"shaft product drifted at {grading}")

    # -- crossover arrow turns -------------------------------------------------------

    def _turn(self, grading, end, ca, remove=True):
        """Carry the record ca at the ``end`` boundary of its tier out
        through the floor there.

        The arrow's basis step at the floor is undone.  Where both strands
        continue along the floor on the same side, that forces a second
        step between their neighbours with the arrow's own coefficient,
        since every floor arrow has coefficient 1, times the variable to
        the power by which the two floor lengths differ.  A parallel pair
        has power 0: the second step is the same arrow record, overwritten
        in place in the neighbouring shaft, and its handle there, (shaft,
        end, record), is returned.  A diverging pair loses the arrow and
        None is returned; with ``remove`` off, InvariantViolation is
        raised instead, before any change.
        """
        seq = self._shafts[grading].arrows(end)
        k = _exit_index(seq, end)
        if not seq or seq[k] is not ca:
            raise InvariantViolation(f"arrow must sit at the {end} boundary")
        r, g, lam = ca
        idx_r, idx_g = self._idx(grading, r), self._idx(grading, g)
        floor = self._floors[end]
        vr, vg = floor.term[idx_r], floor.term[idx_g]
        nr, ng = floor.partner[idx_r], floor.partner[idx_g]
        parallel = vr == vg != 0
        if parallel:
            g2 = self._pos[nr][0]
            if self._pos[ng][0] != g2:
                raise InvariantViolation("parallel step lands in two bigradings")
        elif not remove:
            raise InvariantViolation(f"pair at {grading} splits at the {end} floor")
        elif (vr or vg) and not unusual_key(vr) < unusual_key(vg):
            raise InvariantViolation(f"arrow at {grading} points up the divergence order")
        p = self.char
        c = (-lam if end == BOTTOM else lam) % p
        seq.pop(k)
        floor.steps.append((idx_r, idx_g, (c, 0, 0)))
        if vr * vg <= 0:  # the two steps leave on different sides, or one ends
            return None
        floor.steps.append((nr, ng, _power_mono(c, end, vr - vg)))
        if not parallel:
            return None
        seq2 = self._shafts[g2].arrows(end)
        ca[:] = [self._pos[nr][1], self._pos[ng][1], -lam % p]
        seq2.insert(0 if end == BOTTOM else len(seq2), ca)
        return (g2, end, ca)

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
        the way is handed to ``_displace`` by its record, which pushes it
        out through the floor at ``through`` first."""
        seq = self._shafts[grading].arrows(end)
        step = 1 if through == TOP else -1
        k = _index_of(seq, ca)
        while 0 <= k + step < len(seq):
            j = k + step
            if self._swap_adjacent(seq, min(j, k)):
                k = j
            else:  # a displacement may move any record of the tier
                self._displace(grading, end, seq[j], through, convoy)
                k = _index_of(seq, ca)
        return k

    def _extract(self, grading, end, ca, through, convoy):
        """Bring the record ca of the tier at ``end`` to the boundary of
        the floor at ``through``, across the middle block if it lies in
        the other tier, and return its handle (shaft, ``through``, ca).

        Index-sharing blockers are pushed out through the exit floor
        first and recorded in the convoy for later restoration.
        """
        if end != through:
            seq = self._shafts[grading].arrows(end)
            del seq[self._push(grading, end, ca, through, convoy)]
            self._cross_middle(grading, ca, through)
        self._push(grading, through, ca, through, convoy)
        return (grading, through, ca)

    def _displace(self, grading, end, ca, through, convoy):
        """Push the blocking record ca of the tier at ``end`` out through
        the exit floor and add (record, shaft it landed in, tier it left,
        exit floor) to the convoy.  A blocker that cannot ride along left
        for good, and so do its earlier entries."""
        moved = self._turn(*self._extract(grading, end, ca, through, convoy))
        if moved is None:
            convoy[:] = [entry for entry in convoy if entry[0] is not ca]
        else:
            convoy.append((ca, moved[0], end, through))

    def _restore_convoy(self, convoy):
        """Undo each displacement, the latest first: carry the record to
        the floor it came in by, turn it back and, if it left the other
        tier, carry it back across the middle.  Blockers met on the way
        form a fresh convoy, restored by the same rule."""
        for ca, landed, tier, through in reversed(convoy):
            fresh: list = []
            handle = self._turn(*self._extract(landed, through, ca, through, fresh), remove=False)
            if tier != through:
                self._extract(*handle, tier, fresh)
            self._restore_convoy(fresh)

    def _snowplow_remove(self, grading, end, ca, through):
        """Slide the arrow record ca of the tier at ``end`` along parallel
        turns, remove it where the strands diverge, and send every
        displaced arrow back to the shaft and tier it left: no other arrow
        moves."""
        convoy: list = []
        handle = (grading, end, ca)
        while handle is not None:
            handle = self._turn(*self._extract(*handle, through, convoy))
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
        table, x_keys, y_keys = self._journeys(), [], []
        for idx in self._slots[grading]:
            down, upw = table.terms(idx, terms), table.terms(table.n + idx, terms)
            # tuple([...]), not tuple(<genexpr>): resized generator tuples raised peak RSS
            x_keys.append(tuple([unusual_key(v) for v in down]))
            y_keys.append(tuple([unusual_key(v) for v in upw]))
        kept = st.upper if keep_upper else []
        region = _ShaftState(st.lower, st.dots, st.up, [] if keep_upper else st.upper)
        new = _ordered_ltu(_state_matrix(region, w, self.char), x_keys, y_keys, self.char)
        new.upper.extend(kept)
        self._shafts[grading] = new
        if new.up != st.up:
            self._table = None

    # -- depth raising ----------------------------------------------------------------

    def _remove_all(self, near, m, end, through):
        """Remove the arrows of the tier at ``end`` whose near weight
        component, or with ``near`` off their far one, equals m, one at a
        time through the floor at ``through``: the first shaft's arrow
        nearest that floor first.  Each arrow is weighed once, in the one
        component the sweep tests.  A snowplow changes no weight and moves
        no arrow but those it removes, so the matches are found once, by
        record."""
        found: dict = {}
        for g in self._gradings:
            for ca in self._shafts[g].arrows(end):
                if self._arrow_component(g, end, ca[0], ca[1], near) == m:
                    found.setdefault(g, {})[id(ca)] = ca  # held, so no id is reused
        for g, ids in found.items():
            seq = self._shafts[g].arrows(end)
            while held := [ca for ca in seq if id(ca) in ids]:
                self._snowplow_remove(g, end, held[-1] if through == TOP else held[0], through)

    def _slide_out(self, grading, end):
        """Turn every arrow of one tier out into the neighbouring shafts.

        The arrow at the exit boundary always goes first, so nothing is
        ever displaced.  A pair whose journeys have both already ended
        falls off for free instead of turning.
        """
        seq = self._shafts[grading].arrows(end)
        while seq:
            self._turn(grading, end, seq[_exit_index(seq, end)])

    def increase_depth(self):
        """Raise the depth m of the complex, ``depth()``, past m.

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
        their far floors.

        A pass that ran ends with one ``verify`` and returns its new depth;
        at depth infinity it changes and checks nothing and returns math.inf.
        """
        m = self.depth()
        if m == math.inf:
            return m
        for g in self.gradings():
            self._reparametrize(g, m)
        self._remove_all(True, m, TOP, TOP)
        self._remove_all(True, m, BOTTOM, BOTTOM)
        for g in self.gradings():
            self._reparametrize(g, m + 1, keep_upper=True)
            self._remove_all(True, m, TOP, TOP)
            self._slide_out(g, BOTTOM)
            self._reparametrize(g, m + 1)
            self._remove_all(True, m, BOTTOM, BOTTOM)
            self._slide_out(g, TOP)
        self._remove_all(False, m, TOP, BOTTOM)
        self._remove_all(False, m, BOTTOM, TOP)
        self.verify()
        reached = self.depth()
        if reached < m + 1:
            raise InvariantViolation("depth pass fell short")
        return reached

    def run_to_depth_infinity(self):
        """Iterate depth raising until every weight is (inf, inf).

        Each round is an ``increase_depth`` pass, which verifies what it
        changed and returns the depth it reached, so the loop adds no check
        and reads no depth of its own past the first: with no round run,
        the state is the one its producer already verified.
        """
        n = len(self.x_gens)
        bound = max(1, n * (n - 1))
        self.rounds, m = 0, self.depth()
        while m != math.inf:
            if self.rounds >= bound:
                raise InvariantViolation(
                    f"more than {bound} depth-raising rounds on rank {n}"
                )
            m = self.increase_depth()
            self.rounds += 1
        return self


def _power_mono(c: int, end, delta: int) -> tuple:
    return (c, 0, delta) if end == BOTTOM else (c, delta, 0)


# ---------------------------------------------------------------------------
# construction


def build(c: Complex) -> TwoStoryComplex:
    """Simplify both quotients of a complex and assemble its two-story form.

    ``simplify.simplified_transition`` checks the input, as every
    simplifier does, and returns both bases as found with the factored
    scalar transition X_0 = S Y_0; the constructor's ``verify`` checks them.
    """
    return TwoStoryComplex(c, simplified_transition(c))


# ---------------------------------------------------------------------------
# public operations


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
        for s, (x, q) in enumerate(zip(floor.term, floor.partner)):
            if x < 0:
                lines.append(f"  {floor.gens[s].id} -{power}^{-x}-> {floor.gens[q].id}")
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
