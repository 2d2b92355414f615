"""Free bigraded chain complexes over R1 = F[U,V]/(UV).

The data model is a finite ordered basis of bigraded generators together
with a differential whose matrix entries are monomials lambda U^a V^b.
Over R1 every mixed monomial is zero, so differentials there carry pure
U-powers, pure V-powers and scalars only.  All arithmetic on sparse rows
is over R1.  A complex over F[U,V] is built, validated, barred and
summed, and enters that arithmetic through ``reduce_mod_uv``; basis
changes, their application and the zero-pair strip refuse it.  A
``Complex`` holds its differential as int terms (s, t, a, b, lambda) on
generator positions, with lambda in [1, p); ``Arrow``s with boxed
coefficients are a view built on demand.

Grading conventions: gr(U) = (-2, 0), gr(V) = (0, -2), gr(d) = (-1, -1).
An arrow src -> tgt labelled U^a V^b therefore forces
gr(tgt) = gr(src) + (2a - 1, 2b - 1), which is what the grading inference
helper walks along.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    FieldMismatch,
    GradingViolation,
    NotInvertible,
    ValidationError,
)
from .gf import FieldElem, _check_prime, _is_int

RING_R1 = "r1"
RING_FUV = "fuv"
_RINGS = (RING_R1, RING_FUV)


@dataclass(frozen=True, slots=True)
class Monomial:
    """A nonzero term lambda U^u V^v with lambda in F_p."""

    coeff: FieldElem
    u_exp: int
    v_exp: int

    def __post_init__(self):
        if not isinstance(self.coeff, FieldElem):
            raise ValueError(f"the coefficient {self.coeff!r} is not a FieldElem; mono() takes an int")
        if not self.coeff.value:
            raise ValueError("monomials store nonzero coefficients only")
        u, v = self.u_exp, self.v_exp  # exact ints first: every monomial comes here
        if not (type(u) is int and type(v) is int or _is_int(u) and _is_int(v)):
            raise ValueError(f"an exponent of U^{u!r} V^{v!r} is not an int")
        if u < 0 or v < 0:
            raise ValueError("negative exponent")

    def __str__(self):
        parts = []
        if self.u_exp:
            parts.append("U" + (f"^{self.u_exp}" if self.u_exp > 1 else ""))
        if self.v_exp:
            parts.append("V" + (f"^{self.v_exp}" if self.v_exp > 1 else ""))
        if self.coeff.value != 1 or not parts:
            parts.insert(0, str(self.coeff.value))
        return "*".join(parts)


def mono(coeff, u_exp: int, v_exp: int, char: Optional[int] = None) -> Monomial:
    """Convenience constructor accepting an int or FieldElem coefficient."""
    if not isinstance(coeff, FieldElem):
        coeff = FieldElem(coeff, char)
    return Monomial(coeff, u_exp, v_exp)


def mono_mul(a: Monomial, b: Monomial, ring: str) -> Optional[Monomial]:
    """Product of two monomials, None when it dies in the ring; a ring tag
    other than RING_R1 and RING_FUV raises ValidationError."""
    c = a.coeff * b.coeff
    u, v = a.u_exp + b.u_exp, a.v_exp + b.v_exp
    if ring == RING_R1:
        if u > 0 and v > 0:
            return None
    elif ring != RING_FUV:
        raise ValidationError(f"unknown ring tag {ring!r}")
    return Monomial(c, u, v) if c.value else None


@dataclass(frozen=True, slots=True)
class Generator:
    """A basis element with its bigrading."""

    id: str
    gr_u: int
    gr_v: int

    @property
    def grading(self) -> tuple:
        return (self.gr_u, self.gr_v)


class Arrow(NamedTuple):
    """One differential term: d(src) gains mono * tgt."""

    src: str
    tgt: str
    mono: Monomial


@dataclass(frozen=True, slots=True, init=False)
class Complex:
    """A finitely generated free bigraded chain complex.

    The differential is held as ``terms``: int tuples (s, t, u, v, c), the
    term c U^u V^v of d(generators[s]) at generators[t], with c in [1, p),
    one per (s, t, u, v) and sorted.  Over R1 a mixed monomial is the zero
    element, so the constructor drops one silently.  The constructor refuses
    a characteristic that is not a prime int (ValueError), and a ring tag
    it does not know, a generator that is no ``Generator`` with a str id
    and int gradings or an arrow that is no ``Arrow`` of a ``Monomial``
    (ValidationError), then merges and sorts the ``Arrow``s it is handed;
    ``from_terms`` wraps terms that are canonical already and checks
    nothing.  ``arrows`` is the differential as ``Arrow``s, built on each
    read and in the same order.
    """

    ring: str
    char: int
    generators: Tuple[Generator, ...]
    terms: Tuple[tuple, ...]

    def __init__(self, ring, char, generators, arrows):
        _check_prime(char)
        gens = tuple(generators)
        _check_ring_and_gens(ring, gens)
        index = {g.id: k for k, g in enumerate(gens)}
        merged: Dict[tuple, int] = {}
        for a in arrows:
            if not (isinstance(a, Arrow) and isinstance(a.mono, Monomial)):
                raise ValidationError(f"{a!r} is not an Arrow with a Monomial")
            if a.src not in index or a.tgt not in index:
                raise ValidationError(f"arrow {a.src} -> {a.tgt} references unknown generator")
            if a.mono.coeff.char != char:
                raise ValidationError(f"arrow {a.src} -> {a.tgt} coefficient outside F_{char}")
            if ring == RING_R1 and a.mono.u_exp > 0 and a.mono.v_exp > 0:
                continue  # UV = 0: the term is zero in R1
            key = (index[a.src], index[a.tgt], a.mono.u_exp, a.mono.v_exp)
            merged[key] = (merged.get(key, 0) + a.mono.coeff.value) % char
        terms = sorted([(*key, c) for key, c in merged.items() if c])
        _set_fields(self, ring, char, gens, tuple(terms))

    @classmethod
    def from_terms(cls, ring, char, generators, terms) -> "Complex":
        """Wrap canonical terms as they are; the caller hands them over."""
        c = object.__new__(cls)
        _set_fields(c, ring, char, tuple(generators), tuple(terms))
        return c

    @property
    def arrows(self) -> Tuple[Arrow, ...]:
        gens, p = self.generators, self.char
        return tuple([
            Arrow(gens[s].id, gens[t].id, Monomial(FieldElem(c, p), u, v))
            for s, t, u, v, c in self.terms
        ])

    # -- accessors ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __str__(self):
        lines = [f"Complex({self.ring}, F_{self.char}, rank {self.rank})"]
        for g in self.generators:
            lines.append(f"  {g.id} at ({g.gr_u},{g.gr_v})")
        for a in self.arrows:
            lines.append(f"  d{a.src} += {a.mono}*{a.tgt}")
        return "\n".join(lines)


def _check_ring_and_gens(ring, *bases) -> None:
    """Refuse an unknown ring tag, an element of a basis that is no
    ``Generator`` with int gradings and a str id, or an id twice in one
    basis (ValidationError)."""
    if ring not in _RINGS:
        raise ValidationError(f"unknown ring tag {ring!r}")
    for gens in bases:
        for g in gens:
            if not (isinstance(g, Generator) and _is_int(g.gr_u) and _is_int(g.gr_v)):
                raise ValidationError(f"{g!r} is not a Generator with int gradings")
            if not isinstance(g.id, str):
                raise ValidationError(f"generator id {g.id!r} is not a str")
        ids = [g.id for g in gens]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValidationError(f"duplicate generator id {dup!r}")


# ---------------------------------------------------------------------------
# validation


def validate(c: Complex) -> list:
    """Check the chain complex axioms; the empty list means ok.

    Violations are human-readable strings naming offending generators:
    every differential term must have bidegree (-1,-1), and d^2 must
    vanish (computed with UV = 0 when the ring is R1).  ``reduce_mod_uv``
    uses it; the simplifiers run the same checks on sparse rows.
    """
    out, gens, p, r1 = [], c.generators, c.char, c.ring == RING_R1
    by_src: List[list] = [[] for _ in gens]
    for s, t, u, v, x in c.terms:
        got = (gens[t].gr_u - 2 * u, gens[t].gr_v - 2 * v)
        want = (gens[s].gr_u - 1, gens[s].gr_v - 1)
        if got != want:
            m, ids = Monomial(FieldElem(x, p), u, v), (gens[s].id, gens[t].id)
            out.append(f"term {ids[0]} -> {ids[1]} ({m}) lands in bidegree {got}, expected {want}")
        by_src[s].append((t, u, v, x))
    for g, firsts in zip(gens, by_src):
        acc: Dict[tuple, int] = {}
        for t, u, v, x in firsts:
            for t2, u2, v2, x2 in by_src[t]:
                if not (r1 and u + u2 and v + v2):
                    key = (gens[t2].id, u + u2, v + v2)
                    acc[key] = (acc.get(key, 0) + x * x2) % p
        for (t, u, v), x in sorted(acc.items()):
            if x:
                out.append(f"d^2 != 0 at {g.id}: term {Monomial(FieldElem(x, p), u, v)} -> {t}")
    return out


# ---------------------------------------------------------------------------
# homogeneous matrices: sparse rows {col: (coeff, u_exp, v_exp)}, coeff in
# [1, p); rows are never mutated once a BasisChange holds them


def add_row_multiple(target: dict, m: tuple, row: dict, p: int) -> None:
    """target += m * row in place over R1, for the monomial m = (coeff,
    u_exp, v_exp): a mixed product is zero there and is dropped.

    Each cell of a homogeneous matrix is a single monomial; a sum of two
    terms with different exponents is a grading violation.
    """
    c, mu, mv = m
    for k, (d, u, v) in row.items():
        u += mu
        v += mv
        if u and v:
            continue
        cur = target.get(k)
        if cur is None:
            target[k] = (c * d % p, u, v)
        elif cur[1] != u or cur[2] != v:
            raise GradingViolation(f"cell {k} is not a single monomial")
        else:
            s = (cur[0] + c * d) % p
            if s:
                target[k] = (s, u, v)
            else:
                del target[k]


def _mul_rows(a, b, p: int) -> list:
    out = []
    for row in a:
        acc: dict = {}
        for k, m in row.items():
            add_row_multiple(acc, m, b[k], p)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# basis changes


@dataclass(frozen=True, slots=True, init=False)
class BasisChange:
    """An expression of a new basis through an old one.

    Row i states new_i = sum_j rows[i][j] * old_j.  ``rows[i]`` is sparse: it
    maps a column j to ``(coeff, u_exp, v_exp)``, the monomial coeff U^u V^v
    with an int coefficient in [1, p).  The constructor takes dense
    ``entries``, rows of Monomial or None, over a prime int ``char``
    (ValueError otherwise).  Changes are over R1: it refuses ``RING_FUV``,
    naming ``reduce_mod_uv``, what ``Complex`` refuses in the ring tag and
    in either basis (so an id twice in one basis; the two bases may share
    ids), and any other entry (ValidationError); ``from_rows`` checks
    nothing.  Legal changes are grading-homogeneous, so the gradings fix
    each entry's exponents, and have an invertible scalar part, which makes
    them invertible.
    """

    ring: str
    char: int
    old_gens: Tuple[Generator, ...]
    new_gens: Tuple[Generator, ...]
    rows: Tuple[dict, ...]

    def __init__(self, ring, char, old_gens, new_gens, entries):
        _check_prime(char)
        if ring == RING_FUV:
            raise ValidationError("basis changes are over R1: reduce_mod_uv first")
        _check_ring_and_gens(ring, old_gens, new_gens)
        n = len(old_gens)
        if len(new_gens) != n or len(entries) != n:
            raise ValidationError("basis change must be square")
        if any(len(row) != n for row in entries):
            raise ValidationError("ragged basis change")
        bad = [m for row in entries for m in row if m is not None and not isinstance(m, Monomial)]
        if bad:
            raise ValidationError(f"basis change entry {bad[0]!r} is no Monomial or None")
        if any(m is not None and m.coeff.char != char for row in entries for m in row):
            raise FieldMismatch(f"basis change entry outside F_{char}")
        rows = tuple([
            {j: (m.coeff.value, m.u_exp, m.v_exp) for j, m in enumerate(row) if m is not None}
            for row in entries
        ])
        _set_fields(self, ring, char, old_gens, new_gens, rows)

    @classmethod
    def from_rows(cls, ring, char, old_gens, new_gens, rows) -> "BasisChange":
        """Wrap sparse rows as they are; the caller hands them over."""
        b = object.__new__(cls)
        _set_fields(b, ring, char, old_gens, new_gens, tuple(rows))
        return b

    @classmethod
    def identity(cls, c: Complex) -> "BasisChange":
        rows = tuple([{i: (1, 0, 0)} for i in range(c.rank)])
        return cls.from_rows(c.ring, c.char, c.generators, c.generators, rows)

    def check_homogeneous(self) -> None:
        old = self.old_gens
        for gnew, row in zip(self.new_gens, self.rows):
            gu, gv = gnew.gr_u, gnew.gr_v
            for j, (c, u, v) in row.items():
                gold = old[j]
                if u > 0 and v > 0:
                    raise GradingViolation(
                        f"entry {gnew.id} <- {gold.id} is zero in R1 (mixed monomial)"
                    )
                if gu != gold.gr_u - 2 * u or gv != gold.gr_v - 2 * v:
                    m = Monomial(FieldElem(c, self.char), u, v)
                    raise GradingViolation(
                        f"entry {gnew.id} <- {gold.id} ({m}) breaks the bigrading"
                    )

    def inverse(self) -> "BasisChange":
        """Invert by Gauss-Jordan elimination over the ring, on scalar pivots.

        Row operations subtract monomial multiples of the pivot row.  No
        exponent is negative, so a nonscalar multiple only touches nonscalar
        entries: the scalar part of the working matrix changes exactly as
        plain Gauss-Jordan on the scalar part S would.  A scalar pivot thus
        exists in every column exactly when S is invertible; otherwise
        NotInvertible is raised.  Each step keeps the rows homogeneous.
        Off the pipeline path: ``apply_basis_change`` and test oracles use it.
        """
        self.check_homogeneous()
        n, p = len(self.old_gens), self.char
        work = [dict(row) for row in self.rows]
        inv: list = [{i: (1, 0, 0)} for i in range(n)]
        try:
            for j in range(n):
                scalar = (i for i in range(j, n) if work[i].get(j, (0, 1))[1:] == (0, 0))
                piv = next(scalar, None)
                if piv is None:
                    raise NotInvertible("scalar part of the basis change is singular")
                work[j], work[piv], inv[j], inv[piv] = work[piv], work[j], inv[piv], inv[j]
                c = work[j][j][0]
                if c != 1:
                    c = pow(c, p - 2, p)
                    work[j] = {k: (d * c % p, u, v) for k, (d, u, v) in work[j].items()}
                    inv[j] = {k: (d * c % p, u, v) for k, (d, u, v) in inv[j].items()}
                for r in range(n):
                    m = work[r].get(j)
                    if m is None or r == j:
                        continue
                    neg = (p - m[0], m[1], m[2])
                    add_row_multiple(work[r], neg, work[j], p)
                    add_row_multiple(inv[r], neg, inv[j], p)
        except GradingViolation as exc:
            raise GradingViolation(f"inhomogeneous elimination: {exc}") from exc
        return BasisChange.from_rows(self.ring, self.char, self.new_gens, self.old_gens, inv)

    def compose(self, first: "BasisChange") -> "BasisChange":
        """The change performing ``first`` and then this one.  Off the
        pipeline path: input generators and test oracles use it."""
        if self.char != first.char or self.ring != first.ring:
            raise FieldMismatch("composition over a different ring or field")
        if self.old_gens != first.new_gens:
            raise ValidationError("composition bases do not line up")
        rows = _mul_rows(self.rows, first.rows, self.char)
        return BasisChange.from_rows(self.ring, self.char, first.old_gens, self.new_gens, rows)


def _set_fields(obj, *values) -> None:
    for name, value in zip(type(obj).__slots__, values):
        object.__setattr__(obj, name, value)


def apply_basis_change(c: Complex, b: BasisChange) -> Complex:
    """Rewrite the differential in a new basis: D_new = P D P^-1.

    The products run over R1, on the sparse rows of ``differential_rows``:
    a complex over F[U,V] is refused (ValidationError, ``reduce_mod_uv``
    first), and a term of ``c`` that breaks the bigrading raises
    GradingViolation.  On homogeneous rows each cell of the product is a
    single monomial, and the sorted cells are canonical terms.
    """
    if c.ring != RING_R1:
        raise ValidationError("basis changes apply over R1: reduce_mod_uv first")
    if b.char != c.char or b.ring != c.ring:
        raise FieldMismatch("basis change over a different ring or field")
    if b.old_gens != c.generators:
        raise GradingViolation("basis change source basis does not match the complex")
    b_inv = b.inverse()  # checks homogeneity; raises NotInvertible when singular
    p = c.char
    new_d = _mul_rows(_mul_rows(b.rows, differential_rows(c), p), b_inv.rows, p)
    terms = [(i, j, u, v, x) for i, row in enumerate(new_d) for j, (x, u, v) in row.items()]
    return Complex.from_terms(c.ring, p, b.new_gens, sorted(terms))


def differential_rows(c: Complex) -> List[dict]:
    """The differential as sparse rows, ``d[s]`` mapping t to the term
    s -> t, read straight off ``c.terms``; the one conversion from a
    ``Complex``.  A term that breaks the bigrading raises GradingViolation."""
    gr = [(g.gr_u, g.gr_v) for g in c.generators]
    d: List[dict] = [{} for _ in gr]
    for s, t, u, v, x in c.terms:
        (su, sv), (tu, tv) = gr[s], gr[t]
        if tu != su - 1 + 2 * u or tv != sv - 1 + 2 * v:
            ids, m = (c.generators[s].id, c.generators[t].id), Monomial(FieldElem(x, c.char), u, v)
            raise GradingViolation(f"term {ids[0]} -> {ids[1]} ({m}) breaks the bigrading")
        d[s][t] = (x, u, v)
    return d


def quotient_row(row: dict, k: int) -> dict:
    """A sparse row modulo U (k = 1) or V (k = 2): the row itself when it
    has no entry in that variable, else a filtered copy."""
    for e in row.values():
        if e[k]:
            return {j: e for j, e in row.items() if not e[k]}
    return row


def quotient_rows(d: List[dict], k: int) -> List[dict]:
    """``quotient_row`` of each row: a row with nothing to drop is shared."""
    return [quotient_row(row, k) for row in d]


def add_step(rows: List[dict], gens: Sequence[Generator], r: int, g: int, m: tuple, p: int) -> None:
    """e_r <- e_r + c U^u V^v e_g on basis rows over R1 in place, for
    m = (c, u, v).  Before any row changes, r == g, a mixed monomial (zero
    in R1) or a step off the bigrading of ``gens`` raises GradingViolation."""
    _, u, v = m
    gr, gg = gens[r], gens[g]
    if r == g or (u and v) or gr.grading != (gg.gr_u - 2 * u, gg.gr_v - 2 * v):
        raise GradingViolation(f"step {gr.id} += (U^{u} V^{v}) {gg.id} breaks the bigrading")
    add_row_multiple(rows[r], m, rows[g], p)


class Elimination:
    """A differential D and a basis change over R1, moved together by
    elementary steps.

    ``d[s]`` is d(s) and ``rows[i]`` the current i-th basis element in the
    starting basis, both sparse rows; D starts as a copy of the rows it is
    handed, the change as the identity.  A change P turns D into P D P^-1
    and the change into P times it: one row and one column operation on D
    and one row operation on the change per step, with no P^-1 formed.
    An add's row half, with its checks, is ``add_step`` on ``gens``, so
    each cell stays a single monomial.  ``cols[j]`` is the set of rows
    i with j in ``d[i]``, kept by every step, so ``column`` reads a column
    without scanning D, in ascending row order.  ``touched`` gathers
    the rows of D the steps write (all rows at first): row r and the rows
    of column r for ``add``, row i and the rows of column i for ``scale``.
    ``cancel`` is the one Gaussian cancellation step and
    ``cancel_in_order`` the one pivot loop; the zero-pair strip and the
    quotient simplifier only rank the cells.
    """

    def __init__(self, gens: Tuple[Generator, ...], char: int, d: List[dict]):
        self.gens, self.p = gens, char
        self.d = [dict(row) for row in d]
        self.rows: List[dict] = [{i: (1, 0, 0)} for i in range(len(gens))]
        self.touched = set(range(len(gens)))
        self.cols: List[set] = [set() for _ in gens]
        for i, row in enumerate(self.d):
            for j in row:
                self.cols[j].add(i)

    def column(self, j: int) -> list:
        """Column j of D as (row, (coeff, u_exp, v_exp)) cells, rows ascending."""
        return [(i, self.d[i][j]) for i in sorted(self.cols[j])]

    def _reindex(self, i: int, j: int) -> None:
        """Bring ``cols[j]`` in line with whether row i of D holds j."""
        if j in self.d[i]:
            self.cols[j].add(i)
        else:
            self.cols[j].discard(i)

    def add(self, r: int, g: int, m: tuple) -> None:
        """e_r <- e_r + m e_g for a monomial m = (coeff, u_exp, v_exp), r != g."""
        add_step(self.rows, self.gens, r, g, m, self.p)
        c, u, v = m
        p = self.p
        add_row_multiple(self.d[r], m, self.d[g], p)
        for j in self.d[g]:
            self._reindex(r, j)
        self.touched.add(r)
        for i, e in self.column(r):
            add_row_multiple(self.d[i], (-c % p, u, v), {g: e}, p)
            self._reindex(i, g)
            self.touched.add(i)

    def scale(self, i: int, c: int) -> None:
        """e_i <- c e_i for a scalar c that is nonzero mod p (ValueError otherwise)."""
        p = self.p
        if not c % p:
            raise ValueError("a basis element cannot be scaled by zero")
        self.rows[i] = _scaled(self.rows[i], c, p)
        inv = pow(c, p - 2, p)
        self.d[i] = _scaled(self.d[i], c, p)
        self.touched.add(i)
        for k, (x, u, v) in self.column(i):
            self.d[k][i] = (x * inv % p, u, v)
            self.touched.add(k)

    def cancel(self, s: int, t: int) -> None:
        """Split the arrow s -> t off, leaving it with coefficient 1.

        d(s) is folded into t, each term with its exponents taken relative
        to the pivot's own, so that d(s) hits t alone; every other source
        of an arrow into t slides along s to drop it; t is scaled to make
        the coefficient 1.  On a chain complex s -> t is then the only
        arrow at s or t; otherwise d^2 != 0 and ValidationError is raised.
        """
        p = self.p
        piv, pu, pv = self.d[s][t]
        piv_inv = pow(piv, p - 2, p)
        for j, (x, u, v) in list(self.d[s].items()):
            if j != t:
                self.add(t, j, (x * piv_inv % p, u - pu, v - pv))
        for i, (x, u, v) in self.column(t):
            if i != s:
                self.add(i, s, (-x * piv_inv % p, u - pu, v - pv))
        if piv != 1:
            self.scale(t, piv)
        if self.d[s] != {t: (1, pu, pv)} or self.d[t] or self.cols[s] or len(self.cols[t]) != 1:
            ids = self.gens[s].id, self.gens[t].id
            raise ValidationError(f"not a chain complex: {ids[0]} -> {ids[1]} does not split off")

    def cancel_in_order(self, rank) -> List[tuple]:
        """Cancel the least live cell of D until none is left, and return
        the (s, t) pairs in order.  A cell (i, j, e) is live while i and j
        are in no cancelled pair and rank(e) is not None; it is ordered by
        (rank(e), i, j).  A min-heap gets the cells of the touched rows
        before each pop, and a popped entry counts only if it is still live
        and still in D.  Every changed cell lies in a touched row, so each
        pivot is the one a rescan of every cell would pick.
        """
        heap: list = []
        retired: set = set()
        pairs: List[tuple] = []
        while True:
            for i in self.touched - retired:
                for j, e in self.d[i].items():
                    if j not in retired and (k := rank(e)) is not None:
                        heapq.heappush(heap, (k, i, j, e))
            self.touched.clear()
            while heap:
                _, s, t, e = heapq.heappop(heap)
                if s not in retired and t not in retired and self.d[s].get(t) == e:
                    break
            else:
                return pairs
            self.cancel(s, t)
            retired.update((s, t))
            pairs.append((s, t))


def _scaled(row: dict, c: int, p: int) -> dict:
    return {k: (x * c % p, u, v) for k, (x, u, v) in row.items()}


# ---------------------------------------------------------------------------
# structural operations


def reduce_mod_uv(c: Complex) -> Complex:
    """Pass from F[U,V] to R1 by deleting every mixed (diagonal) term."""
    if c.ring != RING_FUV:
        raise ValidationError("reduce_mod_uv needs a complex over F[U,V]; this one is over R1")
    kept = [x for x in c.terms if not (x[2] and x[3])]
    out = Complex.from_terms(RING_R1, c.char, c.generators, kept)
    problems = validate(out)
    if problems:
        raise ValidationError(f"not a chain complex after reduction mod UV: {problems[0]}")
    return out


def bar(c: Complex) -> Complex:
    """Exchange the roles of U and V: swap exponents and swap gradings."""
    gens = tuple(Generator(g.id, g.gr_v, g.gr_u) for g in c.generators)
    terms = sorted([(s, t, v, u, x) for s, t, u, v, x in c.terms])
    return Complex.from_terms(c.ring, c.char, gens, terms)


def _relabel(c: Complex, mapping: Dict[str, str]) -> Complex:
    gens = tuple(Generator(mapping.get(g.id, g.id), g.gr_u, g.gr_v) for g in c.generators)
    return Complex.from_terms(c.ring, c.char, gens, c.terms)


def direct_sum(cs: Sequence[Complex]) -> Complex:
    """Block sum; generator ids are kept unless they collide, in which case
    the later copy gets an ``@k`` suffix (k = component index)."""
    if not cs:
        raise ValidationError("direct sum needs an explicit component; none given")
    ring, char = cs[0].ring, cs[0].char
    for c in cs[1:]:
        if c.char != char:
            raise FieldMismatch(f"components over F_{char} and F_{c.char}")
        if c.ring != ring:
            raise FieldMismatch(f"components over rings {ring} and {c.ring}")
    taken: set = set()
    gens: list = []
    terms: list = []
    for k, c in enumerate(cs):
        mapping = {}
        for g in c.generators:
            new_id = g.id
            while new_id in taken:
                new_id = f"{g.id}@{k}" if new_id == g.id else new_id + "'"
            mapping[g.id] = new_id
            taken.add(new_id)
        n = len(gens)
        terms += [(s + n, t + n, u, v, x) for s, t, u, v, x in c.terms]
        gens += _relabel(c, mapping).generators
    return Complex.from_terms(ring, char, gens, terms)


# ---------------------------------------------------------------------------
# zero complex stripping


def strip_zero_complexes(c: Complex):
    """Split off every zero complex (length-0 arrow pair).

    Returns (d, k, b): the stripped complex, the number of zero complexes,
    and the accumulated basis change.  b maps the input onto the direct sum
    arrangement [survivors..., s_1, t_1, ..., s_k, t_k].  The input must be
    a bigraded chain complex over R1 (``reduce_mod_uv`` first, else
    ValidationError): a term that breaks the bigrading raises
    GradingViolation before any step, and a pair that fails to split off
    (d^2 != 0) raises ValidationError.  The least scalar cell (s, t) left
    is cancelled first, popped off ``Elimination.cancel_in_order``'s heap.
    No split-off pair meets a survivor, so the survivors' rows of D are
    already d's terms: ``Complex.from_terms`` wraps them, renumbered.
    """
    if c.ring != RING_R1:
        raise ValidationError("zero complexes are stripped over R1: reduce_mod_uv first")
    el = Elimination(c.generators, c.char, differential_rows(c))
    pairs = el.cancel_in_order(lambda e: None if e[1] or e[2] else 0)
    cancelled = [i for pair in pairs for i in pair]
    keep = sorted(set(range(c.rank)).difference(cancelled))
    order = keep + cancelled
    gens, at = c.generators, {i: k for k, i in enumerate(keep)}
    terms = [
        (k, at[j], u, v, x) for k, i in enumerate(keep) for j, (x, u, v) in sorted(el.d[i].items())
    ]
    d = Complex.from_terms(c.ring, c.char, [gens[i] for i in keep], terms)
    new_gens = tuple([gens[i] for i in order])
    total = BasisChange.from_rows(c.ring, c.char, gens, new_gens, [el.rows[i] for i in order])
    return d, len(pairs), total


# ---------------------------------------------------------------------------
# grading inference


def infer_gradings(
    gen_ids: Sequence[str],
    arrows: Sequence[tuple],
    anchors: Dict[str, tuple],
) -> Dict[str, tuple]:
    """Propagate bigradings along arrows from per-component anchors.

    ``arrows`` holds (src, tgt, u_exp, v_exp) tuples.  Each arrow forces
    gr(tgt) = gr(src) + (2u - 1, 2v - 1); anchors pin one generator per
    connected component.  Conflicts or unanchored components raise
    ValidationError.
    """
    neighbors: Dict[str, List[tuple]] = {g: [] for g in gen_ids}
    for src, tgt, u, v in arrows:
        if src not in neighbors or tgt not in neighbors:
            raise ValidationError(f"arrow {src} -> {tgt} names an unknown generator")
        delta = (2 * u - 1, 2 * v - 1)
        neighbors[src].append((tgt, delta))
        neighbors[tgt].append((src, (-delta[0], -delta[1])))
    known: Dict[str, tuple] = {}
    for gid, gr in anchors.items():
        if gid not in neighbors:
            raise ValidationError(f"anchor names unknown generator {gid!r}")
        known[gid] = gr
    queue = list(known)
    while queue:
        cur = queue.pop()
        for other, delta in neighbors[cur]:
            want = (known[cur][0] + delta[0], known[cur][1] + delta[1])
            if other in known:
                if known[other] != want:
                    raise ValidationError(
                        f"grading conflict at {other!r}: {known[other]} vs {want}"
                    )
            else:
                known[other] = want
                queue.append(other)
    missing = [g for g in gen_ids if g not in known]
    if missing:
        raise ValidationError(
            f"no anchor reaches generator {missing[0]!r}; add an anchor or explicit grading"
        )
    return known
