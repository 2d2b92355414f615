"""Free bigraded chain complexes over F[U,V] and over R1 = F[U,V]/(UV).

The data model is a finite ordered basis of bigraded generators together
with a differential whose matrix entries are monomials lambda U^a V^b.
Over R1 every mixed monomial is zero, so differentials there carry pure
U-powers, pure V-powers and scalars only.

Grading conventions: gr(U) = (-2, 0), gr(V) = (0, -2), gr(d) = (-1, -1).
An arrow src -> tgt labelled U^a V^b therefore forces
gr(tgt) = gr(src) + (2a - 1, 2b - 1), which is what the grading inference
helper walks along.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    FieldMismatch,
    GradingViolation,
    NotInvertible,
    ValidationError,
)
from .gf import FieldElem

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
        if not self.coeff.value:
            raise ValueError("monomials store nonzero coefficients only")
        if self.u_exp < 0 or self.v_exp < 0:
            raise ValueError("negative exponent")

    @property
    def grading(self) -> tuple:
        return (-2 * self.u_exp, -2 * self.v_exp)

    def is_scalar(self) -> bool:
        return self.u_exp == 0 and self.v_exp == 0

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
    """Product of two monomials, None when it dies in the ring."""
    c = a.coeff * b.coeff
    if not c.value:
        return None
    u, v = a.u_exp + b.u_exp, a.v_exp + b.v_exp
    if ring == RING_R1 and u > 0 and v > 0:
        return None
    return Monomial(c, u, v)


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


@dataclass(frozen=True, slots=True)
class Complex:
    """A finitely generated free bigraded chain complex.

    ``arrows`` is kept canonical: terms merged per (src, tgt, exponents),
    zero and ring-zero terms dropped, sorted by generator order.  Over R1
    a stored mixed monomial is the zero element, so it is dropped silently.
    """

    ring: str
    char: int
    generators: Tuple[Generator, ...]
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        if self.ring not in _RINGS:
            raise ValidationError(f"unknown ring tag {self.ring!r}")
        gens = tuple(self.generators)
        ids = [g.id for g in gens]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValidationError(f"duplicate generator id {dup!r}")
        index = {g.id: k for k, g in enumerate(gens)}
        p = self.char
        merged: Dict[tuple, int] = {}
        for a in tuple(self.arrows):
            if a.src not in index or a.tgt not in index:
                raise ValidationError(f"arrow {a.src} -> {a.tgt} references unknown generator")
            if a.mono.coeff.char != p:
                raise ValidationError(f"arrow {a.src} -> {a.tgt} coefficient outside F_{p}")
            if self.ring == RING_R1 and a.mono.u_exp > 0 and a.mono.v_exp > 0:
                continue  # UV = 0: the term is zero in R1
            key = (a.src, a.tgt, a.mono.u_exp, a.mono.v_exp)
            merged[key] = (merged.get(key, 0) + a.mono.coeff.value) % p
        canon = [
            Arrow(s, t, Monomial(FieldElem(c, p), u, v))
            for (s, t, u, v), c in merged.items()
            if c
        ]
        canon.sort(key=lambda a: (index[a.src], index[a.tgt], a.mono.u_exp, a.mono.v_exp))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "arrows", tuple(canon))

    # -- accessors ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.generators)

    def gen_index(self) -> Dict[str, int]:
        return {g.id: k for k, g in enumerate(self.generators)}

    def gen_map(self) -> Dict[str, Generator]:
        return {g.id: g for g in self.generators}

    def terms_from(self, src: str) -> List[Arrow]:
        return [a for a in self.arrows if a.src == src]

    def __str__(self):
        lines = [f"Complex({self.ring}, F_{self.char}, rank {self.rank})"]
        for g in self.generators:
            lines.append(f"  {g.id} at ({g.gr_u},{g.gr_v})")
        for a in self.arrows:
            lines.append(f"  d{a.src} += {a.mono}*{a.tgt}")
        return "\n".join(lines)


def empty_complex(ring: str, char: int) -> Complex:
    return Complex(ring, char, (), ())


# ---------------------------------------------------------------------------
# validation


def validate(c: Complex) -> list:
    """Check the chain complex axioms; the empty list means ok.

    Violations are human-readable strings naming offending generators:
    every differential term must have bidegree (-1,-1), and d^2 must
    vanish (computed with UV = 0 when the ring is R1).  ``reduce_mod_uv``
    uses it; ``twostory.build`` runs the same checks on sparse rows.
    """
    out = []
    gm = c.gen_map()
    for a in c.arrows:
        src, tgt = gm[a.src], gm[a.tgt]
        got = (tgt.gr_u - 2 * a.mono.u_exp, tgt.gr_v - 2 * a.mono.v_exp)
        want = (src.gr_u - 1, src.gr_v - 1)
        if got != want:
            out.append(
                f"term {a.src} -> {a.tgt} ({a.mono}) lands in bidegree {got}, expected {want}"
            )
    by_src: Dict[str, List[Arrow]] = {}
    for a in c.arrows:
        by_src.setdefault(a.src, []).append(a)
    for s in (g.id for g in c.generators):
        acc: Dict[tuple, FieldElem] = {}
        for a1 in by_src.get(s, ()):
            for a2 in by_src.get(a1.tgt, ()):
                m = mono_mul(a1.mono, a2.mono, c.ring)
                if m is None:
                    continue
                key = (a2.tgt, m.u_exp, m.v_exp)
                acc[key] = acc.get(key, FieldElem(0, c.char)) + m.coeff
        for (t, u, v), coeff in sorted(acc.items()):
            if coeff.value:
                out.append(f"d^2 != 0 at {s}: term {Monomial(coeff, u, v)} -> {t}")
    return out


def has_length_zero_arrow(c: Complex) -> bool:
    """True when some differential term is a plain scalar (length 0)."""
    return any(a.mono.is_scalar() for a in c.arrows)


# ---------------------------------------------------------------------------
# homogeneous matrices: sparse rows {col: (coeff, u_exp, v_exp)}, coeff in
# [1, p); rows are never mutated once a BasisChange holds them


def add_row_multiple(target: dict, m: tuple, row: dict, r1: bool, p: int) -> None:
    """target += m * row in place, for the monomial m = (coeff, u_exp, v_exp).

    Each cell of a homogeneous matrix is a single monomial; a sum of two
    terms with different exponents is a grading violation.
    """
    c, mu, mv = m
    for k, (d, u, v) in row.items():
        u += mu
        v += mv
        if r1 and u and v:
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


def _mul_rows(a, b, r1: bool, p: int) -> list:
    out = []
    for row in a:
        acc: dict = {}
        for k, m in row.items():
            add_row_multiple(acc, m, b[k], r1, p)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# basis changes


@dataclass(frozen=True, slots=True, init=False)
class BasisChange:
    """An expression of a new basis through an old one.

    Row i states new_i = sum_j rows[i][j] * old_j.  ``rows[i]`` is sparse: it
    maps a column j to ``(coeff, u_exp, v_exp)``, the monomial coeff U^u V^v
    with an int coefficient in [1, p).  ``entries`` is the dense view, rows
    of Monomial or None, which the constructor takes.  Legal changes are
    grading-homogeneous, so the gradings fix each entry's exponents, and
    have an invertible scalar part, which makes them invertible.
    """

    ring: str
    char: int
    old_gens: Tuple[Generator, ...]
    new_gens: Tuple[Generator, ...]
    rows: Tuple[dict, ...]

    def __init__(self, ring, char, old_gens, new_gens, entries):
        n = len(old_gens)
        if len(new_gens) != n or len(entries) != n:
            raise ValidationError("basis change must be square")
        if any(len(row) != n for row in entries):
            raise ValidationError("ragged basis change")
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

    @property
    def entries(self) -> Tuple[Tuple[Optional[Monomial], ...], ...]:
        n = len(self.old_gens)
        out = []
        for row in self.rows:
            dense: list = [None] * n
            for j, (c, u, v) in row.items():
                dense[j] = Monomial(FieldElem(c, self.char), u, v)
            out.append(tuple(dense))
        return tuple(out)

    def check_homogeneous(self) -> None:
        r1 = self.ring == RING_R1
        for gnew, row in zip(self.new_gens, self.rows):
            for j, (c, u, v) in row.items():
                gold = self.old_gens[j]
                if r1 and u > 0 and v > 0:
                    raise GradingViolation(
                        f"entry {gnew.id} <- {gold.id} is zero in R1 (mixed monomial)"
                    )
                if gnew.grading != (gold.gr_u - 2 * u, gold.gr_v - 2 * v):
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
        """
        self.check_homogeneous()
        n, p, r1 = len(self.old_gens), self.char, self.ring == RING_R1
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
                    add_row_multiple(work[r], neg, work[j], r1, p)
                    add_row_multiple(inv[r], neg, inv[j], r1, p)
        except GradingViolation as exc:
            raise GradingViolation(f"inhomogeneous elimination: {exc}") from exc
        return BasisChange.from_rows(self.ring, self.char, self.new_gens, self.old_gens, inv)

    def compose(self, first: "BasisChange") -> "BasisChange":
        """The change performing ``first`` and then this one."""
        if self.old_gens != first.new_gens:
            raise ValidationError("composition bases do not line up")
        rows = _mul_rows(self.rows, first.rows, self.ring == RING_R1, self.char)
        return BasisChange.from_rows(self.ring, self.char, first.old_gens, self.new_gens, rows)


def _set_fields(b: BasisChange, *values) -> None:
    for name, value in zip(BasisChange.__slots__, values):
        object.__setattr__(b, name, value)


def apply_basis_change(c: Complex, b: BasisChange) -> Complex:
    """Rewrite the differential in a new basis: D_new = P D P^-1.

    The products run on sparse int rows.  Arrows are grouped by bidegree
    first, so each cell holds a single monomial within a group; a complex
    whose arrows break the bigrading still gets every term of a cell.
    """
    if b.char != c.char or b.ring != c.ring:
        raise FieldMismatch("basis change over a different ring or field")
    if b.old_gens != c.generators:
        raise GradingViolation("basis change source basis does not match the complex")
    b_inv = b.inverse()  # checks homogeneity; raises NotInvertible when singular
    n, p, r1 = c.rank, c.char, c.ring == RING_R1
    index = c.gen_index()
    gens = c.generators
    by_degree: Dict[tuple, list] = {}
    for a in c.arrows:
        s, t, m = index[a.src], index[a.tgt], a.mono
        du = gens[t].gr_u - gens[s].gr_u - 2 * m.u_exp
        dv = gens[t].gr_v - gens[s].gr_v - 2 * m.v_exp
        d = by_degree.setdefault((du, dv), [{} for _ in range(n)])
        d[s][t] = (m.coeff.value, m.u_exp, m.v_exp)
    arrows = []
    for d in by_degree.values():
        new_d = _mul_rows(_mul_rows(b.rows, d, r1, p), b_inv.rows, r1, p)
        for i, row in enumerate(new_d):
            for j, (coeff, u, v) in row.items():
                arrows.append(
                    Arrow(b.new_gens[i].id, b.new_gens[j].id, Monomial(FieldElem(coeff, p), u, v))
                )
    return Complex(c.ring, c.char, b.new_gens, tuple(arrows))


def differential_rows(c: Complex) -> List[dict]:
    """The differential as sparse rows, ``d[s]`` mapping t to the term
    s -> t; the one conversion from a ``Complex``.  A term that breaks the
    bigrading raises GradingViolation."""
    gens, index = c.generators, c.gen_index()
    d: List[dict] = [{} for _ in gens]
    for a in c.arrows:
        s, t, m = index[a.src], index[a.tgt], a.mono
        if gens[t].grading != (gens[s].gr_u - 1 + 2 * m.u_exp, gens[s].gr_v - 1 + 2 * m.v_exp):
            raise GradingViolation(f"term {a.src} -> {a.tgt} ({m}) breaks the bigrading")
        d[s][t] = (m.coeff.value, m.u_exp, m.v_exp)
    return d


def quotient_rows(d: List[dict], k: int) -> List[dict]:
    """Sparse rows modulo U (k = 1) or V (k = 2)."""
    return [{j: e for j, e in row.items() if not e[k]} for row in d]


class Elimination:
    """A differential D and a basis change, moved together by elementary steps.

    ``d[s]`` is d(s) and ``rows[i]`` the current i-th basis element in the
    starting basis, both sparse rows; D starts as a copy of the rows it is
    handed, the change as the identity.  A change P turns D into P D P^-1
    and the change into P times it: one row and one column operation on D
    and one row operation on the change per step, with no P^-1 formed.
    Every step must respect the bigrading of ``gens`` (GradingViolation
    otherwise), so each cell stays a single monomial.  ``cancel`` is the
    one Gaussian cancellation step; the zero-pair strip and the quotient
    simplifier only pick the arrow it splits off.
    """

    def __init__(self, gens: Tuple[Generator, ...], char: int, ring: str, d: List[dict]):
        self.gens, self.p, self.r1 = gens, char, ring == RING_R1
        self.d = [dict(row) for row in d]
        self.rows: List[dict] = [{i: (1, 0, 0)} for i in range(len(gens))]

    def column(self, j: int) -> list:
        """The cells of column j of D as (row, (coeff, u_exp, v_exp))."""
        return [(i, row[j]) for i, row in enumerate(self.d) if j in row]

    def live(self, retired: set) -> list:
        """The cells (i, j, entry) of D with neither i nor j retired."""
        return [
            (i, j, e)
            for i, row in enumerate(self.d) if i not in retired
            for j, e in row.items() if j not in retired
        ]

    def add(self, r: int, g: int, m: tuple) -> None:
        """e_r <- e_r + m e_g for a monomial m = (coeff, u_exp, v_exp), r != g."""
        c, u, v = m
        gr, gg = self.gens[r], self.gens[g]
        if r == g or (self.r1 and u and v) or gr.grading != (gg.gr_u - 2 * u, gg.gr_v - 2 * v):
            raise GradingViolation(f"step {gr.id} += (U^{u} V^{v}) {gg.id} breaks the bigrading")
        p, r1 = self.p, self.r1
        add_row_multiple(self.d[r], m, self.d[g], r1, p)
        for i, e in self.column(r):
            add_row_multiple(self.d[i], (-c % p, u, v), {g: e}, r1, p)
        add_row_multiple(self.rows[r], m, self.rows[g], r1, p)

    def scale(self, i: int, c: int) -> None:
        """e_i <- c e_i for a scalar c that is nonzero mod p (ValueError otherwise)."""
        p = self.p
        if not c % p:
            raise ValueError("a basis element cannot be scaled by zero")
        inv = pow(c, p - 2, p)
        self.d[i] = _scaled(self.d[i], c, p)
        for k, (x, u, v) in self.column(i):
            self.d[k][i] = (x * inv % p, u, v)
        self.rows[i] = _scaled(self.rows[i], c, p)

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
        if self.d[s] != {t: (1, pu, pv)} or self.d[t] or self.column(s) or len(self.column(t)) != 1:
            ids = self.gens[s].id, self.gens[t].id
            raise ValidationError(f"not a chain complex: {ids[0]} -> {ids[1]} does not split off")


def _scaled(row: dict, c: int, p: int) -> dict:
    return {k: (x * c % p, u, v) for k, (x, u, v) in row.items()}


def intertwines(d: List[dict], change: BasisChange, arrows, k: int) -> bool:
    """Whether ``change`` turns d modulo U (k = 1) or V (k = 2) into
    ``arrows``, given as (src, tgt, length, coeff) in the new basis.

    d holds the quotient's sparse rows (``quotient_rows``), which the
    caller keeps across checks; p and the ring are read from ``change``.
    Modulo U or V, with X the change, D the differential and T the arrow
    matrix, X D X^-1 = T holds exactly when X D = T X, because X has an
    invertible scalar part; the second form needs no inverse.  A cell of
    either product that is not a single monomial means they differ.
    """
    p, r1 = change.char, change.ring == RING_R1
    x = quotient_rows(change.rows, k)
    t: List[dict] = [{} for _ in x]
    for s, tgt, length, coeff in arrows:
        coeff %= p
        if not coeff:
            return False  # an arrow with coefficient zero is not in any quotient
        t[s][tgt] = (coeff, 0, length) if k == 1 else (coeff, length, 0)
    try:
        return _mul_rows(x, d, r1, p) == _mul_rows(t, x, r1, p)
    except GradingViolation:
        return False


# ---------------------------------------------------------------------------
# structural operations


def reduce_mod_uv(c: Complex) -> Complex:
    """Pass from F[U,V] to R1 by deleting every mixed (diagonal) term."""
    if c.ring != RING_FUV:
        raise ValidationError("reduce_mod_uv needs a complex over F[U,V]; this one is over R1")
    kept = tuple([a for a in c.arrows if not (a.mono.u_exp > 0 and a.mono.v_exp > 0)])
    out = Complex(RING_R1, c.char, c.generators, kept)
    problems = validate(out)
    if problems:
        raise ValidationError(f"not a chain complex after reduction mod UV: {problems[0]}")
    return out


def bar(c: Complex) -> Complex:
    """Exchange the roles of U and V: swap exponents and swap gradings."""
    gens = tuple(Generator(g.id, g.gr_v, g.gr_u) for g in c.generators)
    arrows = tuple(
        Arrow(a.src, a.tgt, Monomial(a.mono.coeff, a.mono.v_exp, a.mono.u_exp)) for a in c.arrows
    )
    return Complex(c.ring, c.char, gens, arrows)


def _relabel(c: Complex, mapping: Dict[str, str]) -> Complex:
    gens = tuple(Generator(mapping.get(g.id, g.id), g.gr_u, g.gr_v) for g in c.generators)
    arrows = tuple(
        Arrow(mapping.get(a.src, a.src), mapping.get(a.tgt, a.tgt), a.mono) for a in c.arrows
    )
    return Complex(c.ring, c.char, gens, arrows)


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
    parts = []
    for k, c in enumerate(cs):
        mapping = {}
        for g in c.generators:
            new_id = g.id
            while new_id in taken:
                new_id = f"{g.id}@{k}" if new_id == g.id else new_id + "'"
            mapping[g.id] = new_id
            taken.add(new_id)
        parts.append(_relabel(c, mapping))
    gens = tuple(itertools.chain.from_iterable(p.generators for p in parts))
    arrows = tuple(itertools.chain.from_iterable(p.arrows for p in parts))
    return Complex(ring, char, gens, arrows)


# ---------------------------------------------------------------------------
# zero complex stripping


def strip_zero_complexes(c: Complex):
    """Split off every zero complex (length-0 arrow pair).

    Returns (d, k, b): the stripped complex, the number of zero complexes,
    and the accumulated basis change.  b maps the input onto the direct sum
    arrangement [survivors..., s_1, t_1, ..., s_k, t_k].  The input must be
    a bigraded chain complex: a term that breaks the bigrading raises
    GradingViolation before any step, and a pair that fails to split off
    (d^2 != 0) raises ValidationError.
    """
    el = Elimination(c.generators, c.char, c.ring, differential_rows(c))
    pairs: List[tuple] = []
    retired: set = set()
    while scalars := [(s, t) for s, t, (_, u, v) in el.live(retired) if not u and not v]:
        s, t = min(scalars)
        el.cancel(s, t)
        retired.update((s, t))
        pairs.append((s, t))
    keep = [i for i in range(c.rank) if i not in retired]
    order = keep + [i for pair in pairs for i in pair]
    gens = c.generators
    arrows = [
        Arrow(gens[i].id, gens[j].id, Monomial(FieldElem(x, c.char), u, v))
        for i in keep
        for j, (x, u, v) in el.d[i].items()
    ]
    d = Complex(c.ring, c.char, tuple([gens[i] for i in keep]), tuple(arrows))
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
