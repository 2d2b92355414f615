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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
        merged: Dict[tuple, FieldElem] = {}
        for a in tuple(self.arrows):
            if a.src not in index or a.tgt not in index:
                raise ValidationError(f"arrow {a.src} -> {a.tgt} references unknown generator")
            if a.mono.coeff.char != self.char:
                raise ValidationError(f"arrow {a.src} -> {a.tgt} coefficient outside F_{self.char}")
            if self.ring == RING_R1 and a.mono.u_exp > 0 and a.mono.v_exp > 0:
                continue  # UV = 0: the term is zero in R1
            key = (a.src, a.tgt, a.mono.u_exp, a.mono.v_exp)
            merged[key] = merged.get(key, FieldElem(0, self.char)) + a.mono.coeff
        canon = [
            Arrow(s, t, Monomial(c, u, v))
            for (s, t, u, v), c in merged.items()
            if c.value
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

    def grading(self, gen_id: str) -> tuple:
        return self.gen_map()[gen_id].grading

    def terms_from(self, src: str) -> List[Arrow]:
        return [a for a in self.arrows if a.src == src]

    def terms_into(self, tgt: str) -> List[Arrow]:
        return [a for a in self.arrows if a.tgt == tgt]

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
    vanish (computed with UV = 0 when the ring is R1).
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


# ---------------------------------------------------------------------------
# structural operations


def reduce_mod_uv(c: Complex) -> Complex:
    """Pass from F[U,V] to R1 by deleting every mixed (diagonal) term."""
    if c.ring != RING_FUV:
        raise ValidationError("reduce_mod_uv needs a complex over F[U,V]; this one is over R1")
    kept = tuple([a for a in c.arrows if not (a.mono.u_exp > 0 and a.mono.v_exp > 0)])
    out = Complex(RING_R1, c.char, c.generators, kept)
    assert not validate(out), "reduction mod UV left a non-complex"
    return out


def quotient_u(c: Complex) -> Complex:
    """Set U = 0: drop every term with a positive U power.

    The result only carries V-power arrows and is read as a complex of
    free graded F[V]-modules; the container type is unchanged.
    """
    kept = tuple([a for a in c.arrows if a.mono.u_exp == 0])
    return Complex(c.ring, c.char, c.generators, kept)


def quotient_v(c: Complex) -> Complex:
    """Set V = 0: drop every term with a positive V power."""
    kept = tuple([a for a in c.arrows if a.mono.v_exp == 0])
    return Complex(c.ring, c.char, c.generators, kept)


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


def _strip_one(c: Complex, retired: set):
    """Split off the minimal active length-0 arrow, or return None."""
    index = c.gen_index()
    cands = [
        a
        for a in c.arrows
        if a.mono.is_scalar() and a.src not in retired and a.tgt not in retired
    ]
    if not cands:
        return None
    arrow = min(cands, key=lambda a: (index[a.src], index[a.tgt]))
    s, t, lam = arrow.src, arrow.tgt, arrow.mono.coeff
    p = c.char
    rows = [{i: (1, 0, 0)} for i in range(c.rank)]
    si, ti = index[s], index[t]
    # row t becomes d(s) itself; its t-coefficient lam is an invertible scalar
    rows[ti] = {}
    for a in c.terms_from(s):
        assert a.tgt not in retired, "arrow into a retired zero pair"
        assert index[a.tgt] not in rows[ti]
        rows[ti][index[a.tgt]] = (a.mono.coeff.value, a.mono.u_exp, a.mono.v_exp)
    # every other generator absorbs its t-arrow: x' = x - (nu/lam) m s
    lam_inv = pow(lam.value, p - 2, p)
    for a in c.terms_into(t):
        if a.src == s:
            continue
        assert a.src not in retired, "arrow out of a retired zero pair"
        xi = index[a.src]
        assert si not in rows[xi]
        rows[xi][si] = (-a.mono.coeff.value * lam_inv % p, a.mono.u_exp, a.mono.v_exp)
    change = BasisChange.from_rows(c.ring, c.char, c.generators, c.generators, rows)
    moved = apply_basis_change(c, change)
    # the pair must now be fully split: s -> t with unit coefficient, nothing else
    for a in moved.arrows:
        touches = {a.src, a.tgt} & {s, t}
        if touches:
            assert (a.src, a.tgt) == (s, t) and a.mono.is_scalar() and a.mono.coeff.value == 1, (
                f"zero pair failed to split: {a}"
            )
    return moved, change, (s, t)


def strip_zero_complexes(c: Complex):
    """Split off every zero complex (length-0 arrow pair).

    Returns (d, k, b): the stripped complex, the number of zero complexes,
    and the accumulated basis change.  b maps the input onto the direct sum
    arrangement [survivors..., s_1, t_1, ..., s_k, t_k].
    """
    cur = c
    total = BasisChange.identity(c)
    retired: set = set()
    pairs: List[tuple] = []
    while True:
        step = _strip_one(cur, retired)
        if step is None:
            break
        cur, change, pair = step
        total = change.compose(total)
        retired.update(pair)
        pairs.append(pair)
    index = cur.gen_index()
    survivors = [g for g in cur.generators if g.id not in retired]
    order = [g.id for g in survivors] + [gid for pair in pairs for gid in pair]
    gm = cur.gen_map()
    new_gens = tuple([gm[gid] for gid in order])
    perm_rows = tuple([{index[gid]: (1, 0, 0)} for gid in order])
    reorder = BasisChange.from_rows(c.ring, c.char, cur.generators, new_gens, perm_rows)
    total = reorder.compose(total)
    d = Complex(
        c.ring,
        c.char,
        tuple(survivors),
        tuple([a for a in cur.arrows if a.src not in retired and a.tgt not in retired]),
    )
    assert not has_length_zero_arrow(d)
    assert d.rank == c.rank - 2 * len(pairs)
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
