"""Exact linear algebra over prime fields.

Everything the decomposition engine needs from plain linear algebra lives
here: field elements, dense matrices, the LTU factorization (the normal
form of each shaft of the two-story engine), rational canonical forms
(the canonical representatives used to compare holonomy classes) and the
rational canonical basis, a conjugator to that form.

Conventions
-----------
* Matrices act on column vectors; indices are 0-based throughout.
* ``ltu_factorize(m)`` returns ``(lower, dots, up, upper)`` in ints: the
  int triples ``(r, g, c)`` of ``lower`` and ``upper`` stand for
  I + c e_rg in product order, ``dots`` maps a row to its scale, and row
  a of the middle factor is ``dots.get(a, 1)`` times e_{up[a]}, so that
  L_1 ... L_k D P U_1 ... U_m is the input.
* Permutations are plain tuples ``sigma`` with ``sigma[j]`` the image of
  j; their matrix has a 1 in row ``sigma[j]`` of column j, so
  perm_matrix(a) * perm_matrix(b) = perm_matrix(a o b).
* Field data is int residues in [0, p), in and out: ``Matrix`` takes and
  keeps row tuples of ints, and every kernel here runs on ints.
  ``FieldElem`` is only the value that complex inputs are written with
  and output text prints; nothing in this module creates one.
* Polynomials over F_p are tuples of int coefficients in ascending degree
  with no trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InvariantViolation, Singular, SizeLimitExceeded, ValidationError

_PRIMES_SEEN: set[int] = set()

# Every odd composite below _MR_BOUND fails the strong probable-prime test
# to one of these bases, and _MR_BOUND itself passes all of them (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_int(v) -> bool:
    """An int that is not a bool: True and False count as no number here.
    The exact type is tested first, so a plain int costs one comparison."""
    return type(v) is int or (isinstance(v, int) and not isinstance(v, bool))


def _check_prime(p: int) -> None:
    """Refuse a characteristic that is not a prime int (ValidationError),
    by deterministic Miller-Rabin, which is exact below ``_MR_BOUND``; a
    characteristic from there up with no factor among the bases is refused
    as well, naming the bound."""
    if isinstance(p, int) and p in _PRIMES_SEEN:  # the type first: 2.0 == 2
        return
    if not isinstance(p, int) or p < 2 or any(p % a == 0 and p != a for a in _MR_BASES):
        raise ValidationError(f"characteristic {p} is not prime")
    if p >= _MR_BOUND:
        raise ValidationError(f"characteristic {p} is not below the exact-test bound {_MR_BOUND}")
    if p > _MR_BASES[-1] and not _strong_probable_prime(p):
        raise ValidationError(f"characteristic {p} is not prime")
    _PRIMES_SEEN.add(p)


def _strong_probable_prime(p: int) -> bool:
    """Whether an odd p > 41 passes the strong probable-prime test to every
    base: a^d = 1 or a^(d 2^k) = -1 mod p for some k < s, where p - 1 = d 2^s
    with d odd."""
    d, s = p - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class FieldElem:
    """An element of the prime field F_p, stored as the residue in [0, p).

    Inputs are written with it and output text prints it; the arithmetic
    is ``+`` and ``*`` within one field.  Mixing fields, or a value or
    characteristic that is not an int, raises ValidationError.
    """

    value: int
    char: int

    def __post_init__(self):
        _check_prime(self.char)
        if not isinstance(self.value, int):
            raise ValidationError(f"field element value {self.value!r} is not an int")
        object.__setattr__(self, "value", self.value % self.char)

    def _other(self, other) -> Optional[int]:
        if not isinstance(other, FieldElem):
            return None
        if other.char != self.char:
            raise ValidationError(f"F_{self.char} vs F_{other.char}")
        return other.value

    def __add__(self, other):
        x = self._other(other)
        return NotImplemented if x is None else FieldElem(self.value + x, self.char)

    def __mul__(self, other):
        x = self._other(other)
        return NotImplemented if x is None else FieldElem(self.value * x, self.char)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}#F{self.char}"


def _residue(e, p: int) -> int:
    if type(e) is not int and not _is_int(e):  # exact ints first: every entry comes here
        raise ValidationError(f"entry {e!r} is not an int residue mod {p}")
    return e % p


@dataclass(frozen=True, slots=True, init=False)
class Matrix:
    """Dense immutable matrix over F_p.

    ``entries`` is a tuple of row tuples of int residues in [0, p); that is
    the only storage and the only way to read one.  The constructor and
    ``from_rows`` take ints, reduced mod p; any other entry, a bool or a
    FieldElem included, raises ValidationError, as does a bool scalar.
    ``char`` is kept separately so 0-row matrices still know their field.
    """

    entries: tuple
    char: int

    def __init__(self, entries, char: int):
        _check_prime(char)
        rows = tuple([tuple([_residue(e, char) for e in row]) for row in entries])
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValidationError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "char", char)

    @classmethod
    def _wrap(cls, rows: tuple, char: int) -> "Matrix":
        # rows: a tuple of equal-length tuples of residues in [0, char), taken as is
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        object.__setattr__(m, "char", char)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], char: int) -> "Matrix":
        """Build a matrix from rows of ints."""
        return cls(rows, char)

    @classmethod
    def identity(cls, n: int, char: int) -> "Matrix":
        """The n x n identity; char is checked first."""
        _check_prime(char)
        return cls._wrap(tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]), char)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __mul__(self, other):
        """The product with a Matrix over the same field, or with an int scalar."""
        p = self.char
        if isinstance(other, Matrix):
            if other.char != p:
                raise ValidationError(f"matrix product across F_{p} and F_{other.char}")
            if self.cols != other.rows:
                raise ValidationError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            ocols = list(zip(*other.entries))
            out = []
            for row in self.entries:
                nz = [(k, a) for k, a in enumerate(row) if a]
                out.append(tuple([sum([a * col[k] for k, a in nz]) % p for col in ocols]))
            return Matrix._wrap(tuple(out), p)
        if isinstance(other, int):  # a bool is refused by _residue
            c = _residue(other, p)
            ents = tuple([tuple([e * c % p for e in row]) for row in self.entries])
            return Matrix._wrap(ents, p)
        return NotImplemented

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _gauss_inverse(self) -> Optional[list]:
        # Gauss-Jordan on [A | I]; None when a pivot is missing.
        n = self.rows
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.entries)]
        return [row[n:] for row in aug] if gauss_jordan(aug, n, self.char) else None

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValidationError("inverse of non-square matrix")
        inv = self._gauss_inverse()
        if inv is None:
            raise Singular("matrix is not invertible")
        return Matrix._wrap(tuple([tuple(row) for row in inv]), self.char)

    def is_invertible(self) -> bool:
        return self.is_square() and self._gauss_inverse() is not None

    def __str__(self):
        return "[" + "; ".join(" ".join(map(str, row)) for row in self.entries) + "]"


def gauss_jordan(aug: list, n: int, p: int) -> bool:
    """Reduce the n x n left part of the int rows ``aug`` to the identity
    by row operations mod p, in place, carrying the columns to its right
    along; False, with ``aug`` half reduced, when a pivot is missing."""
    for j in range(n):
        piv = next((i for i in range(j, n) if aug[i][j]), None)
        if piv is None:
            return False
        aug[j], aug[piv] = aug[piv], aug[j]
        inv = pow(aug[j][j], p - 2, p)
        pivot_row = aug[j] = [e * inv % p for e in aug[j]]
        for i in range(n):
            c = aug[i][j]
            if i != j and c:
                aug[i] = [(a - c * b) % p for a, b in zip(aug[i], pivot_row)]
    return True


def block_diag(blocks: Sequence[Matrix], char: int) -> Matrix:
    """Direct sum of square blocks along the diagonal, over ``char``; a
    block over another field raises ValidationError."""
    if not blocks:
        return Matrix((), char)
    n = sum(b.rows for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        if b.char != char:
            raise ValidationError(f"block over F_{b.char} in a sum over F_{char}")
        if not b.is_square():
            raise ValidationError(f"block of shape {b.rows}x{b.cols} is not square")
        for row in b.entries:
            rows.append((0,) * off + row + (0,) * (n - off - b.cols))
        off += b.rows
    return Matrix._wrap(tuple(rows), char)


# ---------------------------------------------------------------------------
# permutations (0-based image tuples)


def perm_inverse(a: Sequence[int]) -> tuple:
    out = [0] * len(a)
    for j, i in enumerate(a):
        out[i] = j
    return tuple(out)


def perm_matrix(sigma: Sequence[int], char: int) -> Matrix:
    """Permutation matrix sending basis vector j to basis vector sigma[j]."""
    n = len(sigma)
    _check_prime(char)
    if not all(_is_int(i) for i in sigma) or sorted(sigma) != list(range(n)):
        raise ValidationError(f"not a permutation of 0..{n - 1}: {tuple(sigma)}")
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(sigma):
        rows[i][j] = 1
    return Matrix._wrap(tuple([tuple(row) for row in rows]), char)


# ---------------------------------------------------------------------------
# LTU factorization


def ltu_factorize(m: Matrix):
    """Factor an invertible matrix as (lower) (dots) (permutation) (upper).

    Returns ``(lower, dots, up, upper)`` in ints, 0-based.  An arrow
    ``(r, g, c)`` in ``lower`` or ``upper`` is the matrix I + c e_rg, and
    each list is in product order; ``dots`` maps a row to its nonzero
    scale other than 1; row a of the middle factor is ``dots.get(a, 1)``
    times e_{up[a]}.  Every lower arrow has r > g and every upper arrow
    r < g.  The product of the four factors is the input.

    Column by column, pivoted rows are cleared by column operations, then
    the topmost unpivoted nonzero row is the pivot and clears the rows
    below it; the factors undo those operations.  A pivot row is divided
    by its pivot only after every row operation touching it, so those
    divisors are the dots.
    """
    if not m.is_square():
        raise ValidationError("LTU factorization needs a square matrix")
    n, p = m.rows, m.char
    a = [list(row) for row in m.entries]
    up = [0] * n
    col_of_row: dict = {}  # pivoted row -> its pivot column
    lower: list = []
    dots: dict = {}
    col_ops: list = []  # upper arrows, in time order (reversed at the end)

    for j in range(n):
        # clear entries sitting in pivoted rows via earlier pivot columns
        for r in sorted(col_of_row):
            c = a[r][j]
            if c:
                jp = col_of_row[r]
                for row in a:
                    row[j] = (row[j] - c * row[jp]) % p
                col_ops.append((jp, j, c))
        piv = next((i for i in range(n) if i not in col_of_row and a[i][j]), None)
        if piv is None:
            raise Singular("column %d is dependent on earlier columns" % j)
        prow = a[piv]
        pinv = pow(prow[j], p - 2, p)
        for i in range(piv + 1, n):
            if i in col_of_row or not a[i][j]:
                continue
            c = a[i][j] * pinv % p
            a[i] = [(x - c * y) % p for x, y in zip(a[i], prow)]
            lower.append((i, piv, c))
        if prow[j] != 1:
            a[piv] = [x * pinv % p for x in prow]
            dots[piv] = prow[j]
        up[piv] = j
        col_of_row[piv] = j
    return lower, dots, tuple(up), col_ops[::-1]


# ---------------------------------------------------------------------------
# polynomials over F_p: int coefficient tuples, ascending degree


PZERO: tuple = ()
PONE: tuple = (1,)


def pnorm(coeffs: Iterable[int], p: int) -> tuple:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pdeg(f: tuple) -> int:
    return len(f) - 1


def padd(f: tuple, g: tuple, p: int) -> tuple:
    n = max(len(f), len(g))
    return pnorm([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)], p)


def psub(f: tuple, g: tuple, p: int) -> tuple:
    n = max(len(f), len(g))
    return pnorm([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)], p)


def pmul(f: tuple, g: tuple, p: int) -> tuple:
    if not f or not g:
        return PZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return pnorm(out, p)


def pdivmod(f: tuple, g: tuple, p: int) -> tuple:
    """Polynomial division with remainder; g must be nonzero."""
    if not g:
        raise Singular("division by the zero polynomial")
    inv_lead = pow(g[-1], p - 2, p)
    rem = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g) and any(rem):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        shift = len(rem) - len(g)
        c = (rem[-1] * inv_lead) % p
        q[shift] = c
        for i, b in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * b) % p
        rem.pop()
    return pnorm(q, p), pnorm(rem, p)


def pprod(fs: Iterable[tuple], p: int) -> tuple:
    out = PONE
    for f in fs:
        out = pmul(out, f, p)
    return out


def companion(f: tuple, p: int) -> Matrix:
    """Companion matrix of a monic polynomial: ones on the subdiagonal,
    negated coefficients in the last column."""
    m = pdeg(f)
    if m < 1 or f[-1] % p != 1:
        raise ValidationError("companion matrix needs a monic nonconstant polynomial")
    rows = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        rows[i + 1][i] = 1
    for i in range(m):
        rows[i][m - 1] = -f[i] % p
    return Matrix._wrap(tuple([tuple(row) for row in rows]), p)


# ---------------------------------------------------------------------------
# rational canonical form via diagonalization of xI - A over F_p[x]


def _poly_snf(w: list, p: int, track_pinv: bool):
    """Bring a square F_p[x] matrix to diagonal form d_1 | d_2 | ... with
    unimodular row and column operations.

    Returns (diag, pinv) where pinv is the inverse of the accumulated row
    operations (a polynomial matrix), or None when not tracked; pinv's
    columns present the cokernel generators in the original coordinates.
    """
    n = len(w)
    w = [list(row) for row in w]
    pinv = [[PONE if i == j else PZERO for j in range(n)] for i in range(n)] if track_pinv else None

    def row_add(i, j, f):  # row_i += f * row_j
        for c in range(n):
            w[i][c] = padd(w[i][c], pmul(f, w[j][c], p), p)
        if pinv is not None:  # pinv: col_j -= f * col_i
            for r in range(n):
                pinv[r][j] = psub(pinv[r][j], pmul(f, pinv[r][i], p), p)

    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]
        if pinv is not None:
            for r in range(n):
                pinv[r][i], pinv[r][j] = pinv[r][j], pinv[r][i]

    def row_scale(i, c):  # multiply row i by the unit c
        w[i] = [pnorm([cc * c for cc in f], p) for f in w[i]]
        if pinv is not None:
            cinv = pow(c, p - 2, p)
            for r in range(n):
                pinv[r][i] = pnorm([cc * cinv for cc in pinv[r][i]], p)

    def col_add(j, i, f):  # col_j += f * col_i
        for r in range(n):
            w[r][j] = padd(w[r][j], pmul(f, w[r][i], p), p)

    def col_swap(i, j):
        for r in range(n):
            w[r][i], w[r][j] = w[r][j], w[r][i]

    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if w[i][j] and (best is None or pdeg(w[i][j]) < pdeg(w[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break  # submatrix is zero
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, n):
                if w[i][t]:
                    q, _ = pdivmod(w[i][t], w[t][t], p)
                    row_add(i, t, psub(PZERO, q, p))
                    if w[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if w[t][j]:
                    q, _ = pdivmod(w[t][j], w[t][t], p)
                    col_add(j, t, psub(PZERO, q, p))
                    if w[t][j]:
                        dirty = True
            if dirty:
                continue
            bad = next(
                (
                    i
                    for i in range(t + 1, n)
                    if any(pdivmod(w[i][j], w[t][t], p)[1] for j in range(t + 1, n) if w[i][j])
                ),
                None,
            )
            if bad is None:
                break
            row_add(t, bad, PONE)
        if w[t][t] and w[t][t][-1] != 1:
            row_scale(t, pow(w[t][t][-1], p - 2, p))
    return [w[t][t] for t in range(n)], pinv


def _char_matrix(a: Matrix) -> list:
    p = a.char
    return [
        [pnorm([-e % p, int(i == j)], p) for j, e in enumerate(row)]
        for i, row in enumerate(a.entries)
    ]


def invariant_factors(a: Matrix) -> tuple:
    """Nonconstant invariant factors of a square matrix, in divisibility
    order (each divides the next; the last is the minimal polynomial)."""
    if not a.is_square():
        raise ValidationError("invariant factors need a square matrix")
    diag, _ = _poly_snf(_char_matrix(a), a.char, track_pinv=False)
    facs = [d for d in diag if pdeg(d) >= 1]
    if sum(pdeg(d) for d in facs) != a.rows:
        raise InvariantViolation("invariant factors miss the matrix size")
    return tuple(facs)


def charpoly(a: Matrix) -> tuple:
    """Characteristic polynomial (monic, as a coefficient tuple)."""
    return pprod(invariant_factors(a), a.char)


def rational_canonical_form(a: Matrix) -> Matrix:
    """Frobenius normal form: companion blocks of the invariant factors in
    divisibility order.  Conjugate inputs give identical outputs.  A
    matrix is singular exactly when x divides its last invariant factor,
    the minimal polynomial, which then has constant term zero."""
    facs = invariant_factors(a)  # ValidationError unless a is square
    if facs and not facs[-1][0]:
        raise Singular("canonical form restricted to invertible matrices")
    return block_diag([companion(d, a.char) for d in facs], a.char)


def rational_canonical_basis(a: Matrix) -> Matrix:
    """A conjugator to the rational canonical form: S with S^-1 A S equal
    to ``rational_canonical_form(a)``.

    Column t of the Smith form's ``pinv`` presents the generator v of the
    cyclic summand F[x]/(d_t), read through the module structure (x acts
    as A), so v = sum_i f_i(A) e_i; its block of S is v, Av, ...,
    A^(deg d_t - 1) v.  Conjugate matrices H and P share their form, so
    S_H S_P^-1 conjugates H to P.
    """
    if not a.is_square():
        raise ValidationError("canonical basis needs a square matrix")
    n, p = a.rows, a.char
    diag, pinv = _poly_snf(_char_matrix(a), p, track_pinv=True)
    if diag and not diag[-1][0]:  # x divides the minimal polynomial
        raise Singular("canonical basis restricted to invertible matrices")

    ents, zero = a.entries, [0] * n

    def horner(coeffs) -> list:
        # sum of A^k coeffs[k] over k, on int vectors: acc <- A acc + c
        acc = zero
        for c in reversed(coeffs):
            acc = [(sum([x * y for x, y in zip(row, acc)]) + z) % p for row, z in zip(ents, c)]
        return acc

    facs, cols = [], []
    for t in range(n):
        d = diag[t]
        if pdeg(d) < 1:
            continue
        fs = [pinv[i][t] for i in range(n)]
        cur = horner([[f[k] if k < len(f) else 0 for f in fs] for k in range(max(map(len, fs)))])
        for _ in range(pdeg(d)):
            cols.append(tuple(cur))
            cur = horner((zero, cur))  # A cur
        facs.append(d)
    if len(cols) != n:
        raise InvariantViolation("canonical basis has the wrong size")
    s = Matrix._wrap(tuple(zip(*cols)), p)
    s_inv = s._gauss_inverse()
    if s_inv is None:
        raise InvariantViolation("canonical basis failed to span")
    if Matrix(s_inv, p) * a * s != block_diag([companion(d, p) for d in facs], p):
        raise InvariantViolation("canonical basis reassembly failed")
    return s


def conjugate_test(a: Matrix, b: Matrix) -> bool:
    """Whether two invertible matrices are conjugate in GL_n(F_p), decided
    by comparing rational canonical forms."""
    if a.char != b.char:
        raise ValidationError("conjugacy across different fields")
    if not (a.is_square() and b.is_square()) or a.rows != b.rows:
        raise ValidationError("conjugacy needs equal square sizes")
    return rational_canonical_form(a) == rational_canonical_form(b)


_PERMUTATION_BOUND = 20


def _partitions(n: int, most: int) -> Iterable[tuple]:
    """The partitions of n into parts of at most ``most``, largest first."""
    if not n:
        yield ()
    for k in range(min(n, most), 0, -1):
        yield from ((k,) + rest for rest in _partitions(n - k, k))


def class_contains_permutation(a: Matrix) -> bool:
    """Whether the conjugacy class of an invertible matrix contains a
    permutation matrix.

    A permutation's class is fixed by its cycle type lambda: it holds the
    block sum of the companions of x^lambda_i - 1, itself a permutation
    matrix, with characteristic polynomial prod (x^lambda_i - 1).  a's
    invariant factors, computed once, give its singularity, that product
    and its class, compared with the block sum's for each partition
    lambda of w whose product matches.  w = 20 has 627 partitions;
    beyond that SizeLimitExceeded is raised, before any Smith form.
    """
    if not a.is_square():
        raise ValidationError("needs a square matrix")
    n, p = a.rows, a.char
    if n > _PERMUTATION_BOUND:
        raise SizeLimitExceeded(f"permutation search beyond size {_PERMUTATION_BOUND}")
    facs = invariant_factors(a)
    if facs and not facs[-1][0]:
        raise Singular("conjugacy classes taken inside GL only")
    cp = pprod(facs, p)
    for lam in _partitions(n, n):
        cycles = [pnorm([-1] + [0] * (ln - 1) + [1], p) for ln in lam]
        if pprod(cycles, p) != cp:
            continue
        if invariant_factors(block_diag([companion(f, p) for f in cycles], p)) == facs:
            return True
    return False
