"""Tests for the prime-field linear algebra kernel."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import cycle_type, permutation_by_enumeration
from snakedec import gf
from snakedec.errors import (
    SizeLimitExceeded,
    Singular,
    ValidationError,
)


def M(rows, p):
    return gf.Matrix.from_rows(rows, p)


def fe(v, p):
    return gf.FieldElem(v, p)


# ---------------------------------------------------------------------------
# independent little-integer oracle for small conjugacy questions


def _int_mul(a, b, p):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def _int_gl2(p):
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            out.append([[a, b], [c, d]])
    return out


def _int_inverse2(m, p):
    a, b = m[0]
    c, d = m[1]
    det_inv = pow((a * d - b * c) % p, p - 2, p)
    return [[d * det_inv % p, -b * det_inv % p], [-c * det_inv % p, a * det_inv % p]]


def _brute_conjugate2(a, b, p):
    return any(_int_mul(_int_mul(s, a, p), _int_inverse2(s, p), p) == b for s in _int_gl2(p))


# ---------------------------------------------------------------------------
# field elements


def test_field_elem_arithmetic():
    a, b = fe(2, 3), fe(2, 3)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert bool(fe(0, 3)) is False and bool(a) is True
    assert repr(a) == "2#F3" and a == b and hash(a) == hash(b)
    # the arithmetic stays inside one field: ints are not lifted
    for op in (lambda: a + 2, lambda: 2 + a, lambda: a * 2, lambda: 2 * a, lambda: -a):
        with pytest.raises(TypeError):
            op()


def test_field_elem_validation():
    with pytest.raises(ValueError):
        gf.FieldElem(1, 4)
    with pytest.raises(ValueError):
        gf.FieldElem(1, 1)
    with pytest.raises(ValidationError):
        fe(1, 2) + fe(1, 3)
    with pytest.raises(ValidationError):
        fe(1, 2) * fe(1, 3)
    assert fe(7, 5).value == 2


def test_a_value_that_is_not_an_int_is_refused():
    # a float residue used to be stored as 1.0 and to fail later, in pow()
    for bad in (1.0, 2.5, "1", None, fe(1, 3)):
        with pytest.raises(ValueError, match="not an int"):
            gf.FieldElem(bad, 3)
    assert fe(True, 3).value == 1  # bool is an int


def _is_prime(p):
    try:
        gf._check_prime(p)
    except ValueError:
        return False
    return True


def test_a_characteristic_too_large_for_a_float_is_refused():
    # each has a small prime factor, found before the Miller-Rabin bound is read
    for big in (10**400, 2**1030, 3**700, 7 * 10**400 + 7):
        with pytest.raises(ValueError, match="not prime"):
            gf.FieldElem(1, big)
        with pytest.raises(ValueError, match="not prime"):
            gf.Matrix([[1]], big)
    assert [p for p in range(50) if _is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_primality_is_decided_by_miller_rabin_below_its_bound(monkeypatch):
    monkeypatch.setattr(gf, "_PRIMES_SEEN", set())
    largest_below = 3317044064679887385961813  # the largest prime below the bound
    t0 = time.perf_counter()
    for p in (2**61 - 1, 10**14 + 31, largest_below):
        assert _is_prime(p)
    assert time.perf_counter() - t0 < 0.5  # trial division took 0.65 s on 10**14 + 31 alone
    # Carmichael numbers, the second with no factor among the bases, and
    # strong pseudoprimes to the bases up to 2 (2047), 7, 23 and 37; base 41
    # is there to catch the last
    carmichael = (561, 3057601)
    for n in carmichael + (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            gf._check_prime(n)
    # the bound passes every base, and nothing from it up is decided
    for p in (gf._MR_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match=f"exact-test bound {gf._MR_BOUND}$"):
            gf.FieldElem(1, p)


@pytest.mark.parametrize("seen_first", [False, True])
def test_a_float_characteristic_is_refused_in_either_order(monkeypatch, seen_first):
    # 2.0 == 2, so a prime already seen must not let its float twin through
    monkeypatch.setattr(gf, "_PRIMES_SEEN", set())
    if seen_first:
        assert fe(1, 2).value == 1 and M([[1]], 3).entries == ((1,),)
    with pytest.raises(ValueError):
        gf.FieldElem(1, 2.0)
    with pytest.raises(ValueError):
        gf.Matrix([[1]], 3.0)
    with pytest.raises(ValueError):
        gf.Matrix.identity(2, 2.0)
    assert gf._PRIMES_SEEN == ({2, 3} if seen_first else set())


def test_the_shared_identity_still_refuses_a_float_characteristic():
    # the F_2 identity must not answer for its float twin 2.0 == 2
    a = gf.Matrix.identity(2, 2)
    assert a.entries == ((1, 0), (0, 1))
    assert gf.Matrix.identity(2, 3).char == 3 and gf.Matrix.identity(3, 2).rows == 3
    with pytest.raises(ValueError):
        gf.Matrix.identity(2, 2.0)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_basics():
    a = M([[1, 1], [0, 1]], 2)
    assert a.rows == 2 and a.cols == 2
    assert a.entries[0][1] == 1
    assert (a * a) == gf.Matrix.identity(2, 2)
    with pytest.raises(ValidationError):
        a * M([[1], [0], [0]], 2)


def test_matrix_stores_int_residues():
    # ints are reduced mod p
    a = M([[4, -1], [2, 0]], 3)
    assert a.entries == ((1, 2), (2, 0))
    assert all(type(e) is int for row in a.entries for e in row)
    assert gf.Matrix(((4, -1), (5, 0)), 3) == a
    assert str(a) == "[1 2; 2 0]"
    # however it was built, an equal matrix compares and hashes equal
    for p in (2, 3, 5):
        for rows in itertools.islice(itertools.product(range(p), repeat=4), 40):
            ints = M([rows[:2], rows[2:]], p)
            lifted = M([list(rows[:2]), [v + p for v in rows[2:]]], p)
            shifted = M([[v - p for v in rows[:2]], list(rows[2:])], p)
            assert ints == lifted == shifted
            assert hash(ints) == hash(lifted) == hash(shifted)
            assert len({ints, lifted, shifted}) == 1


def test_matrix_rejects_foreign_entries():
    for bad in (fe(1, 3), fe(1, 5), 1.0, "1", None):
        with pytest.raises(ValidationError):
            M([[1, bad]], 3)
        with pytest.raises(ValidationError):
            gf.Matrix(((1, bad),), 3)
    with pytest.raises(ValidationError):
        M([[1, 0], [1]], 3)
    a3, a5 = gf.Matrix.identity(2, 3), gf.Matrix.identity(2, 5)
    with pytest.raises(ValidationError):
        a3 * a5
    with pytest.raises(TypeError):  # scalars are ints
        a3 * fe(2, 3)
    assert a3 * 2 == a3 * 5 == a3 * -1 * 2 * 2 == M([[2, 0], [0, 2]], 3)


def test_a_bool_entry_is_refused():
    # True == 1, but an entry is an int residue, not a truth value
    for rows in ([[True]], [[1, False]]):
        with pytest.raises(ValidationError, match="not an int residue"):
            gf.Matrix(rows, 2)
        with pytest.raises(ValidationError, match="not an int residue"):
            M(rows, 2)
    assert gf.Matrix([[1]], 2) == gf.Matrix.identity(1, 2)


def test_a_bool_scalar_is_refused():
    a = gf.Matrix.identity(2, 3)
    for scalar in (True, False):
        with pytest.raises(ValidationError, match="not an int residue"):
            a * scalar
    assert a * 1 == a


def test_invert_examples():
    assert gf.Matrix.identity(3, 2).inverse() == gf.Matrix.identity(3, 2)
    a = M([[1, 1], [0, 1]], 2)
    assert a.inverse() == a
    assert M([[2]], 3).inverse() == M([[2]], 3)
    with pytest.raises(Singular):
        M([[1, 1], [1, 1]], 2).inverse()
    with pytest.raises(ValidationError):
        M([[1, 0]], 2).inverse()
    # all of M_2(F_3): invertible exactly when the determinant is nonzero
    ident = gf.Matrix.identity(2, 3)
    for a, b, c, d in itertools.product(range(3), repeat=4):
        m = M([[a, b], [c, d]], 3)
        assert m.is_invertible() == bool((a * d - b * c) % 3)
        if m.is_invertible():
            assert m * m.inverse() == ident and m.inverse() * m == ident


def test_block_diag():
    b = gf.block_diag([M([[2]], 3), gf.Matrix.identity(2, 3)], 3)
    assert b == M([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    with pytest.raises(ValidationError, match="not square"):
        gf.block_diag([M([[1], [2]], 3), M([[1]], 3)], 3)
    # the field is required and binds every block
    assert gf.block_diag([M([[1]], 3)], char=3).char == 3
    assert gf.block_diag([], char=5) == gf.Matrix((), 5)
    with pytest.raises(ValidationError):
        gf.block_diag([M([[1]], 3)], char=5)
    with pytest.raises(ValidationError):
        gf.block_diag([M([[1]], 5), M([[1]], 3)], 5)
    with pytest.raises(TypeError):
        gf.block_diag([M([[1]], 3)])


# ---------------------------------------------------------------------------
# permutations


def test_perm_matrix_is_a_homomorphism():
    for a in itertools.permutations(range(3)):
        for b in itertools.permutations(range(3)):
            a_after_b = tuple(a[j] for j in b)
            assert gf.perm_matrix(a_after_b, 2) == gf.perm_matrix(a, 2) * gf.perm_matrix(b, 2)
    for a in itertools.permutations(range(4)):
        assert tuple(a[j] for j in gf.perm_inverse(a)) == tuple(range(4))


def test_perm_matrix_rejects_a_non_permutation():
    # (False, True) used to give the identity, (0.0, 1.0) a bare TypeError
    for sigma in ((0, 0), (1, 2), (0, 2, 1, 1), (False, True), (0.0, 1.0), (1, 0.0), ("0",)):
        with pytest.raises(ValidationError, match="not a permutation"):
            gf.perm_matrix(sigma, 2)
    assert gf.perm_matrix((0, 1), 2) == gf.Matrix.identity(2, 2)


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (1, 2)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type(()) == ()


# ---------------------------------------------------------------------------
# LTU factorization


def _unit_plus(n, r, g, c, p):
    """I + c e_rg as a dense matrix."""
    return M([[int(i == j) + (c if (i, j) == (r, g) else 0) for j in range(n)] for i in range(n)], p)


def _ltu_product(factors, n, p):
    """Dense product L_1 ... L_k D P U_1 ... U_m of an ltu_factorize result."""
    lower, dots, up, upper = factors
    out = gf.Matrix.identity(n, p)
    for r, g, c in lower:
        out = out * _unit_plus(n, r, g, c, p)
    out = out * M([[dots.get(a, 1) * (b == up[a]) for b in range(n)] for a in range(n)], p)
    for r, g, c in upper:
        out = out * _unit_plus(n, r, g, c, p)
    return out


def test_ltu_trivial_cases():
    assert gf.ltu_factorize(gf.Matrix.identity(3, 2)) == ([], {}, (0, 1, 2), [])
    swap = gf.perm_matrix((1, 0), 2)
    assert gf.ltu_factorize(swap) == ([], {}, (1, 0), [])


def test_ltu_mixed_example():
    # the topmost-pivot sweep sends [[1,1],[1,0]] to L = I + e_10, U = I + e_01
    a = M([[1, 1], [1, 0]], 2)
    factors = gf.ltu_factorize(a)
    assert factors == ([(1, 0, 1)], {}, (0, 1), [(0, 1, 1)])
    assert _ltu_product(factors, 2, 2) == a


def test_ltu_dots_and_coefficients():
    assert gf.ltu_factorize(M([[2, 0], [0, 1]], 3)) == ([], {0: 2}, (0, 1), [])
    # coefficients other than 1 stay on the arrow
    assert gf.ltu_factorize(M([[1, 2], [0, 1]], 3)) == ([], {}, (0, 1), [(0, 1, 2)])
    assert gf.ltu_factorize(M([[1, 0], [2, 1]], 3)) == ([(1, 0, 2)], {}, (0, 1), [])


def test_ltu_structure_and_reassembly_exhaustive_gl2():
    for p in (2, 3):
        for rows in _int_gl2(p):
            a = M(rows, p)
            factors = gf.ltu_factorize(a)
            lower, dots, up, upper = factors
            assert all(r > g and 0 < c < p for r, g, c in lower)
            assert all(r < g and 0 < c < p for r, g, c in upper)
            assert all(1 < c < p for c in dots.values())
            assert sorted(up) == [0, 1]
            assert _ltu_product(factors, 2, p) == a


def test_ltu_rejects_singular():
    with pytest.raises(Singular):
        gf.ltu_factorize(M([[1, 1], [1, 1]], 2))
    with pytest.raises(ValidationError, match="square"):
        gf.ltu_factorize(M([[1, 0]], 2))


@st.composite
def invertible_matrices(draw, max_n=5, chars=(2, 3, 5)):
    p = draw(st.sampled_from(chars))
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    m = gf.Matrix.from_rows(rows, p)
    if not m.is_invertible():
        # nudge onto GL by mixing in an identity: try the shifted matrix
        m = gf.Matrix.from_rows([[e + (i == j) for j, e in enumerate(row)] for i, row in enumerate(rows)], p)
    return m


@given(invertible_matrices())
@settings(max_examples=120, deadline=None)
def test_factorizations_reassemble(m):
    if not m.is_invertible():
        return
    assert _ltu_product(gf.ltu_factorize(m), m.rows, m.char) == m


# ---------------------------------------------------------------------------
# polynomials


def test_poly_helpers():
    p = 3
    f = gf.pnorm([1, 0, 2, 0], p)
    assert f == (1, 0, 2)
    assert gf.pdeg(f) == 2
    assert gf.padd(f, (2,), p) == (0, 0, 2)
    assert gf.pmul((1, 1), (1, 1), 2) == (1, 0, 1)
    q, r = gf.pdivmod((1, 0, 1), (1, 1), 2)
    assert q == (1, 1) and r == ()


def test_poly_kernel_rejects_inputs_it_is_not_defined_on():
    with pytest.raises(Singular, match="zero polynomial"):
        gf.pdivmod((1, 1), (), 2)
    with pytest.raises(ValidationError, match="monic"):
        gf.companion((1,), 2)


# ---------------------------------------------------------------------------
# canonical forms and conjugacy


def test_rcf_identity_fixed():
    for n in (1, 2, 3, 4):
        assert gf.rational_canonical_form(gf.Matrix.identity(n, 2)) == gf.Matrix.identity(n, 2)


def test_rcf_known_pair():
    a = M([[1, 1], [0, 1]], 2)
    b = M([[0, 1], [1, 0]], 2)
    assert gf.rational_canonical_form(a) == gf.rational_canonical_form(b)
    assert gf.rational_canonical_form(a) == b
    # independent route: some S in GL_2(F_2) conjugates one to the other
    assert _brute_conjugate2([[1, 1], [0, 1]], [[0, 1], [1, 0]], 2)


def test_rcf_separates_non_conjugates():
    a = M([[1, 1], [1, 0]], 2)
    b = M([[0, 1], [1, 0]], 2)
    assert gf.rational_canonical_form(a) != gf.rational_canonical_form(b)
    assert not _brute_conjugate2([[1, 1], [1, 0]], [[0, 1], [1, 0]], 2)


@given(invertible_matrices(max_n=4))
@settings(max_examples=60, deadline=None)
def test_rcf_idempotent(m):
    if not m.is_invertible():
        return
    r = gf.rational_canonical_form(m)
    assert gf.rational_canonical_form(r) == r


def test_rcf_singular_from_the_invariant_factors(monkeypatch):
    calls = []
    check = gf.Matrix.is_invertible
    monkeypatch.setattr(gf.Matrix, "is_invertible", lambda m: calls.append(m) or check(m))
    # every 2x2 matrix over F_3: Singular exactly when the determinant is 0
    for e in itertools.product(range(3), repeat=4):
        m = M([e[:2], e[2:]], 3)
        if (e[0] * e[3] - e[1] * e[2]) % 3:
            assert gf.rational_canonical_form(m).rows == 2
        else:
            with pytest.raises(Singular):
                gf.rational_canonical_form(m)
    with pytest.raises(Singular):
        gf.rational_canonical_form(M([[0] * 3] * 3, 5))
    assert gf.rational_canonical_form(gf.Matrix((), 2)).rows == 0
    assert calls == []  # invertibility is read off the invariant factors


def test_conjugate_test_examples():
    a = M([[1, 1], [0, 1]], 2)
    assert gf.conjugate_test(a, a)
    assert gf.conjugate_test(a, M([[0, 1], [1, 0]], 2))
    assert not gf.conjugate_test(M([[1, 1], [1, 0]], 2), gf.Matrix.identity(2, 2))
    with pytest.raises(ValidationError):
        gf.conjugate_test(a, gf.Matrix.identity(3, 2))
    with pytest.raises(ValidationError):
        gf.conjugate_test(a, gf.Matrix.identity(2, 3))


def test_conjugate_test_matches_brute_force_on_gl2():
    for p in (2, 3):
        group = _int_gl2(p)[:12]
        for a in group:
            for b in group:
                expected = _brute_conjugate2(a, b, p)
                assert gf.conjugate_test(M(a, p), M(b, p)) is expected


def _gl(n, p):
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        m = gf.Matrix.from_rows([flat[i * n : (i + 1) * n] for i in range(n)], p)
        if m.is_invertible():
            out.append(m)
    return out


def _gl_generators(n, p):
    # adjacent transpositions, I + e_01 and diag(2, 1, ..., 1)
    gens = []
    for i in range(n - 1):
        swap = list(range(n))
        swap[i], swap[i + 1] = i + 1, i
        gens.append(gf.perm_matrix(swap, p))
    if n >= 2:
        gens.append(_unit_plus(n, 0, 1, 1, p))
    if p > 2:
        gens.append(M([[(2 if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)], p))
    return gens


# number of conjugacy classes of GL_n(F_p): p-1, p^2-1, p^3-p for n = 1, 2, 3
CLASS_COUNTS = {(1, 2): 1, (2, 2): 3, (3, 2): 6, (1, 3): 2, (2, 3): 8, (3, 3): 24}


@pytest.mark.parametrize("n,p", sorted(CLASS_COUNTS))
def test_conjugacy_classes_exhaustive(n, p):
    group = _gl(n, p)
    order = 1
    for i in range(n):
        order *= p**n - p**i
    assert len(group) == order
    forms = {m: gf.rational_canonical_form(m) for m in group}
    assert len(set(forms.values())) == CLASS_COUNTS[(n, p)]
    # conjugation by a generating set cannot change the canonical form,
    # so constancy on generators gives constancy on whole classes
    for m in group:
        for g in _gl_generators(n, p):
            assert forms[g * m * g.inverse()] == forms[m]


def test_primary_form_agrees_with_rcf_content():
    # the canonical basis S of J_2(1) over F_2: S^-1 A S is the companion of (x + 1)^2
    a = M([[1, 1], [0, 1]], 2)
    s = gf.rational_canonical_basis(a)
    assert s.inverse() * a * s == gf.rational_canonical_form(a) == gf.companion((1, 0, 1), 2)


@given(invertible_matrices(max_n=4, chars=(2, 3)))
@settings(max_examples=60, deadline=None)
def test_primary_form_reassembles(m):
    if not m.is_invertible():
        return
    s = gf.rational_canonical_basis(m)
    assert s.rows == s.cols == m.rows
    assert s.inverse() * m * s == gf.rational_canonical_form(m)


def test_primary_form_singular_from_the_smith_form(monkeypatch):
    calls, passes = [], []
    check, gauss = gf.Matrix.is_invertible, gf.Matrix._gauss_inverse
    monkeypatch.setattr(gf.Matrix, "is_invertible", lambda m: calls.append(m) or check(m))
    monkeypatch.setattr(gf.Matrix, "_gauss_inverse", lambda m: passes.append(m) or gauss(m))
    # every 2x2 matrix over F_3: Singular exactly when the determinant is 0
    invertible = 0
    for e in itertools.product(range(3), repeat=4):
        m = M([e[:2], e[2:]], 3)
        if (e[0] * e[3] - e[1] * e[2]) % 3:
            assert gf.rational_canonical_basis(m).rows == 2
            invertible += 1
        else:
            with pytest.raises(Singular):
                gf.rational_canonical_basis(m)
    with pytest.raises(Singular):
        gf.rational_canonical_basis(M([[0] * 3] * 3, 5))
    assert calls == []  # invertibility is read off the Smith form
    assert len(passes) == invertible == 48  # one Gauss-Jordan pass, on the conjugator


def test_primary_form_creates_no_field_elements(monkeypatch):
    made = []
    post_init = gf.FieldElem.__post_init__
    mats = [M([[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 1], [1, 1, 0, 1]], 3), M([[0, 1], [1, 1]], 5)]
    mats += [M([e[:2], e[2:]], 3) for e in itertools.product(range(3), repeat=4)]
    mats = [m for m in mats if m.is_invertible()]
    monkeypatch.setattr(gf.FieldElem, "__post_init__", lambda e: made.append(e) or post_init(e))
    for m in mats:
        gf.rational_canonical_basis(m)
        form, facs = gf.rational_canonical_form(m), gf.invariant_factors(m)
        assert gf.charpoly(form) == gf.charpoly(m) == gf.pprod(facs, m.char)
    assert len(mats) == 50 and made == []


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 2)])
def test_canonical_bases_conjugate_each_class_onto_itself(n, p):
    # S^-1 A S is the canonical form on all of GL_n(F_p); for H and P in one
    # class, C = S_H S_P^-1 is invertible and H C = C P, so C^-1 H C = P
    classes = {}
    for a in _gl(n, p):
        s = gf.rational_canonical_basis(a)
        s_inv = s.inverse()
        assert s_inv * a * s == gf.rational_canonical_form(a)
        classes.setdefault(gf.rational_canonical_form(a), []).append((a, s, s_inv))
    assert len(classes) == {(2, 3): 8, (2, 5): 24, (3, 2): 6}[(n, p)]
    for members in classes.values():
        for h, s_h, _ in members:
            for q, _, s_q_inv in members:
                c = s_h * s_q_inv
                assert h * c == c * q


def test_invariant_factors_split_semisimple():
    assert gf.invariant_factors(M([[2, 0], [0, 2]], 3)) == ((1, 1), (1, 1))
    with pytest.raises(ValidationError, match="square"):
        gf.invariant_factors(M([[1], [0]], 3))


# ---------------------------------------------------------------------------
# permutation containment


def test_class_contains_permutation_examples():
    assert gf.class_contains_permutation(gf.Matrix.identity(3, 2))
    assert gf.class_contains_permutation(M([[1, 1], [0, 1]], 2))
    assert not gf.class_contains_permutation(M([[1, 1], [1, 0]], 2))
    assert gf.class_contains_permutation(gf.Matrix.identity(9, 2))
    with pytest.raises(SizeLimitExceeded):
        gf.class_contains_permutation(gf.Matrix.identity(21, 2))
    with pytest.raises(Singular):
        gf.class_contains_permutation(M([[1, 1], [1, 1]], 2))


def test_class_contains_permutation_on_permutations():
    for n in (1, 2, 3, 4):
        for sigma in itertools.permutations(range(n)):
            assert gf.class_contains_permutation(gf.perm_matrix(sigma, 3))


def test_class_contains_permutation_scaled_identity():
    # 2I over F_3 has charpoly (x+1)^2; permutations with that charpoly do
    # not exist, so the class contains none
    assert not gf.class_contains_permutation(M([[2, 0], [0, 2]], 3))


def test_class_contains_permutation_reads_a_once(monkeypatch):
    # J_20(1) over F_2: (x + 1)^20 matches every partition into powers of
    # two, and a single Jordan block is conjugate to none of them
    seen, factors = [], gf.invariant_factors
    monkeypatch.setattr(gf, "invariant_factors", lambda m: seen.append(m) or factors(m))
    for name in ("rational_canonical_form", "charpoly"):
        monkeypatch.setattr(gf, name, lambda m: pytest.fail("a's class is read off its factors"))
    monkeypatch.setattr(gf.Matrix, "is_invertible", lambda m: pytest.fail("no Gauss-Jordan pass"))
    n = 20
    j = M([[int(k in (i, i + 1)) for k in range(n)] for i in range(n)], 2)
    assert gf.class_contains_permutation(j) is False
    assert seen[0] is j and all(m is not j for m in seen[1:])
    matching = [lam for lam in gf._partitions(n, n) if all(part & (part - 1) == 0 for part in lam)]
    assert len(seen) == 1 + len(matching)


def _class_representatives(n, p):
    """One matrix per conjugacy class of GL_n(F_p): the block sum of the
    companions of each chain d_1 | ... | d_k of monic invariant factors
    with nonzero constant terms and degrees summing to n."""
    monic = [
        (*tail, 1)
        for deg in range(1, n + 1)
        for tail in itertools.product(range(p), repeat=deg)
        if tail[0]
    ]

    def chains(rest, last):
        if not rest:
            yield ()
        for f in monic:
            if gf.pdeg(f) <= rest and not gf.pdivmod(f, last, p)[1]:
                for tail in chains(rest - gf.pdeg(f), f):
                    yield (f,) + tail

    return [gf.block_diag([gf.companion(f, p) for f in ch], p) for ch in chains(n, gf.PONE)]


def test_class_contains_permutation_matches_the_enumeration():
    for n, p in ((3, 3), (2, 5)):
        reps = _class_representatives(n, p)
        assert len({gf.rational_canonical_form(m) for m in reps}) == len(reps) == 24
        verdicts = [gf.class_contains_permutation(m) for m in reps]
        assert verdicts == [permutation_by_enumeration(m) for m in reps]
        assert set(verdicts) == {True, False}
    for n in range(1, 6):
        for sigma in itertools.permutations(range(n)):
            m = gf.perm_matrix(sigma, 2)
            assert gf.class_contains_permutation(m) is permutation_by_enumeration(m) is True
