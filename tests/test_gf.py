"""Field construction and arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccodes import gf
from ccodes.gf import Field, field_create, is_irreducible, parse_field, smallest_irreducible

from corpus import element, exactly

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([(x - y) % p for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))])


def _poly_divmod(a, b, p):
    """Quotient and remainder of schoolbook long division, both trimmed."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    scale = pow(b[-1], -1, p)
    for shift in reversed(range(len(quo))):
        c = quo[shift] = rem[shift + len(b) - 1] * scale % p
        for j, y in enumerate(b):
            rem[shift + j] = (rem[shift + j] - c * y) % p
    return _trim(quo), _trim(rem)


def _monics(p, deg):
    for tail in itertools.product(range(p), repeat=deg):
        yield tail + (1,)


def oracle_smallest_irreducible(p, e):
    """First monic degree-e polynomial that is no product of smaller monics."""
    if e == 1:
        return (0, 1)
    composite = set()
    for a in range(1, e // 2 + 1):
        for g in _monics(p, a):
            for h in _monics(p, e - a):
                composite.add(_poly_mul(g, h, p))
    for cand in _monics(p, e):
        if cand not in composite:
            return cand
    raise AssertionError


# -- construction -----------------------------------------------------------

def test_prime_field_create():
    f = field_create(2, 1)
    assert f.q == 2
    assert f.modulus == (0, 1)


def test_gf4_modulus_is_unique_quadratic():
    assert field_create(2, 2).modulus == oracle_smallest_irreducible(2, 2)
    assert field_create(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_modulus_matches_bruteforce(p, e):
    assert smallest_irreducible(p, e) == oracle_smallest_irreducible(p, e)


# Exponents of the nonzero terms of the binary moduli beyond the brute-force
# range.  Every table and every output over GF(2^e) depends on them.
BINARY_MODULI = {
    9: (0, 8, 9), 10: (0, 7, 10), 11: (0, 9, 11), 12: (0, 9, 12),
    13: (0, 9, 10, 12, 13), 14: (0, 9, 14), 15: (0, 14, 15), 16: (0, 11, 13, 15, 16),
}


@pytest.mark.parametrize("e", sorted(BINARY_MODULI))
def test_binary_moduli_are_pinned(e):
    modulus = smallest_irreducible(2, e)
    assert tuple(i for i, c in enumerate(modulus) if c) == BINARY_MODULI[e]


@pytest.mark.parametrize("p,e", [(2, 5), (2, 6), (2, 8), (3, 4), (3, 6), (5, 4)])
def test_irreducibility_test_matches_bruteforce(p, e):
    composite = set()
    for a in range(1, e // 2 + 1):
        for g in _monics(p, a):
            for h in _monics(p, e - a):
                composite.add(_poly_mul(g, h, p))
    for cand in _monics(p, e):
        assert is_irreducible(cand, p) == (cand not in composite)


# Reducible candidates that pass x^(p^e) = x are rejected only because some
# x^(p^(e/r)) - x is no unit; these pin that branch where brute force can't go.

def test_split_quadratic_over_large_prime_is_reducible():
    p = 2 ** 61 - 1
    split = (2, p - 3, 1)  # (x - 1)(x - 2)
    assert gf._pow(p, p ** 2, p, split) == p  # x^(p^2) = x holds
    assert not is_irreducible(split, p)


def test_quadratics_over_large_prime_follow_euler_criterion():
    # x^2 - a is irreducible iff a is no square mod p
    import random
    p = 2 ** 61 - 1
    rng = random.Random(61)
    outcomes = set()
    for a in (rng.randrange(1, p) for _ in range(50)):
        nonsquare = pow(a, (p - 1) // 2, p) == p - 1
        assert is_irreducible((p - a, 0, 1), p) == nonsquare, a
        outcomes.add(nonsquare)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p,e", [(3, 4), (5, 3), (7, 2)])
def test_irreducibility_ignores_nonzero_scaling(p, e):
    for cand in _monics(p, e):
        expected = is_irreducible(cand, p)
        for c in range(2, p):
            assert is_irreducible(tuple(c * x % p for x in cand), p) == expected, (cand, c)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducibility_of_constants_and_linear_polynomials(p):
    assert is_irreducible((1,), p) is False
    assert all(is_irreducible(cand, p) for cand in _monics(p, 1))


def test_modulus_search_matches_trial_division_up_to_1024():
    # the first monic candidate, in the documented order, that no monic
    # polynomial of degree 1..e/2 divides
    powers = [(p, e) for p in range(2, 32) if gf._is_prime(p)
              for e in range(2, 11) if p ** e <= 1024]
    assert len(powers) == 26
    for p, e in powers:
        divisors = [g for a in range(1, e // 2 + 1) for g in _monics(p, a)]
        first = next(cand for cand in _monics(p, e)
                     if all(_poly_divmod(cand, g, p)[1] for g in divisors))
        assert smallest_irreducible(p, e) == first, (p, e)


def test_irreducibility_matches_sympy_at_degree_cap():
    sympy = pytest.importorskip("sympy")
    import random
    rng = random.Random(5)
    x = sympy.symbols("x")
    cands = [field_create(2, 16).modulus]
    cands += [tuple(rng.randint(0, 1) for _ in range(16)) + (1,) for _ in range(200)]
    for cand in cands:
        expr = sum(int(c) * x ** i for i, c in enumerate(cand))
        expected = sympy.Poly(expr, x, modulus=2).is_irreducible
        assert is_irreducible(cand, 2) == expected


def test_degree_cap_field_is_fast_and_consistent():
    import time
    start = time.monotonic()
    f = field_create(2, 16)
    assert time.monotonic() - start < 5.0
    assert f.q == 65536
    a = element(f, 54321)
    assert a * a.inverse() == element(f, 1)
    assert (a ** 2) == a * a


def test_not_prime_rejected():
    with pytest.raises(ValueError, match=exactly("4 is not prime")):
        field_create(4, 1)
    with pytest.raises(ValueError, match=exactly("1 is not prime")):
        Field(1)


def _trial_division_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_matches_trial_division():
    assert all(gf._is_prime(n) == _trial_division_prime(n) for n in range(20000))


def test_miller_rabin_on_large_numbers():
    # the least strong pseudoprimes to the first 1, 2, 3, 4, 7, 9 and 12 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not gf._is_prime(n)
        with pytest.raises(ValueError, match=exactly(f"{n} is not prime")):
            Field(n)
    for p in (4294967291, 2 ** 61 - 1, 2 ** 31 - 1):
        assert gf._is_prime(p) and not gf._is_prime(p * 4294967291)
    assert Field(2 ** 61 - 1).q == 2 ** 61 - 1
    for too_large in (gf.MAX_CHARACTERISTIC, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            Field(too_large)


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError, match=exactly("extension degree must be in [1, 16], got 0")):
        field_create(2, 0)
    with pytest.raises(ValueError, match=exactly("extension degree must be in [1, 16], got 17")):
        field_create(2, 17)


def test_parse_field():
    assert parse_field("2^2").q == 4
    assert parse_field("7").q == 7
    assert parse_field(" 3^1 ").q == 3
    for bad in ("", "a", "2^b", "2^2^2"):
        with pytest.raises(ValueError):
            parse_field(bad)


# -- examples ---------------------------------------------------------------

def test_char2_addition():
    f = field_create(2)
    one = element(f, 1)
    assert one + one == element(f, 0)


def test_gf4_alpha_squared():
    f = field_create(2, 2)
    alpha = element(f, 2)
    assert alpha * alpha == element(f, 3)  # alpha + 1


def test_gf5_inverse_of_two():
    f = field_create(5)
    assert element(f, 2).inverse() == element(f, 3)


# -- axioms, exhaustively on small fields ------------------------------------

def _elements(f):
    """The q element views of f, ascending by code."""
    return [element(f, c) for c in range(f.q)]


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_element_count_and_int_roundtrip(p, e):
    f = field_create(p, e)
    els = _elements(f)
    assert len(set(els)) == f.q
    assert [x.to_int() for x in els] == list(range(f.q))
    with pytest.raises(ValueError, match=exactly(f"element code {f.q} outside [0, {f.q})")):
        f.code(f.q)
    with pytest.raises(ValueError, match=exactly(f"element code -1 outside [0, {f.q})")):
        f.code(-1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    f = field_create(p, e)
    els = _elements(f)
    zero, one = els[:2]
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_lagrange_orders(p, e):
    f = field_create(p, e)
    for a in _elements(f):
        if a:
            assert a ** (f.q - 1) == element(f, 1)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_frobenius_additive(p, e):
    f = field_create(p, e)
    for a, b in itertools.product(_elements(f), repeat=2):
        assert (a + b) ** p == a ** p + b ** p


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_inverse_agrees_with_fermat_power(p, e):
    f = field_create(p, e)
    for a in _elements(f):
        if a:
            assert a.inverse() == a ** (f.q - 2)
            assert a ** (-1) == a.inverse()
            assert a / a == element(f, 1)


def test_division_by_zero():
    f = field_create(3)
    zero, one = element(f, 0), element(f, 1)
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        zero ** (-2)


def test_zero_power_conventions():
    f = field_create(5)
    zero, one = element(f, 0), element(f, 1)
    assert zero ** 0 == one
    assert zero ** 3 == zero
    assert element(f, 2) ** 0 == one


def test_field_mismatch():
    a = element(field_create(2), 1)
    b = element(field_create(3), 1)
    with pytest.raises(ValueError, match=exactly("GF(2) vs GF(3)")):
        a + b
    with pytest.raises(ValueError, match=exactly("GF(2) vs GF(3)")):
        a * b
    assert a != b  # equality across fields is False, not an error


def test_negative_powers():
    f = field_create(7)
    a = element(f, 3)
    assert a ** (-2) == (a * a).inverse()


# -- the arithmetic core against tuple long division ---------------------------
#
# The tables and FieldElement both derive from the Field methods, so the
# reference is written here: codes split into base-p digit polynomials,
# multiplied and divided by the modulus with the long division above, which
# shares no code with gf's arithmetic on codes.

def _digits(f, code):
    """The e base-p digits of a code, lowest first: its coefficient vector."""
    return [code // f.p ** k % f.p for k in range(f.e)]


def _poly(f, code):
    return _trim(_digits(f, code))


def _code(f, coeffs):
    return sum(c * f.p ** k for k, c in enumerate(coeffs))


def ref_add(f, a, b):
    return _code(f, [(x + y) % f.p for x, y in zip(_digits(f, a), _digits(f, b))])


def ref_neg(f, a):
    return _code(f, [-x % f.p for x in _digits(f, a)])


def ref_mul(f, a, b):
    prod = _poly_mul(_poly(f, a), _poly(f, b), f.p)
    return _code(f, _poly_divmod(prod, f.modulus, f.p)[1])


def ref_inv(f, a):
    """Inverse of a nonzero code by the extended Euclidean algorithm."""
    old_r, r = _poly(f, a), f.modulus
    old_t, t = (1,), ()
    while r:
        quo, rem = _poly_divmod(old_r, r, f.p)
        old_r, r = r, rem
        old_t, t = t, _poly_sub(old_t, _poly_mul(quo, t, f.p), f.p)
    scale = pow(old_r[0], -1, f.p)  # old_r is a nonzero constant
    return _code(f, _poly_divmod(_poly_mul(old_t, (scale,), f.p), f.modulus, f.p)[1])


def test_reference_arithmetic_examples():
    f4 = field_create(2, 2)
    assert ref_mul(f4, 2, 2) == 3 and ref_inv(f4, 2) == 3  # alpha^2 = alpha + 1
    f9 = field_create(3, 2)
    assert ref_add(f9, 5, 7) == 0 and ref_neg(f9, 5) == 7
    assert ref_mul(f9, 3, ref_inv(f9, 3)) == 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1),
                                 (3, 2), (2, 3), (2, 4), (5, 2), (7, 2)])
def test_tables_match_element_arithmetic(p, e):
    f = field_create(p, e)
    codes = range(f.q)
    add = [[ref_add(f, a, b) for b in codes] for a in codes]
    mul = [[ref_mul(f, a, b) for b in codes] for a in codes]
    neg = [ref_neg(f, a) for a in codes]
    inv = [0] + [ref_inv(f, a) for a in codes[1:]]
    assert f.add_table.tolist() == add and f.mul_table.tolist() == mul
    assert f.neg_table.tolist() == neg and f.inv_table.tolist() == inv
    assert [[f.add(a, b) for b in codes] for a in codes] == add
    assert [[f.mul(a, b) for b in codes] for a in codes] == mul
    assert [f.neg(a) for a in codes] == neg
    assert [f.inv(a) for a in codes] == inv


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(2, 10), (3, 6), (2, 16), (4294967291, 1),
                        (2 ** 31 - 1, 2), (2 ** 61 - 1, 2)]), st.data())
def test_large_tables_match_element_arithmetic(pe, data):
    # products over the last three overflow int64, so their arrays hold Python ints
    f = field_create(*pe)
    code = st.integers(0, f.q - 1)
    i, j = (data.draw(code, label=label) for label in ("i", "j"))
    assert f.add(i, j) == ref_add(f, i, j)
    assert f.mul(i, j) == ref_mul(f, i, j)
    assert f.neg(i) == ref_neg(f, i)
    assert f.inv(i) == (ref_inv(f, i) if i else 0)
    pairs = data.draw(st.lists(st.tuples(code, code), min_size=1, max_size=8), label="pairs")
    xs, ys = (np.array(column) for column in zip(*pairs))
    assert f.mul(xs, ys).tolist() == [ref_mul(f, x, y) for x, y in pairs]
    assert f.add(xs, ys).tolist() == [ref_add(f, x, y) for x, y in pairs]
    assert f.neg(xs).tolist() == [ref_neg(f, x) for x in xs.tolist()]
    assert f.inv(xs).tolist() == [ref_inv(f, x) if x else 0 for x in xs.tolist()]
    if f.q <= gf.TABLE_ORDER_LIMIT:
        assert f.add_table[i, j] == ref_add(f, i, j)
        assert f.mul_table[i, j] == ref_mul(f, i, j)
        assert f.neg_table[i] == ref_neg(f, i)
        assert f.inv_table[i] == (ref_inv(f, i) if i else 0)


def test_arrays_past_int64_stay_exact():
    # products of GF(4294967291) codes overflow int64, so its arrays hold Python ints
    f = field_create(4294967291)
    pairs = [(f.q - 1, f.q - 1), (f.q - 2, f.q - 4), (2 ** 31 + 7, f.q - 3), (0, f.q - 1)]
    xs, ys = (np.array(column) for column in zip(*pairs))
    assert f.mul(xs, ys).tolist() == [ref_mul(f, x, y) for x, y in pairs]
    assert f.add(xs, ys).tolist() == [ref_add(f, x, y) for x, y in pairs]
    assert f.neg(xs).tolist() == [ref_neg(f, x) for x, _ in pairs]


def test_largest_tables_are_fast_read_only_and_compact():
    import time
    start = time.process_time()
    f = Field(2, 10)  # not the cached instance, so the tables are built here
    tables = (f.add_table, f.mul_table, f.neg_table, f.inv_table)
    assert time.process_time() - start < 1.0  # about 0.03 s on a 2-core x86-64 VM
    for t in tables:
        assert t.dtype == np.uint16 and not t.flags.writeable
    assert f.add_table.shape == f.mul_table.shape == (1024, 1024)


def test_field_create_is_cached():
    assert field_create(3, 2) is field_create(3, 2)
