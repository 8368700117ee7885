"""Field construction and arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccodes.errors import DegreeRangeError, FieldMismatchError, NotPrimeError
from ccodes.gf import Field, field_create, is_irreducible, parse_field, smallest_irreducible

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


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


@pytest.mark.parametrize("p,e", [(2, 5), (2, 6), (2, 8), (3, 4)])
def test_irreducibility_test_matches_bruteforce(p, e):
    composite = set()
    for a in range(1, e // 2 + 1):
        for g in _monics(p, a):
            for h in _monics(p, e - a):
                composite.add(_poly_mul(g, h, p))
    for cand in _monics(p, e):
        assert is_irreducible(cand, p) == (cand not in composite)


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
    a = f.from_int(54321)
    assert a * a.inverse() == f.one
    assert (a ** 2) == a * a


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        field_create(4, 1)
    with pytest.raises(NotPrimeError):
        Field(1)


def test_degree_out_of_range_rejected():
    with pytest.raises(DegreeRangeError):
        field_create(2, 0)
    with pytest.raises(DegreeRangeError):
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
    one = f.one
    assert one + one == f.zero


def test_gf4_alpha_squared():
    f = field_create(2, 2)
    alpha = f.from_int(2)
    assert alpha * alpha == f.from_int(3)  # alpha + 1


def test_gf5_inverse_of_two():
    f = field_create(5)
    assert f.from_int(2).inverse() == f.from_int(3)


def test_elements_order():
    assert [x.to_int() for x in field_create(2).elements()] == [0, 1]
    assert [x.to_int() for x in field_create(3).elements()] == [0, 1, 2]
    assert [x.to_int() for x in field_create(2, 2).elements()] == [0, 1, 2, 3]


# -- axioms, exhaustively on small fields ------------------------------------

@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_element_count_and_int_roundtrip(p, e):
    f = field_create(p, e)
    els = f.elements()
    assert len(set(els)) == f.q
    assert [f.from_int(x.to_int()) for x in els] == els
    with pytest.raises(ValueError):
        f.from_int(f.q)
    with pytest.raises(ValueError):
        f.from_int(-1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    f = field_create(p, e)
    els = f.elements()
    for a in els:
        assert a + f.zero == a
        assert a * f.one == a
        assert a + (-a) == f.zero
        if a:
            assert a * a.inverse() == f.one
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
    for a in f.elements():
        if a:
            assert a ** (f.q - 1) == f.one


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_frobenius_additive(p, e):
    f = field_create(p, e)
    for a, b in itertools.product(f.elements(), repeat=2):
        assert (a + b) ** p == a ** p + b ** p


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_inverse_agrees_with_fermat_power(p, e):
    f = field_create(p, e)
    for a in f.elements():
        if a:
            assert a.inverse() == a ** (f.q - 2)
            assert a ** (-1) == a.inverse()
            assert a / a == f.one


def test_division_by_zero():
    f = field_create(3)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero
    with pytest.raises(ZeroDivisionError):
        f.zero ** (-2)


def test_zero_power_conventions():
    f = field_create(5)
    assert f.zero ** 0 == f.one
    assert f.zero ** 3 == f.zero
    assert f.from_int(2) ** 0 == f.one


def test_field_mismatch():
    a = field_create(2).one
    b = field_create(3).one
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b
    assert a != b  # equality across fields is False, not an error


def test_negative_powers():
    f = field_create(7)
    a = f.from_int(3)
    assert a ** (-2) == (a * a).inverse()


# -- lookup tables -----------------------------------------------------------

@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1),
                                 (3, 2), (2, 3), (2, 4), (5, 2), (7, 2)])
def test_tables_match_element_arithmetic(p, e):
    f = field_create(p, e)
    els = f.elements()
    for i, a in enumerate(els):
        assert f.neg_table[i] == (-a).to_int()
        if i:
            assert f.inv_table[i] == a.inverse().to_int()
        for j, b in enumerate(els):
            assert f.add_table[i, j] == (a + b).to_int()
            assert f.mul_table[i, j] == (a * b).to_int()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(2, 10), (3, 6)]), st.data())
def test_large_tables_match_element_arithmetic(pe, data):
    f = field_create(*pe)
    i, j = (data.draw(st.integers(0, f.q - 1), label=label) for label in ("i", "j"))
    a, b = f.from_int(i), f.from_int(j)
    assert f.add_table[i, j] == (a + b).to_int()
    assert f.mul_table[i, j] == (a * b).to_int()
    assert f.neg_table[i] == (-a).to_int()
    if i:
        assert f.inv_table[i] == a.inverse().to_int()


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


def test_element_from_coefficients():
    f9 = field_create(3, 2)
    assert f9.element([1, 2]) == f9.from_int(7)
    assert f9.element([4]) == f9.from_int(1)  # reduced mod p, padded
    with pytest.raises(ValueError):
        f9.element([1, 1, 1])
