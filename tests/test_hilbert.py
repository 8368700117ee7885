"""Hilbert counts of monomial ideals, polynomial notation, footprint bound."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccodes.codes import extremal_family, extremal_polynomials, spec_from_parts
from ccodes.gf import field_create
from ccodes.grid import GridShape, all_tuples, shadow
from ccodes.hilbert import (
    box_ideal,
    divides,
    footprint_upper_bound,
    format_polynomial,
    format_polynomials,
    graded_lex_key,
    hilbert_fn,
)

from corpus import evaluate, exactly


# -- ideals -------------------------------------------------------------------

def test_ideal_contains_examples():
    # x^2 divides x^2 and x^3 but not 1 or x
    assert hilbert_fn([(2,)], 1) == hilbert_fn([(2,)], 3) == 2
    # of the 15 monomials of degree <= 4 in two variables, x1*x2 divides the
    # 6 with both exponents positive and x2^3 two more: x2^3 and x2^4
    assert hilbert_fn([(1, 1), (0, 3)], 4) == 15 - 6 - 2


def test_box_ideal_generators():
    shape = GridShape((2, 3))
    assert box_ideal(shape) == ((2, 0), (0, 3))
    assert box_ideal(shape, [(1, 1)]) == ((1, 1), (2, 0), (0, 3))


def test_ideal_validation():
    with pytest.raises(ValueError, match=exactly("generator (1,) has 1 variables, expected 2")):
        hilbert_fn([(1, 0), (1,)], 2)
    with pytest.raises(ValueError, match=exactly("at least one generator required")):
        hilbert_fn([], 2)
    with pytest.raises(ValueError, match=exactly("negative exponent in generator (1, -1)")):
        hilbert_fn([(1, -1)], 2)
    with pytest.raises(ValueError, match=exactly("generators need at least one variable")):
        hilbert_fn([()], 2)
    # a generator of degree above u leaves every monomial of degree <= u out
    assert hilbert_fn([(5, 5)], 4) == 15


def test_divides():
    assert divides((0, 0), (3, 1))
    assert divides((1, 2), (1, 2))
    assert not divides((2, 0), (1, 5))


# -- hilbert function -----------------------------------------------------------

def test_hilbert_fn_examples():
    assert hilbert_fn([(2,)], 3) == 2
    assert hilbert_fn([(2, 0), (0, 2)], 5) == 4
    assert hilbert_fn([(3, 0)], 2) == 6
    assert hilbert_fn([(2, 0), (0, 2)], -1) == 0


def test_hilbert_fn_monotone():
    base = [(2, 0), (0, 3)]
    bigger = [(2, 0), (0, 3), (1, 1)]
    for u in range(7):
        assert hilbert_fn(bigger, u) <= hilbert_fn(base, u)
        assert hilbert_fn(base, u) <= hilbert_fn(base, u + 1)


def test_hilbert_fn_stabilizes_above_box_degree():
    shape = GridShape((2, 3))
    ideal = box_ideal(shape, [(1, 1)])
    bound = footprint_upper_bound(shape, [(1, 1)])
    for u in range(shape.k, shape.k + 4):
        assert hilbert_fn(ideal, u) == bound


# -- polynomials as terms dicts ---------------------------------------------------

def leading_term(terms):
    return max(terms, key=graded_lex_key)


def test_polynomial_arithmetic_and_expand():
    # x * (x - 1) over GF(3), expanded: x^2 + 2x
    f3 = field_create(3)
    product = {(2,): 1, (1,): 2}
    assert format_polynomial(product) == "x1^2 + 2*x1"
    for v in range(f3.q):
        assert evaluate(f3, product, [v]) == f3.mul(v, f3.add(v, f3.neg(1)))


def test_polynomial_zero_handling():
    assert format_polynomial({}) == "0"


def test_polynomial_scalar_and_degrees():
    f5 = field_create(5)
    f = {(1, 1): 3, (0, 1): 1}  # 3*x1*x2 + x2
    assert format_polynomial(f) == "3*x1*x2 + x2"
    assert format_polynomial({(0, 0): 3, (1, 0): 1}) == "x1 + 3"
    assert evaluate(f5, f, [1, 1]) == 4


def reference_format(terms) -> str:
    """format_polynomial's text built term by term, with Python strings."""
    parts = []
    for mono in sorted(terms, key=graded_lex_key, reverse=True):
        coeff = terms[mono]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mono) if e]
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(coeff)] + factors))
    return " + ".join(parts) or "0"


def test_polynomial_text_pieces():
    # exponents past 9, a bare coefficient 1, a constant and multi-digit codes
    f = {(12, 0, 3): 1, (0, 0, 0): 2046, (1, 10, 0): 1000, (0, 1, 0): 1, (0, 0, 11): 37}
    text = "x1^12*x3^3 + 1000*x1*x2^10 + 37*x3^11 + x2 + 2046"
    assert format_polynomial(f) == reference_format(f) == text
    assert format_polynomial({(0, 0): 1}) == reference_format({(0, 0): 1}) == "1"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 1), (3, 7), (2, 11), (2 ** 61 - 1, 1)]), st.data())
def test_family_text_matches_the_per_term_reference(pe, data):
    # several polynomials, empty ones too, as one flat family and one by one
    field = field_create(*pe)
    m = data.draw(st.integers(1, 4), label="m")
    mono = st.tuples(*[st.integers(0, 3) | st.integers(10, 40)] * m)
    code = st.sampled_from([1, field.q - 1]) | st.integers(1, field.q - 1)
    polys = data.draw(st.lists(st.dictionaries(mono, code, max_size=8), min_size=1, max_size=5),
                      label="polys")
    exponents = np.array([e for f in polys for e in f], dtype=np.int64).reshape(-1, m)
    exponents = exponents.astype(np.min_scalar_type(exponents.max(initial=0)))
    # the codes of a family past int64 are Python ints, of dtype object
    coeffs = np.array([c for f in polys for c in f.values()],
                      dtype=data.draw(st.sampled_from([np.int64, object]), label="dtype"))
    starts = np.cumsum([0] + [len(f) for f in polys])
    expected = [reference_format(f) for f in polys]
    assert format_polynomials(exponents, coeffs, starts) == expected
    assert [format_polynomial(f) for f in polys] == expected


def test_family_text_past_255_pieces():
    # 398 terms with uint8 exponents up to 200: about 985 pieces, so the
    # slots are wider than the exponents
    top = ",".join(map(str, range(201)))
    spec = spec_from_parts("211", f"{top};{top}", 200)
    polys = extremal_polynomials(spec, 2)
    exponents, coeffs, starts = extremal_family(spec, 2)
    assert len(exponents) == 398 and exponents.dtype == np.uint8
    assert format_polynomials(exponents, coeffs, starts) == [reference_format(f) for f in polys]


def test_huge_exponent_keeps_the_pool_small():
    # the pool holds the exponents in use, not one piece per exponent value
    tracemalloc.start()
    try:
        text = format_polynomial({(10 ** 6, 1): 3, (0, 2): 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "3*x1^1000000*x2 + x2^2"
    assert peak < 2 ** 20, f"peak {peak} bytes"


def test_family_text_memory_follows_the_text():
    # 40 sets 0,1 at d = 20: the pieces are joined from a small pool, so
    # memory stays a small multiple of the text (about 8 bytes per byte)
    family = extremal_family(spec_from_parts("2", ";".join(["0,1"] * 40), 20), 5000)
    tracemalloc.start()
    try:
        texts = format_polynomials(*family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(map(len, texts))
    assert peak < 11 * size, f"peak {peak} bytes for {size} bytes of text"


def test_polynomial_evaluate_constant_monomial_at_zero():
    f3 = field_create(3)
    assert evaluate(f3, {(0,): 1}, [0]) == 1


# -- leading terms ------------------------------------------------------------------

def test_leading_term_examples():
    assert leading_term({(1, 0): 1, (0, 1): 1}) == (1, 0)
    assert leading_term({(0, 3): 1, (1, 1): 1}) == (0, 3)
    assert leading_term({(0, 0, 0): 3}) == (0, 0, 0)


def test_leading_term_multiplicative():
    # lt(f * g) = lt(f) + lt(g), which the footprint argument needs, holds
    # because adding an exponent tuple c keeps the graded lex order
    monos = sorted((t for t in itertools.product(range(3), repeat=3) if sum(t) <= 2),
                   key=graded_lex_key)
    for a, b, c in itertools.product(monos, repeat=3):
        shift_a, shift_b = (tuple(x + y for x, y in zip(t, c)) for t in (a, b))
        assert (graded_lex_key(a) < graded_lex_key(b)) == \
            (graded_lex_key(shift_a) < graded_lex_key(shift_b))
    # so multiplying by the monomial x^c shifts the leading term by c
    rng = random.Random(7)
    for _ in range(50):
        terms = {mono: rng.randint(1, 4) for mono in rng.sample(monos, rng.randint(1, 4))}
        c = rng.choice(monos)
        shifted = {tuple(x + y for x, y in zip(mono, c)): v for mono, v in terms.items()}
        assert leading_term(shifted) == \
            tuple(x + y for x, y in zip(leading_term(terms), c))


def test_graded_lex_key_orders_degree_first():
    assert graded_lex_key((0, 3)) > graded_lex_key((1, 1))
    assert graded_lex_key((1, 0)) > graded_lex_key((0, 1))


# -- footprint bound -----------------------------------------------------------------

def test_footprint_examples():
    s23 = GridShape((2, 3))
    assert footprint_upper_bound(s23, [(0, 0)]) == 0
    assert footprint_upper_bound(s23, [(1, 1)]) == 4
    s22 = GridShape((2, 2))
    assert footprint_upper_bound(s22, [(0, 2)]) == 4


def test_footprint_duplicate_terms_rejected():
    with pytest.raises(ValueError, match=exactly("duplicate leading terms in [(1, 0), (1, 0)]")):
        footprint_upper_bound(GridShape((2, 2)), [(1, 0), (1, 0)])


def test_footprint_dimension_check():
    message = "leading term (1, 0, 0) has 3 variables, expected 2"
    with pytest.raises(ValueError, match=exactly(message)):
        footprint_upper_bound(GridShape((2, 2)), [(1, 0, 0)])


def test_footprint_equals_hilbert_at_box_degree():
    shape = GridShape((2, 3))
    box = list(all_tuples(shape))
    for r in (1, 2):
        for lts in itertools.combinations(box, r):
            bound = footprint_upper_bound(shape, lts)
            assert bound == hilbert_fn(box_ideal(shape, lts), shape.k)
            assert bound == shape.n - len(shadow(shape, lts))


@st.composite
def boxes_with_terms(draw):
    """A box of at most 400 tuples and up to six distinct leading terms.

    Terms may leave the box by up to two in any coordinate.
    """
    dims = []
    n = 1
    for _ in range(draw(st.integers(1, 5))):
        dims.append(draw(st.integers(1, min(7, 400 // n))))
        n *= dims[-1]
    shape = GridShape(tuple(sorted(dims)))
    term = st.tuples(*(st.integers(0, d + 1) for d in shape.dims))
    return shape, draw(st.lists(term, max_size=6, unique=True))


@settings(max_examples=60, deadline=None)
@given(boxes_with_terms())
def test_footprint_count_matches_its_oracles(case):
    shape, lts = case
    bound = footprint_upper_bound(shape, lts)
    inside = [lt for lt in lts if shape.contains(lt)]
    assert bound == shape.n - len(shadow(shape, inside))
    assert bound == hilbert_fn(box_ideal(shape, lts), shape.k)


def test_footprint_counts_without_listing_the_box():
    shape = GridShape((2,) * 18)
    lts = [(1, 0) * 9, (0, 1) * 9]
    start = time.process_time()
    bound = footprint_upper_bound(shape, lts)
    assert time.process_time() - start < 0.05
    # each term's up-set has 2^9 tuples and they share only the all-ones tuple
    assert bound == 2 ** 18 - 2 * 2 ** 9 + 1


def test_footprint_absorbs_out_of_box_terms():
    shape = GridShape((2, 2))
    # a term with an exponent >= d_i adds nothing beyond the box generators
    assert footprint_upper_bound(shape, [(0, 2), (1, 0)]) == \
        footprint_upper_bound(shape, [(1, 0)])
    assert footprint_upper_bound(shape, [(5, 7)]) == shape.n


def test_random_polynomials_respect_footprint_bound():
    f3 = field_create(3)
    shape = GridShape((3, 3))
    sets = [range(f3.q), range(f3.q)]
    pts = list(itertools.product(*sets))
    rng = random.Random(99)
    box_le_2 = [t for t in all_tuples(shape) if sum(t) <= 2]
    by_glex = sorted(box_le_2, key=graded_lex_key, reverse=True)
    for _ in range(100):
        r = rng.randint(1, 3)
        lead_idx = sorted(rng.sample(range(len(by_glex)), r))
        polys = []
        for i in lead_idx:
            terms = {by_glex[i]: rng.randint(1, 2)}
            for mono in by_glex[i + 1:]:
                c = rng.randint(0, 2)
                if c:
                    terms[mono] = c
            polys.append(terms)
        lts = [leading_term(f) for f in polys]
        assert lts == [by_glex[i] for i in lead_idx]
        zeros = sum(1 for pt in pts if all(not evaluate(f3, f, pt) for f in polys))
        assert zeros <= footprint_upper_bound(shape, lts)
