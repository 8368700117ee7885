"""Exponent box enumeration, ranking, shadows, lex segments."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccodes.codes import _hierarchy_at_degree
from ccodes import grid
from ccodes.errors import BudgetExceededError, InvariantError
from ccodes.grid import (
    GridShape,
    all_tuples,
    brute_min_shadow,
    count_deg_ge,
    count_deg_le,
    lex_segment,
    lex_segment_digits,
    min_shadow_size,
    mixed_radix_value,
    parse_tuple,
    rth_of_deg_le,
    shadow,
    tuples_deg_le,
    values_deg_ge,
)

from corpus import exactly

SMALL_SHAPES = [GridShape(d) for d in [(2,), (4,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 3), (2, 2, 3)]]


def oracle_box(shape, descending=False):
    """Sort-based enumeration, independent of the mixed-radix walk."""
    return sorted(itertools.product(*(range(d) for d in shape.dims)),
                  reverse=descending)


def oracle_shadow(shape, pts):
    return {t for t in oracle_box(shape)
            if any(all(x >= y for x, y in zip(t, s)) for s in pts)}


def level(shape, u):
    """The tuples of degree u, in decreasing lex order."""
    return [t for t in all_tuples(shape) if sum(t) == u]


def shadow_at(shape, pts, v):
    """The degree-v part of the shadow of pts."""
    return {t for t in shadow(shape, pts) if sum(t) == v}


# -- shape parsing and structure ----------------------------------------------

def test_parse_and_str():
    s = GridShape.parse("2x3x3")
    assert s.dims == (2, 3, 3)
    assert str(s) == "2x3x3"
    assert (s.m, s.n, s.k) == (3, 18, 5)


def test_shape_validation():
    with pytest.raises(ValueError):
        GridShape((3, 2))
    with pytest.raises(ValueError):
        GridShape((0, 2))
    with pytest.raises(ValueError):
        GridShape(())
    with pytest.raises(ValueError):
        GridShape.parse("2xx3")
    with pytest.raises(ValueError):
        GridShape.parse("")


def test_tuple_serialization():
    assert parse_tuple("1,2") == (1, 2)
    assert parse_tuple(" 0,3,1") == (0, 3, 1)
    with pytest.raises(ValueError):
        parse_tuple("1,a")


def test_level_counts_match_enumeration():
    for shape in SMALL_SHAPES:
        assert count_deg_le(shape, shape.k) == count_deg_ge(shape, 0) == shape.n
        for u in range(shape.k + 1):
            assert count_deg_le(shape, u) == len(tuples_deg_le(shape, u))
            assert count_deg_ge(shape, u) == len([t for t in oracle_box(shape) if sum(t) >= u])


# -- enumeration ---------------------------------------------------------------

def test_enumerate_examples():
    s23 = GridShape((2, 3))
    assert tuples_deg_le(s23, 2) == [(1, 1), (1, 0), (0, 2), (0, 1), (0, 0)]
    s22 = GridShape((2, 2))
    # values of (0, 1), (1, 0), (1, 1): the degree >= 1 band, ascending
    assert values_deg_ge(s22, 1).tolist() == [1, 2, 3]


def test_enumeration_matches_sort_oracle():
    for shape in SMALL_SHAPES:
        assert list(all_tuples(shape)) == oracle_box(shape, descending=True)


@pytest.mark.parametrize("dims", [(1,), (4, 4), (3, 3, 3), (2,) * 5, (9, 9), (2,) * 7, (3, 4, 6),
                                  (1, 5, 16), (2, 2, 2, 2, 7)])
def test_walked_band_matches_the_filtered_box(dims):
    shape = GridShape(dims)
    box = oracle_box(shape, descending=True)
    for u in range(shape.k + 1):
        assert tuples_deg_le(shape, u) == [t for t in box if sum(t) <= u]


def test_degree_filter_range():
    s = GridShape((2, 3))
    with pytest.raises(ValueError, match=exactly("degree 4 outside [0, 3] for 2x3")):
        tuples_deg_le(s, 4)
    with pytest.raises(ValueError, match=exactly("degree -1 outside [0, 3] for 2x3")):
        tuples_deg_le(s, -1)


# -- ranking --------------------------------------------------------------------

# At d = k the degree band is the whole box: rth_of_deg_le(shape, shape.k, r)
# is the r-th box tuple, and n - mixed_radix_value is its rank.

def test_rank_examples():
    s23 = GridShape((2, 3))
    assert rth_of_deg_le(s23, s23.k, 1) == (1, 2)
    assert rth_of_deg_le(s23, s23.k, 6) == (0, 0)
    s222 = GridShape((2, 2, 2))
    assert rth_of_deg_le(s222, s222.k, 2) == (1, 1, 0)


def test_rank_out_of_range():
    s = GridShape((2, 3))
    with pytest.raises(ValueError, match=exactly("rank 0 outside [1, 6] for degree <= 3")):
        rth_of_deg_le(s, s.k, 0)
    with pytest.raises(ValueError, match=exactly("rank 7 outside [1, 6] for degree <= 3")):
        rth_of_deg_le(s, s.k, 7)


def test_rank_unrank_inverse_and_sorted_agreement():
    for shape in SMALL_SHAPES:
        desc = oracle_box(shape, descending=True)
        for r, expected in enumerate(desc, start=1):
            t = rth_of_deg_le(shape, shape.k, r)
            assert t == expected
            assert shape.n - mixed_radix_value(shape, t) == r


def test_rth_of_deg_le_examples():
    s23 = GridShape((2, 3))
    assert rth_of_deg_le(s23, 2, 2) == (1, 0)
    s22 = GridShape((2, 2))
    # the first tuple of degree >= 1 ascending is (0, 1): d_1 = 1 + value
    assert values_deg_ge(s22, 1)[0] == mixed_radix_value(s22, (0, 1))
    assert 1 + mixed_radix_value(s22, (0, 1)) == min_shadow_size(s22, 2 - 1, 1) == 2


def test_rth_matches_filtered_enumeration():
    for shape in SMALL_SHAPES:
        for d in range(shape.k + 1):
            le = tuples_deg_le(shape, d)
            for r, expected in enumerate(le, start=1):
                assert rth_of_deg_le(shape, d, r) == expected
            message = f"rank {len(le) + 1} outside [1, {len(le)}] for degree <= {d}"
            with pytest.raises(ValueError, match=exactly(message)):
                rth_of_deg_le(shape, d, len(le) + 1)
            # 1 + value of the r-th tuple of degree >= d ascending is the
            # least shadow of r tuples of degree <= k - d
            ge = [t for t in oracle_box(shape) if sum(t) >= d]
            for r, t in enumerate(ge, start=1):
                assert 1 + mixed_radix_value(shape, t) == min_shadow_size(shape, shape.k - d, r)
            message = f"rank {len(ge) + 1} outside [1, {len(ge)}] for degree <= {shape.k - d}"
            with pytest.raises(ValueError, match=exactly(message)):
                min_shadow_size(shape, shape.k - d, len(ge) + 1)


def test_lex_segment_is_prefix_of_walk():
    for shape in SMALL_SHAPES:
        for d in range(shape.k + 1):
            le = tuples_deg_le(shape, d)
            for r in range(1, len(le) + 1):
                assert lex_segment(shape, d, r) == le[:r]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.data())
def test_band_listing_cut_at_r_is_its_prefix(dims, data):
    shape = GridShape(tuple(sorted(dims)))
    for u in range(shape.k + 1):
        band = values_deg_ge(shape, u)
        r = data.draw(st.integers(1, band.size + 2), label=f"r at u={u}")
        assert values_deg_ge(shape, u, r).tolist() == band[:r].tolist()


def test_lex_segment_past_int64_is_exact():
    # n = 2^70 lists values of dtype object; the digits come back as ints
    shape = GridShape((2,) * 70)
    segment = lex_segment(shape, 3, 500)
    assert [segment[r - 1] for r in (1, 2, 250, 500)] == \
        [rth_of_deg_le(shape, 3, r) for r in (1, 2, 250, 500)]
    assert all(type(x) is int for t in segment for x in t)


@pytest.mark.parametrize("dims, d, reference, dtype", [
    ((7, 31, 151), 186, np.arange(1, 32768), np.int16),  # n = 32767, the int16 maximum
    ((2,) * 7, 7, np.arange(1, 129), np.int16),
    ((2,) * 15, 15, np.arange(1, 32769), np.int32),  # 32768 is past int16
    ((2,) * 31, 0, np.array([2 ** 31]), np.int64),
    ((2,) * 63, 0, np.array([2 ** 63], dtype=object), object),
])
def test_hierarchy_is_held_in_the_narrowest_type_that_holds_n(dims, d, reference, dtype):
    # the largest weight is n itself, not the largest value n - 1
    weights = _hierarchy_at_degree(GridShape(dims), d)
    assert weights.dtype == dtype and not weights.flags.writeable
    assert weights.tolist() == reference.tolist()


@pytest.mark.parametrize("dims, dtype", [((2,) * 70, np.uint8), ((3, 256), np.uint8),
                                         ((3, 257), np.uint16)])
def test_lex_segment_digits_are_the_narrowest_unsigned_type(dims, dtype):
    shape = GridShape(dims)
    digits = lex_segment_digits(shape, 2, 3)
    assert digits.dtype == dtype
    assert list(map(tuple, digits.tolist())) == [rth_of_deg_le(shape, 2, r) for r in (1, 2, 3)]


def test_lex_segment_lists_only_its_tuples():
    # the degree <= 12 band of 2^24 has 9,740,686 tuples; three are asked for
    shape = GridShape((2,) * 24)
    tracemalloc.start()
    try:
        segment = lex_segment(shape, 12, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert segment == [rth_of_deg_le(shape, 12, r) for r in (1, 2, 3)]
    assert peak < 2 ** 20, f"peak {peak} bytes"


def test_lex_segment_checks_the_listing(monkeypatch):
    shape = GridShape((2, 3))
    listing = values_deg_ge
    monkeypatch.setattr(grid, "values_deg_ge", lambda shape, u, r: listing(shape, u, r)[::-1])
    with pytest.raises(InvariantError, match="lex segment"):
        lex_segment(shape, 2, 3)
    monkeypatch.setattr(grid, "values_deg_ge", lambda shape, u, r: listing(shape, u, r)[:-1])
    with pytest.raises(InvariantError, match="lex segment"):
        lex_segment(shape, 2, 3)


# -- shadows ----------------------------------------------------------------------

def test_shadow_examples():
    s23 = GridShape((2, 3))
    assert shadow(s23, [(0, 0)]) == set(all_tuples(s23))
    assert shadow(s23, [(1, 1)]) == {(1, 1), (1, 2)}
    assert shadow(s23, []) == set()


def test_shadow_rejects_outside_box():
    s = GridShape((2, 3))
    with pytest.raises(ValueError):
        shadow(s, [(2, 0)])
    with pytest.raises(ValueError):
        shadow(s, [(0, 0, 0)])


def test_shadow_monotone_and_idempotent():
    import random
    rng = random.Random(20240817)
    for shape in SMALL_SHAPES:
        box = sorted(all_tuples(shape))
        for _ in range(20):
            s = set(rng.sample(box, rng.randint(0, min(4, len(box)))))
            t = s | set(rng.sample(box, rng.randint(0, min(3, len(box)))))
            ds, dt = shadow(shape, s), shadow(shape, t)
            assert ds <= dt
            assert s <= ds
            assert shadow(shape, ds) == ds
            assert ds == oracle_shadow(shape, s)


def test_levelwise_shadow_composition():
    # for S in level u: the level-(u+2) shadow factors through level u+1
    for shape in SMALL_SHAPES:
        for u in range(max(shape.k - 1, 0)):
            tuples = level(shape, u)
            for size in range(len(tuples) + 1):
                for s in itertools.combinations(tuples, size):
                    via = shadow_at(shape, shadow_at(shape, s, u + 1), u + 2)
                    assert via == shadow_at(shape, s, u + 2)


def test_lex_segment_shadow_size_examples():
    s23 = GridShape((2, 3))
    assert min_shadow_size(s23, 2, 2) == 3
    assert shadow(s23, [(1, 1), (1, 0)]) == {(1, 0), (1, 1), (1, 2)}
    assert min_shadow_size(s23, 3, 1) == 1
    s22 = GridShape((2, 2))
    assert min_shadow_size(s22, 1, 3) == 4


def test_lex_segment_shadow_closed_form_matches_scan():
    for shape in SMALL_SHAPES:
        for d in range(shape.k + 1):
            size = count_deg_le(shape, d)
            for r in range(1, size + 1):
                direct = len(shadow(shape, lex_segment(shape, d, r)))
                assert min_shadow_size(shape, d, r) == direct


def test_segment_shadow_is_lex_upper_set():
    # the shadow of the first r tuples is exactly everything lex-above the r-th
    for shape in SMALL_SHAPES:
        for d in range(shape.k + 1):
            size = count_deg_le(shape, d)
            for r in range(1, size + 1):
                seg = lex_segment(shape, d, r)
                expected = {t for t in all_tuples(shape) if t >= seg[-1]}
                assert shadow(shape, seg) == expected


# -- level-wise structure lemmas, exhaustively on small shapes --------------------

def test_lex_max_lower_level_is_dominated():
    for shape in SMALL_SHAPES:
        for v in range(1, shape.k + 1):
            lower = level(shape, v - 1)
            for y in level(shape, v):
                below = [f for f in lower if f <= y]
                assert below, f"no candidate under {y} in level {v - 1} of {shape}"
                a = max(below)
                assert all(x <= z for x, z in zip(a, y))


def test_segment_shadow_recursion():
    # |shadow(M(r))| = r - |M_v| + |shadow(M_v)| for the lex segment M(r)
    for shape in SMALL_SHAPES:
        for v in range(shape.k + 1):
            size = count_deg_le(shape, v)
            for r in range(1, size + 1):
                seg = lex_segment(shape, v, r)
                top = [t for t in seg if sum(t) == v]
                assert len(shadow(shape, seg)) == r - len(top) + len(shadow(shape, top))


def test_compressed_level_has_smallest_shadow():
    # replacing any level subset by its lex segment never grows the shadow
    for shape in SMALL_SHAPES:
        for u in range(shape.k + 1):
            tuples = level(shape, u)
            if len(tuples) > 8:
                continue
            for size in range(len(tuples) + 1):
                for s in itertools.combinations(tuples, size):
                    assert len(shadow(shape, tuples[:size])) <= len(shadow(shape, s))


def test_segment_levels_squeeze_between_shadows():
    # with M(r) the top segment of degree <= v and M_u its level-u part:
    # the level-v shadow of M_u sits inside M_v, and M_v inside the
    # level-v shadow of the one-larger segment of level u
    for shape in SMALL_SHAPES:
        for v in range(1, shape.k + 1):
            size = count_deg_le(shape, v)
            for r in range(1, size + 1):
                seg = lex_segment(shape, v, r)
                m_v = {t for t in seg if sum(t) == v}
                for u in range(1, v + 1):
                    m_u = [t for t in seg if sum(t) == u]
                    assert shadow_at(shape, m_u, v) <= m_v
                    star = level(shape, u)[:len(m_u) + 1]
                    assert m_v <= shadow_at(shape, star, v)


def test_clements_lindstrom_examples():
    # for S in level u, the level-(u+1) shadow of the first |S| tuples of
    # level u lies among the first |level-(u+1) shadow of S| of level u+1
    s22 = GridShape((2, 2))
    assert shadow_at(s22, level(s22, 1)[:1], 2) == {(1, 1)}
    assert level(s22, 2)[:len(shadow_at(s22, [(0, 1)], 2))] == [(1, 1)]
    s33 = GridShape((3, 3))
    grown = shadow_at(s33, [(0, 2), (2, 0)], 3)
    assert shadow_at(s33, level(s33, 2)[:2], 3) <= set(level(s33, 3)[:len(grown)])
    # a full level is its own lex segment
    for shape in SMALL_SHAPES:
        for u in range(shape.k):
            grown = shadow_at(shape, level(shape, u), u + 1)
            assert grown <= set(level(shape, u + 1)[:len(grown)])


# -- minimal shadows -----------------------------------------------------------------

def test_min_shadow_examples():
    assert min_shadow_size(GridShape((2, 3)), 2, 1) == 2
    assert min_shadow_size(GridShape((2, 2)), 2, 1) == 1
    assert brute_min_shadow(GridShape((2, 3)), 3, 2) == 2
    assert min_shadow_size(GridShape((2, 3)), 3, 2) == 2


def test_brute_min_shadow_budget():
    with pytest.raises(BudgetExceededError):
        brute_min_shadow(GridShape((3, 3)), 4, 4, budget=10)


def test_refused_brute_min_shadow_never_holds_the_box():
    # 2^18 tuples, of which the 19 of degree <= 1 are the pool; a list of
    # the whole box would take about 50 MB
    shape = GridShape((2,) * 18)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=exactly("19 subsets exceed budget 10")):
            brute_min_shadow(shape, 1, 1, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_min_shadow_rank_validation():
    with pytest.raises(ValueError, match=exactly("rank 4 outside [1, 3] for degree <= 1")):
        min_shadow_size(GridShape((2, 2)), 1, 4)
    with pytest.raises(ValueError, match=exactly("rank 0 outside [1, 3] for degree <= 1")):
        brute_min_shadow(GridShape((2, 2)), 1, 0)


# -- unranking against a product filter, on random boxes ---------------------------

@st.composite
def boxes(draw, max_n=2000):
    """Ascending boxes of up to six coordinates with at most max_n tuples."""
    dims = []
    n = 1
    for _ in range(draw(st.integers(1, 6))):
        dims.append(draw(st.integers(1, min(12, max_n // n))))
        n *= dims[-1]
    return GridShape(tuple(sorted(dims)))


@settings(max_examples=15, deadline=None)
@given(boxes(), st.data())
def test_unranking_matches_product_filter(shape, data):
    # itertools.product lists the box in ascending lex order, so a tuple's
    # position in it is its mixed-radix value.
    box = list(itertools.product(*(range(x) for x in shape.dims)))
    for d in range(shape.k + 1):
        le = [t for t in reversed(box) if sum(t) <= d]
        ge = [v for v, t in enumerate(box) if sum(t) >= d]  # values, ascending
        assert [rth_of_deg_le(shape, d, r) for r in range(1, len(le) + 1)] == le
        assert [min_shadow_size(shape, shape.k - d, r) for r in range(1, len(ge) + 1)] == \
            [1 + v for v in ge]
        weights = [1 + v for v, t in enumerate(box) if sum(t) >= shape.k - d]
        assert _hierarchy_at_degree(shape, d).tolist() == weights
    d = data.draw(st.integers(0, shape.k), label="d")
    le = [t for t in reversed(box) if sum(t) <= d]
    r = data.draw(st.integers(1, len(le)), label="r")
    assert lex_segment(shape, d, r) == le[:r]
    dominates = (np.array(box)[:, None, :] >= np.array(le[:r])[None, :, :]).all(axis=2)
    assert min_shadow_size(shape, d, r) == int(dominates.any(axis=1).sum())
