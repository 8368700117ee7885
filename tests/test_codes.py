"""Code construction, closed forms, duals, and the exhaustive oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccodes import codes
from ccodes.codes import (
    CartesianCodeSpec,
    LinearCode,
    brute_ghw,
    brute_min_weight,
    code_summary,
    dual_code,
    dual_hierarchy,
    dual_point_weights,
    extremal_polynomials,
    gaussian_binomial,
    generator_matrix,
    hierarchy,
    matmul,
    max_common_zeros,
    monomial_evaluations,
    rank,
    rref,
    spec_from_parts,
    wei_duality_check,
)
from ccodes.errors import BudgetExceededError, InvariantError, RankDeficiencyError
from ccodes.gf import field_create
from ccodes.grid import min_shadow_size
from ccodes.hilbert import graded_lex_key

from corpus import element, evaluate, exactly


def all_codewords(code):
    """Span of the generator rows by direct message enumeration."""
    q, K, n = code.field.q, code.dimension, code.length
    add, mul = code.field.add_table, code.field.mul_table
    words = []
    for msg in itertools.product(range(q), repeat=K):
        w = np.zeros(n, dtype=code.field.int_dtype)
        for c, row in zip(msg, code.matrix):
            w = add[w, mul[c, row]]
        words.append(tuple(int(x) for x in w))
    return words


def oracle_ghw_pairs(code, r):
    """Min support over r-subsets of codewords spanning r dimensions."""
    words = [w for w in all_codewords(code) if any(w)]
    best = None
    for combo in itertools.combinations(words, r):
        if rank(np.array(combo), code.field) != r:
            continue
        supp = sum(1 for j in range(code.length) if any(w[j] for w in combo))
        best = supp if best is None else min(best, supp)
    return best


# -- spec validation -----------------------------------------------------------

def test_spec_validation():
    f3 = field_create(3)
    e = list(range(f3.q))
    with pytest.raises(ValueError):
        CartesianCodeSpec(f3, [[e[0], e[0]]], 1)
    with pytest.raises(ValueError):
        CartesianCodeSpec(f3, [e[:3], e[:2]], 1)  # sizes must ascend
    with pytest.raises(ValueError, match=exactly("degree 0 outside [1, 3]")):
        CartesianCodeSpec(f3, [e[:2], e[:3]], 0)
    with pytest.raises(ValueError, match=exactly("degree 4 outside [1, 3]")):
        CartesianCodeSpec(f3, [e[:2], e[:3]], 4)
    with pytest.raises(ValueError, match=exactly("element code 3 outside [0, 3)")):
        CartesianCodeSpec(f3, [[3]], 1)  # code 3 is no element of GF(3)
    with pytest.raises(ValueError, match=exactly("all sets are singletons; no degrees available")):
        CartesianCodeSpec(f3, [e[:1]], 1)  # singleton grid has k = 0


def test_spec_parsing():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    assert (spec.n, spec.k, spec.dimension) == (4, 2, 3)
    with pytest.raises(ValueError):
        spec_from_parts("2^1", "0,1;;0,1", 1)
    with pytest.raises(ValueError):
        spec_from_parts("2^1", "0,2", 1)  # code 2 outside GF(2)


def test_points_examples():
    # evaluation columns follow the grid points leftmost coordinate slowest:
    # the evaluations of x1, ..., xm are the points' coordinates
    spec = spec_from_parts("2^1", "0,1", 1)
    assert monomial_evaluations(spec.field, spec.sets, [(1,)]).T.tolist() == [[0], [1]]

    spec = spec_from_parts("3^1", "0,1;0,1,2", 1)
    coords = monomial_evaluations(spec.field, spec.sets, [(1, 0), (0, 1)]).T.tolist()
    assert coords == [list(pt) for pt in itertools.product(*spec.sets)]
    assert len(coords) == 6
    assert coords[0] == [0, 0]
    assert coords[-1] == [1, 2]

    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    assert monomial_evaluations(spec.field, spec.sets, [(1, 0), (0, 1)]).T.tolist() == \
        [[0, 0], [0, 1], [1, 0], [1, 1]]


# -- generator matrices -----------------------------------------------------------

def test_generator_matrix_rm212():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    code = generator_matrix(spec)
    assert code.matrix.shape == (3, 4)
    assert rank(code.matrix, spec.field) == 3
    # basis order (1,0),(0,1),(0,0): rows x1, x2, 1 over points 00,01,10,11
    assert code.matrix.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]]


def test_generator_matrix_rs_style():
    spec = spec_from_parts("3^1", "0,1,2", 1)
    code = generator_matrix(spec)
    assert code.matrix.tolist() == [[0, 1, 2], [1, 1, 1]]


def test_full_degree_code_is_whole_space():
    spec = spec_from_parts("3^1", "0,1;0,1,2", 3)
    assert spec.dimension == spec.n
    code = generator_matrix(spec)
    assert code.dimension == spec.n


def test_linear_code_rejects_dependent_rows():
    f2 = field_create(2)
    with pytest.raises(RankDeficiencyError):
        LinearCode(f2, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(ValueError):
        LinearCode(f2, [[0, 2]])


@pytest.mark.parametrize("matrix", [[[0.5, 1.7]], [["1", "2"]], [[-1, 0]], [[2 ** 70, 1]]])
def test_linear_code_rejects_entries_that_are_not_codes(matrix):
    with pytest.raises(ValueError, match=exactly("matrix entries must be codes in [0, 4)")):
        LinearCode(field_create(2, 2), matrix)


# -- linear algebra helpers ---------------------------------------------------------

def test_rref_properties():
    f4 = field_create(2, 2)
    mat = np.array([[1, 2, 3, 1], [2, 3, 1, 0], [3, 1, 2, 1]])
    R, pivots = rref(mat, f4)
    assert rank(mat, f4) == len(pivots)
    # pivot columns are unit vectors
    for i, c in enumerate(pivots):
        col = R[:, c]
        assert col[i] == 1 and all(x == 0 for j, x in enumerate(col) if j != i)
    R2, pivots2 = rref(R, f4)
    assert np.array_equal(R, R2) and pivots == pivots2


def gauss_jordan(rows, field):
    """Reduced row echelon form over FieldElement arithmetic; (rows, pivots)."""
    A = [[element(field, int(x)) for x in row] for row in rows]
    pivots = []
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(A)) if A[i][c]), None)
        if hit is None:
            continue
        A[r], A[hit] = A[hit], A[r]
        scale = A[r][c].inverse()
        A[r] = [x * scale for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                factor = A[i][c]
                A[i] = [x - factor * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return [[x.to_int() for x in row] for row in A], tuple(pivots)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 1)]), st.data())
def test_rref_matches_element_gauss_jordan(pe, data):
    f = field_create(*pe)
    rows = data.draw(st.integers(0, 6), label="rows")
    cols = data.draw(st.integers(1, 7), label="cols")
    entry = st.integers(0, f.q - 1)
    if data.draw(st.booleans(), label="rank deficient") and rows >= 2:
        # the last rows are combinations of the first ones
        base = data.draw(st.integers(1, rows - 1), label="base")
        mat = np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                          min_size=base, max_size=base)), dtype=np.int64)
        for _ in range(rows - base):
            coeffs = data.draw(st.lists(entry, min_size=base, max_size=base))
            combo = np.zeros(cols, dtype=f.int_dtype)
            for c, row in zip(coeffs, mat):
                combo = f.add_table[combo, f.mul_table[c, row]]
            mat = np.vstack([mat, combo])
    else:
        mat = np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                          min_size=rows, max_size=rows)), dtype=np.int64)
        mat = mat.reshape(rows, cols)
    expected, expected_pivots = gauss_jordan(mat.tolist(), f)
    R, pivots = rref(mat, f)
    assert R.dtype == f.int_dtype
    assert pivots == expected_pivots
    assert R.tolist() == expected


def test_rref_zero_and_empty_matrices():
    f9 = field_create(3, 2)
    R, pivots = rref(np.zeros((3, 4), dtype=np.uint8), f9)
    assert pivots == () and not R.any()
    R, pivots = rref(np.zeros((0, 5), dtype=np.uint8), f9)
    assert pivots == () and R.shape == (0, 5)


def test_matmul_identity_and_mismatch():
    f3 = field_create(3)
    A = np.array([[1, 2], [0, 2]])
    eye = np.eye(2, dtype=int)
    assert np.array_equal(matmul(A, eye, f3), A)
    with pytest.raises(ValueError):
        matmul(A, np.zeros((3, 2), dtype=int), f3)


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    for n, r, q in [(5, 2, 2), (6, 3, 3), (4, 2, 4)]:
        assert gaussian_binomial(n, r, q) == gaussian_binomial(n, n - r, q)


# -- closed forms ---------------------------------------------------------------------

def test_ghw_rm212():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    assert hierarchy(spec) == (2, 3, 4)


def test_ghw_mds_line():
    spec = spec_from_parts("5^1", "0,1,2,3,4", 2)
    assert hierarchy(spec) == (3, 4, 5)
    # one-variable degree-d code is MDS: weights n - d + r - 1 + ... = d1 - d + r - 1
    for r in range(1, spec.dimension + 1):
        assert hierarchy(spec)[r - 1] == spec.dims[0] - spec.d + r - 1


def test_ghw_last_weight_is_length():
    for parts in [("2^1", "0,1;0,1", 1), ("3^1", "0,1,2;0,1,2", 2), ("2^2", "0,1;0,1,2", 2)]:
        spec = spec_from_parts(*parts)
        assert len(hierarchy(spec)) == spec.dimension
        assert hierarchy(spec)[-1] == spec.n


def test_ghw_rank_validation():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    with pytest.raises(ValueError, match=exactly("rank 0 outside [1, 3]")):
        max_common_zeros(spec, 0)
    with pytest.raises(ValueError, match=exactly("rank 4 outside [1, 3]")):
        max_common_zeros(spec, 4)


def test_max_common_zeros_examples():
    assert max_common_zeros(spec_from_parts("3^1", "0,1,2", 1), 1) == 1
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    assert max_common_zeros(spec, 1) == 2
    assert max_common_zeros(spec, spec.dimension) == 0


def test_max_common_zeros_exhaustive_oracle():
    # scan every nonzero polynomial of the space for the true maximum
    f2 = field_create(2)
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    monos = [(1, 0), (0, 1), (0, 0)]
    pts = list(itertools.product(*spec.sets))
    best = 0
    for coeffs in itertools.product(range(f2.q), repeat=3):
        if not any(coeffs):
            continue
        f = dict(zip(monos, coeffs))
        best = max(best, sum(1 for pt in pts if not evaluate(f2, f, pt)))
    assert best == max_common_zeros(spec, 1) == 2


def test_ghw_equals_length_minus_max_zeros():
    for parts in [("2^1", "0,1;0,1", 1), ("3^1", "0,1;0,1,2", 2),
                  ("2^2", "0,1,2;0,1,2,3", 3), ("2^1", "0,1;0,1;0,1", 2)]:
        spec = spec_from_parts(*parts)
        for r in range(1, spec.dimension + 1):
            assert hierarchy(spec)[r - 1] == spec.n - max_common_zeros(spec, r)


def test_min_distance_examples():
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    assert hierarchy(spec)[0] == 3
    assert brute_min_weight(generator_matrix(spec)) == 3

    spec = spec_from_parts("2^1", "0,1;0,1;0,1", 1)
    assert hierarchy(spec)[0] == 4
    code = generator_matrix(spec)
    assert (code.length, code.dimension) == (8, 4)
    assert brute_min_weight(code) == 4

    spec = spec_from_parts("3^1", "0,1;0,1,2", 3)  # d = k: weight-1 words appear
    assert hierarchy(spec)[0] == 1


def test_hierarchy_examples():
    assert hierarchy(spec_from_parts("2^1", "0,1;0,1", 1)) == (2, 3, 4)
    assert hierarchy(spec_from_parts("3^1", "0,1,2", 1)) == (2, 3)
    spec = spec_from_parts("3^1", "0,1;0,1,2", 3)
    assert hierarchy(spec) == tuple(range(1, spec.n + 1))


def test_hierarchy_strictly_increasing_ends_at_length():
    for parts in [("2^1", "0,1;0,1;0,1", 2), ("2^2", "0,1,2;0,1,2,3", 3)]:
        spec = spec_from_parts(*parts)
        h = hierarchy(spec)
        assert all(a < b for a, b in zip(h, h[1:]))
        assert h[-1] == spec.n


# -- extremal polynomial families ------------------------------------------------------

def test_extremal_polynomial_examples():
    spec = spec_from_parts("3^1", "0,1,2", 2)
    f, _, unit = extremal_polynomials(spec, 3)  # f_b for b = (2,), (1,), (0,)
    assert f == {(2,): 1, (1,): 2}  # x(x-1) = x^2 + 2x
    assert unit == {(0,): 1}

    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    f = extremal_polynomials(spec, 1)[0]  # b = (1, 0)
    zeros = sum(1 for pt in itertools.product(*spec.sets) if not evaluate(spec.field, f, pt))
    assert zeros == 2


def test_extremal_family_attains_bound():
    for parts in [("2^1", "0,1;0,1", 1), ("3^1", "0,1,2;0,1,2", 2),
                  ("2^2", "0,1;0,1,2", 2)]:
        spec = spec_from_parts(*parts)
        pts = list(itertools.product(*spec.sets))
        polys = extremal_polynomials(spec, spec.dimension)
        for f in polys:
            assert max(sum(mono) for mono in f) <= spec.d
            assert all(max(mono[i] for mono in f) < spec.dims[i] for i in range(spec.m))
        lts = [max(f, key=graded_lex_key) for f in polys]
        assert len(set(lts)) == len(lts)
        evals = [[evaluate(spec.field, f, pt) for pt in pts] for f in polys]
        for r in range(1, spec.dimension + 1):
            zeros = sum(1 for j in range(spec.n)
                        if all(evals[i][j] == 0 for i in range(r)))
            assert zeros == max_common_zeros(spec, r)
            assert rank(np.array(evals[:r]), spec.field) == r


def test_extremal_leading_terms_are_segment_tuples():
    spec = spec_from_parts("3^1", "0,1;0,1,2", 2)
    from ccodes.grid import lex_segment
    segment = lex_segment(spec.shape, spec.d, spec.dimension)
    polys = extremal_polynomials(spec, spec.dimension)
    assert [max(f, key=graded_lex_key) for f in polys] == segment


def test_extremal_validation():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    with pytest.raises(ValueError, match=exactly("rank 4 outside [1, 3]")):
        extremal_polynomials(spec, 4)


# -- duals ------------------------------------------------------------------------------

def test_dual_weights_line_example():
    spec = spec_from_parts("3^1", "0,1,2", 1)
    assert dual_point_weights(spec).tolist() == [2, 2, 2]
    dual = dual_code(spec)
    assert (dual.length, dual.dimension) == (3, 1)
    assert np.count_nonzero(matmul(generator_matrix(spec).matrix, dual.matrix.T,
                                   spec.field)) == 0


def test_dual_full_grid_weights_are_sign():
    # on a full grid each derivative product is (-1)^m
    for field, m in [(field_create(2), 2), (field_create(3), 2), (field_create(3), 1)]:
        sets_text = ";".join(",".join(str(i) for i in range(field.q)) for _ in range(m))
        spec = spec_from_parts(f"{field.p}^{field.e}", sets_text, 1)
        one = element(field, 1)
        expected = one if m % 2 == 0 else -one
        assert dual_point_weights(spec).tolist() == [expected.to_int()] * spec.n


def test_dual_of_reed_muller_is_reed_muller():
    # full grid: dual row space equals the complementary-degree code's row space
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 1)
    dual = dual_code(spec)
    complementary = generator_matrix(spec_from_parts("3^1", "0,1,2;0,1,2",
                                                     spec.k - spec.d - 1))
    assert dual.dimension == complementary.dimension
    stacked = np.vstack([dual.matrix, complementary.matrix])
    assert rank(stacked, spec.field) == dual.dimension


def test_dual_orthogonal_and_dims():
    for parts in [("2^1", "0,1;0,1", 1), ("3^1", "0,1;0,1,2", 2),
                  ("2^2", "0,1,2;0,1,2,3", 3), ("5^1", "0,1,3", 1)]:
        spec = spec_from_parts(*parts)
        code = generator_matrix(spec)
        dual = dual_code(spec)
        assert code.dimension + dual.dimension == spec.n
        if dual.dimension:
            assert np.count_nonzero(matmul(code.matrix, dual.matrix.T, spec.field)) == 0


def test_dual_at_top_degree_is_zero_code():
    spec = spec_from_parts("2^1", "0,1;0,1", 2)
    dual = dual_code(spec)
    assert dual.matrix.shape == (0, 4)
    assert dual_hierarchy(spec) == ()


def _lagrange_specs():
    samples = [spec_from_parts(*parts) for parts in
               [("3^1", "0,1,2", 1), ("2^2", "0,1,2,3;0,1,2,3", 1),
                ("5^1", "0,2,3", 1), ("5^1", "1,4", 1)]]
    from corpus import corpus_specs
    return samples + [spec for _, spec in corpus_specs()]


def test_lagrange_power_sums():
    # sum of x^l / g'(x) over a set is 0 for l < size-1 and 1 at l = size-1
    for spec in _lagrange_specs():
        for s in spec.sets:
            s = [element(spec.field, x) for x in s]
            zero, one = element(spec.field, 0), element(spec.field, 1)
            derivs = []
            for t, x in enumerate(s):
                v = one
                for u, y in enumerate(s):
                    if u != t:
                        v = v * (x - y)
                derivs.append(v)
            for ell in range(len(s)):
                total = zero
                for x, dv in zip(s, derivs):
                    total = total + x ** ell / dv
                expected = one if ell == len(s) - 1 else zero
                assert total == expected


def test_wei_duality_examples(monkeypatch):
    # the dual weight 4 of RM(1, 2), reflected to 5 - 4 = 1, fills {1..4}
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    assert (hierarchy(spec), dual_hierarchy(spec)) == ((2, 3, 4), (4,))
    assert wei_duality_check(spec) is True

    line = spec_from_parts("3^1", "0,1,2", 1)
    assert (hierarchy(line), dual_hierarchy(line)) == ((2, 3), (3,))
    assert wei_duality_check(line) is True

    with pytest.raises(ValueError, match=exactly("duality check needs degree <= k - 1")):
        wei_duality_check(spec_from_parts("2^1", "0,1;0,1", 2))

    # a dual weight that overlaps the hierarchy, or one left out, fails it
    for wrong in ((3,), ()):
        monkeypatch.setattr(codes, "dual_hierarchy", lambda spec: wrong)
        assert wei_duality_check(spec) is False


# -- exhaustive oracles ------------------------------------------------------------------

def test_brute_ghw_pair_oracle_rm212():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    code = generator_matrix(spec)
    assert brute_ghw(code, 2) == 3
    assert oracle_ghw_pairs(code, 2) == 3
    assert brute_ghw(code, 1) == oracle_ghw_pairs(code, 1) == 2
    assert brute_ghw(code, 3) == oracle_ghw_pairs(code, 3) == 4


def test_brute_ghw_small_ternary():
    f3 = field_create(3)
    code = LinearCode(f3, [[1, 1, 1], [0, 1, 2]])
    # scan all 8 nonzero codewords directly
    weights = [sum(1 for x in w if x) for w in all_codewords(code) if any(w)]
    assert min(weights) == 2
    assert brute_ghw(code, 1) == 2
    assert brute_ghw(code, 2) == oracle_ghw_pairs(code, 2) == 3


def test_brute_ghw_full_support_at_top_rank():
    spec = spec_from_parts("2^2", "0,1;0,1,2", 2)
    code = generator_matrix(spec)
    assert brute_ghw(code, code.dimension) == code.length


def test_brute_ghw_matches_pair_oracle_gf4():
    spec = spec_from_parts("2^2", "0,1;0,1", 1)
    code = generator_matrix(spec)
    for r in (1, 2):
        assert brute_ghw(code, r) == oracle_ghw_pairs(code, r)


def test_brute_budget_errors():
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    code = generator_matrix(spec)
    with pytest.raises(BudgetExceededError):
        brute_ghw(code, 2, budget=5)
    with pytest.raises(BudgetExceededError):
        brute_min_weight(code, budget=5)
    with pytest.raises(ValueError, match=exactly("rank 0 outside [1, 6]")):
        brute_ghw(code, 0)


def test_brute_min_weight_matches_codeword_scan():
    spec = spec_from_parts("2^2", "0,1,2;0,1,2,3", 2)
    code = generator_matrix(spec)
    weights = [sum(1 for x in w if x) for w in all_codewords(code) if any(w)]
    assert brute_min_weight(code) == min(weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(0, 20), st.sampled_from([2, 3, 4]),
       st.integers(0, 2 ** 32 - 1))
def test_support_masks_match_power_of_two_sum(n, rows, q, seed):
    rng = np.random.default_rng(seed)
    # mostly zeros, so that sparse and empty supports come up
    variants = (rng.integers(0, q, (rows, n)) * (rng.random((rows, n)) < 0.3)).astype(np.uint8)
    offset = rng.integers(0, q, n).astype(np.uint8)
    field = field_create(2, 2) if q == 4 else field_create(q)

    def weighted_sum(bits):
        # bit j of a mask is coordinate j
        pow2 = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
        return (bits.astype(np.uint64) * pow2[None, :]).sum(axis=1, dtype=np.uint64)

    masks = codes._support_masks(variants, 0)
    assert masks.dtype == np.uint64 and masks.shape == (rows,)
    assert masks.tolist() == weighted_sum(variants != 0).tolist()
    # with the codes of -offset as zeros, the masks are the supports of offset + variants
    shifted = field.add_table[offset[None, :], variants]
    assert (codes._support_masks(variants, field.neg_table[offset]).tolist()
            == weighted_sum(shifted != 0).tolist())


def span_reference(rows, field):
    """Every combination of rows, coefficients from itertools.product."""
    k, n = rows.shape
    combos = itertools.product(range(field.q), repeat=k)
    coeffs = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.intp,
                         count=field.q ** k * k).reshape(field.q ** k, k)
    words = np.zeros((coeffs.shape[0], n), dtype=np.intp)
    for i, row in enumerate(rows):
        words = field.add_table[words, field.mul_table[coeffs[:, i:i + 1], row[None, :]]]
    return words


# GF(1024) needs index 1024 * a + b up to 2^20 - 1, past any uint16
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (2, 10)]),
       st.integers(0, 8), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@example((2, 10), 2, 2, 0)
def test_span_words_list_combinations_first_row_slowest(pe, k, n, seed):
    field = field_create(*pe)
    # at most 2^16 words, but two rows over GF(1024), of length <= 2
    k = min(k, max(2, max(j for j in range(9) if field.q ** j <= 2 ** 16)))
    n = min(n, 2) if field.q ** k > 2 ** 16 else n
    rows = np.random.default_rng(seed).integers(0, field.q, (k, n)).astype(field.int_dtype)
    words = codes._span_words(rows, field)
    assert words.shape == (field.q ** k, n) and words.dtype == field.int_dtype
    assert np.array_equal(words, span_reference(rows, field))


def random_code(data, q, max_k=4, max_n=7):
    """A full-rank code of dimension <= max_k and length <= max_n drawn over GF(q)."""
    field = field_create(*{4: (2, 2), 9: (3, 2)}.get(q, (q,)))
    k = data.draw(st.integers(1, max_k))
    n = data.draw(st.integers(k, max_n))
    matrix = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                min_size=k, max_size=k))
    assume(rank(np.array(matrix), field) == k)
    return LinearCode(field, matrix)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_chunked_oracles_match_default_chunk(q, data):
    code = random_code(data, q)
    r = data.draw(st.integers(1, code.dimension))
    ghw, weight = brute_ghw(code, r), brute_min_weight(code)
    if r == 1:
        assert ghw == weight == min(sum(1 for x in w if x)
                                    for w in all_codewords(code) if any(w))
    with pytest.MonkeyPatch.context() as patch:
        for chunk in (1, 3, 7):
            patch.setattr(codes, "_ORACLE_CHUNK", chunk)
            assert brute_ghw(code, r) == ghw
            assert brute_min_weight(code) == weight


def echelon_support_masks(code, pivots) -> list:
    """Support masks of the subspaces with these pivots, from their bases.

    Every reduced-echelon basis comes from itertools.product over the free
    entries (row by row, first entry slowest); its rows are summed with the
    Field methods and the support is read off coordinate by coordinate.
    """
    G, field = code.matrix, code.field
    K, n = G.shape
    free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, K) if c not in pivots]
    masks = []
    for coeffs in itertools.product(range(field.q), repeat=len(free)):
        basis = [G[p] for p in pivots]
        for (i, c), a in zip(free, coeffs):
            basis[i] = field.add(basis[i], field.mul(a, G[c]))
        masks.append(sum(1 << j for j in range(n) if any(row[j] for row in basis)))
    return masks


# Ranks whose echelon bases the reference enumerates in a test's time.
REFERENCE_SUBSPACES = 3000


def reference_ranks(code) -> list:
    K, q = code.dimension, code.field.q
    return [r for r in range(1, K + 1) if gaussian_binomial(K, r, q) <= REFERENCE_SUBSPACES]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]), st.data())
def test_subspace_sweep_matches_echelon_bases(q, data):
    # pivot sets in brute_ghw's order and in a drawn order, each sharing one
    # reuse state, so that masks a row kept from another pivot set show up
    code = random_code(data, q, max_k=5, max_n=8)
    for r in reference_ranks(code):
        pivot_sets = list(itertools.combinations(range(code.dimension), r))
        expected = {pivots: echelon_support_masks(code, pivots) for pivots in pivot_sets}
        shuffled = data.draw(st.permutations(pivot_sets))
        with pytest.MonkeyPatch.context() as patch:
            for chunk in (1, 3, 7, codes._ORACLE_CHUNK):
                patch.setattr(codes, "_ORACLE_CHUNK", chunk)
                for order in (pivot_sets, shuffled):
                    reuse = codes._mask_table(code), [None] * r
                    for pivots in order:
                        chunks = list(codes._subspace_supports(code, pivots, reuse))
                        assert all(0 < c.size <= chunk for c in chunks), (chunk, pivots)
                        assert np.concatenate(chunks).tolist() == expected[pivots], (chunk, pivots)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]), st.data())
def test_brute_ghw_keeps_no_state_between_calls(q, data):
    # two codes in turn, several ranks each, in a drawn order and twice over
    pair = [random_code(data, q, max_k=5, max_n=8) for _ in range(2)]
    calls = [(code, r) for code in pair for r in reference_ranks(code)]
    fresh = [min(bin(m).count("1") for pivots in itertools.combinations(range(code.dimension), r)
                 for m in echelon_support_masks(code, pivots))
             for code, r in calls]
    order = data.draw(st.permutations(range(len(calls))))
    for i in list(order) * 2:
        assert brute_ghw(*calls[i]) == fresh[i], calls[i]


def test_truncated_subspace_sweep_trips_the_count_invariant(monkeypatch):
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    code = generator_matrix(spec)
    sweep = codes._subspace_supports
    # one free entry per chunk: pivot 0 alone has 3^5 subspaces in 81 chunks
    monkeypatch.setattr(codes, "_ORACLE_CHUNK", 3)
    monkeypatch.setattr(codes, "_subspace_supports",
                        lambda code, pivots, reuse: list(sweep(code, pivots, reuse)))
    assert brute_ghw(code, 1) == hierarchy(spec)[0]

    def truncated(code, pivots, reuse):
        chunks = list(sweep(code, pivots, reuse))
        return chunks[:-1] if len(chunks) > 1 else chunks

    monkeypatch.setattr(codes, "_subspace_supports", truncated)
    with pytest.raises(InvariantError, match="subspaces, expected"):
        brute_ghw(code, 1)


def test_truncated_codeword_span_trips_the_count_invariant(monkeypatch):
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    code = generator_matrix(spec)
    span = codes._span_words
    monkeypatch.setattr(codes, "_span_words", lambda rows, field: span(rows, field)[:-1])
    with pytest.raises(InvariantError, match="codewords, expected 729$"):
        brute_min_weight(code)


def test_oracle_memory_does_not_grow_with_the_budget():
    # a [26, 13] ternary code: (3^13 - 1) / 2 = 797161 one-dimensional
    # subcodes and 3^13 = 1594323 codewords; and a [64, 16] binary code,
    # whose spans of 2^14 words of length 64 are the widest the oracles build
    f2, f3 = field_create(2), field_create(3)
    ternary = [[(i * j + i + 1) % 3 for j in range(13)] for i in range(13)]
    binary = [[(i * j + i + j) // 3 % 2 for j in range(48)] for i in range(16)]
    ternary_code = LinearCode(f3, np.hstack([np.eye(13, dtype=np.uint8), ternary]))
    binary_code = LinearCode(f2, np.hstack([np.eye(16, dtype=np.uint8), binary]))

    def distance_oracles(code):
        return [lambda budget: brute_ghw(code, 1, budget=budget),
                lambda budget: brute_min_weight(code, budget=10 * budget)]

    # the oracles of one group must agree at every budget.  The last group
    # sweeps the (3^13 - 1) / 2 = 797161 hyperplanes of the ternary code:
    # the four of its 13 pivot sets that leave out one of columns 9..12
    # have more free entries than fast digits, so their first rows step
    for oracles in (distance_oracles(ternary_code), distance_oracles(binary_code),
                    [lambda budget: brute_ghw(ternary_code, 12, budget=budget)]):
        results = []
        for budget in (10 ** 6, 10 ** 7):
            for oracle in oracles:
                tracemalloc.start()
                try:
                    value = oracle(budget)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 2 ** 20, (oracle, budget, peak)
                results.append(value)
        assert len(set(results)) == 1, oracles


def test_ghw_oracle_on_length_16_grid():
    spec = spec_from_parts("2^2", "0,1,2,3;0,1,2,3", 2)
    code = generator_matrix(spec)
    assert code.length == 16
    for r in (1, 2):
        assert hierarchy(spec)[r - 1] == brute_ghw(code, r)
    assert hierarchy(spec)[0] == brute_min_weight(code)


def test_code_over_gf9():
    spec = spec_from_parts("3^2", "0,1,3,4", 2)
    code = generator_matrix(spec)
    assert (code.length, code.dimension) == (4, 3)
    for r in range(1, spec.dimension + 1):
        assert hierarchy(spec)[r - 1] == brute_ghw(code, r)
    assert wei_duality_check(spec) is True


# -- summary ---------------------------------------------------------------------------

def test_code_summary_schema():
    spec = spec_from_parts("2^1", "0,1;0,1", 1)
    summary = code_summary(spec)
    assert summary == {
        "length": 4,
        "dimension": 3,
        "degree": 1,
        "hierarchy": [2, 3, 4],
        "dual_hierarchy": [4],
        "min_distance": 2,
    }


def test_monomial_evaluations_alignment():
    spec = spec_from_parts("3^1", "0,1;0,1,2", 2)
    monos = [(1, 2), (0, 0)]
    rows = monomial_evaluations(spec.field, spec.sets, monos)
    pts = list(itertools.product(*spec.sets))
    for ri, mono in enumerate(monos):
        for ci, pt in enumerate(pts):
            expected = element(spec.field, 1)
            for x, e in zip(pt, mono):
                expected = expected * element(spec.field, x) ** e
            assert rows[ri, ci] == expected.to_int()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]), st.data())
def test_monomial_evaluations_match_element_products(pe, data):
    f = field_create(*pe)
    m = data.draw(st.integers(1, 3), label="m")
    sets = [data.draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=5, unique=True))
            for _ in range(m)]
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 2 * f.q)] * m), max_size=6))
    rows = monomial_evaluations(f, sets, monos)
    pts = list(itertools.product(*sets))
    assert rows.dtype == f.int_dtype
    assert rows.shape == (len(monos), len(pts))
    expected = []
    for mono in monos:
        row = []
        for pt in pts:
            value = element(f, 1)
            for x, e in zip(pt, mono):
                value = value * element(f, x) ** e
            row.append(value.to_int())
        expected.append(row)
    assert rows.tolist() == expected


def test_first_order_reed_muller_exact_past_int64():
    # RM(1, m) has d_r = 2^m - 2^(m-r) for r <= m and d_(m+1) = 2^m (Wei 1991);
    # n = 2^64 and 2^70 do not fit in int64.
    for m in (20, 64, 70):
        spec = spec_from_parts("2^1", ";".join(["0,1"] * m), 1)
        expected = tuple(2 ** m - 2 ** (m - r) for r in range(1, m + 1)) + (2 ** m,)
        assert hierarchy(spec) == expected
        assert all(type(w) is int for w in hierarchy(spec))
        assert [min_shadow_size(spec.shape, spec.d, r) for r in range(1, m + 2)] == list(expected)
        assert max_common_zeros(spec, 3) == 2 ** (m - 3)


def test_hierarchy_invariant_raises(monkeypatch):
    import ccodes.codes as codes_module
    monkeypatch.setattr(codes_module, "values_deg_ge", lambda shape, u: np.array([0, 2, 2]))
    with pytest.raises(InvariantError):
        hierarchy(spec_from_parts("2^1", "0,1;0,1", 1))
