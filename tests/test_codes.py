"""Code construction, closed forms, duals, and the exhaustive oracles."""

import functools
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

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
    extremal_family,
    extremal_polynomials,
    gaussian_binomial,
    generator_matrix,
    hierarchy,
    matmul,
    max_common_zeros,
    monomial_evaluations,
    rank,
    spec_from_parts,
    wei_duality_check,
)
from ccodes.errors import BudgetExceededError, InvariantError
from ccodes.gf import Field, field_create
from ccodes.grid import lex_segment, min_shadow_size, tuples_deg_le
from ccodes.hilbert import graded_lex_key
from ccodes.verification import verify

from corpus import evaluate, exactly


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
    with pytest.raises(ValueError, match=exactly("at least one evaluation set required")):
        CartesianCodeSpec(f3, [], 1)
    with pytest.raises(ValueError, match=exactly("evaluation sets must be nonempty")):
        CartesianCodeSpec(f3, [[]], 1)


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
    with pytest.raises(ValueError, match="generator rows are linearly dependent"):
        LinearCode(f2, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(ValueError):
        LinearCode(f2, [[0, 2]])


def test_linear_code_rejects_a_one_dimensional_matrix():
    with pytest.raises(ValueError, match=exactly("generator matrix must be two-dimensional")):
        LinearCode(field_create(3), [0, 1, 2])


def test_reprs_match_readme():
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    assert repr(generator_matrix(spec)) == "LinearCode([9,6] over GF(3))"
    assert repr(dual_code(spec)) == "LinearCode([9,3] over GF(3))"
    assert repr(spec) == "CartesianCodeSpec(GF(3), [0,1,2;0,1,2], d=2)"


@pytest.mark.parametrize("build", [generator_matrix, dual_code])
def test_dependent_evaluation_rows_are_an_invariant_failure(build, monkeypatch):
    # monomial evaluations are independent by construction, so a duplicate
    # row is a bug, not the ValueError of bad input
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    evaluations = codes.monomial_evaluations

    def duplicated(field, sets, monos):
        rows = evaluations(field, sets, monos)
        rows[-1] = rows[0]
        return rows

    monkeypatch.setattr(codes, "monomial_evaluations", duplicated)
    with pytest.raises(InvariantError, match="linearly dependent"):
        build(spec)


@pytest.mark.parametrize("matrix", [[[0.5, 1.7]], [["1", "2"]], [[-1, 0]], [[2 ** 70, 1]]])
def test_linear_code_rejects_entries_that_are_not_codes(matrix):
    with pytest.raises(ValueError, match=exactly("matrix entries must be codes in [0, 4)")):
        LinearCode(field_create(2, 2), matrix)


# -- linear algebra helpers ---------------------------------------------------------

def gauss_jordan(rows, field):
    """Reduced row echelon form by the Field methods on int codes; (rows, pivots)."""
    A = [[field.code(int(x)) for x in row] for row in rows]
    pivots = []
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(A)) if A[i][c]), None)
        if hit is None:
            continue
        A[r], A[hit] = A[hit], A[r]
        scale = field.inv(A[r][c])
        A[r] = [field.mul(x, scale) for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                factor = field.neg(A[i][c])
                A[i] = [field.add(x, field.mul(factor, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, tuple(pivots)


def combination(coeffs, rows, field):
    """The sum of coeffs[i] * rows[i], by the lookup tables."""
    word = np.zeros(len(rows[0]), dtype=field.int_dtype)
    for c, row in zip(coeffs, rows):
        word = field.add_table[word, field.mul_table[c, row]]
    return word


def test_rank_examples():
    f4 = field_create(2, 2)
    # the third row is the sum of the first two
    assert rank(np.array([[1, 2, 3, 1], [2, 3, 1, 0], [3, 1, 2, 1]]), f4) == 2
    mat = np.array([[1, 2, 3, 1], [2, 3, 1, 0], [0, 1, 1, 2]])
    assert rank(mat, f4) == len(gauss_jordan(mat.tolist(), f4)[1]) == 3
    # a dependent row placed first takes the first pivot; a later row vanishes
    first = combination([2, 3], mat[1:], f4)
    assert rank(np.vstack([first, mat[1:]]), f4) == 2
    assert rank(np.vstack([first, mat]), f4) == 3
    # the input is left as it was
    before = mat.copy()
    rank(mat, f4)
    assert np.array_equal(mat, before)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 1), (2, 4)]), st.data())
def test_rank_matches_element_gauss_jordan(pe, data):
    f = field_create(*pe)
    rows = data.draw(st.integers(0, 6), label="rows")
    cols = data.draw(st.integers(1, 7), label="cols")
    entry = st.integers(0, f.q - 1)
    mat = np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)), dtype=np.int64)
    mat = mat.reshape(rows, cols)
    if data.draw(st.booleans(), label="rank deficient") and rows >= 1:
        # combinations of the drawn rows, each put at a drawn position,
        # the first one included
        for _ in range(data.draw(st.integers(1, 3), label="dependent")):
            coeffs = data.draw(st.lists(entry, min_size=len(mat), max_size=len(mat)))
            at = data.draw(st.integers(0, len(mat)), label="position")
            mat = np.insert(mat, at, combination(coeffs, mat, f), axis=0)
    expected = len(gauss_jordan(mat.tolist(), f)[1])
    assert rank(mat, f) == expected
    assert rank(mat.astype(f.int_dtype), f) == expected


def _rank_test_matrix(f, rows, cols, density, rng):
    """Random codes, each nonzero with probability density, with a zero
    column, a repeated row and a zero first row, which leaves the pivot
    columns below it as dense as drawn."""
    mat = np.where(rng.random((rows, cols)) < density, rng.integers(1, f.q, (rows, cols)), 0)
    mat[:, rng.integers(cols)] = 0
    mat[rng.integers(rows)] = mat[rng.integers(rows)]
    mat[0] = 0
    return mat


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (2, 10)],
                         ids=lambda pe: "%d^%d" % pe)
def test_rank_takes_every_update_and_matches_gauss_jordan(pe, monkeypatch):
    # rank updates the rows below a pivot in place through one view when all
    # of them are hit (at least half, in characteristic 2 past q rows), else
    # gathers the hit rows; from q rows on it takes rows of the pivot row's
    # products with every code.  Tall matrices have q rows and more below
    # their first pivots, wide ones run down to a few, and the densities make
    # pivot columns sparse, about half hit, mostly hit and all hit, so every
    # field takes all four updates
    f = field_create(*pe)
    sums, updates = codes._sum_into, set()

    def spy(a, b, field):
        updates.add(("gather" if a.flags.owndata else "view", len(a) >= field.q))
        return sums(a, b, field)

    monkeypatch.setattr(codes, "_sum_into", spy)
    rng = np.random.default_rng(11)
    side = min(f.q, 12) + 4
    for rows, cols in [(2 * f.q + 300, 4), (side, side + 2)]:
        for density in (0.15, 0.48, 0.9, 1.0):
            mat = _rank_test_matrix(f, rows, cols, density, rng)
            expected = len(gauss_jordan(mat.tolist(), f)[1])
            frozen = mat.astype(f.int_dtype)
            frozen.flags.writeable = False
            # int64 input, read-only codes, and views that are not row-major,
            # all of the same rank
            for view in (mat, frozen, frozen.T, mat.T[::-1], frozen[::-1, ::-1]):
                before = view.copy()
                assert rank(view, f) == expected
                assert np.array_equal(view, before)
    assert updates == {(way, big) for way in ("gather", "view") for big in (False, True)}


def test_rank_leaves_a_code_matrix_and_its_transpose_as_they_were():
    # the duals that the recorded CLI digests pin: 120 x 256 over GF(16), the
    # 36 x 81 dual over GF(9), and RM(1,8)'s dual, whose pivot columns are sparse
    for parts in [("2^4", ";".join([",".join(map(str, range(16)))] * 2), 15),
                  ("3^2", ";".join([",".join(map(str, range(9)))] * 2), 8),
                  ("2^1", ";".join(["0,1"] * 8), 1)]:
        code = dual_code(spec_from_parts(*parts))
        before = code.matrix.copy()
        assert rank(code.matrix, code.field) == code.dimension
        assert rank(code.matrix.T, code.field) == code.dimension
        assert np.array_equal(code.matrix, before) and not code.matrix.flags.writeable


def test_rank_zero_and_empty_matrices():
    f9 = field_create(3, 2)
    assert rank(np.zeros((3, 4), dtype=np.uint8), f9) == 0
    assert rank(np.zeros((0, 5), dtype=np.uint8), f9) == 0
    assert rank(np.zeros((4, 0), dtype=np.uint8), f9) == 0
    # zero rows between independent ones do not count
    assert rank(np.array([[0, 0, 0], [0, 4, 1], [0, 0, 0], [7, 0, 2]]), f9) == 2


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (3, 2), (2, 4), (2, 10)],
                         ids=lambda pe: "%d^%d" % pe)
def test_rank_memory_stays_within_five_times_the_matrix(pe):
    # a pivot step holds its block in the matrix's own dtype, not widened
    f = field_create(*pe)
    mat = np.random.default_rng(7).integers(0, f.q, (256, 1024)).astype(f.int_dtype)
    for table in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
        assert table.size  # built before tracing
    tracemalloc.start()
    try:
        assert rank(mat, f) == 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * mat.nbytes, f"peak {peak} bytes, matrix {mat.nbytes}"


def test_linear_code_memory_stays_within_that_of_its_rank():
    # the rank check eliminates in a copy of its own, freed before the
    # stored cast is made: no third matrix on RM(1,9)'s 502 x 512 dual
    dual = dual_code(spec_from_parts("2^1", ";".join(["0,1"] * 9), 1))
    matrix = np.array(dual.matrix)
    peaks = []
    for build in (lambda: rank(matrix, dual.field), lambda: LinearCode(dual.field, matrix)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


# odd q takes a flat index of uint8 (q <= 15), uint16 (q = 17) or uint32
# (q = 257); characteristic 2 adds by XOR in uint8 or, past 256, uint16
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (17, 1), (2, 10), (257, 1)]),
       st.booleans(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_sum_into_matches_field_add(pe, kronecker, k, s, n, seed):
    field = field_create(*pe)
    shapes = [(k, 1, n), (1, s, n)] if kronecker else [(s, n), (n,)]
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, field.q, shape).astype(field.int_dtype) for shape in shapes)
    expected, b_before = field.add(a, b).tolist(), b.copy()
    total = codes._sum_into(a, b, field)
    assert total.dtype == field.int_dtype and total.flags.c_contiguous
    assert total.tolist() == expected
    assert np.array_equal(b, b_before)


# the flat index is uint8 while q^2 - 1 < 2^8 (q <= 16), uint16 for GF(17)
# and GF(256), and uint32 for GF(257) and GF(1024); small chunks cut the take
# within rows and at odd places
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (17, 1), (2, 8), (257, 1),
                        (2, 10)]),
       mutually_broadcastable_shapes(num_shapes=2, min_dims=1, max_dims=3, min_side=0,
                                     max_side=5),
       st.sampled_from([1, 7, codes._TAKE_CHUNK]), st.integers(0, 2 ** 32 - 1))
def test_product_matches_field_mul(pe, shapes, chunk, seed):
    field = field_create(*pe)
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, field.q, shape).astype(field.int_dtype)
            for shape in shapes.input_shapes)
    before = a.copy(), b.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "_TAKE_CHUNK", chunk)
        product = codes._product(a, b, field)
    assert product.dtype == field.int_dtype and product.flags.c_contiguous
    assert product.shape == shapes.result_shape
    assert product.tolist() == field.mul(a, b).tolist()
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


def test_product_memory_stays_within_three_times_the_product():
    # the uint8 index and the product, plus one chunk widened to intp, where a
    # whole take would widen all 2^21 entries to 16 MiB
    f = field_create(2, 4)
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, f.q, (512, 4096)).astype(f.int_dtype)
    scale = rng.integers(1, f.q, 4096).astype(f.int_dtype)
    assert f.mul_table.size  # built before tracing
    tracemalloc.start()
    try:
        product = codes._product(matrix, scale, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * product.nbytes, f"peak {peak} bytes, product {product.nbytes}"


@st.composite
def small_specs(draw):
    """A spec with n <= 64 over a table field, below its top degree."""
    f = field_create(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (7, 1), (2, 4),
                                            (2, 10)]), label="field"))
    dims = sorted(draw(st.lists(st.integers(1, min(f.q, 8)), min_size=1, max_size=3),
                       label="sizes"))
    k = sum(dims) - len(dims)
    assume(math.prod(dims) <= 64 and k >= 2)
    sets = [draw(st.lists(st.integers(0, f.q - 1), min_size=size, max_size=size, unique=True),
                 label="set") for size in dims]
    return CartesianCodeSpec(f, sets, draw(st.integers(1, k - 1), label="d"))


@settings(max_examples=60, deadline=None)
@given(small_specs())
def test_dual_scales_the_evaluations_by_field_mul(spec):
    # w_j is 1 over the product of the g_i' at the point, each g_i' a product
    # of differences, all by Field methods; the dual matrix is the evaluation
    # matrix of degree k - d - 1 times w_j, column by column
    f = spec.field
    derivs = [[functools.reduce(f.mul, (f.add(x, f.neg(y)) for y in s if y != x), 1)
               for x in s] for s in spec.sets]
    weights = [f.inv(functools.reduce(f.mul, point, 1))
               for point in itertools.product(*derivs)]
    assert dual_point_weights(spec).tolist() == weights
    monos = tuples_deg_le(spec.shape, spec.k - spec.d - 1)
    evaluations = monomial_evaluations(f, spec.sets, monos)
    expected = f.mul(evaluations, np.array(weights, dtype=f.int_dtype)[None, :])
    assert dual_code(spec).matrix.tolist() == expected.tolist()


@pytest.mark.parametrize("e", range(1, 11))
def test_addition_is_xor_in_characteristic_two(e):
    # the base-2 digits of a code are its bits, so a + b is a ^ b
    f = field_create(2, e)
    c = np.arange(f.q)
    assert np.array_equal(f.add_table, np.bitwise_xor.outer(c, c))


def test_matmul_identity_and_mismatch():
    f3 = field_create(3)
    A = np.array([[1, 2], [0, 2]])
    eye = np.eye(2, dtype=int)
    assert np.array_equal(matmul(A, eye, f3), A)
    with pytest.raises(ValueError):
        matmul(A, np.zeros((3, 2), dtype=int), f3)


def test_matmul_skips_the_zero_columns_of_a(monkeypatch):
    # an inner index whose column of a is all zero adds nothing to the product
    f = field_create(2, 3)
    a = np.array([[0, 3, 0, 1], [0, 5, 0, 0]])
    b = np.arange(16).reshape(4, 4) % f.q
    expected = matmul(a[:, [1, 3]], b[[1, 3]], f)
    sums, calls = codes._sum_into, []
    monkeypatch.setattr(codes, "_sum_into", lambda *args: calls.append(1) or sums(*args))
    assert np.array_equal(matmul(a, b, f), expected)
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]),
       st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_matmul_matches_elementwise_products(pe, rows, inner, cols, seed):
    f = field_create(*pe)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, f.q, (rows, inner))
    b = rng.integers(0, f.q, (inner, cols))
    expected = [[0] * cols for _ in range(rows)]
    for i, j, t in itertools.product(range(rows), range(cols), range(inner)):
        expected[i][j] = f.add(expected[i][j], f.mul(int(a[i, t]), int(b[t, j])))
    product = matmul(a, b, f)
    assert product.dtype == f.int_dtype and product.tolist() == expected


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
        assert hierarchy(spec)[r - 1] == spec.shape.dims[0] - spec.d + r - 1


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
            assert all(max(mono[i] for mono in f) < d for i, d in enumerate(spec.shape.dims))
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
    segment = lex_segment(spec.shape, spec.d, spec.dimension)
    polys = extremal_polynomials(spec, spec.dimension)
    assert [max(f, key=graded_lex_key) for f in polys] == segment


def scalar_extremal_family(spec, r):
    """The terms of each f_b as a list, one scalar Field call per coefficient.

    rows[s][t] holds the coefficients, degree 0 first, of the product of
    (x - gamma) over the first t elements of A_s, each row from the one
    before; f_b's coefficients are the Kronecker product of the rows
    rows[s][b_s], first coordinate slowest.
    """
    field = spec.field
    tuples = lex_segment(spec.shape, spec.d, r)
    rows = []
    for s, gammas in enumerate(spec.sets):
        ladder = [[1]]
        for gamma in gammas[:max(b[s] for b in tuples)]:
            minus, prev = field.neg(gamma), ladder[-1]
            ladder.append([field.add(lo, field.mul(minus, hi))
                           for lo, hi in zip([0] + prev, prev + [0])])
        rows.append(ladder)
    family = []
    for b in tuples:
        coeffs = [1]
        for s, b_s in enumerate(b):
            coeffs = [field.mul(c, x) for c in coeffs for x in rows[s][b_s]]
        monos = itertools.product(*(range(b_s + 1) for b_s in b))
        family.append([(mono, c) for mono, c in zip(monos, coeffs) if c])
    return family


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 11), (3, 7), (2 ** 61 - 1, 1)]),
       st.data())
def test_extremal_family_matches_scalar_expansion(pe, data):
    # terms, their codes and their order, over small, extension and large fields
    field = field_create(*pe)
    m = data.draw(st.integers(1, 4))
    sizes = sorted(data.draw(st.lists(st.integers(1, min(field.q, 5)), min_size=m, max_size=m)))
    assume(sum(sizes) > m)
    elements = st.integers(0, field.q - 1)
    sets = [data.draw(st.lists(elements, min_size=size, max_size=size, unique=True))
            for size in sizes]
    spec = CartesianCodeSpec(field, sets, data.draw(st.integers(1, sum(sizes) - m)))
    r = data.draw(st.integers(1, min(spec.dimension, 60)))
    family = extremal_polynomials(spec, r)
    assert [list(f.items()) for f in family] == scalar_extremal_family(spec, r)
    assert all(type(c) is int for f in family for c in f.values())


def test_extremal_family_memory_follows_its_terms():
    # f_b for b = (1, ..., 1) is the one term x1*...*x20; its box has 2^20
    # exponents, which a dense expansion would hold
    spec = spec_from_parts("2^1", ";".join(["0,1"] * 20), 20)
    tracemalloc.start()
    try:
        family = extremal_polynomials(spec, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family[0] == {(1,) * 20: 1}
    assert [len(f) for f in family] == [1, 1, 1]
    assert peak < 2 ** 20, f"peak {peak} bytes"


def test_extremal_zero_coefficient_is_an_invariant_failure(monkeypatch):
    # a field has no zero divisors, so a product of nonzero terms is nonzero.
    # With every product zero the ladders still build (x - gamma is then x),
    # but the product of f_(1, 1)'s two factors x1 and x2 vanishes
    spec = spec_from_parts("2^1", "0,1;0,1", 2)
    monkeypatch.setattr(Field, "mul", lambda self, a, b: np.multiply(a, b) * 0)
    with pytest.raises(InvariantError, match=exactly(
            "f_(1, 1) has a zero coefficient, but a field has no zero divisors")):
        extremal_family(spec, 1)


def test_extremal_family_multiplies_once_per_coordinate(monkeypatch):
    # the ladder steps take one Field.mul each, and one more negates the
    # elements; the family's products take one per coordinate after the
    # first, however many polynomials and terms it has
    spec = spec_from_parts("3^2", "0,1,2;3,4,5;0,4,7,8", 4)
    mul, calls = Field.mul, []
    monkeypatch.setattr(Field, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    for r in (1, 2, spec.dimension):
        calls.clear()
        exponents, coeffs, starts = extremal_family(spec, r)
        steps = max(map(max, lex_segment(spec.shape, spec.d, r)))
        assert len(calls) == 1 + steps + spec.shape.m - 1
    assert len(coeffs) > spec.dimension > spec.shape.m  # terms, polynomials, coordinates


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
        expected = 1 if m % 2 == 0 else field.neg(1)
        assert dual_point_weights(spec).tolist() == [expected] * spec.n


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
    with pytest.raises(ValueError, match=exactly("the zero code has no nonzero codewords")):
        brute_min_weight(dual)


def _lagrange_specs():
    samples = [spec_from_parts(*parts) for parts in
               [("3^1", "0,1,2", 1), ("2^2", "0,1,2,3;0,1,2,3", 1),
                ("5^1", "0,2,3", 1), ("5^1", "1,4", 1)]]
    from corpus import corpus_specs
    return samples + [spec for _, spec in corpus_specs()]


def test_lagrange_power_sums():
    # sum of x^l / g'(x) over a set is 0 for l < size-1 and 1 at l = size-1
    for spec in _lagrange_specs():
        f = spec.field
        for s in spec.sets:
            derivs = []
            for t, x in enumerate(s):
                v = 1
                for u, y in enumerate(s):
                    if u != t:
                        v = f.mul(v, f.add(x, f.neg(y)))
                derivs.append(v)
            assert all(derivs)  # the points are distinct
            for ell in range(len(s)):
                total = 0
                for x, dv in zip(s, derivs):
                    total = f.add(total, f.mul(f.pow(x, ell), f.inv(dv)))
                assert total == (1 if ell == len(s) - 1 else 0)


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


def test_top_rank_sweep_packs_each_row_from_the_code(monkeypatch):
    # the [64,64] code over GF(1024) is too large for pair masks or plane
    # tables; at r = 64 each basis row is G[p] alone, whose mask is packed
    # from the row itself, so the sweep adds no codes
    eight = ",".join(map(str, range(8)))
    code = generator_matrix(spec_from_parts("2^10", f"{eight};{eight}", 14))
    sums, calls = codes._sum_into, []
    monkeypatch.setattr(codes, "_sum_into", lambda *args: calls.append(1) or sums(*args))
    assert brute_ghw(code, 64) == 64
    assert calls == []


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
    # the budget bounds all 3^6 codewords, though only (3^6 - 1) / 2 are compared
    with pytest.raises(BudgetExceededError, match=exactly("729 codewords exceed budget 728")):
        brute_min_weight(code, budget=728)
    assert brute_min_weight(code, budget=729) == hierarchy(spec)[0]
    with pytest.raises(ValueError, match=exactly("rank 0 outside [1, 6]")):
        brute_ghw(code, 0)


def test_brute_min_weight_matches_codeword_scan():
    # a grid code over GF(4), codes over GF(5) and GF(9), and a [90, 5]
    # ternary code with zero and repeated columns, too long for brute_ghw.
    # At small chunks the held span is short or empty, so the rows before
    # it build their words in blocks
    rng = np.random.default_rng(3)
    cases = [generator_matrix(spec_from_parts("2^2", "0,1,2;0,1,2,3", 2))]
    for pe, k, n in (((5, 1), 4, 9), ((3, 2), 3, 8), ((3, 1), 5, 75)):
        field = field_create(*pe)
        matrix = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, field.q, (k, n - k))])
        if n > 64:  # three zero and twelve repeated columns
            matrix = np.hstack([matrix, np.zeros((k, 3), dtype=np.int64), matrix[:, 20:32]])
        cases.append(LinearCode(field, matrix))
    with pytest.raises(BudgetExceededError, match="limited to length 64, code has 90"):
        brute_ghw(cases[-1], 1)
    for code in cases:
        weights = [sum(1 for x in w if x) for w in all_codewords(code) if any(w)]
        with pytest.MonkeyPatch.context() as patch:
            for chunk in (codes._ORACLE_CHUNK, 1, 3, 7):
                patch.setattr(codes, "_ORACLE_CHUNK", chunk)
                assert brute_min_weight(code) == min(weights), (code, chunk)


FIELDS_BY_ORDER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2),
                   16: (2, 4), 1024: (2, 10)}


# at most 256 codewords, which all_codewords lists in a test's time
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4, 8, 16, 3, 5]), st.data())
def test_brute_min_weight_matches_codeword_scan_at_any_length(q, data):
    # characteristic 2 compares bit-plane masks, of 1 to 3 uint64 words
    # past 64 coordinates; GF(3) and GF(5) compare the codes themselves.
    # At small chunks the held span is short or empty, so the rows before
    # it build their words in blocks
    field = field_create(*FIELDS_BY_ORDER[q])
    n = data.draw(st.integers(1, 150))
    k = data.draw(st.integers(1, min(n, max(j for j in range(9) if q ** j <= 256))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    matrix = rng.integers(0, q, (k, n))
    # about one column in eight all zero, and one in eight a copy of another
    kind = rng.integers(0, 8, n)
    matrix[:, kind == 0] = 0
    copies = np.flatnonzero(kind == 1)
    matrix[:, copies] = matrix[:, rng.integers(0, n, copies.size)]
    assume(rank(matrix, field) == k)
    code = LinearCode(field, matrix)
    weight = min(sum(1 for x in w if x) for w in all_codewords(code) if any(w))
    with pytest.MonkeyPatch.context() as patch:
        for chunk in (1, 3, 7, codes._ORACLE_CHUNK):
            patch.setattr(codes, "_ORACLE_CHUNK", chunk)
            assert brute_min_weight(code) == weight, chunk
            if n <= 64:
                assert brute_ghw(code, 1) == weight, chunk


def weighted_sum(bits):
    """The uint64 with bit j set where bits[..., j] is, for every word."""
    pow2 = np.left_shift(np.uint64(1), np.arange(bits.shape[-1], dtype=np.uint64))
    return (bits.astype(np.uint64) * pow2).sum(axis=-1, dtype=np.uint64)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 64), st.integers(0, 20), st.sampled_from(sorted(FIELDS_BY_ORDER)),
       st.integers(0, 2 ** 32 - 1))
@example(64, 3, 1024, 0)
def test_bit_planes_match_power_of_two_sum(n, rows, q, seed):
    rng = np.random.default_rng(seed)
    field = field_create(*FIELDS_BY_ORDER[q])
    bits = (q - 1).bit_length()
    # mostly zeros, so that sparse and empty planes come up; uint16 past GF(256)
    words = rng.integers(0, q, (rows, n)) * (rng.random((rows, n)) < 0.3)
    words = words.astype(field.int_dtype)
    planes = codes._bit_planes(words, bits)
    # the narrowest unsigned type with n bits
    width = next(w for w in (8, 16, 32, 64) if n <= w)
    assert planes.dtype == np.dtype(f"uint{width}") and planes.shape == (rows, bits)
    for k in range(bits):
        assert planes[:, k].tolist() == weighted_sum((words >> k) & 1).tolist()
    # leading axes are kept
    assert np.array_equal(codes._bit_planes(words[None, :, None], bits), planes[None, :, None])


@pytest.mark.parametrize("n", [65, 128, 150])
def test_bit_planes_past_64_coordinates_take_a_word_axis(n):
    # bit j of a plane is bit j % 64 of its word j // 64, words uint64
    rng = np.random.default_rng(n)
    words = (rng.integers(0, 16, (5, n)) * (rng.random((5, n)) < 0.3)).astype(np.uint8)
    planes = codes._bit_planes(words, 4)
    width = -(-n // 64)
    assert planes.dtype == np.uint64 and planes.shape == (5, 4, width)
    padded = np.pad(words, ((0, 0), (0, 64 * width - n)))
    for k in range(4):
        for w in range(width):
            bits = (padded[:, 64 * w:64 * (w + 1)] >> k) & 1
            assert planes[:, k, w].tolist() == weighted_sum(bits).tolist()
    assert np.array_equal(codes._bit_planes(words[None, :, None], 4), planes[None, :, None])


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


RANDOM_FIELDS = {4: (2, 2), 9: (3, 2), 16: (2, 4)}


def random_code(data, q, max_k=4, max_n=7):
    """A full-rank code of dimension <= max_k and length <= max_n drawn over GF(q).

    One more column may be put in: all zeros, or a copy of another column.
    """
    field = field_create(*RANDOM_FIELDS.get(q, (q,)))
    k = data.draw(st.integers(1, max_k))
    n = data.draw(st.integers(k, max_n))
    matrix = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                         min_size=k, max_size=k)), dtype=np.int64)
    assume(rank(matrix, field) == k)
    extra = data.draw(st.sampled_from(["none", "zero column", "repeated column"]))
    if extra != "none":
        column = matrix[:, data.draw(st.integers(0, n - 1))] * (extra == "repeated column")
        matrix = np.insert(matrix, data.draw(st.integers(0, n)), column, axis=1)
    return LinearCode(field, matrix)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 9, 16]), st.data())
def test_plane_tables_match_field_arithmetic(q, data):
    code = random_code(data, q, max_k=5, max_n=9)
    field, G, K = code.field, code.matrix, code.dimension
    bits = (q - 1).bit_length()
    with pytest.MonkeyPatch.context() as patch:
        for chunk in (7, 64, codes._ORACLE_CHUNK):
            patch.setattr(codes, "_ORACLE_CHUNK", chunk)
            fits = max(j for j in range(15) if q ** j <= chunk)
            split, low, high = codes._plane_tables(code)
            # the rows from the cut always fit one chunk, those before it while they fit
            assert split == max(K // 2, K - fits), chunk
            assert high is not None and (low is None) == (q ** split > chunk), chunk
            for table, rows, negate in ((low, range(split), False),
                                        (high, range(split, K), True)):
                if table is None:
                    continue
                # one axis of q per row, the index on it the row's coefficient
                assert table.shape == (bits, *(q,) * len(rows)), chunk
                assert table.dtype == codes._mask_type(code.length)
                for coeffs in itertools.product(range(q), repeat=len(rows)):
                    word = np.zeros(code.length, dtype=np.int64)
                    for a, c in zip(coeffs, rows):
                        word = field.add(word, field.mul(a, G[c]))
                    if negate:
                        word = field.neg(word)
                    for k in range(bits):
                        assert int(table[(k, *coeffs)]) == sum(
                            1 << j for j, x in enumerate(word) if x >> k & 1), (chunk, coeffs)
    tail = span_reference(G[max(0, K - codes._fast_digits(q)):], field)
    assert codes._tail_masks(code).tolist() == weighted_sum(tail != 0).tolist()
    multiples = codes._row_multiples(code)
    assert multiples.shape == (bits, K, q)
    for k, c, a in itertools.product(range(bits), range(K), range(q)):
        word = np.atleast_1d(field.mul(a, G[c]))
        assert int(multiples[k, c, a]) == sum(1 << j for j, x in enumerate(word) if x >> k & 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 9, 16]), st.data())
def test_pair_masks_match_field_arithmetic(q, data):
    code = random_code(data, q, max_k=5, max_n=9)
    field, G, K = code.field, code.matrix, code.dimension
    pairs = codes._pair_masks(code)
    if K * K * q > codes._ORACLE_CHUNK:
        assert pairs is None
        return
    assert pairs.shape == (K, K, q) and pairs.dtype == codes._mask_type(code.length)
    for p, c, a in itertools.product(range(K), range(K), range(q)):
        word = field.add(G[p], field.mul(a, G[c]))
        assert int(pairs[p, c, a]) == sum(1 << j for j, x in enumerate(word) if x), (p, c, a)


def test_plane_tables_stay_within_one_chunk(monkeypatch):
    # a [27, 17] ternary code, cut at 17 - 8 = 9: 3^9 words before the cut,
    # past one chunk, and 3^8 from it on
    code = generator_matrix(spec_from_parts("3^1", "0,1,2;0,1,2;0,1,2", 3))
    split, low, high = codes._plane_tables(code)
    assert split == 9 and low is None and high.shape == (2, *(3,) * 8)
    assert codes._row_multiples(code).shape == (2, 17, 3)
    assert codes._pair_masks(code).shape == (17, 17, 3)
    # 64 rows over GF(1024) have 2^16 multiples, past one chunk: the one
    # subspace of rank 64 is swept without them, in well under a megabyte
    identity = LinearCode(field_create(2, 10), np.eye(64, dtype=np.uint8))
    tracemalloc.start()
    try:
        assert brute_ghw(identity, 64) == 64
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes._row_multiples(identity) is None and peak < 2 ** 20, peak
    # the tail table spans the rows from 17 - 8 = 9 on, 3^8 words
    assert codes._tail_masks(code).shape == (3 ** 8,)
    # one digit per chunk of 7: the last row alone has a table
    monkeypatch.setattr(codes, "_ORACLE_CHUNK", 7)
    split, low, high = codes._plane_tables(code)
    assert split == 16 and low is None and high.shape == (2, 3)
    assert codes._tail_masks(code).shape == (3,)
    assert codes._row_multiples(code) is None and codes._pair_masks(code) is None


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
@given(st.sampled_from([2, 3, 4, 9, 16]), st.data())
def test_subspace_sweep_matches_echelon_bases(q, data):
    code = random_code(data, q, max_k=5, max_n=8)
    for r in reference_ranks(code):
        pivot_sets = list(itertools.combinations(range(code.dimension), r))
        expected = {pivots: echelon_support_masks(code, pivots) for pivots in pivot_sets}
        with pytest.MonkeyPatch.context() as patch:
            for chunk in (1, 3, 7, codes._ORACLE_CHUNK):
                patch.setattr(codes, "_ORACLE_CHUNK", chunk)
                # the sweep reads the next pivot set only once the chunks of
                # the one before are out, so each chunk belongs to the last
                # set read; the kept suffixes serve lex order too
                swept = []

                def feed():
                    for pivots in pivot_sets:
                        swept.append((pivots, []))
                        yield pivots

                for c in codes._subspace_masks(code, r, feed()):
                    swept[-1][1].append(c)
                assert [pivots for pivots, _ in swept] == pivot_sets
                for pivots, chunks in swept:
                    assert all(0 < c.size <= chunk for c in chunks), (chunk, pivots)
                    # every chunk but the last is full: as many equal blocks as fit
                    full = {c.size for c in chunks[:-1]}
                    assert len(full) <= 1 and all(2 * size > chunk for size in full), (chunk, pivots)
                    assert np.concatenate(chunks).tolist() == expected[pivots], (chunk, pivots)


# (q, K, chunks): both plane tables exist at each chunk, of q^(K // 2) and
# q^(K - K // 2) words, while G[0] + span(G[1:]) passes one chunk.  A
# streamed chunk of rank 1 is then a block of one, two or several low-table
# words against the whole high table: for GF(3) at 27, 60 and 162, blocks
# of 1, 2 and 6 words, the last block of a row shorter where 243 is no
# multiple of the chunk's 54 or 162 words
@pytest.mark.parametrize("q, K, chunks", [(2, 10, (32, 64, 160)), (3, 6, (27, 60, 162)),
                                          (4, 6, (64, 128, 192, 512)), (9, 4, (81, 162, 405))])
def test_rank_one_sweep_reads_whole_chunk_blocks(monkeypatch, q, K, chunks):
    field = field_create(*RANDOM_FIELDS.get(q, (q,)))
    rng = np.random.default_rng(q)
    matrix = np.hstack([np.eye(K, dtype=np.int64), rng.integers(0, q, (K, 6))])
    code = LinearCode(field, matrix)
    pivot_sets = [(p,) for p in range(K - 1, -1, -1)]
    expected = {pivots: echelon_support_masks(code, pivots) for pivots in pivot_sets}
    for chunk in chunks:
        monkeypatch.setattr(codes, "_ORACLE_CHUNK", chunk)
        assert all(table is not None for table in codes._plane_tables(code)[1:3]), chunk
        fits = max(j for j in range(K) if q ** j <= chunk)
        assert q ** (K - 1) > chunk and q ** (K - K // 2) <= q ** fits
        swept = []

        def feed():
            for pivots in pivot_sets:
                swept.append((pivots, []))
                yield pivots

        for c in codes._subspace_masks(code, 1, feed()):
            swept[-1][1].append(c)
        assert [pivots for pivots, _ in swept] == pivot_sets
        block = chunk // q ** fits * q ** fits
        for pivots, got in swept:
            total = len(expected[pivots])
            sizes = [block] * (total // block) + [total % block] * (total % block > 0)
            assert [c.size for c in got] == (sizes if total > chunk else [total]), (chunk, pivots)
            assert np.concatenate(got).tolist() == expected[pivots], (chunk, pivots)


@pytest.mark.parametrize("sets, d", [("0,1;0,1", 2), ("0,1;0,1;0,1", 1)], ids=["4,4", "8,4"])
def test_side_with_no_table_is_built_a_chunk_per_product(monkeypatch, sets, d):
    # over GF(131) one digit fits a chunk, so the [4,4] and [8,4] codes have
    # no plane table before their cut: at r = 1 row 0 has 131^2 words there,
    # and at r = 3 two rows of 131 masks each lie before the tail.  Both
    # build those words about a chunk at a time, one matmul each, not one
    # product per word or per block of 131 words
    spec = spec_from_parts("131", sets, d)
    matmul, calls = codes.matmul, []

    def counted(*args):
        calls.append(args)
        return matmul(*args)

    monkeypatch.setattr(codes, "matmul", counted)
    for r in (1, 3):
        calls.clear()  # a fresh code builds its tables inside the count
        assert brute_ghw(generator_matrix(spec), r) == hierarchy(spec)[r - 1]
        assert len(calls) <= 8, (r, len(calls))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 9, 16]), st.data())
def test_brute_ghw_matches_echelon_bases_in_small_chunks(q, data):
    # at chunks this small most codes have no plane table before the cut,
    # and rows build that side of their words from their own free rows
    code = random_code(data, q, max_k=5, max_n=8)
    expected = {r: min(bin(m).count("1")
                       for pivots in itertools.combinations(range(code.dimension), r)
                       for m in echelon_support_masks(code, pivots))
                for r in reference_ranks(code)}
    with pytest.MonkeyPatch.context() as patch:
        for chunk in (1, 3, 7):
            patch.setattr(codes, "_ORACLE_CHUNK", chunk)
            assert {r: brute_ghw(code, r) for r in expected} == expected, chunk


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
    sweep = codes._subspace_masks
    # one free entry per chunk: pivot 0 alone has 3^5 subspaces in 81 chunks
    monkeypatch.setattr(codes, "_ORACLE_CHUNK", 3)
    monkeypatch.setattr(codes, "_subspace_masks",
                        lambda code, r, pivot_sets: list(sweep(code, r, pivot_sets)))
    assert brute_ghw(code, 1) == hierarchy(spec)[0]

    def truncated(code, r, pivot_sets):
        return list(sweep(code, r, pivot_sets))[:-1]

    monkeypatch.setattr(codes, "_subspace_masks", truncated)
    with pytest.raises(InvariantError, match="subspaces, expected"):
        brute_ghw(code, 1)


def test_truncated_codeword_span_trips_the_count_invariant(monkeypatch):
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    code = generator_matrix(spec)
    span = codes._span_words
    monkeypatch.setattr(codes, "_span_words", lambda rows, field: span(rows, field)[:-1])
    with pytest.raises(InvariantError, match="codewords, expected 729$"):
        brute_min_weight(code)


def test_dropped_codeword_piece_trips_the_compared_invariant(monkeypatch):
    # at one digit per chunk the [9,6] ternary code spans only its last row,
    # so the rows before it build their words three to a block, each
    # compared alone against the 3 words of the span
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    code = generator_matrix(spec)
    monkeypatch.setattr(codes, "_ORACLE_CHUNK", 3)
    assert brute_min_weight(code) == hierarchy(spec)[0]
    counter, dropped = codes._digit_rows, []

    def drop_first_row(*args):
        rows = counter(*args)
        if not dropped:  # once: one row of the counter's first block
            dropped.append(len(rows))
            rows = rows[1:]
        return rows

    monkeypatch.setattr(codes, "_digit_rows", drop_first_row)
    with pytest.raises(InvariantError, match=exactly("compared 723 codewords, expected 729")):
        brute_min_weight(code)
    assert dropped == [3]


def test_dropped_binary_codeword_piece_trips_the_compared_invariant(monkeypatch):
    # the same over GF(4), whose words are compared as bit-plane masks: at
    # chunk 7 the [9,6] code spans only its last row, so the rows before it
    # build their words seven to a block, each compared alone against the
    # 4 words of the span
    spec = spec_from_parts("2^2", "0,1,2;0,1,2", 2)
    code = generator_matrix(spec)
    monkeypatch.setattr(codes, "_ORACLE_CHUNK", 7)
    assert brute_min_weight(code) == hierarchy(spec)[0]
    counter, dropped = codes._digit_rows, []

    def drop_first_row(*args):
        rows = counter(*args)
        if not dropped:  # once: one row of the counter's first block
            dropped.append(len(rows))
            rows = rows[1:]
        return rows

    monkeypatch.setattr(codes, "_digit_rows", drop_first_row)
    with pytest.raises(InvariantError, match=exactly("compared 4084 codewords, expected 4096")):
        brute_min_weight(code)
    assert dropped == [7]


@pytest.mark.parametrize("sets,d,bound", [
    (";".join(["0,1"] * 5), 2, 2 ** 19),  # RM(2,5), [32,16], of the verify ladder
    (";".join(["0,1"] * 10), 1, 2 ** 20),  # RM(1,10), [1024,11]
])
def test_binary_codeword_oracle_holds_bit_planes(sets, d, bound):
    # n bytes a word took 1.04 MB and 4.00 MB; bit planes take n / 8
    spec = spec_from_parts("2^1", sets, d)
    code = generator_matrix(spec)
    tracemalloc.start()
    try:
        value = brute_min_weight(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == hierarchy(spec)[0] and peak < bound, (value, peak)


def test_dropped_monomial_trips_the_generator_row_count(monkeypatch):
    spec = spec_from_parts("3^1", "0,1,2;0,1,2", 2)
    tuples = codes.tuples_deg_le
    monkeypatch.setattr(codes, "tuples_deg_le", lambda shape, u: tuples(shape, u)[:-1])
    with pytest.raises(InvariantError, match=exactly("generator has 5 rows, spec dimension is 6")):
        generator_matrix(spec)


def test_oracle_memory_does_not_grow_with_the_budget():
    # a [26, 13] ternary code: (3^13 - 1) / 2 = 797161 one-dimensional
    # subcodes and 3^13 = 1594323 codewords; a [64, 16] binary code, whose
    # spans of 2^14 words of length 64 are the widest the subspace oracle
    # builds; and a [150, 18] binary code, whose codeword span holds 2^14
    # words of three uint64s
    f2, f3 = field_create(2), field_create(3)
    ternary = [[(i * j + i + 1) % 3 for j in range(13)] for i in range(13)]
    binary = [[(i * j + i + j) // 3 % 2 for j in range(48)] for i in range(16)]
    long_binary = [[(i * j + i + j) // 3 % 2 for j in range(132)] for i in range(18)]
    ternary_code = LinearCode(f3, np.hstack([np.eye(13, dtype=np.uint8), ternary]))
    binary_code = LinearCode(f2, np.hstack([np.eye(16, dtype=np.uint8), binary]))
    long_code = LinearCode(f2, np.hstack([np.eye(18, dtype=np.uint8), long_binary]))
    # the [16, 10] GF(4) code of the verify benchmark: (4^10 - 1) / 3 = 349525
    # subspaces at r = 1 and at r = 9, with its plane tables built on the first
    # call.  At r = 1 its rows 0..2 read whole chunks of 16 low-table words
    # against the 1024-word high table; a fresh copy of the code builds its
    # tables inside each traced call
    gf4_spec = spec_from_parts("2^2", "0,1,2,3;0,1,2,3", 3)
    gf4_code = generator_matrix(gf4_spec)

    def distance_oracles(code):
        return [lambda budget: brute_ghw(code, 1, budget=budget),
                lambda budget: brute_min_weight(code, budget=10 * budget)]

    # the oracles of one group must agree at every budget.  The last group
    # sweeps the (3^13 - 1) / 2 = 797161 hyperplanes of the ternary code:
    # the four of its 13 pivot sets that leave out one of columns 9..12
    # have more free entries than one chunk holds, so their first rows are
    # ORed in blocks onto the kept suffix
    for oracles in (distance_oracles(ternary_code), distance_oracles(binary_code),
                    [lambda budget: brute_min_weight(long_code, budget=10 * budget)],
                    [lambda budget: brute_ghw(ternary_code, 12, budget=budget)],
                    [lambda budget: brute_ghw(gf4_code, 1, budget=budget),
                     lambda budget: brute_ghw(generator_matrix(gf4_spec), 1, budget=budget)],
                    [lambda budget: brute_ghw(gf4_code, 9, budget=budget)]):
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


def test_oracle_tables_leave_with_their_code():
    # the tables live on the code, not in a module-level cache
    code = generator_matrix(spec_from_parts("2^2", "0,1,2,3;0,1,2,3", 2))
    assert [brute_ghw(code, r) for r in range(1, code.dimension + 1)] == [8, 11, 12, 14, 15, 16]
    kept = code._oracle_tables
    chunk = codes._ORACLE_CHUNK
    tables = [weakref.ref(kept["_plane_tables", chunk][1]), weakref.ref(kept["_tail_masks", chunk])]
    del kept
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None and [table() for table in tables] == [None, None]


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
    for key in ("hierarchy", "dual_hierarchy"):
        summary[key] = summary[key].tolist()
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
            expected = 1
            for x, e in zip(pt, mono):
                expected = spec.field.mul(expected, spec.field.pow(x, e))
            assert rows[ri, ci] == expected


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
            value = 1
            for x, e in zip(pt, mono):
                value = f.mul(value, f.pow(x, e))
            row.append(value)
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


# Table fields that the acceptance corpus (GF(2) to GF(5)) never uses.
UNCORPUSED_FIELDS = [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@st.composite
def uncorpused_specs(draw):
    """A spec over one of UNCORPUSED_FIELDS with n <= 64 whose ghw r=1 fits 10^4."""
    f = field_create(*draw(st.sampled_from(UNCORPUSED_FIELDS), label="field"))
    dims = [1] * draw(st.integers(0, 1), label="singletons")
    for _ in range(draw(st.integers(1, 4), label="sets")):
        low, high = max([2, *dims]), min(f.q, 64 // math.prod(dims))
        if low > high:
            break
        dims.append(draw(st.integers(low, high), label="size"))
    assume(max(dims) >= 2)
    sets = [draw(st.lists(st.integers(0, f.q - 1), min_size=size, max_size=size, unique=True),
                 label="set") for size in dims]
    degrees = [d for d in range(1, sum(dims) - len(dims) + 1)
               if gaussian_binomial(CartesianCodeSpec(f, sets, d).dimension, 1, f.q) <= 10 ** 4]
    assume(degrees)
    return CartesianCodeSpec(f, sets, draw(st.sampled_from(degrees), label="d"))


@settings(max_examples=200, deadline=None)
@given(uncorpused_specs())
def test_verify_over_fields_the_corpus_never_uses(spec):
    report = verify(spec, 10 ** 4)
    assert report.ok, report.checks
    assert any(name.startswith("ghw r=") for name, _, _ in report.checks)
