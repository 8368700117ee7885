"""Affine Cartesian evaluation codes over GF(q).

A code spec is a list of evaluation sets A_1..A_m (distinct elements of
one field, with ascending sizes d_1 <= ... <= d_m) plus a total-degree
bound d.  The code is the image of all polynomials of total degree <= d
and per-variable degree < d_i under evaluation at every grid point.

Sections, in file order: specs and LinearCode; linear algebra on
integer-coded matrices (rank, matmul); code construction
(monomial_evaluations, generator_matrix); closed forms
(max_common_zeros, hierarchy, dual_hierarchy); extremal polynomial
families; duals (dual_code, wei_duality_check); exhaustive oracles
(brute_ghw, brute_min_weight); code_summary, the CLI's view of a code.

Everything is deterministic and bit-reproducible: points are enumerated
with the leftmost coordinate slowest, the generator rows follow the
degree-<=d exponent tuples in decreasing lex order, and field elements
are their canonical integer codes throughout: in the sets, the points,
the matrices and the polynomial coefficients.  A polynomial is its
terms, a dict from exponent tuples to nonzero codes; a family of them is
held as flat arrays of all their terms (extremal_family).

The closed forms read grid's ranked tuples and never build a matrix.
The oracles, brute_ghw and brute_min_weight with their helpers, read a
LinearCode's matrix and call no closed form; tests/test_source.py holds
both sides to that wall.

Rules that span functions.  Every sum of arrays of codes is one call of
_sum_into, the one reader of the addition table.  Its twin _product, a take
from the flat multiplication table, is the one entrywise product of code
arrays in construction: the ladders of powers, the dual's weights and
column scaling, and _kron_rows, the one Kronecker product (of evaluation
matrices and of the dual's column scalars).  rank's update follows the
density of the pivot column: when every row below is hit, or at least half
of them where updating a row costs no more than moving it (characteristic
2, q rows or more), all of them are updated in place through one view, else
only the hit rows are gathered and put back.
Matrix work indexes the field's lookup tables.  The extremal families need
none: a whole family is multiplied out with one Field.mul over arrays per
coordinate, never per polynomial or term.  Both oracles hold at most
_ORACLE_CHUNK subspaces or codewords at once, whatever their budget, build
the words that no table holds in blocks, each block's coefficients from
_digit_rows, the one counter of base-q digits, and its words from one
matmul, and raise InvariantError unless they covered exactly the
gaussian_binomial(K, r, q) subspaces or q^K codewords they should.  The
codeword oracle compares one word per scalar class, the (q^K - 1) / (q - 1)
words whose first nonzero coefficient is 1; their multiples and the zero
word cover the rest.  In characteristic 2 it holds each word as bit planes,
ceil(n / 64) uint64s per plane past 64 coordinates, and weighs a word by
popcounts of _planes_differ's mask (_mask_weights); elsewhere as its n
codes, counting the entries that differ.  The subspace oracle packs bit
planes and masks once per code, into tables of at most one chunk of words
per plane that _oracle_table keeps on the LinearCode: the planes of the
spans of the rows before and from a cut, the rows' multiples, the pair
masks, and the masks of the span of the last rows (_tail_masks), which a
basis row among those rows slices its masks from.  The rows from the cut
always fit one table, and those before it have one while they fit.  A plane
table has one axis per row, so each word read from it, a coefficient on
each row's axis and the whole axis of each free row, is one view of it;
only a word's side before the cut of a code with no table there is built,
in blocks, from its free rows there.  While the tables fit, the sweep adds
no codes.  It then ORs the rows' masks.  _planes_differ is its one zero
test, _plane_tables alone splits the rows, _word_masks alone reads those
tables, and _subspace_masks is its one sweep, which keeps the masks that
consecutive pivot sets share for one call.  Only _hierarchy_at_degree
decides whether a hierarchy is short enough to list, and only
extremal_family whether a family is.

Errors: bad input raises ValueError, generator entries that are not
integer codes in [0, q) included.  Its one subclass, BudgetExceededError,
marks work past a limit (an oracle's budget, the length of a hierarchy
or a family), so verify can tell a check its oracle refused from an error.
InvariantError marks a broken internal invariant, a bug.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .gf import TABLE_ORDER_LIMIT, Field, parse_field
from .grid import (
    DEFAULT_BUDGET,
    GridShape,
    count_deg_ge,
    count_deg_le,
    lex_segment_digits,
    min_shadow_size,
    tuples_deg_le,
    values_deg_ge,
)

# Support bitmasks live in unsigned words of at most 64 bits: the subspace
# oracle takes codes of at most this length, and past it a bit plane of the
# codeword oracle takes one word per this many coordinates.
_MAX_ORACLE_LENGTH = 64

# Most subspaces or codewords an exhaustive oracle holds at once; it sizes
# their tables too.  A verify benchmark pass took 8-15 % longer at 2^12,
# where four times as many chunks pay their per-chunk Python, and 19-25 %
# longer at 2^16.
_ORACLE_CHUNK = 1 << 14

# Most entries of a product taken from the multiplication table at once.
_TAKE_CHUNK = 1 << 16

# A hierarchy is held as a read-only array of its weights, and an extremal
# family as arrays of its terms; refuse hierarchies of more weights, and
# families of more polynomials, terms or entries, than this.
_MAX_LISTING = DEFAULT_BUDGET


class CartesianCodeSpec:
    """Evaluation sets over one field plus a degree bound.

    sets must come with ascending sizes; they are not reordered, since
    their order fixes the point enumeration and hence the matrices.
    """

    def __init__(self, field: Field, sets, d: int):
        sets = tuple(tuple(field.code(x) for x in s) for s in sets)
        if not sets:
            raise ValueError("at least one evaluation set required")
        for s in sets:
            if not s:
                raise ValueError("evaluation sets must be nonempty")
            if len(set(s)) != len(s):
                raise ValueError(f"evaluation set {s} has repeated elements")
        dims = tuple(len(s) for s in sets)
        if any(a > b for a, b in zip(dims, dims[1:])):
            raise ValueError(f"set sizes must be ascending, got {dims}")
        shape = GridShape(dims)
        if shape.k < 1:
            raise ValueError("all sets are singletons; no degrees available")
        if not 1 <= d <= shape.k:
            raise ValueError(f"degree {d} outside [1, {shape.k}]")
        self.field = field
        self.sets = sets
        self.d = d
        self.shape = shape

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def k(self) -> int:
        return self.shape.k

    @property
    def dimension(self) -> int:
        """Number of degree-<=d exponent tuples, i.e. the code dimension."""
        return count_deg_le(self.shape, self.d)

    def __repr__(self):
        sets = ";".join(",".join(str(x) for x in s) for s in self.sets)
        return f"CartesianCodeSpec({self.field!r}, [{sets}], d={self.d})"


def parse_sets(field: Field, text: str) -> list:
    """Parse "0,1;0,1,2" into lists of element codes, each checked in [0, q)."""
    sets = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty evaluation set in {text!r}")
        try:
            codes = [int(x) for x in part.split(",")]
        except ValueError:
            raise ValueError(f"bad evaluation set {part!r}") from None
        sets.append([field.code(v) for v in codes])
    return sets


def spec_from_parts(field_text: str, sets_text: str, d: int) -> CartesianCodeSpec:
    """Build a spec from its serialized parts ("p^e", "a,b;c,d,e", d)."""
    field = parse_field(field_text)
    return CartesianCodeSpec(field, parse_sets(field, sets_text), d)


class LinearCode:
    """A code presented by generator rows of integer-coded field elements.

    Rows must be linearly independent (a 0 x n matrix is the zero code).
    The matrix is stored read-only.
    """

    def __init__(self, field: Field, matrix):
        raw = np.asarray(matrix)
        if raw.ndim != 2:
            raise ValueError("generator matrix must be two-dimensional")
        # check before casting, which would truncate floats and wrap negatives
        if raw.size and (raw.dtype.kind not in "biu" or raw.min() < 0 or raw.max() >= field.q):
            raise ValueError(f"matrix entries must be codes in [0, {field.q})")
        # rank eliminates in a copy of its own, freed before the cast is made
        if raw.shape[0] and rank(raw, field) != raw.shape[0]:
            raise ValueError("generator rows are linearly dependent")
        matrix = raw.astype(field.int_dtype)
        matrix.flags.writeable = False
        self.field = field
        self.matrix = matrix
        # the subspace oracle's tables, by name and chunk, built on first use
        self._oracle_tables = {}

    @property
    def length(self) -> int:
        return self.matrix.shape[1]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"LinearCode([{self.length},{self.dimension}] over {self.field!r})"


# --------------------------------------------------------------------------
# Linear algebra on integer-coded matrices
# --------------------------------------------------------------------------

def _sum_into(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """a + b entrywise over the field, broadcast together.

    The one addition of codes in this module: a ^ b in characteristic 2,
    where a code's base-2 digits are its bits, else one lookup in the flat
    addition table at a * q + b, indexed in the smallest unsigned type that
    holds q^2 - 1, so no 8-byte index array the size of a span is made.
    If b broadcasts to a, a may be overwritten: never pass
    a span kept across chunks.  Otherwise the sum is a new row-major array.
    """
    full = np.broadcast(a, b).shape == a.shape
    if field.p == 2:
        return np.bitwise_xor(a, b, out=a if full else None, order="C")
    index = np.min_scalar_type(field.q ** 2 - 1)
    sums = np.multiply(a, field.q, out=a if full and a.dtype == index else None, dtype=index)
    sums = np.add(sums, b, out=sums if full else None, dtype=index, order="C")
    return field.add_table.ravel()[sums]


def _product(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """a * b entrywise over the field, broadcast together.

    The twin of _sum_into for products: a take from the flat
    multiplication table at a * q + b, indexed in the smallest unsigned
    type that holds q^2 - 1.  take widens its index to intp, 8 bytes per
    entry, so it takes _TAKE_CHUNK entries at a time.  Neither input is
    modified; the product is a new row-major array.
    """
    table = field.mul_table.ravel()
    index = np.min_scalar_type(field.q ** 2 - 1)
    flat = np.add(np.multiply(a, field.q, dtype=index), b, dtype=index)
    out = np.empty(np.shape(flat), dtype=table.dtype)
    for start in range(0, out.size, _TAKE_CHUNK):
        chunk = slice(start, start + _TAKE_CHUNK)
        table.take(flat.reshape(-1)[chunk], out=out.reshape(-1)[chunk])
    return out


def rank(matrix, field: Field) -> int:
    """Number of linearly independent rows, by one-sided elimination.

    Rows are taken in order, and a row's first nonzero column is its
    pivot.  The later rows are updated from the pivot column on: each gets
    the multiple of the pivot row that clears its entry in that column.
    When enough of them have a nonzero entry there, all of them are
    updated in place through one view, a zero entry taking multiplier 0;
    otherwise only those rows are gathered, updated and put back.  Enough
    is at least half in characteristic 2 with q rows or more to update,
    where a row's update is a row gathered from a table and a XOR, no
    dearer than moving the row; elsewhere it is every row, since a column
    gather or the addition table costs several moves per row.  A row left
    all zero depends on the rows before it; the others are independent,
    and there is no back substitution.  The input is not modified.
    """
    A = np.array(matrix, dtype=field.int_dtype)
    rows, cols = A.shape
    mul = field.mul_table
    # the multiplier that clears an entry a under pivot x is a * -1/x
    neg_inv = field.neg_table[field.inv_table]
    found = 0
    for i in range(rows):
        # this also stops a matrix of no columns before argmax of an empty row
        if found == cols:
            break
        row = A[i]
        c = (row != 0).argmax()
        pivot = row[c]
        if pivot == 0:
            continue
        found += 1
        column = A[i + 1:, c]
        hits = column.nonzero()[0]
        if hits.size == 0:
            continue
        cheap = field.p == 2 and column.size >= field.q
        if hits.size == column.size or (cheap and 2 * hits.size >= column.size):
            below, entries = slice(i + 1, None), column
        else:
            below = hits + (i + 1)
            entries = column.take(hits)
        # an entry a takes a times the pivot row scaled by -1/pivot; past q
        # rows to update, that row's products with every code are built
        # once.  take keeps them row-major like the block, where
        # mul[x][:, y] would not
        pivot_row = mul[neg_inv[pivot]].take(row[c:])
        if entries.size < field.q:
            scaled = mul[entries].take(pivot_row, axis=1)
        else:
            scaled = mul.take(pivot_row, axis=1).take(entries, axis=0)
        A[below, c:] = _sum_into(A[below, c:], scaled, field)
    return found


def matmul(a, b, field: Field) -> np.ndarray:
    """Product of integer-coded matrices over the field.

    One pass per inner index t adds the outer product of a[:, t] and b[t],
    by mul_table lookups, into the result, so the cost grows with the
    inner dimension; an index whose column of a is all zero adds nothing
    and is skipped.
    """
    a = np.asarray(a, dtype=field.int_dtype)
    b = np.asarray(b, dtype=field.int_dtype)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    mul = field.mul_table
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.int_dtype)
    for t in np.flatnonzero(a.any(axis=0)):
        out = _sum_into(out, mul[a[:, t][:, None], b[t][None, :]], field)
    return out


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional space."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# --------------------------------------------------------------------------
# Code construction
# --------------------------------------------------------------------------

def _kron_rows(factors, field: Field) -> np.ndarray:
    """Row-wise Kronecker product of integer-coded factors, by _product.

    factors[i] has shape (rows, d_i); the result has shape
    (rows, d_1 * ... * d_m) with the first factor's index slowest; no
    factors give [[1]].
    """
    out, *rest = factors or [np.ones((1, 1), dtype=np.uint8)]
    for f in rest:
        out = _product(out[:, :, None], f[:, None, :], field).reshape(
            len(f), out.shape[1] * f.shape[1])
    return out


def monomial_evaluations(field: Field, sets, monos) -> np.ndarray:
    """Evaluations of the monomials x^a at every grid point, encoded.

    Columns follow the grid points with the leftmost coordinate slowest,
    the order of itertools.product(*sets); rows follow monos.
    The codes of all sets share one ladder of powers, one product per
    power past the first, and a row is the Kronecker product of its
    exponents' ladder rows, each cut to its coordinate's set.
    """
    monos = np.array(monos, dtype=np.intp).reshape(len(monos), len(sets))
    codes = np.array([x for s in sets for x in s], dtype=field.int_dtype)
    ladder = [np.ones_like(codes), codes]
    while len(ladder) <= monos.max(initial=0):
        ladder.append(_product(ladder[-1], codes, field))
    ladder = np.array(ladder)
    bounds = itertools.pairwise(itertools.accumulate(map(len, sets), initial=0))
    return _kron_rows([ladder[monos[:, i], a:b] for i, (a, b) in enumerate(bounds)], field)


def _evaluation_code(spec: CartesianCodeSpec, degree: int, scale=None) -> LinearCode:
    """The degree-<=degree monomials evaluated on the grid, columns times scale.

    They are independent on the grid, so a matrix LinearCode refuses is a
    bug, unless the field is past the table limit: then LinearCode's rank
    cannot read the lookup tables, and its ValueError is bad input.
    """
    field = spec.field
    matrix = monomial_evaluations(field, spec.sets, tuples_deg_le(spec.shape, degree))
    if scale is not None:
        matrix = _product(matrix, scale, field)
    try:
        return LinearCode(field, matrix)
    except ValueError as exc:
        if field.q > TABLE_ORDER_LIMIT:
            raise
        raise InvariantError(f"monomial basis evaluations: {exc}; this is a bug") from None


def generator_matrix(spec: CartesianCodeSpec) -> LinearCode:
    """Generator matrix: monomial basis rows in decreasing lex order."""
    code = _evaluation_code(spec, spec.d)
    if code.dimension != spec.dimension:
        raise InvariantError(
            f"generator has {code.dimension} rows, spec dimension is {spec.dimension}")
    return code


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def max_common_zeros(spec: CartesianCodeSpec, r: int) -> int:
    """Maximum number of common grid zeros of r independent polynomials."""
    if not 1 <= r <= spec.dimension:
        raise ValueError(f"rank {r} outside [1, {spec.dimension}]")
    return spec.n - min_shadow_size(spec.shape, spec.d, r)


def _hierarchy_at_degree(shape: GridShape, d: int) -> np.ndarray:
    """Weight hierarchy of the degree-d code on this grid, 0 <= d <= k.

    count_deg_ge checks the degree, as k - d.  d_r is 1 + the value of
    the r-th tuple of degree >= k - d, ascending.  A hierarchy past
    _MAX_LISTING weights raises BudgetExceededError.  The weights
    are values_deg_ge's array, read-only: of the narrowest signed type
    that holds n, the largest weight, or past int64 of dtype object
    holding exact Python ints.
    """
    length = count_deg_ge(shape, shape.k - d)
    if length > _MAX_LISTING:
        raise BudgetExceededError(
            f"hierarchy of {length} weights exceeds the limit {_MAX_LISTING}")
    values = values_deg_ge(shape, shape.k - d)
    if values.size != length or np.any(values[1:] <= values[:-1]):
        raise InvariantError(f"degree-{d} hierarchy on {shape} is not strictly increasing")
    values += 1
    values.flags.writeable = False
    return values


def dual_hierarchy_array(spec: CartesianCodeSpec) -> np.ndarray:
    """The dual hierarchy as _hierarchy_at_degree's array, empty when d = k."""
    if spec.d == spec.k:
        return np.zeros(0, dtype=np.int64)
    return _hierarchy_at_degree(spec.shape, spec.k - spec.d - 1)


def hierarchy(spec: CartesianCodeSpec) -> tuple:
    """All generalized Hamming weights (d_1, ..., d_K), strictly increasing.

    A tuple of ints, from _hierarchy_at_degree's array.
    """
    return tuple(_hierarchy_at_degree(spec.shape, spec.d).tolist())


def dual_hierarchy(spec: CartesianCodeSpec) -> tuple:
    """Weight hierarchy of the dual code: the degree k-d-1 hierarchy.

    A tuple of ints, from dual_hierarchy_array.
    """
    return tuple(dual_hierarchy_array(spec).tolist())


# --------------------------------------------------------------------------
# Extremal polynomial families
# --------------------------------------------------------------------------

def extremal_family(spec: CartesianCodeSpec, r: int) -> tuple:
    """The r independent polynomials attaining max_common_zeros(spec, r), as flat arrays.

    f_b, for b the r first tuples of degree <= d, is the product of
    (x_s - gamma) over the first b_s elements of each set A_s.  It vanishes
    exactly where some coordinate s hits one of those elements, and its
    leading term is x^b under any graded order.  The family is returned as
    (exponents, coeffs, starts): the terms of the i-th f_b are rows
    starts[i]:starts[i + 1] of exponents (terms x m, of the narrowest
    unsigned type below the largest set size) and of coeffs, their nonzero
    codes, in itertools.product order of its factors' terms, the first
    coordinate slowest.

    Row t of coordinate s's ladder holds the product over the first t
    elements of A_s, and each step multiplies every coordinate's row by
    its next x - gamma at once.  A field has no zero divisors, so the
    terms of f_b are the products of one nonzero term of each ladder row
    b_s, and their count, the product of those rows' lengths, is known
    before any is expanded: memory follows the terms, not the box
    prod(b_s + 1).  A family of more than _MAX_LISTING polynomials or
    terms raises BudgetExceededError, and so does one whose r x m segment
    digits or terms x m exponents hold more than _MAX_LISTING entries,
    since memory grows with those.  Every term's digit on coordinate s
    indexes the ladders' nonzero terms once, and the gathered codes are
    multiplied with one Field.mul per coordinate after the first for the
    whole family, so the family needs no tables and works over every
    field.
    """
    if not 1 <= r <= spec.dimension:
        raise ValueError(f"rank {r} outside [1, {spec.dimension}]")
    if r > _MAX_LISTING:
        raise BudgetExceededError(
            f"extremal family of rank {r} exceeds the limit of {_MAX_LISTING} polynomials")
    field, m = spec.field, spec.shape.m
    entries = (f"extremal family of rank {r} in {m} variables exceeds the limit of "
               f"{_MAX_LISTING} entries")
    if r * m > _MAX_LISTING:  # the segment's digits
        raise BudgetExceededError(entries)
    tuples = lex_segment_digits(spec.shape, spec.d, r)
    top = int(tuples.max())
    # a ladder row past its coordinate's largest digit is never read, so the
    # elements that pad a short set to top elements are arbitrary
    minus = field.neg(np.array([list(s[:top]) + [0] * (top - len(s[:top])) for s in spec.sets]))
    row = np.eye(1, top + 1, dtype=np.int64).repeat(m, axis=0)
    ladder = [row]
    for t in range(top):
        # x times a row of degree t < top is the row shifted up one degree
        shifted = np.concatenate((np.zeros((m, 1), dtype=np.int64), row[:, :-1]), axis=1)
        row = field.add(shifted, field.mul(minus[:, t, None], row))
        ladder.append(row)
    ladder = np.stack(ladder, axis=1)  # [coordinate, row, degree]
    nonzero = ladder != 0
    ladder_exponents, ladder_coeffs = np.nonzero(nonzero)[2], ladder[nonzero]
    lengths = nonzero.sum(axis=2)  # [coordinate, row]
    firsts = np.cumsum(lengths).reshape(lengths.shape) - lengths
    # each polynomial's ladder row on each coordinate: where its nonzero
    # terms begin, and how many there are
    firsts = firsts.astype(np.min_scalar_type(firsts.max()))[np.arange(m), tuples]
    sizes = lengths.astype(np.min_scalar_type(top + 1))[np.arange(m), tuples]
    counts = np.ones(r, dtype=np.int64)
    for size in sizes.T:  # clipped, so that no product of row lengths can wrap
        counts = np.minimum(counts * size, _MAX_LISTING + 1)
    terms = int(counts.sum())
    if terms > _MAX_LISTING:
        raise BudgetExceededError(
            f"extremal family of rank {r} exceeds the limit of {_MAX_LISTING} terms")
    if terms * m > _MAX_LISTING:  # the terms' exponents
        raise BudgetExceededError(entries)
    starts = np.zeros(r + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    owner = np.repeat(np.arange(r), counts)
    rest = np.arange(starts[-1]) - starts[owner]  # each term's index in its polynomial
    exponents = np.empty((starts[-1], m), dtype=np.min_scalar_type(spec.shape.dims[-1] - 1))
    coeffs = None
    for s in range(m - 1, -1, -1):  # the last coordinate's digit is the fastest
        size = sizes[owner, s]
        index = firsts[owner, s] + rest % size
        rest //= size
        exponents[:, s] = ladder_exponents[index]
        coeffs = ladder_coeffs[index] if coeffs is None else field.mul(ladder_coeffs[index],
                                                                       coeffs)
    zeros = np.flatnonzero(coeffs == 0)
    if zeros.size:
        b = tuple(tuples[owner[zeros[0]]].tolist())
        raise InvariantError(f"f_{b} has a zero coefficient, but a field has no zero divisors")
    return exponents, coeffs, starts


def extremal_polynomials(spec: CartesianCodeSpec, r: int) -> list:
    """extremal_family(spec, r) as a list of terms dicts, {exponent tuple: code}.

    Each dict holds its f_b's terms in extremal_family's order.
    """
    exponents, coeffs, starts = extremal_family(spec, r)
    terms = list(zip(map(tuple, exponents.tolist()), coeffs.tolist()))
    return [dict(terms[a:b]) for a, b in itertools.pairwise(starts.tolist())]


# --------------------------------------------------------------------------
# Duals
# --------------------------------------------------------------------------

def dual_point_weights(spec: CartesianCodeSpec) -> np.ndarray:
    """Codes of the column scalars w_j, 1/w_j the product of the g_i' at the point.

    g_i is the monic vanishing polynomial of A_i, so g_i' at a member
    gamma_{i,t} is the product of (gamma_{i,t} - gamma_{i,s}) over s != t.
    The differences of all sets are one table, a row per member padded
    with ones to a power of two, and its rows are multiplied out at once by
    halving: each step multiplies pairs of columns.  The products over the
    points are the _kron_rows product of the per-set rows of g_i' values.
    The result is a read-only array in point order.
    """
    f = spec.field
    bounds = list(itertools.pairwise(itertools.accumulate(map(len, spec.sets), initial=0)))
    widest = max(b - a for a, b in bounds)
    diffs = np.ones((bounds[-1][1], 1 << (widest - 1).bit_length()), dtype=f.int_dtype)
    for (a, b), s in zip(bounds, spec.sets):
        codes = np.array(s, dtype=f.int_dtype)
        block = diffs[a:b, :b - a]
        block[...] = _sum_into(codes[:, None], f.neg_table[codes][None, :], f)
        np.fill_diagonal(block, 1)
    while diffs.shape[1] > 1:
        diffs = _product(diffs[:, ::2], diffs[:, 1::2], f)
    w = f.inv_table[_kron_rows([diffs[a:b].T for a, b in bounds], f)[0]]
    w.flags.writeable = False
    return w


def dual_code(spec: CartesianCodeSpec) -> LinearCode:
    """Dual code: the degree k-d-1 code with columns rescaled by w_j.

    For d = k the dual is the zero code, returned as a 0 x n matrix.
    """
    if spec.d == spec.k:
        return LinearCode(spec.field, np.zeros((0, spec.n), dtype=spec.field.int_dtype))
    return _evaluation_code(spec, spec.k - spec.d - 1, dual_point_weights(spec))


def wei_duality_check(spec: CartesianCodeSpec) -> bool:
    """Whether hierarchy and reflected dual hierarchy partition {1, ..., n}.

    Wei's duality: {d_r(C)} = {1..n} minus {n + 1 - d_s(C-dual)}.
    """
    if spec.d > spec.k - 1:
        raise ValueError("duality check needs degree <= k - 1")
    reflected = tuple(spec.n + 1 - w for w in dual_hierarchy(spec))
    return sorted(hierarchy(spec) + reflected) == list(range(1, spec.n + 1))


# --------------------------------------------------------------------------
# Exhaustive oracles
# --------------------------------------------------------------------------

def _mask_type(n: int) -> np.dtype:
    """The narrowest unsigned type with a bit for each of n <= 64 coordinates."""
    return np.min_scalar_type((1 << n) - 1)


def _bit_planes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Plane k of a word of codes has bit j set where entry j has bit k set.

    codes holds words of n entries along its last axis; the planes take
    shape (..., bits), the words' leading shape followed by one plane per
    bit, of _mask_type(n) for n <= 64.  Past 64 entries a plane is W =
    ceil(n / 64) uint64 words, bit j in word j // 64, on a trailing axis:
    shape (..., bits, W).  Each bit of every entry is written to a byte of
    a row as wide as a plane's bits, and the rows are packed in one
    contiguous pass.
    """
    n = codes.shape[-1]
    mask = _mask_type(min(n, _MAX_ORACLE_LENGTH))
    width = max(1, -(-n // _MAX_ORACLE_LENGTH))
    flags = np.zeros((*codes.shape[:-1], bits, width * 8 * mask.itemsize), dtype=np.uint8)
    shifts = np.arange(bits, dtype=codes.dtype)[:, None]
    np.bitwise_and(codes[..., None, :] >> shifts, 1, out=flags[..., :n], casting="unsafe")
    packed = np.packbits(flags, axis=None, bitorder="little")
    words = (width,) if n > _MAX_ORACLE_LENGTH else ()
    return packed.view(f"<u{mask.itemsize}").reshape(*flags.shape[:-1], *words)


def _span_planes(code: LinearCode, rows, negate: bool) -> np.ndarray:
    """Planes of each word of the span of G[rows], negated if negate.

    The planes take shape (bits, q^len(rows)), the span's words in
    _span_words order, and past 64 coordinates _bit_planes' trailing axis
    of words.  In characteristic 2 a sum is the XOR of codes and -x = x, so
    the planes of a sum are the XOR of theirs: while _row_multiples keeps
    the rows' multiples packed, nothing is packed here.
    """
    field, rows = code.field, list(rows)
    bits = max(1, (field.q - 1).bit_length())
    multiples = _oracle_table(code, _row_multiples) if field.p == 2 else None
    if multiples is not None:
        words = multiples.shape[3:]
        planes = np.zeros((bits, 1, *words), dtype=multiples.dtype)
        for c in rows:
            planes = (planes[:, :, None] ^ multiples[:, c, None]).reshape(bits, -1, *words)
        return planes
    words = _span_words(code.matrix[rows], field)
    if negate:
        words = field.neg_table[words]
    return _bit_planes(words, bits).swapaxes(0, 1)


def _oracle_table(code: LinearCode, build):
    """build(code), kept on the code for the current _ORACLE_CHUNK.

    The code's matrix is read-only, so a table stays valid for as long as
    the code lives, and goes with it.  Each table is built on first use: a
    sweep whose basis rows all read _pair_masks packs no _plane_tables.
    """
    key = (build.__name__, _ORACLE_CHUNK)
    if key not in code._oracle_tables:
        code._oracle_tables[key] = build(code)
    return code._oracle_tables[key]


def _plane_tables(code: LinearCode) -> tuple:
    """(split, low, high): planes of the spans of the rows before and from split.

    The generator rows are cut at split = max(K // 2, K - _fast_digits(q)),
    so the rows from it on always fit one chunk.  low holds the planes of
    every word of the span of the rows before the cut, high those of the
    negated span of the rows from it on; a table has shape (bits, q, ..., q),
    one axis per row, the first row slowest, and the index on a row's axis
    is its coefficient.  low is None past _ORACLE_CHUNK words.
    """
    K, q = code.dimension, code.field.q
    split = max(K // 2, K - _fast_digits(q))
    tables = []
    for negate, rows in enumerate((range(split), range(split, K))):
        if q ** len(rows) > _ORACLE_CHUNK:
            tables.append(None)
            continue
        planes = _span_planes(code, rows, bool(negate))
        tables.append(np.ascontiguousarray(planes).reshape(len(planes), *(q,) * len(rows)))
    return (split, *tables)


def _row_multiples(code: LinearCode):
    """Planes of a G[c] for every row c and code a, indexed [k, c, a], or None.

    None past one chunk of words per plane, K q > _ORACLE_CHUNK.  Past 64
    coordinates each plane keeps _bit_planes' trailing axis of words.
    """
    field = code.field
    if code.dimension * field.q > _ORACLE_CHUNK:
        return None
    planes = _bit_planes(field.mul_table[:, code.matrix], max(1, (field.q - 1).bit_length()))
    return np.ascontiguousarray(planes.swapaxes(0, 2))


def _mask_weights(masks: np.ndarray, n: int) -> np.ndarray:
    """The number of coordinates set in each support mask of n coordinates.

    One popcount per word, summed over the trailing axis of words past 64
    coordinates.  numpy counts the bits of 32- and 64-bit words about twice
    as fast as those of narrower ones, so narrower masks are widened as
    they are counted.
    """
    weights = np.bitwise_count(masks, signature=(np.promote_types(masks.dtype, np.uint32),
                                                 np.uint8))
    if n <= _MAX_ORACLE_LENGTH:
        return weights
    return weights.sum(axis=-1, dtype=np.min_scalar_type(n))


def _planes_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Support masks of x + y from the planes a of x and b of -y, broadcast together.

    x + y is zero exactly where x equals -y: the OR over k of a[k] ^ b[k].
    """
    masks = a[0] ^ b[0]
    for k in range(1, len(a)):
        masks |= a[k] ^ b[k]
    return masks


def _pair_masks(code: LinearCode):
    """Masks of G[p] + a G[c], indexed [p, c, a], or None past one chunk.

    A basis row with at most one free entry reads its masks here:
    [p, c] for its one free row c, [p, p, :1] for G[p] alone.  The
    planes of a G[c] and of -G[p] are read off _row_multiples.
    """
    if code.dimension ** 2 * code.field.q > _ORACLE_CHUNK:
        return None
    multiples = _oracle_table(code, _row_multiples)
    return _planes_differ(multiples[:, None], multiples[:, :, code.field.neg_table[1], None, None])


def _word_masks(code: LinearCode, coeffs, cols=()):
    """Support masks of the word coeffs G plus each combination of G[cols], in chunks.

    coeffs holds one word's K coefficients and cols ascending rows whose
    coefficients take every value instead, the first slowest.  The word is
    the sum of its sides before and after the split of _plane_tables.  Each
    side's planes are one view of its table, a coefficient picking the
    index on each row's axis and a row of cols taking the whole axis.  A
    side with no table, the rows before the split, is built from any number
    of its rows of cols: about one chunk of its words at a time, their
    coefficients from _digit_rows and the words from one matmul, then
    packed.  The masks come in chunks of _ORACLE_CHUNK // q^fits whole
    blocks of q^fits words, fits = _fast_digits(q), each a run of words
    before the split against every word from it, so at most q^fits masks
    come as one chunk.
    """
    K, q = code.dimension, code.field.q
    split, low, high = _oracle_table(code, _plane_tables)

    def view(table, rows):
        table = table[(slice(None), *(slice(None) if c in cols else coeffs[c] for c in rows))]
        return table.reshape(len(table), -1)

    def built(rows, block):
        total = q ** len(rows)
        for start in range(0, total, block):
            words = matmul(_digit_rows(coeffs[:split], rows, start, min(start + block, total), q),
                           code.matrix[:split], code.field)
            yield _bit_planes(words, len(high)).T

    high = view(high, range(split, K))
    fits = _fast_digits(q)
    step = _ORACLE_CHUNK // q ** fits * q ** fits // high.shape[1]
    if low is None:  # a whole number of chunks' low words per product
        lows = built([c for c in cols if c < split], _ORACLE_CHUNK // step * step)
    else:
        lows = [view(low, range(split))]
    for low in lows:
        for start in range(0, low.shape[1], step):
            yield _planes_differ(low[:, start:start + step, None], high[:, None]).ravel()


def _fast_digits(q: int) -> int:
    """Most base-q digits whose combinations fit one chunk of the oracles."""
    digits = 0
    while q ** (digits + 1) <= _ORACLE_CHUNK:
        digits += 1
    return digits


def _tail_masks(code: LinearCode) -> np.ndarray:
    """Support masks of every word of the span of G[t:], t = max(0, K - _fast_digits(q)).

    The q^(K - t) words fit one chunk and are indexed as _span_words lists
    them, so the words G[p] + span(G[p+1:]) of a row at pivot p >= t are
    the slice [q^(K-1-p), 2 q^(K-1-p)), with one axis of q per later row.
    """
    K, q = code.dimension, code.field.q
    rows = range(max(0, K - _fast_digits(q)), K)
    return next(_word_masks(code, np.zeros(K, dtype=np.int64), rows))


def _digit_rows(coeffs: np.ndarray, cols, start: int, stop: int, q: int) -> np.ndarray:
    """Copies of coeffs whose entries at cols hold the base-q digits of start..stop-1.

    One row per number, in order; the first of cols holds the slowest digit.
    """
    rows = np.repeat(coeffs[None], stop - start, axis=0)
    numbers = np.arange(start, stop)
    for c in reversed(cols):
        numbers, rows[:, c] = np.divmod(numbers, q)
    return rows


def _subspace_masks(code: LinearCode, r: int, pivot_sets):
    """Support masks of the r-dimensional subspaces, in chunks, pivot set by pivot set.

    pivot_sets yields ascending r-tuples of echelon pivots, each read once
    the chunks of the one before are out.  Basis row i is G[pivots[i]]
    plus any combination of the rows G[c], c > pivots[i] not a pivot (its
    free entries); a set's subspaces follow the free entries of all rows
    as one counter, first slowest.  A row's masks are read off _pair_masks
    while it has at most one free entry and the code has them, else packed
    from G[p] itself when it has none, else sliced from _tail_masks when G[p]
    and all later rows fit one chunk (the view at index 0 on the axes of
    the later pivots), else built by _word_masks while its free entries fit
    one chunk.  Rows i.. depend only on suffixes[i] =
    pivots[i:], so free[i], the free entries of row i, rows[i], its masks,
    and tails[i], the OR-product of rows i.., each while it fits one chunk,
    stay for the next sets with those last pivots; the last row's tail is
    its own masks.  The longest product that fits is the tail of every
    chunk, the one chunk if it covers all rows.  The rows before it are
    streamed by one recursion, in runs of their OR-masks: a row whose
    masks are kept is ORed on in blocks, and a row whose free entries do
    not fit one chunk is stepped, its _word_masks chunks read once for each
    mask of the rows before it.  Each run is ORed with the tail into
    chunks of as many whole tails as fit.

    At rank 1 a row with fits or more later rows reads its words G[p] +
    span(G[p+1:]) from _word_masks, in its chunks of whole blocks.
    """
    K, q = code.dimension, code.field.q
    fits = _fast_digits(q)
    pairs = _oracle_table(code, _pair_masks)
    mask = _mask_type(code.length)
    zero = np.zeros(1, dtype=mask)  # the OR-product of no rows
    unit = np.eye(K, dtype=np.int64)

    # runs of the OR-masks of the set's rows before first, in order, that
    # extend head, a run of those of its rows before i
    def heads(i, head):
        if i == first:
            yield head
        elif rows[i] is not None:
            run = _ORACLE_CHUNK // rows[i].size
            for start in range(0, head.size, run):
                yield from heads(i + 1, np.bitwise_or.outer(head[start:start + run],
                                                            rows[i]).ravel())
        else:
            for masks in head:
                for piece in _word_masks(code, unit[pivots[i]], free[i]):
                    yield from heads(i + 1, piece | masks)

    suffixes, rows, tails = [None] * r, [None] * r, [None] * r + [zero]
    free = [None] * r + [[]]  # free[i]: the rows past pivots[i] that are not pivots
    for pivots in pivot_sets:
        if r == 1 and K - 1 - pivots[0] >= fits:  # G[p] + span(G[p+1:])
            yield from _word_masks(code, unit[pivots[0]], range(pivots[0] + 1, K))
            continue
        for i in range(r - 1, -1, -1):
            if suffixes[i] == pivots[i:]:
                continue
            p, stop = pivots[i], pivots[i + 1] if i + 1 < r else K
            free[i] = cols = [*range(p + 1, stop), *free[i + 1]]
            suffixes[i], rows[i], tails[i] = pivots[i:], None, None
            if pairs is not None and len(cols) < 2:
                rows[i] = pairs[p, cols[0]] if cols else pairs[p, p, :1]
            elif not cols:  # G[p] alone, zero where its entries are
                rows[i] = _bit_planes((code.matrix[p] != 0).view(np.uint8)[None], 1)[0]
            elif K - p <= fits:  # index 0 on the axes of the later pivots
                size = q ** (K - 1 - p)
                words = _oracle_table(code, _tail_masks)[size:2 * size].reshape((q,) * (K - 1 - p))
                rows[i] = words[tuple(0 if c in pivots else slice(None)
                                      for c in range(p + 1, K))].ravel()
            elif len(cols) <= fits:
                rows[i] = next(_word_masks(code, unit[p], cols))
            if i == r - 1:
                tails[i] = rows[i]
            elif tails[i + 1] is not None and rows[i] is not None and (
                    rows[i].size * tails[i + 1].size <= _ORACLE_CHUNK):
                tails[i] = np.bitwise_or.outer(rows[i], tails[i + 1]).ravel()
        first, tail = next((i, tail) for i, tail in enumerate(tails) if tail is not None)
        if not first:
            yield tail
            continue
        batch, rest = _ORACLE_CHUNK // tail.size, zero[:0]
        for head in heads(0, zero):  # a run's last partial batch goes on to the next
            head = np.concatenate((rest, head))
            full = head.size - head.size % batch
            for start in range(0, full, batch):
                yield np.bitwise_or.outer(head[start:start + batch], tail).ravel()
            rest = head[full:]
        if rest.size:
            yield np.bitwise_or.outer(rest, tail).ravel()


def brute_ghw(code: LinearCode, r: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum support over all r-dimensional subcodes, by exhaustion.

    Subspaces are enumerated once each through their reduced-echelon
    canonical bases (pivot columns, then free entries).  The support of a
    subspace is the union of its basis rows' supports, as bit masks, from
    _subspace_masks.  The pivot sets go to it in colexicographic order, so
    those that share their last pivots are consecutive and share the masks
    of those rows.  Chunks hold at most _ORACLE_CHUNK subspaces, and the
    tables and the kept masks at most a chunk of words per plane or per
    basis row, so memory does not grow with the budget.
    """
    K, n = code.dimension, code.length
    if not 1 <= r <= K:
        raise ValueError(f"rank {r} outside [1, {K}]")
    if n > _MAX_ORACLE_LENGTH:
        raise BudgetExceededError(
            f"support masks limited to length {_MAX_ORACLE_LENGTH}, code has {n}")
    total = gaussian_binomial(K, r, code.field.q)
    if total > budget:
        raise BudgetExceededError(f"{total} subspaces exceed budget {budget}")
    best = n
    enumerated = 0
    pivot_sets = (top[::-1] for top in itertools.combinations(range(K - 1, -1, -1), r))
    for acc in _subspace_masks(code, r, pivot_sets):
        enumerated += acc.size
        best = min(best, int(_mask_weights(acc, n).min()))
    if enumerated != total:
        raise InvariantError(f"enumerated {enumerated} subspaces, expected {total}")
    return best


def _span_words(rows, field: Field) -> np.ndarray:
    """All combinations of the given rows, one codeword per array row.

    Word a_1 q^(k-1) + ... + a_k is the combination with coefficients
    a_1, ..., a_k: the first row is slowest.  The span of two or more rows
    is the Kronecker sum of the spans of their two halves, every word of
    the first plus every word of the second, in one _sum_into whose
    row-major result packs each word's entries contiguously into a mask.
    """
    k, n = rows.shape
    if k == 0:
        return np.zeros((1, n), dtype=field.int_dtype)
    if k == 1:
        return field.mul_table[:, rows[0]]
    first = _span_words(rows[:k // 2], field)
    second = _span_words(rows[k // 2:], field)
    return _sum_into(first[:, None, :], second[None, :, :], field).reshape(-1, n)


def brute_min_weight(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight over every nonzero codeword, by enumeration of scalar classes.

    A word and its q - 1 nonzero multiples have one weight, so only the
    words whose first nonzero coefficient is 1 are compared: G[p] plus any
    combination of the later rows, for each row p.  The span of the last
    generator rows, at most _ORACLE_CHUNK words, is held once, and a row
    among them reads its words as a slice of it.  A row before them builds
    its words outside the span up to _ORACLE_CHUNK at a time, their
    coefficients from _digit_rows and the words from one matmul, and
    compares as many of them against the whole span at once as cover at
    most _ORACLE_CHUNK codewords.  In characteristic 2 a word is held as
    its bit planes, from _span_planes and _bit_planes, and the support of a
    sum is _planes_differ's mask: one popcount per word of ceil(n / 64)
    uint64s past 64 coordinates, else of one _mask_type(n).  Elsewhere a
    word is held as its n codes, and a weight counts the entries that
    differ.  The words compared, times q - 1, plus the zero word, must
    number q^K; the budget bounds q^K as well.  Unlike brute_ghw, it takes
    codes of any length.
    """
    K, n = code.dimension, code.length
    field = code.field
    q = field.q
    if K == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = q ** K
    if total > budget:
        raise BudgetExceededError(f"{total} codewords exceed budget {budget}")
    cut = max(0, K - _fast_digits(q))
    # the span and the blocks of words outside it hold one word per index
    # of their first axis; weigh(words, minus) is the weight of w + v for
    # each v of minus, -v in the blocks, against each w of words
    if field.p == 2:  # -v = v, and the planes of w + v are the XOR of theirs
        bits = max(1, (q - 1).bit_length())
        inner = _span_planes(code, range(cut, K), False).swapaxes(0, 1)

        def pack(words):
            return _bit_planes(words, bits)

        def weigh(words, minus):
            minus, words = minus.swapaxes(0, 1), words.swapaxes(0, 1)  # planes first
            return _mask_weights(_planes_differ(minus[:, :, None], words[:, None]), n)
    else:  # w + v is zero exactly where w == -v
        # column-major, so that the weights sum whole columns at a time
        inner = np.asfortranarray(_span_words(code.matrix[cut:], field))
        count = np.min_scalar_type(n)

        def pack(words):
            return field.neg_table[words]

        def weigh(words, minus):
            return (words != minus[:, None]).sum(axis=-1, dtype=count)
    # the slices below never read the span's last word, so count the span itself
    if len(inner) != q ** (K - cut):
        raise InvariantError(f"spanned {len(inner)} codewords, expected {q ** (K - cut)}")
    best = n
    compared = 0
    zero = pack(np.zeros((1, n), dtype=field.int_dtype))  # as a block of outer_words
    unit = np.eye(cut, dtype=np.int64)
    step = _ORACLE_CHUNK // len(inner)  # words compared against the whole span at once

    def outer_words(p, total):  # each word v outside the span, in blocks
        for start in range(0, total, _ORACLE_CHUNK):
            coeffs = _digit_rows(unit[p], range(p + 1, cut), start,
                                 min(start + _ORACLE_CHUNK, total), q)
            yield pack(matmul(coeffs, code.matrix[:cut], field))

    for p in range(K):
        if p < cut:  # each G[p] + a combination of G[p+1:cut], plus the whole span
            words, outers = inner, outer_words(p, q ** (cut - 1 - p))
        else:  # G[p] + span(G[p+1:]), a slice of the span
            size = q ** (K - 1 - p)
            words, outers = inner[size:2 * size], [zero]
        for minus in outers:
            for start in range(0, len(minus), step):
                weights = weigh(words, minus[start:start + step])
                compared += weights.size
                best = int(weights.min(initial=best))
    covered = (q - 1) * compared + 1
    if covered != total:
        raise InvariantError(f"compared {covered} codewords, expected {total}")
    return best


# --------------------------------------------------------------------------
# Summary used by the CLI JSON schema
# --------------------------------------------------------------------------

def code_summary(spec: CartesianCodeSpec) -> dict:
    """Parameters and both hierarchies of the code; min_distance is d_1.

    Both hierarchies are _hierarchy_at_degree's read-only arrays, not
    lists, each of the narrowest signed type that holds n (dtype object
    past int64), so a caller can write them out without a Python int or
    an int64 per weight.
    A dual hierarchy that _hierarchy_at_degree refuses to list is summarised
    instead: dual_hierarchy is None and dual_hierarchy_summary holds its
    length n - K and its first and last weights, each unranked on its own.
    """
    summary = {
        "length": spec.n,
        "dimension": spec.dimension,
        "degree": spec.d,
        "hierarchy": _hierarchy_at_degree(spec.shape, spec.d),
    }
    try:
        summary["dual_hierarchy"] = dual_hierarchy_array(spec)
    except BudgetExceededError:
        dual_degree, length = spec.k - spec.d - 1, spec.n - spec.dimension
        summary["dual_hierarchy"] = None
        summary["dual_hierarchy_summary"] = {
            "length": length,
            "first": min_shadow_size(spec.shape, dual_degree, 1),
            "last": min_shadow_size(spec.shape, dual_degree, length),
        }
    summary["min_distance"] = int(summary["hierarchy"][0])
    return summary
