"""Affine Cartesian evaluation codes over GF(q).

A code spec is a list of evaluation sets A_1..A_m (distinct elements of
one field, with ascending sizes d_1 <= ... <= d_m) plus a total-degree
bound d.  The code is the image of all polynomials of total degree <= d
and per-variable degree < d_i under evaluation at every grid point.

Everything that matters is deterministic and bit-reproducible: points
are enumerated with the leftmost coordinate slowest, the generator rows
follow the degree-<=d exponent tuples in decreasing lex order, and field
elements are their canonical integer codes throughout: in the sets, the
points, the matrices and the polynomial coefficients.

All matrix work runs on numpy arrays of integer codes indexed through the
field's lookup tables.  An evaluation matrix is the row-wise Kronecker
product of per-coordinate power ladders; the dual's column scalars are
the Kronecker product of the per-set derivatives g_i'; row reduction
clears a pivot column in all other rows with one table lookup; and the
exhaustive oracles sweep subspaces and codewords in chunks of fixed size,
whatever their budget.  The extremal families are expanded with the Field
methods, so they need no tables and work over every field; each f_b is
returned as its terms, a dict from exponent tuples to nonzero codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DegreeRangeError,
    InvariantError,
    RankDeficiencyError,
    RankRangeError,
)
from .gf import Field, parse_field
from .grid import (
    DEFAULT_BUDGET,
    GridShape,
    count_deg_ge,
    count_deg_le,
    lex_segment,
    min_shadow_size,
    mixed_radix_value,
    rth_of_deg_le,
    tuples_deg_le,
    values_deg_ge,
)

# Support bitmasks in the subspace oracle live in uint64 words.
_MAX_ORACLE_LENGTH = 64

# Most subspaces or codewords an exhaustive oracle holds at once.
_ORACLE_CHUNK = 1 << 14

# A hierarchy is held as a tuple of Python ints; refuse ones past this length.
_MAX_HIERARCHY_LENGTH = DEFAULT_BUDGET


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
            raise DegreeRangeError("all sets are singletons; no degrees available")
        if not 1 <= d <= shape.k:
            raise DegreeRangeError(f"degree {d} outside [1, {shape.k}]")
        # mixed-radix self check: n - 1 must decompose on the top tuple
        top = tuple(x - 1 for x in dims)
        if shape.n - 1 != mixed_radix_value(shape, top):
            raise InvariantError(f"top tuple {top} does not have value n - 1")
        self.field = field
        self.sets = sets
        self.d = d
        self.shape = shape

    @property
    def m(self) -> int:
        return self.shape.m

    @property
    def dims(self) -> tuple:
        return self.shape.dims

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
        matrix = np.array(matrix, dtype=field.int_dtype)
        if matrix.ndim != 2:
            raise ValueError("generator matrix must be two-dimensional")
        if np.any(matrix >= field.q):
            raise ValueError(f"matrix entries must be codes in [0, {field.q})")
        if matrix.shape[0] and rank(matrix, field) != matrix.shape[0]:
            raise RankDeficiencyError("generator rows are linearly dependent")
        matrix.flags.writeable = False
        self.field = field
        self.matrix = matrix

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

def rref(matrix, field: Field):
    """Reduced row echelon form over the field; returns (rref, pivots)."""
    A = np.array(matrix, dtype=field.int_dtype)
    q, mul = field.q, field.mul_table
    add = field.add_table.ravel()  # a + b is add[a * q + b]
    neg, inv = field.neg_table, field.inv_table
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        A[r, c:] = mul[inv[A[r, c]], A[r, c:]]
        # the pivot row is zero left of c, so only columns c: change
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        scaled = mul[neg[A[others, c]]][:, A[r, c:]]
        A[others, c:] = add[A[others, c:].astype(np.intp) * q + scaled]
        pivots.append(c)
        r += 1
    return A, tuple(pivots)


def rank(matrix, field: Field) -> int:
    return len(rref(matrix, field)[1])


def matmul(a, b, field: Field) -> np.ndarray:
    """Product of integer-coded matrices over the field."""
    a = np.asarray(a, dtype=field.int_dtype)
    b = np.asarray(b, dtype=field.int_dtype)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    add, mul = field.add_table, field.mul_table
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.int_dtype)
    for t in range(a.shape[1]):
        out = add[out, mul[a[:, t][:, None], b[t][None, :]]]
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

def points(spec: CartesianCodeSpec) -> list:
    """Grid points in canonical order (leftmost coordinate slowest)."""
    return list(itertools.product(*spec.sets))


def _kron_rows(mul: np.ndarray, factors) -> np.ndarray:
    """Row-wise Kronecker product of integer-coded factors over the field.

    factors[i] has shape (rows, d_i); the result has shape
    (rows, d_1 * ... * d_m) with the first factor's index slowest.
    """
    rows = factors[0].shape[0]
    out = np.ones((rows, 1), dtype=mul.dtype)
    for f in factors:
        out = mul[out[:, :, None], f[:, None, :]].reshape(rows, out.shape[1] * f.shape[1])
    return out


def monomial_evaluations(field: Field, sets, monos) -> np.ndarray:
    """Evaluations of the monomials x^a at every grid point, encoded.

    Columns follow the same point order as points(); rows follow monos.
    Each coordinate gets a ladder of powers of its set's codes, and a row
    is the Kronecker product of its exponents' ladder rows.
    """
    mul = field.mul_table
    monos = np.array(monos, dtype=np.intp).reshape(len(monos), len(sets))
    factors = []
    for i, s in enumerate(sets):
        codes = np.array(s, dtype=field.int_dtype)
        ladder = [np.ones_like(codes)]
        for _ in range(monos[:, i].max(initial=0)):
            ladder.append(mul[ladder[-1], codes])
        factors.append(np.array(ladder)[monos[:, i]])
    return _kron_rows(mul, factors)


def generator_matrix(spec: CartesianCodeSpec) -> LinearCode:
    """Generator matrix: monomial basis rows in decreasing lex order."""
    monos = tuples_deg_le(spec.shape, spec.d)
    matrix = monomial_evaluations(spec.field, spec.sets, monos)
    try:
        code = LinearCode(spec.field, matrix)
    except RankDeficiencyError:
        raise RankDeficiencyError(
            "monomial basis evaluated to dependent rows; this is a bug") from None
    if code.dimension != spec.dimension:
        raise InvariantError(
            f"generator has {code.dimension} rows, spec dimension is {spec.dimension}")
    return code


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def ghw_closed_form(spec: CartesianCodeSpec, r: int) -> int:
    """r-th generalized Hamming weight: the least shadow of r degree-<=d tuples."""
    if not 1 <= r <= spec.dimension:
        raise RankRangeError(f"rank {r} outside [1, {spec.dimension}]")
    return min_shadow_size(spec.shape, spec.d, r)


def max_common_zeros(spec: CartesianCodeSpec, r: int) -> int:
    """Maximum number of common grid zeros of r independent polynomials."""
    if not 1 <= r <= spec.dimension:
        raise RankRangeError(f"rank {r} outside [1, {spec.dimension}]")
    b = rth_of_deg_le(spec.shape, spec.d, r)
    return mixed_radix_value(spec.shape, b)


def _hierarchy_at_degree(shape: GridShape, d: int) -> tuple:
    """Weight hierarchy of the degree-d code on this grid; d >= 0.

    d_r is 1 + the value of the r-th tuple of degree >= k - d, ascending.
    """
    if not 0 <= d <= shape.k:
        raise DegreeRangeError(f"degree {d} outside [0, {shape.k}]")
    length = count_deg_ge(shape, shape.k - d)
    if length > _MAX_HIERARCHY_LENGTH:
        raise BudgetExceededError(
            f"hierarchy of {length} weights exceeds the limit {_MAX_HIERARCHY_LENGTH}")
    values = values_deg_ge(shape, shape.k - d)
    if values.size != length or np.any(values[1:] <= values[:-1]):
        raise InvariantError(f"degree-{d} hierarchy on {shape} is not strictly increasing")
    return tuple((values + 1).tolist())


def hierarchy(spec: CartesianCodeSpec) -> tuple:
    """All generalized Hamming weights (d_1, ..., d_K), strictly increasing."""
    return _hierarchy_at_degree(spec.shape, spec.d)


def dual_hierarchy(spec: CartesianCodeSpec) -> tuple:
    """Weight hierarchy of the dual code: the degree k-d-1 hierarchy."""
    if spec.d == spec.k:
        return ()
    return _hierarchy_at_degree(spec.shape, spec.k - spec.d - 1)


def min_distance_closed_form(spec: CartesianCodeSpec) -> int:
    """Minimum distance by the greedy degree decomposition.

    Splits d = l + sum_{i<=j}(d_i - 1) with j maximal and 1 <= l <=
    d_{j+1} - 1, giving distance (d_{j+1} - l) * d_{j+2} * ... * d_m.
    """
    dims = spec.dims
    d = spec.d
    prefix = 0
    j = 0
    while j < spec.m and prefix + dims[j] - 1 < d:
        prefix += dims[j] - 1
        j += 1
    if j == spec.m:
        raise InvariantError(f"degree {d} does not split on {dims}")
    ell = d - prefix
    return (dims[j] - ell) * math.prod(dims[j + 1:])


# --------------------------------------------------------------------------
# Extremal polynomial families
# --------------------------------------------------------------------------

def _extremal_family(spec: CartesianCodeSpec, tuples) -> list:
    """The terms of f_b for each box tuple b, from per-coordinate rows.

    rows[s][t] holds the coefficients, degree 0 first, of the product of
    (x - gamma) over the first t elements gamma of A_s; each row is built
    once, from the one before.  The coefficients of f_b are the Kronecker
    product of the rows rows[s][b_s], leftmost coordinate slowest as in
    _kron_rows, on the exponent tuples below b.
    """
    field = spec.field
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
        family.append({mono: c for mono, c in zip(monos, coeffs) if c})
    return family


def extremal_polynomials(spec: CartesianCodeSpec, r: int) -> list:
    """The r independent polynomials attaining max_common_zeros(spec, r).

    f_b, for b the r first tuples of degree <= d, is the product of
    (x_s - gamma) over the first b_s elements of each set A_s.  It vanishes
    exactly where some coordinate s hits one of those elements, and its
    leading term is x^b under any graded order.  Each is returned as its
    terms, {exponent tuple: nonzero code}.
    """
    if not 1 <= r <= spec.dimension:
        raise RankRangeError(f"rank {r} outside [1, {spec.dimension}]")
    return _extremal_family(spec, lex_segment(spec.shape, spec.d, r))


# --------------------------------------------------------------------------
# Duals
# --------------------------------------------------------------------------

def dual_point_weights(spec: CartesianCodeSpec) -> np.ndarray:
    """Codes of the column scalars w_j, 1/w_j the product of the g_i' at the point.

    g_i is the monic vanishing polynomial of A_i, so g_i' at a member
    gamma_{i,t} is the product of (gamma_{i,t} - gamma_{i,s}) over s != t.
    The result is a read-only array in point order.
    """
    f = spec.field
    add, mul = f.add_table, f.mul_table
    derivs = []
    for s in spec.sets:
        codes = np.array(s, dtype=f.int_dtype)
        diffs = add[codes[:, None], f.neg_table[codes][None, :]]
        np.fill_diagonal(diffs, 1)
        deriv = diffs[:, 0]
        for col in diffs.T[1:]:
            deriv = mul[deriv, col]
        derivs.append(deriv[None, :])
    w = f.inv_table[_kron_rows(mul, derivs)[0]]
    w.flags.writeable = False
    return w


def dual_code(spec: CartesianCodeSpec) -> LinearCode:
    """Dual code: the degree k-d-1 code with columns rescaled by w_j.

    For d = k the dual is the zero code, returned as a 0 x n matrix.
    """
    if spec.d == spec.k:
        return LinearCode(spec.field, np.zeros((0, spec.n), dtype=spec.field.int_dtype))
    monos = tuples_deg_le(spec.shape, spec.k - spec.d - 1)
    rows = monomial_evaluations(spec.field, spec.sets, monos)
    w = dual_point_weights(spec)
    return LinearCode(spec.field, spec.field.mul_table[rows, w[None, :]])


@dataclass(frozen=True)
class WeiDualityReport:
    """Partition check of {1..n} by the hierarchy and the reflected dual."""

    ok: bool
    hierarchy: tuple
    dual_hierarchy: tuple
    reflected_dual: tuple
    overlap: tuple
    missing: tuple


def wei_duality_check(spec: CartesianCodeSpec) -> WeiDualityReport:
    """Verify the two closed-form hierarchies partition {1, ..., n}."""
    if spec.d > spec.k - 1:
        raise DegreeRangeError("duality check needs degree <= k - 1")
    h = hierarchy(spec)
    hd = dual_hierarchy(spec)
    reflected = tuple(spec.n + 1 - w for w in reversed(hd))
    overlap = tuple(sorted(set(h) & set(reflected)))
    missing = tuple(sorted(set(range(1, spec.n + 1)) - set(h) - set(reflected)))
    ok = not overlap and not missing and len(h) + len(hd) == spec.n
    return WeiDualityReport(ok, h, hd, reflected, overlap, missing)


# --------------------------------------------------------------------------
# Exhaustive oracles
# --------------------------------------------------------------------------

def _support_masks(variants: np.ndarray, zeros) -> np.ndarray:
    """One uint64 per row: bit j is set where variants[:, j] != zeros[j].

    With zeros the codes of -v, the bits are the support of v + variants.
    Rows have at most 64 entries; they are packed one bit per entry.
    """
    packed = np.packbits(variants != zeros, axis=1, bitorder="little")
    words = np.zeros((packed.shape[0], 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").ravel()


def _fast_digits(q: int) -> int:
    """Most base-q digits whose combinations fit one chunk of the oracles."""
    digits = 0
    while q ** (digits + 1) <= _ORACLE_CHUNK:
        digits += 1
    return digits


def _subspace_supports(code: LinearCode, pivots):
    """Support masks of the subspaces with these echelon pivots, in chunks.

    Basis row i is G[pivots[i]] plus any combination of the rows G[c] with
    c > pivots[i] not a pivot (its free entries).  The free entries of all
    rows form one mixed-radix counter.  Its fastest digits, at most
    _ORACLE_CHUNK combinations, are swept at once: each row's span over
    its fast free rows is built once and shifted by the combination its
    slow digits pick.  The slow digits step one prefix per chunk.
    """
    G, field = code.matrix, code.field
    K, q = G.shape[0], field.q
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    free = [(i, c) for i, p in enumerate(pivots)
            for c in range(p + 1, K) if c not in pivots]
    cut = max(0, len(free) - _fast_digits(q))
    slow, fast = free[:cut], free[cut:]
    spans = [_span_words(G[[c for k, c in fast if k == i]], field)
             for i in range(len(pivots))]
    stepped = sorted({i for i, _ in slow})
    masks = [_support_masks(span, neg[G[p]]) for p, span in zip(pivots, spans)]
    for digits in itertools.product(range(q), repeat=len(slow)):
        rows = {i: G[pivots[i]] for i in stepped}
        for (i, c), a in zip(slow, digits):
            if a:
                rows[i] = add[rows[i], mul[a, G[c]]]
        for i in stepped:
            masks[i] = _support_masks(spans[i], neg[rows[i]])
        acc = masks[0]
        for m in masks[1:]:
            acc = np.bitwise_or.outer(acc, m).ravel()
        yield acc


def brute_ghw(code: LinearCode, r: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum support over all r-dimensional subcodes, by exhaustion.

    Subspaces are enumerated once each through their reduced-echelon
    canonical bases (pivot columns, then free entries).  The support of a
    subspace is the union of its basis rows' supports, tracked as bit
    masks.  They are swept in chunks of at most _ORACLE_CHUNK subspaces,
    so memory does not grow with the budget.
    """
    K, n = code.dimension, code.length
    q = code.field.q
    if not 1 <= r <= K:
        raise RankRangeError(f"rank {r} outside [1, {K}]")
    if n > _MAX_ORACLE_LENGTH:
        raise BudgetExceededError(
            f"support masks limited to length {_MAX_ORACLE_LENGTH}, code has {n}")
    total = gaussian_binomial(K, r, q)
    if total > budget:
        raise BudgetExceededError(f"{total} subspaces exceed budget {budget}")
    best = n
    enumerated = 0
    for pivots in itertools.combinations(range(K), r):
        for acc in _subspace_supports(code, pivots):
            enumerated += acc.size
            best = min(best, int(np.bitwise_count(acc).min()))
    if enumerated != total:
        raise InvariantError(f"enumerated {enumerated} subspaces, expected {total}")
    return best


def _span_words(rows, field: Field) -> np.ndarray:
    """All combinations of the given rows, one codeword per array row."""
    n = rows.shape[1]
    add, mul = field.add_table, field.mul_table
    words = np.zeros((1, n), dtype=field.int_dtype)
    for row in rows:
        scaled = mul[:, row]
        words = add[words[:, None, :], scaled[None, :, :]].reshape(-1, n)
    return words


def brute_min_weight(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight over every nonzero codeword, by full enumeration.

    The span of the last generator rows, at most _ORACLE_CHUNK words, is
    held once.  Blocks of combinations of the other rows are added to it,
    so one block covers at most _ORACLE_CHUNK codewords.
    """
    K, n = code.dimension, code.length
    field = code.field
    q = field.q
    if K == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = q ** K
    if total > budget:
        raise BudgetExceededError(f"{total} codewords exceed budget {budget}")
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    cut = max(0, K - _fast_digits(q))
    inner = _span_words(code.matrix[cut:], field)
    block = max(1, _ORACLE_CHUNK // inner.shape[0])
    best = n
    for start in range(0, q ** cut, block):
        # outer words start, start + 1, ...: base-q digits, first row slowest
        index = np.arange(start, min(start + block, q ** cut))
        outer = np.zeros((index.size, n), dtype=field.int_dtype)
        for t, row in enumerate(code.matrix[:cut]):
            digit = index // q ** (cut - 1 - t) % q
            outer = add[outer, mul[digit[:, None], row[None, :]]]
        # a word w + v is zero exactly where v == -w
        weights = np.count_nonzero(inner[None, :, :] != neg[outer][:, None, :], axis=2)
        nonzero = weights[weights > 0]
        if nonzero.size:
            best = min(best, int(nonzero.min()))
    return best


# --------------------------------------------------------------------------
# Summary used by the CLI JSON schema
# --------------------------------------------------------------------------

def code_summary(spec: CartesianCodeSpec) -> dict:
    """Parameters and both hierarchies of the code.

    A dual hierarchy longer than _MAX_HIERARCHY_LENGTH is not listed:
    dual_hierarchy is None and dual_hierarchy_summary holds its length and
    its first and last weights, each unranked on its own.
    """
    summary = {
        "length": spec.n,
        "dimension": spec.dimension,
        "degree": spec.d,
        "hierarchy": list(hierarchy(spec)),
    }
    dual_degree = spec.k - spec.d - 1
    length = count_deg_le(spec.shape, dual_degree) if dual_degree >= 0 else 0
    if length > _MAX_HIERARCHY_LENGTH:
        summary["dual_hierarchy"] = None
        summary["dual_hierarchy_summary"] = {
            "length": length,
            "first": min_shadow_size(spec.shape, dual_degree, 1),
            "last": min_shadow_size(spec.shape, dual_degree, length),
        }
    else:
        summary["dual_hierarchy"] = list(dual_hierarchy(spec))
    summary["min_distance"] = min_distance_closed_form(spec)
    return summary
