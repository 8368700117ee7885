"""Affine Cartesian evaluation codes over GF(q).

A code spec is a list of evaluation sets A_1..A_m (distinct elements of
one field, with ascending sizes d_1 <= ... <= d_m) plus a total-degree
bound d.  The code is the image of all polynomials of total degree <= d
and per-variable degree < d_i under evaluation at every grid point.

Everything that matters is deterministic and bit-reproducible: points
are enumerated with the leftmost coordinate slowest, the generator rows
follow the degree-<=d exponent tuples in descending lex order, and field
elements appear in matrices through their canonical integer codes.

Matrix work (row reduction, subspace sweeps, codeword sweeps) runs on
numpy integer arrays indexed through the field's add/mul lookup tables,
which keeps the exhaustive oracles fast enough for desk-scale corpora.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DegreeRangeError,
    FieldMismatchError,
    InvariantError,
    RankDeficiencyError,
    RankRangeError,
)
from .gf import Field, FieldElement, parse_field
from .grid import (
    DEFAULT_BUDGET,
    GridShape,
    count_deg_ge,
    count_deg_le,
    lex_segment,
    mixed_radix_value,
    rth_of_deg_ge,
    rth_of_deg_le,
    tuples_deg_le,
    values_deg_ge,
)
from .hilbert import Polynomial

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# Support bitmasks in the subspace oracle live in uint64 words.
_MAX_ORACLE_LENGTH = 64

# A hierarchy is held as a tuple of Python ints; refuse ones past this length.
_MAX_HIERARCHY_LENGTH = DEFAULT_BUDGET


class CartesianCodeSpec:
    """Evaluation sets over one field plus a degree bound.

    sets must come with ascending sizes; they are not reordered, since
    their order fixes the point enumeration and hence the matrices.
    """

    def __init__(self, field: Field, sets, d: int):
        sets = tuple(tuple(s) for s in sets)
        if not sets:
            raise ValueError("at least one evaluation set required")
        for s in sets:
            if not s:
                raise ValueError("evaluation sets must be nonempty")
            for x in s:
                if not isinstance(x, FieldElement) or x.field != field:
                    raise FieldMismatchError(f"{x!r} is not an element of {field}")
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

    @classmethod
    def from_ints(cls, field: Field, sets_of_ints, d: int) -> CartesianCodeSpec:
        sets = [[field.from_int(v) for v in s] for s in sets_of_ints]
        return cls(field, sets, d)

    def __repr__(self):
        sets = ";".join(",".join(str(x.to_int()) for x in s) for s in self.sets)
        return f"CartesianCodeSpec({self.field!r}, [{sets}], d={self.d})"


def parse_sets(field: Field, text: str) -> list:
    """Parse "0,1;0,1,2" into lists of field elements by integer code."""
    sets = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty evaluation set in {text!r}")
        try:
            codes = [int(x) for x in part.split(",")]
        except ValueError:
            raise ValueError(f"bad evaluation set {part!r}") from None
        sets.append([field.from_int(v) for v in codes])
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
    add, mul = field.add_table, field.mul_table
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
        A[r] = mul[inv[A[r, c]], A[r]]
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = add[A[i], mul[neg[A[i, c]], A[r]]]
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


def monomial_evaluations(field: Field, sets, monos) -> np.ndarray:
    """Evaluations of the monomials x^a at every grid point, encoded.

    Columns follow the same point order as points(); rows follow monos.
    """
    pts = list(itertools.product(*sets))
    m = len(sets)
    max_exp = [max((mono[i] for mono in monos), default=0) for i in range(m)]
    # per-coordinate power ladders, indexed by position within each set
    pows = []
    for i, s in enumerate(sets):
        ladder = []
        for x in s:
            col = [field.one]
            for _ in range(max_exp[i]):
                col.append(col[-1] * x)
            ladder.append(col)
        pows.append(ladder)
    index_tuples = list(itertools.product(*(range(len(s)) for s in sets)))
    out = np.zeros((len(monos), len(pts)), dtype=field.int_dtype)
    for ri, mono in enumerate(monos):
        for ci, idx in enumerate(index_tuples):
            value = field.one
            for i, e in enumerate(mono):
                if e:
                    value = value * pows[i][idx[i]][e]
            out[ri, ci] = value.to_int()
    return out


def generator_matrix(spec: CartesianCodeSpec) -> LinearCode:
    """Generator matrix: monomial basis rows in descending lex order."""
    monos = tuples_deg_le(spec.shape, spec.d, descending=True)
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
    """r-th generalized Hamming weight, closed form."""
    if not 1 <= r <= spec.dimension:
        raise RankRangeError(f"rank {r} outside [1, {spec.dimension}]")
    a = rth_of_deg_ge(spec.shape, spec.k - spec.d, r)
    return 1 + mixed_radix_value(spec.shape, a)


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

def extremal_polynomial(spec: CartesianCodeSpec, b) -> Polynomial:
    """Product of (x_s - gamma) over the first b_s elements of each set.

    Vanishes exactly where some coordinate s hits one of the first b_s
    elements of A_s; its leading term is x^b under any graded order.
    """
    b = tuple(int(x) for x in b)
    if not spec.shape.contains(b) or sum(b) > spec.d:
        raise ValueError(f"{b} is not a degree-<={spec.d} box tuple")
    f = Polynomial.constant(spec.field, spec.m, spec.field.one)
    for s, b_s in enumerate(b):
        x_s = Polynomial.variable(spec.field, spec.m, s)
        for t in range(b_s):
            gamma = Polynomial.constant(spec.field, spec.m, spec.sets[s][t])
            f = f * (x_s - gamma)
    return f


def extremal_polynomials(spec: CartesianCodeSpec, r: int) -> list:
    """The r independent polynomials attaining max_common_zeros(spec, r)."""
    if not 1 <= r <= spec.dimension:
        raise RankRangeError(f"rank {r} outside [1, {spec.dimension}]")
    return [extremal_polynomial(spec, b)
            for b in lex_segment(spec.shape, spec.d, r)]


# --------------------------------------------------------------------------
# Duals
# --------------------------------------------------------------------------

def dual_point_weights(spec: CartesianCodeSpec) -> list:
    """Column scalars w_j with 1/w_j the product of the g_i' at the point.

    g_i is the monic vanishing polynomial of A_i, so g_i' at a member
    gamma_{i,t} is the product of (gamma_{i,t} - gamma_{i,s}) over s != t.
    """
    derivs = []
    for s in spec.sets:
        col = []
        for t, x in enumerate(s):
            value = spec.field.one
            for u, y in enumerate(s):
                if u != t:
                    value = value * (x - y)
            col.append(value)
        derivs.append(col)
    weights = []
    for idx in itertools.product(*(range(len(s)) for s in spec.sets)):
        value = spec.field.one
        for i, t in enumerate(idx):
            value = value * derivs[i][t]
        weights.append(value.inverse())
    return weights


def dual_code(spec: CartesianCodeSpec) -> LinearCode:
    """Dual code: the degree k-d-1 code with columns rescaled by w_j.

    For d = k the dual is the zero code, returned as a 0 x n matrix.
    """
    if spec.d == spec.k:
        return LinearCode(spec.field, np.zeros((0, spec.n), dtype=spec.field.int_dtype))
    monos = tuples_deg_le(spec.shape, spec.k - spec.d - 1, descending=True)
    rows = monomial_evaluations(spec.field, spec.sets, monos)
    w = np.array([x.to_int() for x in dual_point_weights(spec)],
                 dtype=spec.field.int_dtype)
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

def _popcount(masks: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(masks).view(np.uint8).reshape(masks.size, 8)
    return _POPCOUNT8[b].sum(axis=1, dtype=np.int64)


def _support_masks(variants: np.ndarray) -> np.ndarray:
    n = variants.shape[1]
    bits = (variants != 0).astype(np.uint64)
    pow2 = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    return (bits * pow2[None, :]).sum(axis=1, dtype=np.uint64)


def brute_ghw(code: LinearCode, r: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum support over all r-dimensional subcodes, by exhaustion.

    Subspaces are enumerated once each through their reduced-echelon
    canonical bases (pivot columns, then free entries).  The support of a
    subspace is the union of its basis rows' supports, tracked as bit
    masks, so the whole sweep is a few vectorized table lookups per
    pivot-column choice.
    """
    K, n = code.dimension, code.length
    q = code.field.q
    if not 1 <= r <= K:
        raise RankRangeError(f"rank {r} outside [1, {K}]")
    total = gaussian_binomial(K, r, q)
    if total > budget:
        raise BudgetExceededError(f"{total} subspaces exceed budget {budget}")
    if n > _MAX_ORACLE_LENGTH:
        raise BudgetExceededError(
            f"support masks limited to length {_MAX_ORACLE_LENGTH}, code has {n}")
    G = code.matrix
    add, mul = code.field.add_table, code.field.mul_table
    best = n
    enumerated = 0
    for pivots in itertools.combinations(range(K), r):
        pivot_set = set(pivots)
        row_masks = []
        for i, p in enumerate(pivots):
            variants = G[p][None, :]
            for c in range(p + 1, K):
                if c in pivot_set:
                    continue
                scaled = mul[:, G[c]]
                variants = add[variants[:, None, :], scaled[None, :, :]]
                variants = variants.reshape(-1, n)
            row_masks.append(_support_masks(variants))
        acc = row_masks[0]
        for masks in row_masks[1:]:
            acc = np.bitwise_or.outer(acc, masks).ravel()
        enumerated += acc.size
        best = min(best, int(_popcount(acc).min()))
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

    The generator rows are split in half and only one half's span is held
    per step, so memory stays near the square root of the codeword count.
    """
    K, n = code.dimension, code.length
    q = code.field.q
    if K == 0:
        raise ValueError("the zero code has no nonzero codewords")
    total = q ** K
    if total > budget:
        raise BudgetExceededError(f"{total} codewords exceed budget {budget}")
    add = code.field.add_table
    outer = _span_words(code.matrix[: K // 2], code.field)
    inner = _span_words(code.matrix[K // 2:], code.field)
    best = n
    for w in outer:
        weights = np.count_nonzero(add[inner, w[None, :]], axis=1)
        nonzero = weights[weights > 0]
        if nonzero.size:
            best = min(best, int(nonzero.min()))
    return best


# --------------------------------------------------------------------------
# Summary used by the CLI JSON schema
# --------------------------------------------------------------------------

def code_summary(spec: CartesianCodeSpec) -> dict:
    return {
        "length": spec.n,
        "dimension": spec.dimension,
        "degree": spec.d,
        "hierarchy": list(hierarchy(spec)),
        "dual_hierarchy": list(dual_hierarchy(spec)),
        "min_distance": min_distance_closed_form(spec),
    }
