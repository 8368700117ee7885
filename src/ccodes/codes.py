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
whatever their budget.  The oracles build each span of rows as the
Kronecker sum of the spans of its two halves, one lookup in the flat
addition table per entry.  The subspace oracle packs each support into a
64-bit mask.  It builds each basis row's masks once per code and rank:
from a table of the supports of G[p] + a G[c], or by comparing the two
halves of the row's span, packed in one packbits pass, and kept from one
pivot set to the next.  The codeword oracle sums each word's nonzero
entries over a column-major copy of its span.  Each oracle raises
InvariantError unless it covered exactly the gaussian_binomial(K, r, q)
subspaces or q^K codewords it should.  The extremal families are
expanded with the Field methods, so they need no tables and work over
every field; each f_b is returned as its terms, a dict from exponent
tuples to nonzero codes.
The minimum distance is d_1 of the hierarchy.  Only _hierarchy_at_degree
decides whether a hierarchy is short enough to list.
wei_duality_check returns a bool: whether the hierarchy and the reflected
dual hierarchy partition {1, ..., n}, as Wei's duality theorem requires.
Bad input raises ValueError, generator entries that are not integer codes
in [0, q) included.  Its one subclass, BudgetExceededError,
marks work past a limit (an oracle's budget, the hierarchy length), so
verify can tell a check its oracle refused from an error.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceededError, InvariantError, RankDeficiencyError
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
            raise ValueError("all sets are singletons; no degrees available")
        if not 1 <= d <= shape.k:
            raise ValueError(f"degree {d} outside [1, {shape.k}]")
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
        raw = np.asarray(matrix)
        if raw.ndim != 2:
            raise ValueError("generator matrix must be two-dimensional")
        # check before casting, which would truncate floats and wrap negatives
        if raw.size and (raw.dtype.kind not in "biu" or raw.min() < 0 or raw.max() >= field.q):
            raise ValueError(f"matrix entries must be codes in [0, {field.q})")
        matrix = raw.astype(field.int_dtype)
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

    Columns follow the grid points with the leftmost coordinate slowest,
    the order of itertools.product(*sets); rows follow monos.
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

def max_common_zeros(spec: CartesianCodeSpec, r: int) -> int:
    """Maximum number of common grid zeros of r independent polynomials."""
    if not 1 <= r <= spec.dimension:
        raise ValueError(f"rank {r} outside [1, {spec.dimension}]")
    b = rth_of_deg_le(spec.shape, spec.d, r)
    return mixed_radix_value(spec.shape, b)


def _hierarchy_at_degree(shape: GridShape, d: int) -> tuple:
    """Weight hierarchy of the degree-d code on this grid; d >= 0.

    d_r is 1 + the value of the r-th tuple of degree >= k - d, ascending.
    """
    if not 0 <= d <= shape.k:
        raise ValueError(f"degree {d} outside [0, {shape.k}]")
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
        raise ValueError(f"rank {r} outside [1, {spec.dimension}]")
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

def _support_masks(variants: np.ndarray, zeros) -> np.ndarray:
    """One uint64 per word: bit j is set where variants[..., j] != zeros[..., j].

    variants and zeros broadcast together to words of at most 64 entries,
    and the masks take that shape less its last axis.  With zeros the codes
    of -v, the bits are the support of v + variants.  The comparisons are
    padded to whole bytes and packed in one contiguous pass, then widened
    to 8 bytes each.
    """
    *lead, n = np.broadcast_shapes(np.shape(variants), np.shape(zeros))
    rows, width = int(np.prod(lead)), -(-n // 8)
    bits = np.zeros((*lead, 8 * width), dtype=bool)
    np.not_equal(variants, zeros, out=bits[..., :n])
    words = np.zeros((rows, 8), dtype=np.uint8)
    words[:, :width] = np.packbits(bits, bitorder="little").reshape(rows, width)
    return words.view("<u8").reshape(lead)


def _mask_table(code: LinearCode):
    """Masks of G[p] + a G[c], indexed [p, c, a], or None past one chunk.

    All K * K * q supports are compared and packed in one pass.  The
    table stays within _ORACLE_CHUNK words, so a large code or field
    leaves its rows to _half_span_masks.
    """
    G, field = code.matrix, code.field
    if G.shape[0] ** 2 * field.q > _ORACLE_CHUNK:
        return None
    return _support_masks(field.mul_table[:, G].transpose(1, 0, 2)[None],
                          field.neg_table[G][:, None, None, :])


def _half_span_masks(halves, shift, field: Field) -> np.ndarray:
    """Masks of shift plus every word of a span, given as its two halves.

    halves holds the spans of the first k // 2 rows and of the others, so
    word a q^(k - k // 2) + b of the span is first_a + second_b, as in
    _span_words.  It is zero plus shift exactly where first_a equals
    -(second_b + shift), so only the second half is shifted and the words
    of the whole span are never added up.
    """
    first, second = halves
    zeros = field.neg_table[field.add_table[second, shift]]
    return _support_masks(first[:, None, :], zeros[None, :, :]).ravel()


def _fast_digits(q: int) -> int:
    """Most base-q digits whose combinations fit one chunk of the oracles."""
    digits = 0
    while q ** (digits + 1) <= _ORACLE_CHUNK:
        digits += 1
    return digits


def _subspace_supports(code: LinearCode, pivots, reuse):
    """Support masks of the subspaces with these echelon pivots, in chunks.

    Basis row i is G[pivots[i]] plus any combination of the rows G[c] with
    c > pivots[i] not a pivot (its free entries).  The free entries of all
    rows form one mixed-radix counter.  Its fastest digits, at most
    _ORACLE_CHUNK combinations, are swept at once; the slow digits step one
    prefix per chunk and shift the rows they belong to, the stepped rows.
    Those come first, and only the last of them can have fast free rows.
    Every other row has the same masks in all chunks: the mask table's
    for at most one fast free row, else _half_span_masks of its fast span.
    The rows after the last stepped one are ORed together once.

    reuse is (mask table, slots), kept by brute_ghw from one pivot set to
    the next.  slots[i] holds row i's last fast rows with their masks, or
    their span halves if row i was the last stepped row.  The fast rows fix
    the pivot of a row that is not stepped, since its free entries are all
    fast and the rows after it hold r - 1 - i pivots.  A slot the current
    pivot set does not use is emptied, so the slots hold at most one chunk
    of words.
    """
    G, field = code.matrix, code.field
    K, q = G.shape[0], field.q
    add, mul = field.add_table, field.mul_table
    table, slots = reuse
    free = [(i, c) for i, p in enumerate(pivots)
            for c in range(p + 1, K) if c not in pivots]
    cut = max(0, len(free) - _fast_digits(q))
    slow, fast = free[:cut], free[cut:]
    stepped = sorted({i for i, _ in slow})
    last = stepped[-1] if stepped else -1
    head, tail = np.uint64(0), None
    for i, p in enumerate(pivots):
        cols = tuple(c for k, c in fast if k == i)
        if i in stepped and i != last:
            slots[i] = None  # one word, shifted in every chunk
            continue
        if i != last and len(cols) < 2 and table is not None:
            slots[i] = None
            masks = table[p, cols[0]] if cols else table[p, p, :1]
        else:
            key = (i == last, cols)
            if slots[i] is None or slots[i][0] != key:
                rows = G[list(cols)]
                halves = (_span_words(rows[:len(cols) // 2], field),
                          _span_words(rows[len(cols) // 2:], field))
                slots[i] = key, halves if i == last else _half_span_masks(halves, G[p], field)
            if i == last:
                continue  # its halves are shifted in every chunk
            masks = slots[i][1]
        # rows before the last stepped one have no fast rows: one word each
        if i < last:
            head |= masks[0]
        else:
            tail = masks if tail is None else np.bitwise_or.outer(tail, masks).ravel()
    if not stepped:
        yield tail
        return
    for digits in itertools.product(range(q), repeat=len(slow)):
        shifts = {i: G[pivots[i]] for i in stepped}
        for (i, c), a in zip(slow, digits):
            if a:
                shifts[i] = add[shifts[i], mul[a, G[c]]]
        acc = _half_span_masks(slots[last][1], shifts.pop(last), field) | head
        if shifts:
            acc |= np.bitwise_or.reduce(_support_masks(np.array(list(shifts.values())), 0))
        yield acc if tail is None else np.bitwise_or.outer(acc, tail).ravel()


def brute_ghw(code: LinearCode, r: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum support over all r-dimensional subcodes, by exhaustion.

    Subspaces are enumerated once each through their reduced-echelon
    canonical bases (pivot columns, then free entries).  The support of a
    subspace is the union of its basis rows' supports, tracked as bit
    masks.  They are swept in chunks of at most _ORACLE_CHUNK subspaces,
    and the mask table and the masks kept from one pivot set to the next
    hold at most a chunk of words each, so memory does not grow with the
    budget.
    """
    K, n = code.dimension, code.length
    q = code.field.q
    if not 1 <= r <= K:
        raise ValueError(f"rank {r} outside [1, {K}]")
    if n > _MAX_ORACLE_LENGTH:
        raise BudgetExceededError(
            f"support masks limited to length {_MAX_ORACLE_LENGTH}, code has {n}")
    total = gaussian_binomial(K, r, q)
    if total > budget:
        raise BudgetExceededError(f"{total} subspaces exceed budget {budget}")
    best = n
    enumerated = 0
    reuse = _mask_table(code), [None] * r
    for pivots in itertools.combinations(range(K), r):
        for acc in _subspace_supports(code, pivots, reuse):
            enumerated += acc.size
            best = min(best, int(np.bitwise_count(acc).min()))
    if enumerated != total:
        raise InvariantError(f"enumerated {enumerated} subspaces, expected {total}")
    return best


def _span_words(rows, field: Field) -> np.ndarray:
    """All combinations of the given rows, one codeword per array row.

    Word a_1 q^(k-1) + ... + a_k is the combination with coefficients
    a_1, ..., a_k: the first row is slowest.  The span of two or more rows
    is the Kronecker sum of the spans of their two halves, every word of
    the first plus every word of the second, with one lookup per entry in
    the flat addition table.  Its index, a * q + b, takes the smallest
    unsigned type that holds q^2 - 1.
    """
    k, n = rows.shape
    if k == 0:
        return np.zeros((1, n), dtype=field.int_dtype)
    if k == 1:
        return field.mul_table[:, rows[0]]
    first = _span_words(rows[:k // 2], field)
    second = _span_words(rows[k // 2:], field)
    index = np.min_scalar_type(field.q ** 2 - 1)
    # row-major, so that each word's entries pack contiguously into a mask
    sums = np.add(first.astype(index)[:, None, :] * field.q, second[None, :, :],
                  dtype=index, order="C")
    return field.add_table.ravel()[sums].reshape(-1, n)


def brute_min_weight(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight over every nonzero codeword, by full enumeration.

    The span of the last generator rows, at most _ORACLE_CHUNK words, is
    held once.  Blocks of combinations of the other rows are added to it,
    so one block covers at most _ORACLE_CHUNK codewords.  The words
    compared are counted and must number q^K.
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
    # column-major, so that the weights sum whole columns at a time
    inner = np.asfortranarray(_span_words(code.matrix[cut:], field))
    count = np.min_scalar_type(n)
    block = max(1, _ORACLE_CHUNK // inner.shape[0])
    best = n
    compared = 0
    for start in range(0, q ** cut, block):
        # outer words start, start + 1, ...: base-q digits, first row slowest
        index = np.arange(start, min(start + block, q ** cut))
        outer = np.zeros((index.size, n), dtype=field.int_dtype)
        for t, row in enumerate(code.matrix[:cut]):
            digit = index // q ** (cut - 1 - t) % q
            outer = add[outer, mul[digit[:, None], row[None, :]]]
        # a word w + v is zero exactly where v == -w
        weights = (inner[None, :, :] != neg[outer][:, None, :]).sum(axis=2, dtype=count)
        compared += weights.size
        nonzero = weights[weights > 0]
        if nonzero.size:
            best = min(best, int(nonzero.min()))
    if compared != total:
        raise InvariantError(f"compared {compared} codewords, expected {total}")
    return best


# --------------------------------------------------------------------------
# Summary used by the CLI JSON schema
# --------------------------------------------------------------------------

def code_summary(spec: CartesianCodeSpec) -> dict:
    """Parameters and both hierarchies of the code; min_distance is d_1.

    A dual hierarchy that _hierarchy_at_degree refuses to list is summarised
    instead: dual_hierarchy is None and dual_hierarchy_summary holds its
    length n - K and its first and last weights, each unranked on its own.
    """
    summary = {
        "length": spec.n,
        "dimension": spec.dimension,
        "degree": spec.d,
        "hierarchy": list(hierarchy(spec)),
    }
    try:
        summary["dual_hierarchy"] = list(dual_hierarchy(spec))
    except BudgetExceededError:
        dual_degree, length = spec.k - spec.d - 1, spec.n - spec.dimension
        summary["dual_hierarchy"] = None
        summary["dual_hierarchy_summary"] = {
            "length": length,
            "first": min_shadow_size(spec.shape, dual_degree, 1),
            "last": min_shadow_size(spec.shape, dual_degree, length),
        }
    summary["min_distance"] = summary["hierarchy"][0]
    return summary
