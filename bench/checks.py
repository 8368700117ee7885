"""Independent checks of ccodes outputs.

Nothing here imports ccodes.  The checks rest on their own field
arithmetic, their own code construction and known properties of the
codes, never on a stored copy of earlier output:

- hierarchies: length K equals the count of box tuples of degree <= d,
  weights strictly increase and end at n, d_r <= n - K + r, d_1 is the
  affine Cartesian minimum distance, and the hierarchy and the reflected
  dual hierarchy partition {1..n} (Wei, IEEE TIT 1991);
- duals: rank n - K and G D^T = 0 against a generator matrix G built
  here;
- generator matrices: rank K and the same row space as G built here;
- maxzeros: the printed polynomials have degree <= d, are independent,
  and have exactly the printed number of common grid zeros;
- verify: every check line reads `ok` and the summary is `VERIFY OK`.

Each checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import re

import numpy as np


# --------------------------------------------------------------------------
# Field arithmetic
# --------------------------------------------------------------------------

def _poly_rem(a, b, p):
    """Remainder of a by monic b over GF(p); coefficients low degree first."""
    a = list(a)
    while len(a) >= len(b):
        lead = a[-1]
        if lead:
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return a


def _is_irreducible(poly, p) -> bool:
    """Trial division by every monic polynomial of degree 1..e/2."""
    e = len(poly) - 1
    for deg in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(_poly_rem(poly, tail + (1,), p)):
                return False
    return True


def smallest_modulus(p: int, e: int) -> tuple:
    """First monic irreducible of degree e over GF(p).

    Candidates are ordered by their coefficient vectors read from the
    constant term upward, the canonical modulus that ccodes documents.
    """
    for tail in itertools.product(range(p), repeat=e):
        poly = tail + (1,)
        if e == 1 or _is_irreducible(poly, p):
            return poly
    raise ValueError(f"no irreducible of degree {e} over GF({p})")


class RefField:
    """GF(p^e) on integer codes c0 + c1*p + ... + c_{e-1}*p^(e-1)."""

    def __init__(self, p: int, e: int):
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = smallest_modulus(p, e)
        place = p ** np.arange(e, dtype=np.int64)
        digits = (np.arange(self.q)[:, None] // place[None, :]) % p
        self.add = ((digits[:, None, :] + digits[None, :, :]) % p) @ place
        self.neg = ((-digits) % p) @ place
        mul = np.zeros((self.q, self.q), dtype=np.int64)
        for a in range(self.q):
            # rows: digit vectors of a * x^i, reduced by the modulus
            shifts = []
            cur = list(digits[a])
            for _ in range(e):
                shifts.append(cur)
                cur = _poly_rem([0] + cur, self.modulus, p)
                cur += [0] * (e - len(cur))
            mul[a] = ((digits @ np.array(shifts, dtype=np.int64)) % p) @ place
        self.mul = mul
        self.inv = np.zeros(self.q, dtype=np.int64)
        self.inv[1:] = np.argmax(mul[1:] == 1, axis=1)

    def power_table(self, top: int) -> np.ndarray:
        """pows[x, k] = x^k for k <= top."""
        pows = np.ones((self.q, top + 1), dtype=np.int64)
        for k in range(1, top + 1):
            pows[:, k] = self.mul[pows[:, k - 1], np.arange(self.q)]
        return pows

    def rank(self, matrix) -> int:
        """Rank by row echelon form, eliminating all rows below a pivot at once."""
        A = np.array(matrix, dtype=np.int64)
        if A.size == 0:
            return 0
        rows, cols = A.shape
        r = 0
        for c in range(cols):
            if r == rows:
                break
            hits = np.nonzero(A[r:, c])[0]
            if hits.size == 0:
                continue
            pivot = r + int(hits[0])
            A[[r, pivot]] = A[[pivot, r]]
            A[r] = self.mul[self.inv[A[r, c]], A[r]]
            below = r + 1 + np.nonzero(A[r + 1:, c])[0]
            if below.size:
                factors = self.neg[A[below, c]]
                A[below] = self.add[A[below], self.mul[factors[:, None], A[r][None, :]]]
            r += 1
        return r

    def matmul(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for t in range(a.shape[1]):
            out = self.add[out, self.mul[a[:, t][:, None], b[t][None, :]]]
        return out


_FIELDS: dict = {}


def ref_field(p: int, e: int) -> RefField:
    if (p, e) not in _FIELDS:
        _FIELDS[(p, e)] = RefField(p, e)
    return _FIELDS[(p, e)]


# --------------------------------------------------------------------------
# Codes built here
# --------------------------------------------------------------------------

def count_deg_le(dims, d: int) -> int:
    """Box tuples of total degree <= d, by convolving the per-set levels."""
    counts = [1]
    for size in dims:
        nxt = [0] * (len(counts) + size - 1)
        for i, c in enumerate(counts):
            for j in range(size):
                nxt[i + j] += c
        counts = nxt
    return sum(counts[: d + 1])


def min_distance(dims, d: int) -> int:
    """Minimum distance of the degree-d affine Cartesian code.

    The minimum of prod(d_i - a_i) over box tuples a of degree <= d
    (Lopez, Renteria-Marquez and Villarreal), here by dynamic programming
    over the sets with the degree spent so far as state.
    """
    best = {0: 1}
    for size in dims:
        nxt: dict = {}
        for spent, prod in best.items():
            for a in range(min(size - 1, d - spent) + 1):
                value = prod * (size - a)
                if value < nxt.get(spent + a, value + 1):
                    nxt[spent + a] = value
        best = nxt
    return min(best.values())


def grid_points(sets) -> np.ndarray:
    """Points as rows of element codes, leftmost coordinate slowest."""
    return np.array(list(itertools.product(*sets)), dtype=np.int64).reshape(-1, len(sets))


def generator(field: RefField, sets, d: int) -> np.ndarray:
    """Evaluations of every box monomial of degree <= d at every point."""
    dims = [len(s) for s in sets]
    pts = grid_points(sets)
    pows = field.power_table(max(dims))
    monos = [a for a in itertools.product(*(range(s) for s in dims)) if sum(a) <= d]
    rows = np.ones((len(monos), len(pts)), dtype=np.int64)
    for i, mono in enumerate(monos):
        for coord, exp in enumerate(mono):
            if exp:
                rows[i] = field.mul[rows[i], pows[pts[:, coord], exp]]
    return rows


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------

def check_weights(weights, n: int, K: int, degree: int, dims, what: str) -> list:
    """Hierarchy of a [n, K] code that is equivalent to the degree code."""
    problems = []
    if len(weights) != K:
        problems.append(f"{what}: {len(weights)} weights, expected K={K}")
    if any(not isinstance(w, int) for w in weights):
        return problems + [f"{what}: non-integer weight"]
    if any(a >= b for a, b in zip(weights, weights[1:])):
        problems.append(f"{what}: weights do not strictly increase")
    if weights and weights[-1] != n:
        problems.append(f"{what}: last weight {weights[-1]}, expected n={n}")
    for r, w in enumerate(weights, start=1):
        if w > n - K + r:
            problems.append(f"{what}: d_{r}={w} exceeds n-K+r={n - K + r}")
            break
    if weights and weights[0] != min_distance(dims, degree):
        problems.append(f"{what}: d_1={weights[0]}, expected "
                        f"minimum distance {min_distance(dims, degree)}")
    return problems


def check_wei(hierarchy, dual_hierarchy, n: int) -> list:
    """The hierarchy and n+1-(dual weights) split {1..n} into two parts."""
    reflected = [n + 1 - w for w in reversed(dual_hierarchy)]
    merged = heapq.merge(hierarchy, reflected)
    for expected, got in itertools.zip_longest(range(1, n + 1), merged):
        if expected != got:
            return [f"Wei partition fails at {expected}: got {got}"]
    return []


def _load(text: str, keys) -> tuple:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(data, dict) or set(data) != set(keys):
        return None, [f"output keys {sorted(data) if isinstance(data, dict) else data!r}"]
    return data, []


def check_hierarchy(text: str, dims, d: int) -> list:
    """`ccodes hierarchy --format json` for the degree-d code on these sets."""
    data, problems = _load(text, ("length", "dimension", "degree", "hierarchy",
                                  "dual_hierarchy", "min_distance"))
    if data is None:
        return problems
    n, k = math.prod(dims), sum(s - 1 for s in dims)
    K = count_deg_le(dims, d)
    for key, want in (("length", n), ("dimension", K), ("degree", d),
                      ("min_distance", min_distance(dims, d))):
        if data[key] != want:
            problems.append(f"{key}={data[key]!r}, expected {want}")
    problems += check_weights(data["hierarchy"], n, K, d, dims, "hierarchy")
    dual = data["dual_hierarchy"]
    if d < k:
        problems += check_weights(dual, n, n - K, k - d - 1, dims, "dual_hierarchy")
    elif dual:
        problems.append("dual of the full space must have an empty hierarchy")
    if not problems:
        problems += check_wei(data["hierarchy"], dual, n)
    return problems


def check_dual(text: str, p: int, e: int, sets, d: int) -> list:
    """`ccodes dual --format json`: rank n-K and orthogonal to G built here."""
    data, problems = _load(text, ("length", "dimension", "matrix", "hierarchy"))
    if data is None:
        return problems
    dims = [len(s) for s in sets]
    n, k = math.prod(dims), sum(s - 1 for s in dims)
    K = count_deg_le(dims, d)
    field = ref_field(p, e)
    if data["length"] != n or data["dimension"] != n - K:
        problems.append(f"[{data['length']},{data['dimension']}], expected [{n},{n - K}]")
    rows = data["matrix"]
    if len(rows) != n - K or any(len(row) != n for row in rows):
        return problems + [f"matrix is not {n - K} rows of length {n}"]
    D = np.array(rows, dtype=np.int64).reshape(n - K, n)
    if D.min(initial=0) < 0 or D.max(initial=0) >= field.q:
        return problems + [f"matrix entries outside [0, {field.q})"]
    if field.rank(D) != n - K:
        problems.append(f"dual matrix rank {field.rank(D)}, expected {n - K}")
    if D.size and field.matmul(generator(field, sets, d), D.T).any():
        problems.append("G D^T is not zero")
    problems += check_weights(data["hierarchy"], n, n - K, k - d - 1, dims, "hierarchy")
    return problems


def check_generator(matrix, p: int, e: int, sets, d: int) -> list:
    """A generator matrix of the degree-d code: rank K, row space of G here."""
    dims = [len(s) for s in sets]
    n, K = math.prod(dims), count_deg_le(dims, d)
    field = ref_field(p, e)
    M = np.asarray(matrix, dtype=np.int64)
    if M.shape != (K, n):
        return [f"generator shape {M.shape}, expected {(K, n)}"]
    if field.rank(M) != K:
        return [f"generator rank {field.rank(M)}, expected {K}"]
    if field.rank(np.vstack([generator(field, sets, d), M])) != K:
        return ["generator rows leave the code"]
    return []


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, m: int) -> dict:
    """Terms {exponent tuple: coefficient code} of a printed polynomial."""
    terms: dict = {}
    if text == "0":
        return terms
    for term in text.split(" + "):
        coeff, mono = 1, [0] * m
        for i, factor in enumerate(term.split("*")):
            match = _FACTOR.match(factor)
            if match:
                var = int(match.group(1)) - 1
                if not 0 <= var < m or mono[var]:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                mono[var] = int(match.group(2) or 1)
            elif i == 0 and factor.isdigit():
                coeff = int(factor)
            else:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
        key = tuple(mono)
        if key in terms or coeff == 0:
            raise ValueError(f"repeated or zero term {term!r} in {text!r}")
        terms[key] = coeff
    return terms


def check_maxzeros(text: str, p: int, e: int, sets, d: int, r: int) -> list:
    """`ccodes maxzeros --format json`: count the common zeros here."""
    data, problems = _load(text, ("value", "polynomials"))
    if data is None:
        return problems
    field = ref_field(p, e)
    dims = [len(s) for s in sets]
    polys = data["polynomials"]
    if len(polys) != r:
        return [f"{len(polys)} polynomials, expected r={r}"]
    pts = grid_points(sets)
    try:
        parsed = [parse_polynomial(f, len(sets)) for f in polys]
    except ValueError as exc:
        return [str(exc)]
    if any(c >= field.q for terms in parsed for c in terms.values()):
        return ["coefficient outside the field"]
    top = max((max(mono) for terms in parsed for mono in terms), default=0)
    if any(sum(mono) > d for terms in parsed for mono in terms):
        problems.append(f"a polynomial has degree above {d}")
    if any(mono[i] >= dims[i] for terms in parsed for mono in terms for i in range(len(dims))):
        problems.append("a polynomial leaves the exponent box")
    pows = field.power_table(top)
    values = np.zeros((r, len(pts)), dtype=np.int64)
    for row, terms in zip(values, parsed):
        for mono, coeff in terms.items():
            term = np.full(len(pts), coeff, dtype=np.int64)
            for coord, exp in enumerate(mono):
                if exp:
                    term = field.mul[term, pows[pts[:, coord], exp]]
            row[:] = field.add[row, term]
    zeros = int(np.count_nonzero(~values.any(axis=0)))
    if zeros != data["value"]:
        problems.append(f"printed value {data['value']!r}, counted {zeros} common zeros")
    if field.rank(values) != r:
        problems.append("the polynomials are not independent on the grid")
    return problems


def check_verify(text: str) -> tuple:
    """`ccodes verify` text: (problems, ranks checked by the GHW oracle)."""
    lines = text.splitlines()
    if not lines or lines[-1] != "VERIFY OK":
        return [f"summary line {lines[-1] if lines else ''!r}"], 0
    bad = [line for line in lines[:-1] if not line.endswith(" ok")]
    if bad or len(lines) < 2:
        return [f"check lines not ok: {bad[:3]}"], 0
    checked = sum(line.startswith(("ghw r=", "dual ghw r=")) for line in lines)
    return [], checked
