"""Exact arithmetic in finite fields GF(p^e) on integer codes.

An element is the residue class of a polynomial over GF(p) modulo a
fixed monic irreducible polynomial of degree e, held as its integer code

    c0 + c1*p + ... + c_{e-1}*p^(e-1)

(coefficients lowest degree first), which is also its text and JSON form.

The modulus is always the lexicographically smallest monic irreducible
polynomial of degree e, comparing coefficient vectors from the constant
term upward, so fields and everything derived from them are reproducible
across runs and machines.  For e = 1 the modulus is x and arithmetic is
plain arithmetic mod p.

Sections, in file order: the primality test (_is_prime); arithmetic on
codes modulo a monic polynomial (_add, _mul, _pow); the modulus search
(is_irreducible, smallest_irreducible); Field, its methods and its
lookup tables; field_create and parse_field.

Arithmetic modulo a monic polynomial is defined once, as _add, _mul and
_pow on codes; in characteristic 2, where a code's digits are its bits,
_add is XOR and _mul a carry-less product.  The modulus search runs on
them, and so do the Field methods add, mul and pow, which take int codes
or numpy arrays of codes (neg and inv derive from mul and pow).  The
dense tables that matrix work indexes are a cache of add and mul on
every pair of codes, never a second arithmetic.  The tests check all of
them against tuple long division.

Errors: bad input raises ValueError: a characteristic that is not a
prime below MAX_CHARACTERISTIC, an extension degree outside
[1, MAX_EXTENSION_DEGREE], a code outside [0, q), an array of codes
that are not integers, a negative exponent, a table for an order past
TABLE_ORDER_LIMIT, or field text that is not p^e.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

MAX_EXTENSION_DEGREE = 16

# Largest field order for which dense lookup tables may be materialized.
TABLE_ORDER_LIMIT = 1024

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); larger characteristics are refused.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n < MAX_CHARACTERISTIC."""
    if n < 2 or any(n % a == 0 for a in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d * 2^s: a witness has a^d != 1 and a^(d 2^i) != -1 for i < s
    return not any(pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(s))
                   for a in _MILLER_RABIN_BASES)


# --------------------------------------------------------------------------
# Arithmetic on codes modulo a monic polynomial: ints or arrays of codes
# --------------------------------------------------------------------------

def _add(a, b, p: int, e: int):
    """a + b: the e base-p digits added mod p, in characteristic 2 their XOR."""
    if p == 2:
        return a ^ b
    if e == 1:
        return (a + b) % p
    out = 0
    for k in range(e):
        w = p ** k  # a // w is digit k of a plus a multiple of p
        out = out + (a // w + b // w) % p * w
    return out


def _mul(a, b, p: int, modulus):
    """a * b: digit convolution, reduced by the monic modulus from the top.

    In characteristic 2 the digits are bits, so the convolution is the
    XOR of a shifted by each set bit of b, and each reduction step XORs in
    a shifted modulus: about 8e array operations, where the digit
    convolution takes about 2e^2.
    """
    e = len(modulus) - 1
    if e == 1:
        return a * b % p
    if p == 2:
        out = 0
        for k in range(e):
            bit = b >> k & 1
            if type(bit) is not int or bit:  # int operands skip their zero bits
                out = out ^ a * bit << k
        code = sum(c << j for j, c in enumerate(modulus))
        for k in range(2 * e - 2, e - 1, -1):
            out = out ^ (out >> k & 1) * (code << k - e)
        return out
    da, db = [], []  # the (position, digit) pairs; int operands skip zero digits
    for k in range(e):  # // and %, not divmod, which object arrays lack
        x, y = a % p, b % p
        if type(x) is not int or x:
            da.append((k, x))
        if type(y) is not int or y:
            db.append((k, y))
        a, b = a // p, b // p
    prod = [0] * (2 * e - 1)
    for i, x in da:
        for j, y in db:
            prod[i + j] = prod[i + j] + x * y
    # x^e = -(m_0 + m_1 x + ... + m_{e-1} x^{e-1})
    tail = [(j, c) for j, c in enumerate(modulus[:-1]) if c]
    for k in range(2 * e - 2, e - 1, -1):
        top = prod[k] % p
        for j, c in tail:
            prod[k - e + j] = prod[k - e + j] - top * c
    out = 0
    for k in range(e - 1, -1, -1):
        out = out * p + prod[k] % p
    return out


def _pow(a, n: int, p: int, modulus):
    """a^n for n >= 0, squaring and multiplying left to right; 0^0 is 1."""
    if n == 0:
        return a * 0 + 1
    if n == 1:
        return a * 1  # a new array, never the operand itself
    result = a
    for bit in bin(n)[3:]:  # the bits of n after the leading 1
        result = _mul(result, result, p, modulus)
        if bit == "1":
            result = _mul(result, a, p, modulus)
    return result


def is_irreducible(poly, p: int) -> bool:
    """Rabin's test on the codes of R = GF(p)[x]/(poly), where x has code p.

    poly, scaled to be monic, is irreducible iff x^(p^e) = x in R and, for
    each prime r dividing e, x^(p^(e/r)) - x is a unit of R.  Once the
    first condition holds, poly is squarefree with factors of degrees
    dividing e, so R is a product of fields GF(p^f) with f | e, and the
    product h of those differences is a unit iff h^(p^e - 1) = 1.  That
    takes O(e * log p) products in R, so the test never scans GF(p).
    """
    e = len(poly) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    scale = pow(poly[-1], -1, p)
    modulus = tuple(c * scale % p for c in poly)
    frobenius = [p]  # x^(p^i) for i = 0..e
    for _ in range(e):
        frobenius.append(_pow(frobenius[-1], p, p, modulus))
    if frobenius[e] != p:
        return False
    h = 1
    for r in [f for f in range(2, e + 1) if e % f == 0 and _is_prime(f)]:
        h = _mul(h, _add(frobenius[e // r], (p - 1) * p, p, e), p, modulus)
    return _pow(h, p ** e - 1, p, modulus) == 1


def smallest_irreducible(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e over GF(p).

    Candidate coefficient vectors are compared from the constant term
    upward, so the result is the same on every run.  They are counted up
    lazily from constant term 1, since a constant term 0 means a factor x;
    an irreducible exists, so the count ends.
    """
    if e == 1:
        return (0, 1)
    tail = [1] + [0] * (e - 1)  # c_0, ..., c_{e-1}, c_{e-1} counting fastest
    while not is_irreducible((*tail, 1), p):
        i = e - 1
        while tail[i] == p - 1:
            tail[i] = 0
            i -= 1
        tail[i] += 1
    return (*tail, 1)


# --------------------------------------------------------------------------
# Field
# --------------------------------------------------------------------------

class Field:
    """The finite field GF(p^e) with the canonical modulus.

    Prefer field_create(), which caches instances so lookup tables are
    shared.  Instances are immutable and safe to share between threads.
    add, mul and pow widen their operands (_wide) and call _add, _mul
    and _pow.
    """

    def __init__(self, p: int, e: int = 1):
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} is too large: primality is "
                             f"decided only below {MAX_CHARACTERISTIC}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= e <= MAX_EXTENSION_DEGREE:
            raise ValueError(
                f"extension degree must be in [1, {MAX_EXTENSION_DEGREE}], got {e}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = smallest_irreducible(p, e)
        # the narrowest dtype for the arithmetic's intermediates: digit
        # convolutions stay below 2e * p^2 in size and digit sums below 2q;
        # carry-less products in characteristic 2 below 2^(2e - 1)
        bound = 2 ** (2 * e - 1) if p == 2 else 2 * max(e * p * p, self.q)
        self._wide_dtype = next((t for t in (np.int16, np.int32, np.int64)
                                 if bound <= np.iinfo(t).max), object)

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    # -- integer codes -----------------------------------------------------

    def code(self, value) -> int:
        """value as an element code of this field, checked to lie in [0, q)."""
        value = operator.index(value)
        if not 0 <= value < self.q:
            raise ValueError(f"element code {value} outside [0, {self.q})")
        return value

    def _wide(self, a):
        """Codes as a Python int, or as an array whose steps cannot wrap.

        An array is cast to the narrowest signed dtype that no step of
        _add, _mul or _pow can overflow, or to Python ints (dtype object)
        when int64 has no room; one already of that dtype is not copied,
        since those steps write no operand and return a new array.  It must
        hold integers or Python ints: a cast from floats would truncate
        them, or round codes past 2^53.
        """
        if isinstance(a, np.ndarray):
            if a.dtype.kind not in "iuO":
                raise ValueError(f"element codes must be integers, got dtype {a.dtype}")
            return a.astype(self._wide_dtype, copy=False)
        return operator.index(a)

    def add(self, a, b):
        """a + b: base-p digits added mod p."""
        return _add(self._wide(a), self._wide(b), self.p, self.e)

    def neg(self, a):
        """-a as the product with -1, whose code is p - 1."""
        return self.mul(self.p - 1, a)

    def mul(self, a, b):
        """a * b: digit convolution, reduced by the monic modulus from the top."""
        return _mul(self._wide(a), self._wide(b), self.p, self.modulus)

    def pow(self, a, n: int):
        """a^n for n >= 0 by square and multiply; 0^0 is 1."""
        if n < 0:
            raise ValueError(f"exponent {n} is negative")
        return _pow(self._wide(a), n, self.p, self.modulus)

    def inv(self, a):
        """1/a as a^(2q - 3), which equals a^(q - 2) on units and maps 0 to 0."""
        return self.pow(a, 2 * self.q - 3)

    # -- dense lookup tables: add and mul on every pair of codes ------------

    def _table(self, compute) -> np.ndarray:
        if self.q > TABLE_ORDER_LIMIT:
            raise ValueError(
                f"lookup tables limited to order {TABLE_ORDER_LIMIT}, field has {self.q}")
        t = compute(np.arange(self.q)).astype(self.int_dtype)
        t.flags.writeable = False
        return t

    @functools.cached_property
    def int_dtype(self):
        return np.min_scalar_type(self.q - 1)

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        return self._table(lambda c: self.add(c[:, None], c[None, :]))

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        return self._table(lambda c: self.mul(c[:, None], c[None, :]))

    @functools.cached_property
    def neg_table(self) -> np.ndarray:
        """Products with -1, whose code is p - 1; a read-only view."""
        return self.mul_table[self.p - 1]

    @functools.cached_property
    def inv_table(self) -> np.ndarray:
        """Inverses by integer code, where a row of mul_table holds 1.

        Slot 0, whose row holds no 1, is a 0 sentinel, never valid.
        """
        return self._table(lambda _: np.argmax(self.mul_table == 1, axis=1))


class FieldElement:
    """Placeholder with no behaviour: bench/spans.py compares classes against gf.FieldElement.

    Delete it once the benchmark stops naming it.
    """


@functools.lru_cache(maxsize=None)
def field_create(p: int, e: int = 1) -> Field:
    """Build (and cache) GF(p^e) with the canonical modulus."""
    return Field(p, e)


def parse_field(text: str) -> Field:
    """Parse the "p^e" (or bare "p") field notation used in CLI and files."""
    text = text.strip()
    parts = text.split("^")
    if len(parts) not in (1, 2):
        raise ValueError(f"bad field spec {text!r}, expected p^e")
    try:
        p = int(parts[0])
        e = int(parts[1]) if len(parts) == 2 else 1
    except ValueError:
        raise ValueError(f"bad field spec {text!r}, expected p^e") from None
    return field_create(p, e)
