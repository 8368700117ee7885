"""Exact arithmetic in finite fields GF(p^e) on integer codes.

An element is the residue class of a polynomial over GF(p) modulo a
fixed monic irreducible polynomial of degree e, held as its integer code

    c0 + c1*p + ... + c_{e-1}*p^(e-1)

(coefficients lowest degree first), which is also its text and JSON form.

The modulus is always the lexicographically smallest monic irreducible
polynomial of degree e, comparing coefficient vectors from the constant
term upward, so fields and everything derived from them are reproducible
across runs and machines.  For e = 1 the modulus is x and arithmetic is
plain arithmetic mod p.  Candidates are counted up lazily from constant
term 1 (a constant term 0 means a factor x), and each is decided by one
Rabin test in the ring GF(p)[x]/(candidate), so the search never scans
GF(p).  p is proved prime by a deterministic Miller-Rabin test, exact
below MAX_CHARACTERISTIC.

Arithmetic modulo a monic polynomial is defined once, as the private
functions _add, _mul and _pow on codes: digit by digit in base p, with
products reduced by the modulus.  The modulus search runs on them, and so
do the Field methods add, mul and pow (neg and inv derive from mul and
pow).  Those take int codes or numpy arrays of codes; arrays are widened
to a signed dtype no step can overflow, or to Python ints (dtype object)
when int64 has no room.  The dense tables that matrix work indexes
(orders up to TABLE_ORDER_LIMIT) are add and mul on every pair of codes,
the row of -1 in the products, and the position of 1 in each row.
FieldElement is a (field, code) view whose operators call the same
methods; the tests check all of them against tuple long division.
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
    """a + b: the e base-p digits added mod p."""
    out = 0
    for k in range(e):
        w = p ** k  # a // w is digit k of a plus a multiple of p
        out = out + (a // w + b // w) % p * w
    return out


def _mul(a, b, p: int, modulus):
    """a * b: digit convolution, reduced by the monic modulus from the top."""
    e = len(modulus) - 1
    if e == 1:
        return a * b % p
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
    lazily from constant term 1; an irreducible exists, so the count ends.
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
# Field and element view
# --------------------------------------------------------------------------

class Field:
    """The finite field GF(p^e) with the canonical modulus.

    Prefer field_create(), which caches instances so lookup tables are
    shared.  Instances are immutable and safe to share between threads.
    add, mul and pow widen their operands and call _add, _mul and _pow,
    the arithmetic that the modulus search runs on too.
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
        # convolutions stay below 2e * p^2 in size and digit sums below 2q
        bound = 2 * max(e * p * p, self.q)
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
        """Codes as a Python int, or as an array whose steps cannot wrap."""
        if isinstance(a, np.ndarray):
            return a.astype(self._wide_dtype)
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
    """A (field, code) view; its operators +, -, *, /, ** call the Field methods.

    The code is taken as given: FieldElement(f, f.code(c)) checks it first.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    def _apply(self, op, other):
        """The element op(self, other) on codes; NotImplemented for a non-element."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"{self.field} vs {other.field}")
        return FieldElement(self.field, op(self.code, other.code))

    def to_int(self) -> int:
        return self.code

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.code == other.code

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.code))

    def __repr__(self):
        return f"GF({self.field.q})[{self.code}]"

    def __add__(self, other):
        return self._apply(self.field.add, other)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __sub__(self, other):
        return self + -other if isinstance(other, FieldElement) else NotImplemented

    def __mul__(self, other):
        return self._apply(self.field.mul, other)

    def inverse(self) -> FieldElement:
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        return FieldElement(self.field, self.field.inv(self.code))

    def __truediv__(self, other):
        return self * other.inverse() if isinstance(other, FieldElement) else NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FieldElement(self.field, self.field.pow(self.code, n))


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
