"""Exact arithmetic in small finite fields GF(p^e).

Elements are residue classes of polynomials over GF(p) modulo a fixed
monic irreducible polynomial of degree e, stored as coefficient tuples
(lowest degree first).  Every element also has a canonical integer form

    c0 + c1*p + ... + c_{e-1}*p^(e-1)

which is the representation used in all text and JSON serialization.

The modulus is always the lexicographically smallest monic irreducible
polynomial of degree e, comparing coefficient vectors from the constant
term upward, so fields and everything derived from them are reproducible
across runs and machines.  For e = 1 the modulus is x and arithmetic is
plain arithmetic mod p.

FieldElement is the reference arithmetic: division goes through the
extended Euclidean algorithm on representative polynomials rather than
through a^(q-2).  Matrix work uses the dense tables of a Field instead
(orders up to TABLE_ORDER_LIMIT).  They are built in numpy on integer
codes: add digit by digit in base p (XOR for p = 2), mul and inv from the
discrete log and antilog tables of the least primitive element, whose
q - 1 powers are the only FieldElement products involved, and neg as the
products with -1.  The tests check every table against FieldElement.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DegreeRangeError, FieldMismatchError, NotPrimeError

MAX_EXTENSION_DEGREE = 16

# Largest field order for which dense lookup tables may be materialized.
TABLE_ORDER_LIMIT = 1024


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# --------------------------------------------------------------------------
# Dense polynomials over GF(p): coefficient tuples, lowest degree first,
# no trailing zeros.  () is the zero polynomial.
# --------------------------------------------------------------------------

def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)])


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(rem) - len(b), -1, -1):
        coeff = (rem[shift + len(b) - 1] * inv_lead) % p
        if coeff:
            quo[shift] = coeff
            for j, y in enumerate(b):
                rem[shift + j] = (rem[shift + j] - coeff * y) % p
    return _trim(quo), _trim(rem)


def _poly_powmod(a, n, mod, p):
    result = (1,)
    base = _poly_divmod(a, mod, p)[1]
    while n:
        if n & 1:
            result = _poly_divmod(_poly_mul(result, base, p), mod, p)[1]
        base = _poly_divmod(_poly_mul(base, base, p), mod, p)[1]
        n >>= 1
    return result


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_invmod(a, mod, p):
    """Inverse of a modulo mod via the extended Euclidean algorithm."""
    old_r, r = a, mod
    old_t, t = (1,), ()
    while r:
        q, rem = _poly_divmod(old_r, r, p)
        old_r, r = r, rem
        old_t, t = t, _poly_sub(old_t, _poly_mul(q, t, p), p)
    # old_r is a nonzero constant when mod is irreducible and a is nonzero
    if len(old_r) != 1:
        raise ZeroDivisionError("element is not invertible")
    scale = pow(old_r[0], -1, p)
    return _poly_divmod(_poly_mul(old_t, (scale,), p), mod, p)[1]


# Packed GF(2) polynomials (bit i = coefficient of x^i) make the degree-16
# Frobenius test cheap; other characteristics stay on the tuple path.

def _gf2_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_mulmod(a: int, b: int, mod: int, e: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> e:
            a ^= mod
    return r


def _gf2_powmod(a: int, n: int, mod: int, e: int) -> int:
    r = 1
    a = _gf2_mod(a, mod)
    while n:
        if n & 1:
            r = _gf2_mulmod(r, a, mod, e)
        a = _gf2_mulmod(a, a, mod, e)
        n >>= 1
    return r


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _gf2_irreducible(poly) -> bool:
    e = len(poly) - 1
    mod = sum(c << i for i, c in enumerate(poly))
    x = 2
    if _gf2_powmod(x, 2 ** e, mod, e) != x:
        return False
    for r in _prime_factors(e):
        h = _gf2_powmod(x, 2 ** (e // r), mod, e) ^ x
        if _gf2_gcd(h, mod).bit_length() > 1:
            return False
    return True


def is_irreducible(poly, p: int) -> bool:
    """Rabin's test: q-power Frobenius fixed points plus gcd conditions.

    Cheap rejections first: a zero constant term or a root in GF(p) means
    a linear factor, which settles every degree >= 2 candidate at O(p*e).
    """
    e = len(poly) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    if poly[0] == 0:
        return False
    for a in range(p):
        value = 0
        for c in reversed(poly):
            value = (value * a + c) % p
        if value == 0:
            return False
    if p == 2:
        return _gf2_irreducible(poly)
    x = (0, 1)
    if _poly_powmod(x, p ** e, poly, p) != x:
        return False
    for r in _prime_factors(e):
        h = _poly_sub(_poly_powmod(x, p ** (e // r), poly, p), x, p)
        g = _poly_gcd(h, poly, p)
        if len(g) != 1:
            return False
    return True


def smallest_irreducible(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e over GF(p).

    Candidate coefficient vectors are compared from the constant term
    upward, so the result is the same on every run.
    """
    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=e):
        poly = tail + (1,)
        if is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible of degree {e} over GF({p})")  # unreachable


# --------------------------------------------------------------------------
# Field and element types
# --------------------------------------------------------------------------

class Field:
    """The finite field GF(p^e) with the canonical modulus.

    Prefer field_create(), which caches instances so lookup tables are
    shared.  Instances are immutable and safe to share between threads.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if not 1 <= e <= MAX_EXTENSION_DEGREE:
            raise DegreeRangeError(
                f"extension degree must be in [1, {MAX_EXTENSION_DEGREE}], got {e}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = smallest_irreducible(p, e)
        self.zero = FieldElement(self, (0,) * e)
        self.one = FieldElement(self, (1,) + (0,) * (e - 1))

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    # -- construction ------------------------------------------------------

    def from_int(self, value: int) -> FieldElement:
        """Element with integer code value (base-p digits -> coefficients)."""
        if not 0 <= value < self.q:
            raise ValueError(f"element code {value} outside [0, {self.q})")
        coeffs = []
        for _ in range(self.e):
            coeffs.append(value % self.p)
            value //= self.p
        return FieldElement(self, tuple(coeffs))

    def element(self, coeffs) -> FieldElement:
        """Element from a coefficient sequence (low degree first, mod p)."""
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.e:
            raise ValueError(f"expected at most {self.e} coefficients")
        coeffs += [0] * (self.e - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def elements(self) -> list[FieldElement]:
        """All q elements, ascending by integer code (zero first)."""
        return [self.from_int(i) for i in range(self.q)]

    # -- dense lookup tables (integer-coded arithmetic for matrix work) ----

    def _require_tables(self):
        if self.q > TABLE_ORDER_LIMIT:
            raise ValueError(
                f"lookup tables limited to order {TABLE_ORDER_LIMIT}, field has {self.q}")

    @functools.cached_property
    def int_dtype(self):
        return np.min_scalar_type(self.q - 1)

    @functools.cached_property
    def _log_antilog(self):
        """(log, antilog) over the least primitive element g.

        antilog[k] is the code of g^k for 0 <= k < 2(q - 1), doubled so a
        sum of two logs needs no reduction; log[0] is a 0 sentinel.
        """
        self._require_tables()
        q = self.q
        factors = _prime_factors(q - 1)
        g = next(x for x in self.elements()[1:]
                 if all(x ** ((q - 1) // f) != self.one for f in factors))
        antilog = np.empty(q - 1, dtype=self.int_dtype)
        power = self.one
        for k in range(q - 1):
            antilog[k] = power.to_int()
            power = power * g
        log = np.zeros(q, dtype=np.intp)
        log[antilog] = np.arange(q - 1)
        return log, np.concatenate([antilog, antilog])

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        self._require_tables()
        codes = np.arange(self.q)
        if self.p == 2:
            t = codes[:, None] ^ codes[None, :]
        else:  # digit by digit in base p
            t = np.zeros((self.q, self.q), dtype=np.intp)
            for k in range(self.e):
                digit = codes // self.p ** k % self.p
                t += (digit[:, None] + digit[None, :]) % self.p * self.p ** k
        t = t.astype(self.int_dtype)
        t.flags.writeable = False
        return t

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        self._require_tables()
        log, antilog = self._log_antilog
        t = np.zeros((self.q, self.q), dtype=self.int_dtype)
        t[1:, 1:] = antilog[log[1:, None] + log[None, 1:]]
        t.flags.writeable = False
        return t

    @functools.cached_property
    def neg_table(self) -> np.ndarray:
        """Products with -1, whose code is p - 1; a read-only view."""
        return self.mul_table[self.p - 1]

    @functools.cached_property
    def inv_table(self) -> np.ndarray:
        """Inverses by integer code; slot 0 is a 0 sentinel, never valid."""
        self._require_tables()
        log, antilog = self._log_antilog
        t = np.zeros(self.q, dtype=self.int_dtype)
        t[1:] = antilog[self.q - 1 - log[1:]]
        t.flags.writeable = False
        return t


class FieldElement:
    """Immutable element of a Field; supports +, -, *, /, ** and == ."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if not isinstance(other, FieldElement):
            return None
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        return other

    def to_int(self) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __repr__(self):
        return f"GF({self.field.q})[{self.to_int()}]"

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        prod = _poly_mul(_trim(self.coeffs), _trim(other.coeffs), f.p)
        rem = _poly_divmod(prod, f.modulus, f.p)[1]
        return FieldElement(f, rem + (0,) * (f.e - len(rem)))

    def inverse(self) -> FieldElement:
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        f = self.field
        if f.e == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        inv = _poly_invmod(_trim(self.coeffs), f.modulus, f.p)
        return FieldElement(f, inv + (0,) * (f.e - len(inv)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


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
