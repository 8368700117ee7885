"""Monomial ideals, sparse multivariate polynomials, footprint counting.

Monomials are plain exponent tuples (non-negative, unbounded entries,
unlike box tuples).  The affine Hilbert function of a monomial ideal is
computed by direct enumeration of the degree-<=u simplex and divisibility
tests (grid.divides); at desk scale this is small and auditable.

footprint_upper_bound is a closed form: it counts the box tuples outside
the leading terms' up-sets coordinate by coordinate and never lists the
box.  hilbert_fn over box_ideal and grid.shadow are its oracles.

Leading terms are taken under graded lexicographic order: compare total
degree first, ties broken lexicographically with x1 most significant.

Serialization: a monomial is comma-joined exponents, an ideal is
semicolon-joined monomials, e.g. "2,0;0,3".
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatchError,
    DuplicateLeadingTermError,
    FieldMismatchError,
    ZeroPolynomialError,
)
from .gf import FieldElement
from .grid import GridShape, divides, parse_tuple


def monomials_deg_eq(nvars: int, total: int):
    """Yield exponent tuples with coordinate sum == total, lex ascending."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in monomials_deg_eq(nvars - 1, total - first):
            yield (first,) + rest


def monomials_deg_le(nvars: int, max_degree: int):
    """Yield exponent tuples with coordinate sum <= max_degree, graded."""
    for total in range(max_degree + 1):
        yield from monomials_deg_eq(nvars, total)


class MonomialIdeal:
    """Ideal generated by monomials, kept as a minimal generator set."""

    def __init__(self, generators, nvars: int | None = None):
        gens = {tuple(int(x) for x in g) for g in generators}
        if nvars is None:
            if not gens:
                raise ValueError("nvars required for an empty generator set")
            nvars = len(next(iter(gens)))
        for g in gens:
            if len(g) != nvars:
                raise DimensionMismatchError(
                    f"generator {g} has {len(g)} variables, expected {nvars}")
            if any(x < 0 for x in g):
                raise ValueError(f"negative exponent in generator {g}")
        self.nvars = nvars
        # drop generators divisible by another one
        self.generators = tuple(sorted(
            g for g in gens
            if not any(h != g and divides(h, g) for h in gens)))

    @classmethod
    def parse(cls, text: str, nvars: int | None = None) -> MonomialIdeal:
        gens = [parse_tuple(part) for part in text.split(";") if part.strip()]
        return cls(gens, nvars=nvars)

    def format(self) -> str:
        return ";".join(",".join(str(x) for x in g) for g in self.generators)

    def contains(self, mono) -> bool:
        """Monomial membership: some generator divides it coordinatewise."""
        mono = tuple(mono)
        if len(mono) != self.nvars:
            raise DimensionMismatchError(
                f"monomial {mono} has {len(mono)} variables, expected {self.nvars}")
        return any(divides(g, mono) for g in self.generators)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.generators == other.generators

    def __hash__(self):
        return hash((self.nvars, self.generators))

    def __repr__(self):
        return f"MonomialIdeal({self.format()!r})"


def hilbert_fn(ideal: MonomialIdeal, u: int) -> int:
    """Number of monomials of degree <= u outside the ideal."""
    if u < 0:
        return 0
    return sum(1 for mono in monomials_deg_le(ideal.nvars, u)
               if not ideal.contains(mono))


def graded_lex_key(mono):
    """Sort key realizing graded lex order (degree, then x1 heaviest)."""
    return (sum(mono), tuple(mono))


class Polynomial:
    """Sparse multivariate polynomial over a Field.

    terms maps exponent tuples to nonzero field elements; zero
    coefficients are never stored.  Instances are immutable.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(int(x) for x in mono)
            if len(mono) != nvars:
                raise DimensionMismatchError(
                    f"monomial {mono} has {len(mono)} variables, expected {nvars}")
            if any(x < 0 for x in mono):
                raise ValueError(f"negative exponent in {mono}")
            if isinstance(coeff, int):
                coeff = field.from_int(coeff)
            if coeff.field != field:
                raise FieldMismatchError(f"{coeff.field} coefficient in {field} polynomial")
            if coeff:
                clean[mono] = coeff
        self.field = field
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, field, nvars: int, value) -> Polynomial:
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars: int, index: int) -> Polynomial:
        """The polynomial x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} outside [0, {nvars})")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {mono: field.one})

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field, self.nvars, self.terms) == (
            other.field, other.nvars, other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Maximal coordinate sum over terms; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, index: int) -> int:
        """Maximal exponent of one variable; -1 for the zero polynomial."""
        return max((m[index] for m in self.terms), default=-1)

    def _check_compatible(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.nvars != other.nvars:
            raise DimensionMismatchError(f"{self.nvars} vs {other.nvars} variables")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return Polynomial(self.field, self.nvars, terms)

    def __neg__(self):
        return Polynomial(self.field, self.nvars,
                          {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                acc = terms.get(mono)
                terms[mono] = prod if acc is None else acc + prod
        return Polynomial(self.field, self.nvars, terms)

    def scaled(self, scalar) -> Polynomial:
        return Polynomial(self.field, self.nvars,
                          {m: c * scalar for m, c in self.terms.items()})

    def evaluate(self, point):
        """Value at a point given as a sequence of field elements."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        total = self.field.zero
        for mono, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, mono):
                if e:
                    value = value * x ** e
            total = total + value
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=graded_lex_key, reverse=True):
            coeff = self.terms[mono].to_int()
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(mono) if e]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts)


def leading_term(f: Polynomial):
    """Graded-lex maximal monomial of a nonzero polynomial."""
    if not f.terms:
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    return max(f.terms, key=graded_lex_key)


def footprint_upper_bound(shape: GridShape, leading_terms) -> int:
    """Upper bound on common zeros in the grid from leading terms alone.

    Counts the box tuples that dominate no leading term, one coordinate
    at a time: a first coordinate x leaves the tuples of the remaining
    dims that dominate none of the terms with t[0] <= x.  Those terms
    change only where x passes some t[0], so each run of x between two
    such values is counted once, and counts are memoised per (coordinate,
    remaining terms) within the call.  A term with some exponent >= d_i
    is dominated by no box tuple: the box generators x_i^{d_i} absorb it.
    """
    lts = [tuple(int(x) for x in lt) for lt in leading_terms]
    for lt in lts:
        if len(lt) != shape.m:
            raise DimensionMismatchError(
                f"leading term {lt} has {len(lt)} variables, expected {shape.m}")
        if any(x < 0 for x in lt):
            raise ValueError(f"negative exponent in leading term {lt}")
    if len(set(lts)) != len(lts):
        raise DuplicateLeadingTermError(f"duplicate leading terms in {lts}")
    memo = {}

    def free(i, terms):
        """Tuples of dims[i:] dominating none of terms (suffixes from i)."""
        if not terms:
            return math.prod(shape.dims[i:])
        if i == shape.m:
            return 0
        if (i, terms) not in memo:
            d = shape.dims[i]
            starts = sorted({t[0] for t in terms if t[0] < d})
            memo[i, terms] = sum(
                (hi - lo) * free(i + 1, frozenset(t[1:] for t in terms if t[0] <= lo))
                for lo, hi in zip([0] + starts, starts + [d]) if hi > lo)
        return memo[i, terms]

    return free(0, frozenset(lts))


def box_ideal(shape: GridShape, leading_terms=()) -> MonomialIdeal:
    """Ideal generated by given terms plus the box generators x_i^{d_i}."""
    gens = [tuple(int(x) for x in lt) for lt in leading_terms]
    for i, d in enumerate(shape.dims):
        gens.append(tuple(d if j == i else 0 for j in range(shape.m)))
    return MonomialIdeal(gens, nvars=shape.m)
