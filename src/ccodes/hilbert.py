"""Monomial ideals, polynomial notation, footprint counting.

Monomials are plain exponent tuples (non-negative, unbounded entries,
unlike box tuples).  A polynomial is a plain dict from monomials to
nonzero integer codes of a field, its terms; format_polynomial prints
one.  The affine Hilbert function of a monomial ideal is computed by
direct enumeration of the degree-<=u simplex and divisibility tests
(grid.divides); at desk scale this is small and auditable.

footprint_upper_bound is a closed form: it counts the box tuples outside
the leading terms' up-sets coordinate by coordinate and never lists the
box.  hilbert_fn over box_ideal and grid.shadow are its oracles.

Leading terms are taken under graded lexicographic order: compare total
degree first, ties broken lexicographically with x1 most significant.
The leading term of terms is max(terms, key=graded_lex_key).

Serialization: a monomial is comma-joined exponents, an ideal is
semicolon-joined monomials, e.g. "2,0;0,3".
"""

from __future__ import annotations

import math

from .errors import DimensionMismatchError, DuplicateLeadingTermError
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


def format_polynomial(terms) -> str:
    """Terms as a sum, graded lex largest first, e.g. "x1^2 + 2*x1"; "0" if none."""
    parts = []
    for mono in sorted(terms, key=graded_lex_key, reverse=True):
        coeff = terms[mono]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mono) if e]
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(coeff)] + factors))
    return " + ".join(parts) or "0"


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
