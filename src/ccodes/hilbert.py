"""Hilbert counts of monomial ideals, polynomial notation, footprint counting.

Monomials are plain exponent tuples (non-negative, unbounded entries,
unlike box tuples).  A monomial ideal is given by its generators, a
sequence of monomials of one length.  A polynomial is a plain dict from
monomials to nonzero integer codes of a field, its terms;
format_polynomial prints one.  The affine Hilbert function of a monomial
ideal (hilbert_fn) is computed by direct enumeration of the degree-<=u
simplex and divisibility tests (grid.divides); at desk scale this is
small and auditable.

footprint_upper_bound is a closed form: it counts the box tuples outside
the leading terms' up-sets coordinate by coordinate and never lists the
box.  hilbert_fn over box_ideal and grid.shadow are its oracles.

Leading terms are taken under graded lexicographic order: compare total
degree first, ties broken lexicographically with x1 most significant.
The leading term of terms is max(terms, key=graded_lex_key).
"""

from __future__ import annotations

import collections

from .grid import GridShape, divides


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


def hilbert_fn(generators, u: int) -> int:
    """Number of monomials of degree <= u that no generator divides.

    This is the affine Hilbert function of the monomial ideal with these
    generators, which must all have the same number of variables.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    nvars = len(gens[0])
    for g in gens:
        if len(g) != nvars:
            raise ValueError(f"generator {g} has {len(g)} variables, expected {nvars}")
        if any(x < 0 for x in g):
            raise ValueError(f"negative exponent in generator {g}")
    if u < 0:
        return 0
    return sum(1 for mono in monomials_deg_le(nvars, u)
               if not any(divides(g, mono) for g in gens))


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
    at a time: a prefix that ends in x leaves the suffixes of the
    remaining dims that dominate none of the terms with t[0] <= x.  Those
    terms change only where x passes some t[0], so each run of x between
    two such values is one step.  Each level maps the set of surviving
    term suffixes to the number of prefixes that lead to it, so equal
    sets merge; a prefix is free when no suffix survives the last
    coordinate.  A term with some exponent >= d_i is dominated by no box
    tuple: the box generators x_i^{d_i} absorb it.
    """
    lts = [tuple(int(x) for x in lt) for lt in leading_terms]
    for lt in lts:
        if len(lt) != shape.m:
            raise ValueError(
                f"leading term {lt} has {len(lt)} variables, expected {shape.m}")
        if any(x < 0 for x in lt):
            raise ValueError(f"negative exponent in leading term {lt}")
    if len(set(lts)) != len(lts):
        raise ValueError(f"duplicate leading terms in {lts}")
    states = collections.Counter({frozenset(lts): 1})
    for d in shape.dims:
        level = collections.Counter()
        for terms, prefixes in states.items():
            starts = sorted({t[0] for t in terms if t[0] < d})
            for lo, hi in zip([0] + starts, starts + [d]):
                if hi > lo:
                    level[frozenset(t[1:] for t in terms if t[0] <= lo)] += (hi - lo) * prefixes
        states = level
    return states[frozenset()]


def box_ideal(shape: GridShape, leading_terms=()) -> tuple:
    """Generators of the ideal of the given terms plus the box's x_i^{d_i}."""
    box = tuple(tuple(d if j == i else 0 for j in range(shape.m))
                for i, d in enumerate(shape.dims))
    return tuple(map(tuple, leading_terms)) + box
