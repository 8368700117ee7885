"""Hilbert counts of monomial ideals, polynomial notation, footprint counting.

Monomials are plain exponent tuples (non-negative, unbounded entries,
unlike box tuples).  A monomial ideal is given by its generators, a
sequence of monomials of one length.  A polynomial is a plain dict from
monomials to nonzero integer codes of a field, its terms;
format_polynomial prints one, and format_polynomials every polynomial of
a family held as flat arrays of its terms.  Their text is joined from
pooled str pieces, one join per polynomial, and the pool follows the
exponents in use, not their size.
The affine Hilbert function of a monomial ideal (hilbert_fn) counts the
monomials of degree <= u that no generator divides (grid.divides),
listed by grid.tuples_deg_le from the cube of side u + 1, which holds
them all and whose walk keeps only prefixes of degree <= u; at desk scale
this is small and auditable.

footprint_upper_bound is a closed form: it counts the box tuples outside
the leading terms' up-sets coordinate by coordinate and never lists the
box.  hilbert_fn over box_ideal and grid.shadow are its oracles.

Leading terms are taken under graded lexicographic order: compare total
degree first, ties broken lexicographically with x1 most significant.
The leading term of terms is max(terms, key=graded_lex_key).
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

from .grid import GridShape, divides, tuples_deg_le


def hilbert_fn(generators, u: int) -> int:
    """Number of monomials of degree <= u that no generator divides.

    This is the affine Hilbert function of the monomial ideal with these
    generators, which must all have the same number of variables.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    nvars = len(gens[0])
    if not nvars:
        raise ValueError("generators need at least one variable")
    for g in gens:
        if len(g) != nvars:
            raise ValueError(f"generator {g} has {len(g)} variables, expected {nvars}")
        if any(x < 0 for x in g):
            raise ValueError(f"negative exponent in generator {g}")
    if u < 0:
        return 0
    return sum(1 for mono in tuples_deg_le(GridShape((u + 1,) * nvars), u)
               if not any(divides(g, mono) for g in gens))


def graded_lex_key(mono):
    """Sort key realizing graded lex order (degree, then x1 heaviest)."""
    return (sum(mono), tuple(mono))


def format_polynomial(terms) -> str:
    """Terms as a sum, graded lex largest first, e.g. "x1^2 + 2*x1"; "0" if none.

    The one-polynomial view of format_polynomials; exponents must fit int64.
    """
    monos = list(terms)
    exponents = np.array(monos, dtype=np.int64).reshape(len(monos), len(next(iter(monos), ())))
    return format_polynomials(exponents, np.array(list(terms.values())), [0, len(monos)])[0]


def format_polynomials(exponents, coeffs, starts) -> list:
    """The text of each polynomial of a flat family, as format_polynomial writes it.

    Polynomial i has the terms starts[i]:starts[i + 1]: rows of exponents
    (terms x variables, non-negative integers) and their nonzero codes in
    coeffs.  One np.lexsort orders all terms by polynomial, then graded
    lex order descending.  A term is a row of slots into a pool of str
    pieces: " + " unless it leads its polynomial, its coefficient unless
    that is 1 on a nonconstant term, and "*x{s}" or "*x{s}^{e}" for each
    nonzero exponent, the first without its "*" where the coefficient is
    left out; an empty slot holds "".  The pool holds one piece per
    distinct coefficient, and per variable and distinct exponent in use
    with and without its "*", so it follows the exponents in use, not their
    size.  Each polynomial is one "".join of its terms' pieces, "0" if it
    has none.
    """
    exponents, coeffs = np.asarray(exponents), np.asarray(coeffs)
    starts = np.asarray(starts, dtype=np.int64)
    terms, m = exponents.shape
    counts = np.diff(starts)
    degrees = exponents.sum(axis=1, dtype=np.int64)
    # ~x = MAX - x for unsigned x and -1 - x for signed, so it sorts descending
    order = np.lexsort((*np.invert(exponents.T[::-1]), ~degrees,
                        np.repeat(np.arange(len(counts)), counts)))
    exponents, coeffs = exponents[order], coeffs[order]
    values, which = np.unique(coeffs, return_inverse=True)
    # the distinct nonzero exponents, marked in a table of one flag per
    # value up to the largest, a column at a time, so that no index wider
    # than one column is made; past one flag per exponent, by a sort.
    # np.unique without an inverse builds a hash table, whose allocations
    # raised the peak RSS of the closed_form benchmark by about 0.6 MB
    top = int(exponents.max(initial=0))
    if top < exponents.size:
        used = np.zeros(top + 1, dtype=bool)
        for s in range(m):
            used[exponents[:, s]] = True
        powers = np.flatnonzero(used[1:]).astype(exponents.dtype) + 1
    else:
        flat = np.sort(exponents, axis=None)
        first = np.ones(flat.shape, dtype=bool)  # each value's first place
        first[1:] = flat[1:] != flat[:-1]
        powers = flat[first & (flat > 0)]
    factors = [f"x{s + 1}" + (f"^{e}" if e > 1 else "") for s in range(m) for e in powers.tolist()]
    pool = ["", " + ", *map(str, values.tolist()), *factors, *["*" + f for f in factors]]
    # a row per term: its separator, its coefficient, a factor per variable
    slots = np.ones((terms, m + 2), dtype=np.min_scalar_type(len(pool) - 1))
    slots[starts[:-1][counts > 0], 0] = 0
    bare = (coeffs == 1) & (degrees[order] > 0)
    slots[:, 1] = np.where(bare, 0, 2 + which)
    starred = ~bare  # whether the next factor follows a piece of its term
    for s in range(m):
        column = exponents[:, s]
        used = column > 0
        # in intp, from searchsorted, which holds every slot: a Python int
        # added to narrow exponents could overflow them
        factor = 2 + len(values) + s * len(powers) + np.searchsorted(powers, column)
        slots[:, 2 + s] = np.where(used, factor + starred * len(factors), 0)
        starred |= used
    filled = slots != 0
    ends = np.zeros(terms + 1, dtype=np.int64)  # of each term's pieces
    np.cumsum(filled.sum(axis=1), out=ends[1:])
    pieces = map(pool.__getitem__, slots[filled].tolist())
    return ["".join(itertools.islice(pieces, size)) or "0"
            for size in np.diff(ends[starts]).tolist()]


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
