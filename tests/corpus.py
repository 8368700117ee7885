"""Shared corpus of code specs for the oracle-equivalence sweeps.

Grids are crossed with the fields of order 2, 3, 4 (plus order 5, which
is the only listed order that can host the (5,) grid).  Infeasible
pairs, where some set would need more distinct elements than the field
has, are skipped.  Every feasible pair contributes two set variants:

    prefix  the first d_i field elements, in canonical order
    offset  the last d_i field elements (the reversed field when d_i = q)

and every admissible degree 1..k.

evaluate is the tests' pointwise reference for a polynomial given as its
terms, a dict from exponent tuples to codes, built on Field.add, Field.mul
and Field.pow alone.  exactly turns an error message into a pytest.raises
pattern that matches only that message.
"""

import re

from ccodes.codes import CartesianCodeSpec
from ccodes.gf import field_create

GRIDS = [(2,), (3,), (5,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]

FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(5)]


def variant_sets(field, dims, variant):
    els = list(range(field.q))
    sets = []
    for d in dims:
        if variant == "prefix":
            sets.append(els[:d])
        elif d == field.q:
            sets.append(list(reversed(els)))
        else:
            sets.append(els[field.q - d:])
    return sets


def corpus_specs():
    """All (label, spec) pairs of the corpus, in a fixed order."""
    out = []
    for dims in GRIDS:
        fields = [f for f in FIELDS[:3] if f.q >= max(dims)]
        if not fields:
            fields = [f for f in FIELDS if f.q >= max(dims)]
        k = sum(d - 1 for d in dims)
        for field in fields:
            for variant in ("prefix", "offset"):
                sets = variant_sets(field, dims, variant)
                for d in range(1, k + 1):
                    label = "q{}-{}-{}-d{}".format(
                        field.q, "x".join(map(str, dims)), variant, d)
                    out.append((label, CartesianCodeSpec(field, sets, d)))
    return out


def evaluate(field, terms, point):
    """Code of the value of terms at a point given as a sequence of codes."""
    total = 0
    for mono, coeff in terms.items():
        value = coeff
        for x, e in zip(point, mono, strict=True):
            value = field.mul(value, field.pow(x, e))
        total = field.add(total, value)
    return total


def exactly(message):
    """A match pattern for pytest.raises that accepts only this message."""
    return f"^{re.escape(message)}$"
