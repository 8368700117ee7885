"""Boxes of exponent tuples and their shadow combinatorics.

The box for dims (d1, ..., dm) is {0..d1-1} x ... x {0..dm-1}, with
d1 <= ... <= dm.  Lexicographic comparisons treat the leftmost coordinate
as most significant, so decreasing lex order coincides with decreasing
order of the mixed-radix value

    value(a) = sum_i a_i * prod(dims[i+1:])

and the 1-based rank of a in that order is r = n - value(a).  Decreasing
lex order is the one order of the library: the generator's rows, lex
segments and every box list follow it.

The closed forms never walk the box.  rth_of_deg_le unranks a degree
band digit by digit in O(m * d_m) exact integer steps from one table per
shape, the suffix level counts of dims[i:] cumulated over degrees
(_suffix_counts).  It is the one unrank (at d = k it ranks the whole
box): min_shadow_size, hence the single GHW d_r, reads its r-th tuple.
values_deg_ge is the one band listing: the tuples of degree >= u in
increasing lex order, as values, all K of them or the first r, in
O(K * m * d_m) or O(r * m * d_m) without touching the others.
Hierarchies are whole bands; lex_segment_digits is a cut band read
through t -> top - t, and checks that it ends on rth_of_deg_le's r-th
tuple.  lex_segment lists the same tuples as Python tuples.

The shadow of a subset S is every box tuple that dominates some element
of S coordinatewise (divides, which hilbert's monomial ideals share).
Shadows and all_tuples are plain scans of the box, and tuples_deg_le
walks it by prefixes of degree <= u.  They are the oracle side:
brute_min_shadow, hilbert_fn, generator matrices and the tests use them,
and no closed form does.
all_tuples yields the box lazily, and tuples_deg_le and shadow hold only
the tuples they keep, so a brute_min_shadow that its budget refuses takes
at most O(n) time but never holds the box.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvariantError

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class GridShape:
    """Ascending dimension vector (d1, ..., dm) of an exponent box."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("at least one dimension required")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be >= 1, got {dims}")
        if any(a > b for a, b in zip(dims, dims[1:])):
            raise ValueError(f"dimensions must be ascending, got {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def parse(cls, text: str) -> GridShape:
        """Parse "d1xd2x...xdm", e.g. "2x3x3"."""
        try:
            dims = tuple(int(part) for part in text.strip().split("x"))
        except ValueError:
            raise ValueError(f"bad grid spec {text!r}, expected d1xd2x...xdm") from None
        return cls(dims)

    def __str__(self):
        return "x".join(str(d) for d in self.dims)

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @property
    def k(self) -> int:
        return sum(d - 1 for d in self.dims)

    @property
    def place_values(self) -> tuple:
        """(prod dims[i+1:] for each i); leftmost coordinate weighs most."""
        pv = []
        acc = 1
        for d in reversed(self.dims):
            pv.append(acc)
            acc *= d
        return tuple(reversed(pv))

    def contains(self, t) -> bool:
        return len(t) == self.m and all(0 <= x < d for x, d in zip(t, self.dims))


def parse_tuple(text: str) -> tuple:
    """Parse a comma-joined exponent tuple, e.g. "1,2"."""
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise ValueError(f"bad tuple {text!r}, expected comma-joined integers") from None


def _check_deg(shape, u):
    if not 0 <= u <= shape.k:
        raise ValueError(f"degree {u} outside [0, {shape.k}] for {shape}")


def all_tuples(shape: GridShape):
    """An iterator over every box tuple in decreasing lex order."""
    return itertools.product(*(range(d - 1, -1, -1) for d in shape.dims))


def tuples_deg_le(shape: GridShape, u: int) -> list:
    """Every box tuple of degree <= u, in decreasing lex order.

    The box is walked one coordinate at a time, keeping only the prefixes
    of degree <= u, so a band that is a small share of its box, such as
    hilbert_fn's cube, costs its prefixes and not the box.
    """
    _check_deg(shape, u)
    prefixes = [()]
    for d in shape.dims:
        # the next digits, largest first, from the prefix's budget u - sum(t) down
        singles = [(x,) for x in range(d - 1, -1, -1)]
        prefixes = [t + s for t in prefixes for s in singles[max(0, d - 1 - u + sum(t)):]]
    return prefixes


def _convolve_side(counts: tuple, d: int) -> tuple:
    """Level counts after prepending a coordinate of range 0..d-1.

    out[t] = counts[t] + ... + counts[t-d+1], kept as a sliding window.
    """
    padded = counts + (0,) * (d - 1)
    out = []
    window = 0
    for t, c in enumerate(padded):
        window += c
        if t >= d:
            window -= padded[t - d]
        out.append(window)
    return tuple(out)


@functools.lru_cache(maxsize=128)
def _suffix_counts(shape: GridShape) -> tuple:
    """le[i][t]: number of tuples of dims[i:] of degree <= t, t = 0..k_i.

    k_i is the suffix's maximum degree; le[m] == (1,) for the empty suffix.
    Above k_i every count is the suffix's full size, le[i][-1].
    """
    levels = (1,)
    table = [levels]
    for d in reversed(shape.dims):
        levels = _convolve_side(levels, d)
        table.append(tuple(itertools.accumulate(levels)))
    return tuple(reversed(table))


def count_deg_le(shape: GridShape, u: int) -> int:
    _check_deg(shape, u)
    return _suffix_counts(shape)[0][u]


def count_deg_ge(shape: GridShape, u: int) -> int:
    _check_deg(shape, u)
    return shape.n - (_suffix_counts(shape)[0][u - 1] if u else 0)


def mixed_radix_value(shape: GridShape, t) -> int:
    """Order-preserving integer form sum(t_i * place_value_i)."""
    return sum(x * pv for x, pv in zip(t, shape.place_values))


def _check_rank_le(shape, d, r):
    count = count_deg_le(shape, d)
    if not 1 <= r <= count:
        raise ValueError(f"rank {r} outside [1, {count}] for degree <= {d}")


def rth_of_deg_le(shape: GridShape, d: int, r: int) -> tuple:
    """The r-th tuple of degree <= d in decreasing lex order, in O(m * d_m).

    Picks digits left to right.  With budget b left at coordinate i, the
    candidate x (largest first) heads le[i+1][b - x] tuples of the band,
    so x is skipped while r exceeds that count.
    """
    _check_rank_le(shape, d, r)
    le = _suffix_counts(shape)
    digits = []
    budget = d
    for dim, tail in zip(shape.dims, le[1:]):
        for x in range(min(dim - 1, budget), -1, -1):
            heads = tail[min(budget - x, len(tail) - 1)]
            if r <= heads:
                break
            r -= heads
        digits.append(x)
        budget -= x
    return tuple(digits)


def values_deg_ge(shape: GridShape, u: int, r=None) -> np.ndarray:
    """Mixed-radix values of the tuples of degree >= u, ascending; the first r.

    Expands one coordinate at a time and keeps only the prefixes whose
    degree plus the rest's maximum degree still reaches u, at most r of
    them.  Every kept prefix has a completion, so no level holds more
    prefixes than the listing has values (K): work is O(K * m * d_m) and
    memory O(K * d_m), never O(n).  Each new digit is the least significant,
    so values stay sorted and the first r descend from the first r prefixes.
    The values are of the narrowest signed type that holds n itself, the
    largest weight a caller makes of them, else of dtype object of exact
    ints; the degrees are of the narrowest that holds k and are compared
    against u minus the rest's maximum degree.
    """
    _check_deg(shape, u)
    # min_scalar_type(-t - 1) is the narrowest signed type that holds t
    dtype = np.min_scalar_type(-shape.n - 1)
    values = np.zeros(1, dtype=dtype)
    degrees = np.zeros(1, dtype=np.min_scalar_type(-shape.k - 1))
    rest = shape.k
    for dim in shape.dims:
        rest -= dim - 1
        digits = np.arange(dim, dtype=degrees.dtype)
        degrees = (degrees[:, None] + digits).ravel()
        values = (values[:, None] * dim + digits.astype(dtype)).ravel()
        keep = degrees >= u - rest
        degrees, values = degrees[keep][:r], values[keep][:r]
    return values


def lex_segment_digits(shape: GridShape, d: int, r: int) -> np.ndarray:
    """First r tuples of degree <= d in decreasing lex order, as r x m digits.

    They are top - t for the first r tuples t of degree >= k - d, ascending,
    as values_deg_ge lists them; the last must be rth_of_deg_le's r-th.
    The values are decoded one coordinate at a time, least significant
    first, into digits of the narrowest unsigned type that holds
    dims[-1] - 1, so no r x m array of the values' type is made.
    """
    _check_rank_le(shape, d, r)
    values = values_deg_ge(shape, shape.k - d, r)
    digits = np.empty((len(values), shape.m), dtype=np.min_scalar_type(shape.dims[-1] - 1))
    for i in reversed(range(shape.m)):
        quotient = values // shape.dims[i]
        # dims[i] - 1 minus the digit values - quotient * dims[i]
        digits[:, i] = quotient * shape.dims[i] + (shape.dims[i] - 1) - values
        values = quotient
    if len(digits) != r or tuple(digits[-1].tolist()) != rth_of_deg_le(shape, d, r):
        raise InvariantError(f"lex segment of {len(digits)} tuples does not end "
                             f"on the {r}-th tuple of degree <= {d}")
    return digits


def lex_segment(shape: GridShape, d: int, r: int) -> list:
    """lex_segment_digits as a list of tuples of ints."""
    return list(map(tuple, lex_segment_digits(shape, d, r).tolist()))


def divides(a, b) -> bool:
    """Whether x^a divides x^b, i.e. a <= b coordinatewise."""
    return all(x <= y for x, y in zip(a, b))


def shadow(shape: GridShape, pts) -> set:
    """All box tuples dominating some element of pts coordinatewise."""
    pts = set(pts)
    for s in pts:
        if not shape.contains(s):
            raise ValueError(f"{s} outside box {shape}")
    if not pts:
        return set()
    return {t for t in all_tuples(shape) if any(divides(s, t) for s in pts)}


def min_shadow_size(shape: GridShape, v: int, r: int) -> int:
    """Shadow size of the first r tuples of degree <= v (the minimizer).

    The shadow of that segment is exactly the set of tuples lex-above its
    last element a_r, so its size is the rank of a_r within the
    whole box: n - sum(a_{r,i} * place_value_i).
    """
    a = rth_of_deg_le(shape, v, r)
    return shape.n - mixed_radix_value(shape, a)


def brute_min_shadow(shape: GridShape, v: int, r: int,
                     budget: int = DEFAULT_BUDGET) -> int:
    """Minimum shadow size over every r-subset of degree <= v (oracle).

    The pool is listed by tuples_deg_le before its subsets are counted
    against the budget: counting it without the listing would need
    count_deg_le, a closed form no oracle may call.
    """
    pool = tuples_deg_le(shape, v)
    if not 1 <= r <= len(pool):
        raise ValueError(f"rank {r} outside [1, {len(pool)}] for degree <= {v}")
    if math.comb(len(pool), r) > budget:
        raise BudgetExceededError(
            f"{math.comb(len(pool), r)} subsets exceed budget {budget}")
    return min(len(shadow(shape, subset))
               for subset in itertools.combinations(pool, r))
