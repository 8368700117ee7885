"""Acceptance sweep: every closed form against an independent oracle.

Each test prints one PASS line (visible with pytest -s); a failed
assertion is the corresponding FAIL.  Criteria 1-5 read the checks of
one `verify` report per corpus spec, run with an oracle budget of 10^6
subspaces or codewords per instance; the report skips instances above it.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from ccodes import verify
from ccodes.codes import (
    dual_hierarchy,
    hierarchy,
    matmul,
    max_common_zeros,
    monomial_evaluations,
    spec_from_parts,
)
from ccodes.gf import field_create
from ccodes.grid import (
    GridShape,
    all_tuples,
    brute_min_shadow,
    count_deg_le,
    min_shadow_size,
    mixed_radix_value,
    rth_of_deg_le,
    shadow,
    tuples_deg_le,
)
from ccodes.hilbert import (
    box_ideal,
    footprint_upper_bound,
    graded_lex_key,
    hilbert_fn,
)

from corpus import corpus_specs

ORACLE_BUDGET = 10 ** 6

HARNESS_SHAPES = [GridShape(d) for d in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]]


def _report(num, name, details):
    print(f"ACCEPTANCE {num} ({name}): PASS ({details})")


@pytest.fixture(scope="module")
def sweep():
    """(label, spec, verify report) per corpus spec, and the sweep's seconds."""
    start = time.monotonic()
    reports = [(label, spec, verify(spec, budget=ORACLE_BUDGET))
               for label, spec in corpus_specs()]
    return reports, time.monotonic() - start


def _agreeing(label, report, prefix):
    """The report's checks whose name starts with prefix, asserted to agree."""
    checks = [c for c in report.checks if c[0].startswith(prefix)]
    for name, closed, oracle in checks:
        assert closed == oracle, f"{label} {name}: closed {closed} vs oracle {oracle}"
    return checks


def test_criterion_1_ghw_closed_form_vs_subspace_oracle(sweep):
    reports, elapsed = sweep
    checked = skipped = 0
    for label, _, report in reports:
        _agreeing(label, report, "ghw+zeros r=")
        checked += len(_agreeing(label, report, "ghw r="))
        skipped += sum(name.startswith("ghw r=") for name, _ in report.skipped)
    # coverage floors: they may tighten as the oracles grow, never loosen
    assert checked >= 312 and skipped <= 64, (checked, skipped)
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s, over the 5 minute cap"
    _report(1, "ghw closed form vs subspace oracle",
            f"{checked} ranks checked, {skipped} over budget, {elapsed:.1f}s")


def test_criterion_2_extremal_families_attain_maximum(sweep):
    checked = 0
    for label, spec, report in sweep[0]:
        # the zero counts of every prefix, and the rank of the whole family,
        # which is full only if every prefix's rank is too
        checks = _agreeing(label, report, "extremal ")
        assert len(checks) == spec.dimension + 1, label
        checked += spec.dimension
    _report(2, "extremal polynomial families", f"{checked} family prefixes checked")


def test_criterion_3_min_distance_vs_codeword_sweep(sweep):
    checked = 0
    for label, spec, report in sweep[0]:
        (check,) = _agreeing(label, report, "min_distance")
        assert check[1] == hierarchy(spec)[0], label
        checked += 1
    _report(3, "minimum distance vs codeword sweep", f"{checked} specs checked")


def test_criterion_4_duality(sweep):
    checked = oracle_ranks = 0
    for label, spec, report in sweep[0]:
        ((_, _, dimension),) = _agreeing(label, report, "dual dimension")
        if dimension == 0:
            continue
        assert len(dual_hierarchy(spec)) == dimension, label
        assert _agreeing(label, report, "orthogonality"), f"{label}: dual not orthogonal"
        oracle_ranks += len(_agreeing(label, report, "dual ghw r="))
        checked += 1
    assert oracle_ranks >= 108, oracle_ranks  # a floor, like criterion 1's
    _report(4, "dual code identities",
            f"{checked} duals orthogonal, {oracle_ranks} dual ranks vs oracle")


def test_criterion_5_wei_duality_partition(sweep):
    checked = 0
    for label, spec, report in sweep[0]:
        if spec.d <= spec.k - 1:
            assert _agreeing(label, report, "wei duality"), label
        else:
            assert hierarchy(spec) == tuple(range(1, spec.n + 1)), label
        checked += 1
    _report(5, "wei duality partition", f"{checked} specs checked")


def test_criterion_6_shadow_compression_powerset():
    # Clements-Lindstrom: for S in level u, the level-(u+1) shadow of the
    # first |S| tuples of level u lies among the first |level-(u+1) shadow
    # of S| tuples of level u+1 (levels in decreasing lex order)
    checked = 0
    for shape in HARNESS_SHAPES:
        box = list(all_tuples(shape))
        for u in range(shape.k):
            level, upper = ([t for t in box if sum(t) == v] for v in (u, u + 1))
            assert len(level) <= 12
            for size in range(len(level) + 1):
                compressed = shadow(shape, level[:size]).intersection(upper)
                for subset in itertools.combinations(level, size):
                    grown = shadow(shape, subset).intersection(upper)
                    assert compressed <= set(upper[:len(grown)]), (shape, u, subset)
                    checked += 1
    _report(6, "shadow compression", f"{checked} subsets, zero counterexamples")


def test_criterion_7_minimal_shadows_vs_subset_exhaustion():
    checked = 0
    for shape in HARNESS_SHAPES:
        for v in range(shape.k + 1):
            for r in range(1, min(4, count_deg_le(shape, v)) + 1):
                closed = min_shadow_size(shape, v, r)
                oracle = brute_min_shadow(shape, v, r)
                assert closed == oracle, (shape, v, r, closed, oracle)
                checked += 1
    _report(7, "minimal shadow vs subset exhaustion", f"{checked} instances")


def test_criterion_8_footprint_bound_random_tuples():
    tuples_per_spec = 1000
    checked = 0
    consistency = 0
    for index, (label, spec) in enumerate(corpus_specs()):
        rng = random.Random(0xC0DE5 + index)
        shape = spec.shape
        monos = sorted(tuples_deg_le(shape, spec.d),
                       key=graded_lex_key, reverse=True)
        K = len(monos)
        rows = monomial_evaluations(spec.field, spec.sets, monos)
        q = spec.field.q
        coeff_blocks = []
        lead_sets = []
        for _ in range(tuples_per_spec):
            r = rng.randint(1, min(3, K))
            lead = sorted(rng.sample(range(K), r))
            block = np.zeros((r, K), dtype=spec.field.int_dtype)
            for bi, li in enumerate(lead):
                block[bi, li] = rng.randint(1, q - 1)
                for j in range(li + 1, K):
                    block[bi, j] = rng.randint(0, q - 1)
            coeff_blocks.append(block)
            lead_sets.append(tuple(monos[i] for i in lead))
        evals = matmul(np.vstack(coeff_blocks), rows, spec.field)
        bounds = {}
        offset = 0
        for block, lts in zip(coeff_blocks, lead_sets):
            r = block.shape[0]
            zeros = int(np.all(evals[offset:offset + r] == 0, axis=0).sum())
            offset += r
            if lts not in bounds:
                bound = footprint_upper_bound(shape, lts)
                assert bound == hilbert_fn(box_ideal(shape, lts), shape.k), (label, lts)
                bounds[lts] = bound
                consistency += 1
            assert zeros <= bounds[lts], (label, lts, zeros, bounds[lts])
            checked += 1
        # spot-check that the sampled coefficient layout pins the leading term
        sample = coeff_blocks[0]
        terms = {monos[j]: int(sample[0, j]) for j in range(K) if sample[0, j]}
        assert max(terms, key=graded_lex_key) == lead_sets[0][0]
    assert checked >= 1000 * len(corpus_specs())
    _report(8, "footprint bound on random tuples",
            f"{checked} tuples, {consistency} bound/Hilbert agreements, no violations")


def test_criterion_9_rank_unrank_bijection():
    shapes = [GridShape(dims) for m in (1, 2, 3)
              for dims in itertools.combinations_with_replacement(range(1, 7), m)]
    shapes += [GridShape(d) for d in [(2, 3, 5, 7), (10, 10), (2, 2, 2, 2, 2, 2),
                                      (1000,), (4, 4, 4, 4), (1, 1, 4)]]
    shapes = [s for s in shapes if s.n <= 1000]
    checked = 0
    for shape in shapes:
        expected = sorted(itertools.product(*(range(d) for d in shape.dims)),
                          reverse=True)
        for r, t in enumerate(expected, start=1):
            assert rth_of_deg_le(shape, shape.k, r) == t, (shape, r)
            assert shape.n - mixed_radix_value(shape, t) == r, (shape, t)
        checked += shape.n
    _report(9, "rank/unrank bijection", f"{len(shapes)} shapes, {checked} ranks")


def test_criterion_10_reed_muller_specialization():
    checked = 0
    for q in (2, 3):
        field = field_create(q)
        sets_text = ",".join(str(i) for i in range(q))
        for m in (1, 2, 3):
            k = m * (q - 1)
            for d in range(1, k + 1):
                spec = spec_from_parts(f"{q}^1", ";".join([sets_text] * m), d)
                box = itertools.product(range(q), repeat=m)
                ascending = sorted(a for a in box if sum(a) >= k - d)
                expected = tuple(1 + sum(a[i] * q ** (m - 1 - i) for i in range(m))
                                 for a in ascending)
                assert hierarchy(spec) == expected, (q, m, d)
                checked += 1
    # binary RM(d, m) up to m = 30 (n = 2^30), never building the box
    large = 0
    for m, degrees in ((8, range(1, 8)), (16, (1, 4, 8)), (20, (2, 3)), (30, (1, 2, 3))):
        n = 2 ** m
        for d in degrees:
            spec = spec_from_parts("2^1", ";".join(["0,1"] * m), d)
            h = hierarchy(spec)
            K = sum(math.comb(m, i) for i in range(d + 1))
            assert len(h) == K, (m, d)
            assert h[0] == 2 ** (m - d) and h[-1] == n, (m, d)
            assert all(a < b for a, b in zip(h, h[1:])), (m, d)
            for r in {1, 2, K // 3, K // 2, K - 1, K}:
                assert min_shadow_size(spec.shape, spec.d, r) == h[r - 1], (m, d, r)
                assert max_common_zeros(spec, r) == n - h[r - 1], (m, d, r)
            large += 1
    _report(10, "reed-muller specialization",
            f"{checked} (q, m, d) triples, {large} binary RM(d, m) with m <= 30")
