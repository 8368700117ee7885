"""Closed forms against exhaustive oracles, as one report.

The oracles decide whether they fit the budget; a check whose oracle
raises BudgetExceededError is skipped, with the message as its reason.
The GHWs checked are the hierarchy that `ccodes hierarchy` prints (one
values_deg_ge listing): against the subspace oracle, and against n minus
max_common_zeros, which unranks each rank with rth_of_deg_le instead.
The minimum distance checked is d_1 of that hierarchy, against the
codeword oracle, the one oracle that covers codes longer than 64.
The extremal family is checked in its expanded form: the codes of its
terms dicts times the evaluations of their monomials, in one matmul.
Library calls go through the `codes` module, so patches there apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codes
from .errors import BudgetExceededError
from .grid import DEFAULT_BUDGET


@dataclass(frozen=True)
class VerifyReport:
    """checks holds (name, closed, oracle) and skipped (name, reason) tuples."""

    checks: tuple
    skipped: tuple

    @property
    def ok(self) -> bool:
        return all(closed == oracle for _, closed, oracle in self.checks)


def verify(spec: codes.CartesianCodeSpec, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check every closed form of spec against its oracle within budget."""
    checks, skipped = [], []

    def against_oracle(name, closed, oracle, *args):
        try:
            checks.append((name, closed, oracle(*args, budget=budget)))
        except BudgetExceededError as exc:
            skipped.append((name, str(exc)))

    K, n = spec.dimension, spec.n
    ranks = range(1, K + 1)
    code = codes.generator_matrix(spec)
    ghw = codes.hierarchy(spec)
    zeros = [codes.max_common_zeros(spec, r) for r in ranks]
    for r in ranks:
        against_oracle(f"ghw r={r}", ghw[r - 1], codes.brute_ghw, code, r)
    checks += [(f"ghw+zeros r={r}", ghw[r - 1], n - zeros[r - 1]) for r in ranks]
    against_oracle("min_distance", ghw[0], codes.brute_min_weight, code)

    # extremal families, evaluated from their expanded terms, attain the
    # closed-form zero counts
    family = codes.extremal_polynomials(spec, K)
    monos = sorted({mono for terms in family for mono in terms})
    coeffs = [[terms.get(mono, 0) for mono in monos] for terms in family]
    evals = codes.matmul(coeffs, codes.monomial_evaluations(spec.field, spec.sets, monos),
                         spec.field)
    common = np.logical_and.accumulate(evals == 0, axis=0).sum(axis=1)
    checks += [(f"extremal zeros r={r}", zeros[r - 1], int(common[r - 1])) for r in ranks]
    checks.append(("extremal rank", K, codes.rank(evals, spec.field)))

    dual = codes.dual_code(spec)
    checks.append(("dual dimension", n - K, dual.dimension))
    if dual.dimension:
        product = codes.matmul(code.matrix, dual.matrix.T, spec.field)
        checks.append(("orthogonality", 0, int(product.max())))
        dh = codes.dual_hierarchy(spec)
        for r in range(1, dual.dimension + 1):
            against_oracle(f"dual ghw r={r}", dh[r - 1], codes.brute_ghw, dual, r)
        checks.append(("wei duality", True, codes.wei_duality_check(spec)))
    return VerifyReport(tuple(checks), tuple(skipped))
